"""Real touching conics inside the invariant planes.

On the plane y0 = lam*y1 the surface cuts the curve

    (y2*y3 + (Q - sqrt(f)) y1^2) * (y2*y3 + (Q + sqrt(f)) y1^2) = 0,

a union of two branch conics.  This module builds the three explicit families
of real conics touching that curve, certifies the contact structure by
restricting to each branch, and certifies emptiness of the real locus.

Plane coordinates are ordered (y1, y2, y3); the real structure acts by
(y1 : y2 : y3) -> (conj y1 : conj y3 : conj y2).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConicError,
    DegeneratePlaneError,
    DomainError,
    InputError,
    PreconditionError,
)
from .poly import evaluate, square_root_roots
from .surface import SurfaceParams, disc_value, f_value, q_value, s_minus_q, sqrt_disc

_SWAP23 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)

# Columns map (t, u, v) to the real-slice point (t, u + iv, u - iv).
_REAL_SLICE = np.array([[1, 0, 0], [0, 1, 1j], [0, 1, -1j]])

# Relative size (about 4500 ulps) below which a difference of branch factors
# or a conic determinant counts as zero.
REL_EPS = 1e-12

# Share of m00 below which the x1^2 coefficient m00 - 2 g m12 of a branch
# restriction has cancelled past the precision the square tests read: it
# keeps fewer than ten digits, and its rounding error passes a tenth of
# their 1e-9 equality tolerance.  Both families reach it far out,
# where sqrt|f| is small beside Q and the share falls like |lam|^(-1/2).
CANCELLATION_FLOOR = 1e-6


class ConicType(enum.Enum):
    GENERIC = "Generic"
    SPECIAL = "Special"
    ORBIT = "Orbit"
    NOT_TOUCHING = "NotTouching"
    CONTAINED_IN_B = "ContainedInB"
    LINE_IMAGE = "Line-image"


@dataclass(frozen=True)
class ConicCoeffs:
    """Symmetric 3x3 complex coefficient matrix, scaled so the entry of
    largest modulus has modulus one."""

    m: np.ndarray

    @staticmethod
    def from_matrix(m: np.ndarray) -> "ConicCoeffs":
        m = np.asarray(m, dtype=complex)
        if m.shape != (3, 3):
            raise InputError("conic matrix must be 3x3")
        rows = m.tolist()
        try:
            top = max(abs(z) for row in rows for z in row)
            symmetric = _symmetric(rows, 1e-12 * (1.0 + top))
        except OverflowError:
            raise InputError("conic matrix entries exceed the float range") from None
        if not symmetric:
            raise InputError("conic matrix must be symmetric")
        if top == 0.0:
            raise InputError("zero matrix is not a conic")
        return ConicCoeffs(m / top)

    def det(self) -> complex:
        return complex(np.linalg.det(self.m))

    def is_real(self, tol: float = 1e-9) -> bool:
        """Invariance of the zero set under the plane real structure.

        Conjugating and swapping the last two coordinates must reproduce the
        matrix up to a unimodular scalar.
        """
        ms = _SWAP23 @ np.conj(self.m) @ _SWAP23
        i, j = np.unravel_index(np.argmax(np.abs(self.m)), (3, 3))
        c = ms[i, j] / self.m[i, j]
        return bool(
            abs(abs(c) - 1.0) <= tol and np.abs(ms - c * self.m).max() <= tol * np.abs(self.m).max()
        )

    def reality_factor(self) -> complex:
        ms = _SWAP23 @ np.conj(self.m) @ _SWAP23
        i, j = np.unravel_index(np.argmax(np.abs(self.m)), (3, 3))
        return complex(ms[i, j] / self.m[i, j])


def _isclose(x: complex, y: complex, atol: float) -> bool:
    """numpy.isclose(x, y, rtol=1e-5, atol=atol) on Python numbers."""
    return x == y or (abs(x - y) <= atol + 1e-5 * abs(y) and cmath.isfinite(y))


def _symmetric(rows, atol: float) -> bool:
    """numpy.allclose(m, m.T, atol=atol) on the nested rows of m: each
    off-diagonal pair close in both orders, and no NaN on the diagonal."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        x, y = rows[i][j], rows[j][i]
        if not (_isclose(x, y, atol) and _isclose(y, x, atol)):
            return False
    return all(rows[k][k] == rows[k][k] for k in range(3))


@dataclass(frozen=True)
class BranchRecord:
    """Contact data of the conic against one branch of the plane curve.

    restriction     ascending complex coefficients of the substituted
                    polynomial, scaled to max modulus 1
    contacts        (location, multiplicity) pairs; location is the affine
                    y1/y3 value, or the labels 'Pinf' / 'PinfBar'
    residual        max |restriction| over the finite contacts
    """

    branch: str
    restriction: tuple[complex, ...]
    contacts: tuple[tuple[object, int], ...]
    residual: float


@dataclass(frozen=True)
class TangencyReport:
    kind: ConicType
    branches: tuple[BranchRecord, ...]
    pinf_contact: int
    pinfbar_contact: int
    detail: str = ""


@dataclass(frozen=True)
class LinfIntersections:
    """Radii and base intersection points of the generic family on the fixed
    line y0 = y1 = 0, in the affine coordinate y2/y3."""

    h0: float
    h0_inv: float
    x2_outer: float
    x2_inner: float

    def points(self, theta: float) -> tuple[complex, complex]:
        rot = cmath.exp(-1j * theta)
        return self.x2_outer * rot, self.x2_inner * rot


# ---------------------------------------------------------------------------
# constructors


def branch_factors(params: SurfaceParams, lam: float) -> tuple[complex, complex]:
    """(g_minus, g_plus) = (Q - sqrt(f), Q + sqrt(f)).

    Real for f > 0, a conjugate pair for f < 0.  For f > 0 the factor of
    smaller modulus is taken as (Q^2 - f) / (the larger one): near the
    double-root plane Q - sqrt(f) cancels to a few digits, and the contact
    test needs the restriction's coefficients to full relative precision.
    Raises when the two factors coincide, i.e. on the double-root plane.
    """
    q = q_value(params, lam)
    f = f_value(params, lam)
    d = q * q - f
    if abs(d) <= REL_EPS * (1.0 + q * q + abs(f)):
        raise DegeneratePlaneError(f"branch factors coincide at lam={lam} (Q^2 - f = {d:.3e})")
    if f > 0.0:
        big = q + math.copysign(math.sqrt(f), q)
        small = d / big
        return (complex(small), complex(big)) if q >= 0.0 else (complex(big), complex(small))
    root = cmath.sqrt(complex(f))
    return q - root, q + root


def generic_conic(params: SurfaceParams, lam: float, theta: float) -> ConicCoeffs:
    """Member of the circle family avoiding both fixed points:

        2 (Q^2 - f) y1^2 + sqrt(f) e^{i t} y2^2 + 2 Q y2 y3 + sqrt(f) e^{-i t} y3^2.
    """
    f = f_value(params, lam)
    if f <= 0.0:
        raise DomainError(f"no generic family at lam={lam}: f = {f:.3e} <= 0")
    d = disc_value(params, lam)
    if d <= REL_EPS * (1.0 + q_value(params, lam) ** 2 + abs(f)):
        raise DomainError(f"no generic family at lam={lam}: Q^2 - f = {d:.3e} vanishes")
    sf = math.sqrt(f)
    q = q_value(params, lam)
    rot = cmath.exp(1j * theta)
    m = np.array(
        [
            [2.0 * d, 0.0, 0.0],
            [0.0, sf * rot, q],
            [0.0, q, sf / rot],
        ],
        dtype=complex,
    )
    return ConicCoeffs.from_matrix(m)


def special_conic(params: SurfaceParams, lam: float, theta: float) -> ConicCoeffs:
    """Member of the circle family through both fixed points:

        sqrt(Q^2 - f) y1^2 + B e^{i t} y1 y2 + B e^{-i t} y1 y3 + y2 y3,

    with B = sqrt((sqrt(Q^2 - f) - Q) / 2); all square roots positive.
    """
    f = f_value(params, lam)
    if f >= 0.0:
        raise DomainError(f"no special family at lam={lam}: f = {f:.3e} >= 0")
    s = sqrt_disc(params, lam)
    bcoef = math.sqrt(0.5 * s_minus_q(params, lam))
    rot = cmath.exp(1j * theta)
    m = np.array(
        [
            [s, 0.5 * bcoef * rot, 0.5 * bcoef / rot],
            [0.5 * bcoef * rot, 0.0, 0.5],
            [0.5 * bcoef / rot, 0.5, 0.0],
        ],
        dtype=complex,
    )
    return ConicCoeffs.from_matrix(m)


def orbit_conic(alpha: float) -> ConicCoeffs:
    """The orbit-closure conic y2 y3 = alpha y1^2."""
    if alpha == 0.0:
        raise DomainError("alpha = 0 gives a line pair, not a conic")
    m = np.array(
        [
            [-alpha, 0.0, 0.0],
            [0.0, 0.0, 0.5],
            [0.0, 0.5, 0.0],
        ],
        dtype=complex,
    )
    return ConicCoeffs.from_matrix(m)


def _orbit_alpha(rows) -> float | None:
    """Recover alpha if the conic (nested rows of its matrix) has the orbit
    shape, else None.  orbit_conic writes literal zeros and from_matrix
    scales by a positive real, so the shape and the reality of alpha are
    read exactly."""
    if rows[0][1] != 0 or rows[0][2] != 0 or rows[1][1] != 0 or rows[2][2] != 0 or rows[1][2] == 0:
        return None
    ratio = -rows[0][0] / (2.0 * rows[1][2])
    if ratio.imag != 0:
        return None
    return ratio.real


# ---------------------------------------------------------------------------
# tangency certification


def _restriction(rows, g: complex) -> tuple[complex, ...]:
    """Substitute the branch x2 = -g x1^2 into the conic, given by the nested
    rows of its matrix, in the chart x1 = y1/y3, x2 = y2/y3; ascending
    coefficients, degree 4."""
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = rows
    return (m22, 2.0 * m02, m00 - g * (2.0 * m12), -g * (2.0 * m01), m11 * g * g)


def _degenerate(rows) -> bool:
    """|det| within REL_EPS of the Hadamard bound, the product of the row
    norms; det by cofactors along the first row."""
    (a, b, c), (d, e, f), (g, h, k) = rows
    det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    bound = 1.0
    for x, y, z in rows:
        bound *= math.hypot(x.real, x.imag, y.real, y.imag, z.real, z.imag)
    return abs(det) <= REL_EPS * bound


def verify_touching(conic: ConicCoeffs, params: SurfaceParams, lam: float) -> TangencyReport:
    """Contact analysis of the conic against the plane section of the surface.

    Substituting each branch x2 = -g x1^2 gives a quartic in the chart
    coordinate x1 = y1/y3.  Its exactly vanishing low coefficients are the
    contact at the first fixed point (x1 = 0), its exactly vanishing top
    coefficients, the degree drop, the contact at the second: the families'
    matrices carry literal zeros there.  Every other contact is even exactly
    when what remains is a constant times a square; its contacts are then
    the roots of the square root, each double.  The type label follows the
    total fixed-point contact (0, 2 or 4).

    A conic is reducible when |det| is within REL_EPS of the Hadamard bound,
    the product of the row norms; for the generic family that ratio is
    (Q^2 - f) / (f + Q^2), which generic_conic keeps above REL_EPS.  A
    restriction whose x1^2 coefficient cancels below CANCELLATION_FLOOR of
    its terms raises DomainError: its square test would read rounding.

    The orbit-shaped conics are certified symbolically: substituting
    y2 y3 = alpha y1^2 leaves ((alpha + Q)^2 - f) y1^4, so containment in the
    surface is the vanishing of that residual.

    All of it runs on the matrix read once as nested Python complex numbers:
    on a 3x3 matrix, numpy scalar arithmetic costs more than the arithmetic.
    """
    rows = conic.m.tolist()
    if _degenerate(rows):
        raise DegenerateConicError(
            f"conic matrix is singular: |det| is at most {REL_EPS:g} times its Hadamard bound, so the conic "
            "cannot be told from a union of lines"
        )
    gm, gp = branch_factors(params, lam)

    alpha = _orbit_alpha(rows)
    if alpha is not None:
        q = q_value(params, lam)
        f = f_value(params, lam)
        resid = (alpha + q) ** 2 - f
        scale = 1.0 + (alpha + q) ** 2 + abs(f)
        records = tuple(
            BranchRecord(
                branch=name,
                restriction=_normalized(_restriction(rows, g)),
                contacts=(("Pinf", 2), ("PinfBar", 2)),
                residual=0.0,
            )
            for name, g in (("g-", gm), ("g+", gp))
        )
        if abs(resid) <= 1e-9 * scale:
            return TangencyReport(ConicType.CONTAINED_IN_B, records, 4, 4, "orbit conic lies on the surface")
        return TangencyReport(ConicType.ORBIT, records, 4, 4, f"orbit residual {resid:.6e}")

    records = []
    pinf_total = 0
    pinfbar_total = 0
    touching = True
    for name, g in (("g-", gm), ("g+", gp)):
        rest = _restriction(rows, g)
        if not any(rest):
            return TangencyReport(
                ConicType.CONTAINED_IN_B,
                tuple(records),
                pinf_total,
                pinfbar_total,
                f"branch {name} restriction vanishes identically",
            )
        # rest[2] = m00 - 2 g m12 cancels only where its two terms are close,
        # so comparing it with |m00| alone finds the same cancellations
        if abs(rest[2]) < CANCELLATION_FLOOR * abs(rows[0][0]):
            raise DomainError(
                f"lost precision at lam={lam!r}: the x1^2 coefficient of the branch {name} restriction keeps "
                f"{abs(rest[2] / rows[0][0]):.1e} of its terms, below {CANCELLATION_FLOOR:g}"
            )
        norm = _normalized(rest)
        nonzero = [k for k, c in enumerate(norm) if c != 0]
        pinf_mult = nonzero[0]
        pinfbar_mult = 4 - nonzero[-1]
        roots = square_root_roots(norm[nonzero[0] : nonzero[-1] + 1])
        if roots is None:
            touching = False
            roots = []
        contacts: list[tuple[object, int]] = [
            (complex(z), 2) for z in sorted(roots, key=lambda z: (z.real, z.imag))
        ]
        residual = max((abs(evaluate(norm, z)) for z in roots), default=0.0)
        if pinf_mult:
            contacts.append(("Pinf", pinf_mult))
        if pinfbar_mult:
            contacts.append(("PinfBar", pinfbar_mult))
        pinf_total += pinf_mult
        pinfbar_total += pinfbar_mult
        records.append(
            BranchRecord(branch=name, restriction=norm, contacts=tuple(contacts), residual=residual)
        )

    if not touching:
        kind = ConicType.NOT_TOUCHING
        detail = "a contact of odd order exists"
    elif pinf_total == 0 and pinfbar_total == 0:
        kind = ConicType.GENERIC
        detail = ""
    elif pinf_total == 2 and pinfbar_total == 2:
        kind = ConicType.SPECIAL
        detail = ""
    elif pinf_total == 4 and pinfbar_total == 4:
        kind = ConicType.ORBIT
        detail = ""
    else:
        kind = ConicType.NOT_TOUCHING
        detail = f"unbalanced fixed-point contact ({pinf_total}, {pinfbar_total})"
    return TangencyReport(kind, tuple(records), pinf_total, pinfbar_total, detail)


def _normalized(coeffs) -> tuple[complex, ...]:
    """Scaled to max modulus 1; all-zero coefficients are kept as they are."""
    top = max(map(abs, coeffs)) or 1.0
    return tuple([c / top for c in coeffs])


# ---------------------------------------------------------------------------
# real-point certificates


def real_slice_gram(conic: ConicCoeffs) -> np.ndarray:
    """The real quadratic form induced on the real slice.

    Points fixed by the real structure can be written (t, z, conj z) with t
    real; after a unimodular rescaling mu of the matrix the restriction of
    the conic form there is a real quadratic form in (t, Re z, Im z).  With P
    the map from (t, Re z, Im z) to the point, its symmetric 3x3 Gram matrix
    is Re(P^T (mu m) P).
    """
    if not conic.is_real(1e-8):
        raise PreconditionError("conic is not invariant under the real structure")
    mu = cmath.exp(0.5j * cmath.phase(conic.reality_factor()))
    return (_REAL_SLICE.T @ (mu * conic.m) @ _REAL_SLICE).real


def min_real_form(conic: ConicCoeffs) -> float:
    """Global minimum of the induced real form over the unit sphere of the
    real slice, i.e. the smallest Gram eigenvalue; strictly positive means
    the conic has no real point."""
    return float(np.linalg.eigvalsh(real_slice_gram(conic))[0])


def generic_positivity_bound(params: SurfaceParams, lam: float) -> float:
    """Closed-form positive lower bound for the generic family's real form.

    From Q > sqrt(f):  form >= (Q^2 - f) t^2 + (Q - sqrt(f)) |y2|^2; the
    smaller coefficient bounds the minimum.  Rescaled by the same factor the
    conic constructor uses, so it is directly comparable to min_real_form.
    """
    f = f_value(params, lam)
    if f <= 0.0:
        raise DomainError("bound applies where f > 0")
    d = disc_value(params, lam)
    q = q_value(params, lam)
    top = max(2.0 * d, math.sqrt(f), q)
    return min(d, q - math.sqrt(f)) / top


def special_positivity_bound(params: SurfaceParams, lam: float) -> float:
    """Closed-form positive lower bound for the special family's real form.

    Completing the square gives form >= (|y2| - B t)^2 + ((s + Q)/2) t^2 with
    s = sqrt(Q^2 - f); the bound is the least eigenvalue of that quadratic in
    (t, |y2|), rescaled like the constructor's matrix."""
    f = f_value(params, lam)
    if f >= 0.0:
        raise DomainError("bound applies where f < 0")
    s = sqrt_disc(params, lam)
    q = q_value(params, lam)
    b2 = 0.5 * s_minus_q(params, lam)
    quad = np.array([[b2 + 0.5 * (s + q), -math.sqrt(b2)], [-math.sqrt(b2), 1.0]])
    top = max(s, 0.5 * math.sqrt(b2), 0.5)
    return float(np.linalg.eigvalsh(quad)[0]) / top


def linf_radii(params: SurfaceParams, lam: float) -> LinfIntersections:
    """Where the generic family meets the fixed line, as radii in y2/y3.

    The two radii are h0 = (Q + sqrt(Q^2 - f)) / sqrt(f) and its reciprocal;
    the intersection points at family angle t sit at x2 = base * e^{-i t}.
    """
    f = f_value(params, lam)
    if f <= 0.0:
        raise DomainError(f"fixed-line radii need f > 0; f({lam}) = {f:.3e}")
    d = disc_value(params, lam)
    if d <= 0.0:
        raise DomainError(f"fixed-line radii undefined on the double-root plane (Q^2 - f = {d:.3e})")
    q = q_value(params, lam)
    s = math.sqrt(d)
    sf = math.sqrt(f)
    h0 = (q + s) / sf
    h0_inv = sf / (q + s)
    return LinfIntersections(
        h0=h0,
        h0_inv=h0_inv,
        x2_outer=(-q - s) / sf,
        x2_inner=(-q + s) / sf,
    )
