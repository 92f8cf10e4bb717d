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

from .config import DEFAULT_TOL
from .errors import (
    DegenerateConicError,
    DegeneratePlaneError,
    DomainError,
    InputError,
    PreconditionError,
)
from .poly import evaluate, two_double_roots_criterion
from .surface import SurfaceParams, disc_value, f_value, q_value, s_minus_q, sqrt_disc

_SWAP23 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)

# Columns map (t, u, v) to the real-slice point (t, u + iv, u - iv).
_REAL_SLICE = np.array([[1, 0, 0], [0, 1, 1j], [0, 1, -1j]])

# Relative size (about 4500 ulps) below which a difference of branch factors
# or a conic determinant counts as zero.
REL_EPS = 1e-12


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
        if not np.allclose(m, m.T, atol=1e-12 * (1 + np.abs(m).max())):
            raise InputError("conic matrix must be symmetric")
        top = np.abs(m).max()
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


def orbit_alpha(conic: ConicCoeffs, tol: float = 1e-10) -> float | None:
    """Recover alpha if the conic has the orbit shape, else None."""
    m = conic.m
    off = max(abs(m[0, 1]), abs(m[0, 2]), abs(m[1, 1]), abs(m[2, 2]))
    if off > tol or abs(m[1, 2]) <= tol:
        return None
    ratio = -m[0, 0] / (2.0 * m[1, 2])
    if abs(ratio.imag) > 1e-9 * (1.0 + abs(ratio)):
        return None
    return float(ratio.real)


# ---------------------------------------------------------------------------
# tangency certification


def _affine_coeffs(conic: ConicCoeffs) -> tuple[complex, ...]:
    """(a, b, c, d, e, h) of a x1^2 + b x1 x2 + c x2^2 + d x1 + e x2 + h in the
    chart x1 = y1/y3, x2 = y2/y3."""
    m = conic.m
    return (
        m[0, 0],
        2.0 * m[0, 1],
        m[1, 1],
        2.0 * m[0, 2],
        2.0 * m[1, 2],
        m[2, 2],
    )


def _restriction(conic: ConicCoeffs, g: complex) -> tuple[complex, ...]:
    """Substitute the branch x2 = -g x1^2; ascending coefficients, degree 4."""
    a, b, c, d, e, h = _affine_coeffs(conic)
    return (h, d, a - g * e, -g * b, c * g * g)


def _square_root_roots(coeffs) -> list[complex] | None:
    """Roots of the square root when the polynomial (ascending, nonzero
    constant term) is a constant times a square, else None.  Degree 2 needs
    b^2 = 4ac and degree 4 two double roots, both to the equality tolerance;
    degree 0 is the empty square and odd degrees never are squares."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 2:
        c, b, a = coeffs
        if abs(b * b - 4.0 * a * c) > DEFAULT_TOL.equality_rel * max(abs(b * b), abs(4.0 * a * c)):
            return None
        return [-b / (2.0 * a)]
    if deg == 4:
        a4, a3, a2, a1 = (c / coeffs[4] for c in coeffs[:4])
        if not two_double_roots_criterion(a1, a2, a3, a4):
            return None
        # x^4 + a1 x^3 + ... = (x^2 + p x + r)^2; roots of the quadratic
        # without cancellation, the second one from the product r
        p = 0.5 * a1
        r = 0.5 * (a2 - p * p)
        s = cmath.sqrt(p * p - 4.0 * r)
        if abs(p - s) > abs(p + s):
            s = -s
        z = -0.5 * (p + s)
        return [z, r / z]
    return None


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
    (Q^2 - f) / (f + Q^2), which generic_conic keeps above REL_EPS.

    The orbit-shaped conics are certified symbolically: substituting
    y2 y3 = alpha y1^2 leaves ((alpha + Q)^2 - f) y1^4, so containment in the
    surface is the vanishing of that residual.
    """
    if abs(conic.det()) <= REL_EPS * float(np.prod(np.linalg.norm(conic.m, axis=1))):
        raise DegenerateConicError(
            "conic matrix is singular: the conic is a union of lines (reducible member of the family)"
        )
    gm, gp = branch_factors(params, lam)

    alpha = orbit_alpha(conic)
    if alpha is not None:
        q = q_value(params, lam)
        f = f_value(params, lam)
        resid = (alpha + q) ** 2 - f
        scale = 1.0 + (alpha + q) ** 2 + abs(f)
        records = tuple(
            BranchRecord(
                branch=name,
                restriction=_normalized_or_zero(_restriction(conic, g)),
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
        rest = _restriction(conic, g)
        if not any(rest):
            return TangencyReport(
                ConicType.CONTAINED_IN_B,
                tuple(records),
                pinf_total,
                pinfbar_total,
                f"branch {name} restriction vanishes identically",
            )
        norm = _normalized(rest)
        nonzero = [k for k, c in enumerate(norm) if c != 0]
        pinf_mult = nonzero[0]
        pinfbar_mult = 4 - nonzero[-1]
        roots = _square_root_roots(norm[nonzero[0] : nonzero[-1] + 1])
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
    top = max(abs(c) for c in coeffs)
    return tuple(complex(c) / top for c in coeffs)


def _normalized_or_zero(coeffs) -> tuple[complex, ...]:
    top = max(abs(c) for c in coeffs)
    if top == 0.0:
        return tuple(complex(c) for c in coeffs)
    return tuple(complex(c) / top for c in coeffs)


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
