"""Real touching conics inside the invariant planes.

On the plane y0 = lam*y1 the surface cuts the curve

    (y2*y3 + (Q - sqrt(f)) y1^2) * (y2*y3 + (Q + sqrt(f)) y1^2) = 0,

a union of two branch conics.  This module builds the three explicit families
of real conics touching that curve, certifies the contact structure by
restricting to each branch, and certifies emptiness of the real locus.

Plane coordinates are ordered (y1, y2, y3); the real structure acts by
(y1 : y2 : y3) -> (conj y1 : conj y3 : conj y2).

A conic's matrix is kept as nested Python complex rows, and the surface data
of a plane is read once per `Plane`: on a 3x3 matrix, numpy's cost per call
exceeds the arithmetic, and a family sweep builds hundreds of conics on one
plane.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateConicError,
    DegeneratePlaneError,
    DomainError,
    InputError,
    PreconditionError,
)
from .poly import evaluate, square_root_roots
from .surface import SurfaceParams, f_value, q_value, s_minus_q, sqrt_disc

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

# Size of the orbit residual (alpha + Q)^2 - f, relative to its terms, up to
# which an orbit conic lies on the surface.  A float alpha cannot make the
# residual vanish exactly: the alphas -Q +- sqrt(f) leave a few ulps of the
# terms, and 1e-9 keeps seven orders of magnitude above that.
ORBIT_CONTAINMENT_REL = 1e-9

# Mismatch, relative to the largest entry, up to which the conjugated and
# swapped matrix is a unimodular multiple of the matrix, for the real-slice
# form.  The families' matrices miss invariance by the rounding of exp and
# sqrt, a few ulps; the Gram matrix drops what is left of the imaginary part,
# so its least eigenvalue moves by about this share of the largest entry.
REALITY_TOL = 1e-8


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
    largest modulus has modulus one, as nested rows of Python complex
    numbers."""

    rows: tuple[tuple[complex, complex, complex], ...]

    @staticmethod
    def from_matrix(m) -> "ConicCoeffs":
        m = np.asarray(m, dtype=complex)
        if m.shape != (3, 3):
            raise InputError("conic matrix must be 3x3")
        rows = m.tolist()
        try:
            top = max(abs(z) for row in rows for z in row)
            symmetric = _symmetric(rows, 1e-12 * (1.0 + top))
        except OverflowError:
            top, symmetric = math.inf, True
        if not symmetric:
            raise InputError("conic matrix must be symmetric")
        if top == 0.0:
            raise InputError("zero matrix is not a conic")
        # an infinite entry passes the symmetry test (inf == inf) and would
        # scale to NaN
        if top == math.inf:
            raise InputError("conic matrix entries exceed the float range")
        return _conic(rows)

    @cached_property
    def m(self) -> np.ndarray:
        """The matrix as a read-only numpy array, built on first use, for the
        determinant, the reality test and the real-slice form."""
        m = np.array(self.rows, dtype=complex)
        m.flags.writeable = False
        return m

    def det(self) -> complex:
        return complex(np.linalg.det(self.m))

    def is_real(self, tol: float = 1e-9) -> bool:
        """Invariance of the zero set under the plane real structure.

        Conjugating and swapping the last two coordinates must reproduce the
        matrix up to a unimodular scalar.
        """
        ms, c = self._reality
        return bool(
            abs(abs(c) - 1.0) <= tol and np.abs(ms - c * self.m).max() <= tol * np.abs(self.m).max()
        )

    def reality_factor(self) -> complex:
        return complex(self._reality[1])

    @cached_property
    def _reality(self):
        """The conjugate with its last two coordinates swapped, and its ratio to m at m's largest entry."""
        ms = _SWAP23 @ np.conj(self.m) @ _SWAP23
        i, j = np.unravel_index(np.argmax(np.abs(self.m)), (3, 3))
        return ms, ms[i, j] / self.m[i, j]


def _conic(rows) -> ConicCoeffs:
    """The conic of a finite, symmetric, nonzero 3x3 matrix, given by its
    nested rows of Python complex or float numbers, scaled so the entry of
    largest modulus has modulus one.

    The scaling rounds as numpy's m / top: a complex division by top + 0j,
    which multiplies by the reciprocal (Smith's method with a zero ratio).
    Plain z / top rounds differently, and the exported matrix would change.
    """
    r0, r1, r2 = rows
    s = 1.0 / max(map(abs, (*r0, *r1, *r2)))
    e = [complex((z.real + z.imag * 0.0) * s, (z.imag - z.real * 0.0) * s) for z in (*r0, *r1, *r2)]
    return ConicCoeffs((tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9])))


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


class _Contact(NamedTuple):
    """What decides a conic's type.  branches holds, per branch examined,
    (name, normalised restriction, roots of its square root or None, contact
    at Pinf, contact at PinfBar); it is None for an orbit-shaped conic, whose
    type is read off alpha."""

    kind: ConicType
    detail: str
    pinf: int
    pinfbar: int
    branches: tuple | None


# ---------------------------------------------------------------------------
# one plane: its surface data, the families on it, and the type of a conic


class Plane:
    """The surface data on the invariant plane y0 = lam y1, each value read
    once: Q and f on construction, and on first use the branch factors and
    the entries each circle family takes from them.  A value whose domain
    check fails is not kept, so every use raises the same error.

    The families' entries are sums and doublings of Q^2 and |f|, so a plane
    where four times their sum overflows is refused: on every other plane
    the families' matrices are finite, and symmetric by construction.
    """

    def __init__(self, params: SurfaceParams, lam: float):
        self.params = params
        self.lam = lam
        self.q = q = q_value(params, lam)
        self.f = f = f_value(params, lam)
        if not math.isfinite(4.0 * (q * q + abs(f))):
            raise DomainError(f"Q^2 + |f| at lambda={lam!r} overflows the float range")

    @cached_property
    def branch_factors(self) -> tuple[complex, complex]:
        """(g_minus, g_plus) = (Q - sqrt(f), Q + sqrt(f)).

        Real for f > 0, a conjugate pair for f < 0.  For f > 0 the factor of
        smaller modulus is taken as (Q^2 - f) / (the larger one): near the
        double-root plane Q - sqrt(f) cancels to a few digits, and the contact
        test needs the restriction's coefficients to full relative precision.
        Raises when the two factors coincide, i.e. on the double-root plane.
        """
        q, f = self.q, self.f
        d = q * q - f
        if abs(d) <= REL_EPS * (1.0 + q * q + abs(f)):
            raise DegeneratePlaneError(f"branch factors coincide at lam={self.lam} (Q^2 - f = {d:.3e})")
        if f > 0.0:
            big = q + math.copysign(math.sqrt(f), q)
            small = d / big
            return (complex(small), complex(big)) if q >= 0.0 else (complex(big), complex(small))
        root = cmath.sqrt(complex(f))
        return q - root, q + root

    @cached_property
    def _generic_entries(self) -> tuple[float, float, float]:
        """(2 (Q^2 - f), sqrt(f), Q), where the generic family exists."""
        q, f = self.q, self.f
        if f <= 0.0:
            raise DomainError(f"no generic family at lam={self.lam}: f = {f:.3e} <= 0")
        d = q * q - f
        if d <= REL_EPS * (1.0 + q**2 + abs(f)):
            raise DomainError(f"no generic family at lam={self.lam}: Q^2 - f = {d:.3e} vanishes")
        return 2.0 * d, math.sqrt(f), q

    @cached_property
    def _special_entries(self) -> tuple[float, float]:
        """(sqrt(Q^2 - f), B / 2), where the special family exists."""
        if self.f >= 0.0:
            raise DomainError(f"no special family at lam={self.lam}: f = {self.f:.3e} >= 0")
        s = sqrt_disc(self.params, self.lam)
        return s, 0.5 * math.sqrt(0.5 * s_minus_q(self.params, self.lam))

    def generic(self, theta: float) -> ConicCoeffs:
        """Member of the circle family avoiding both fixed points:

            2 (Q^2 - f) y1^2 + sqrt(f) e^{i t} y2^2 + 2 Q y2 y3 + sqrt(f) e^{-i t} y3^2.
        """
        two_d, sf, q = self._generic_entries
        rot = cmath.exp(1j * theta)
        return _conic(((two_d, 0.0, 0.0), (0.0, sf * rot, q), (0.0, q, sf / rot)))

    def special(self, theta: float) -> ConicCoeffs:
        """Member of the circle family through both fixed points:

            sqrt(Q^2 - f) y1^2 + B e^{i t} y1 y2 + B e^{-i t} y1 y3 + y2 y3,

        with B = sqrt((sqrt(Q^2 - f) - Q) / 2); all square roots positive.
        """
        s, half_b = self._special_entries
        rot = cmath.exp(1j * theta)
        return _conic(((s, half_b * rot, half_b / rot), (half_b * rot, 0.0, 0.5), (half_b / rot, 0.5, 0.0)))

    def conic_type(self, conic: ConicCoeffs) -> ConicType:
        """The type verify_touching reports, without its contact records."""
        return self._contact(conic.rows).kind

    def _contact(self, rows) -> _Contact:
        """The one decision of a conic's type; see verify_touching."""
        if _degenerate(rows):
            raise DegenerateConicError(
                f"conic matrix is singular: |det| is at most {REL_EPS:g} times its Hadamard bound, so the conic "
                "cannot be told from a union of lines"
            )
        gm, gp = self.branch_factors

        alpha = _orbit_alpha(rows)
        if alpha is not None:
            resid = (alpha + self.q) ** 2 - self.f
            scale = 1.0 + (alpha + self.q) ** 2 + abs(self.f)
            if abs(resid) <= ORBIT_CONTAINMENT_REL * scale:
                return _Contact(ConicType.CONTAINED_IN_B, "orbit conic lies on the surface", 4, 4, None)
            return _Contact(ConicType.ORBIT, f"orbit residual {resid:.6e}", 4, 4, None)

        branches = []
        pinf_total = 0
        pinfbar_total = 0
        touching = True
        for name, g in (("g-", gm), ("g+", gp)):
            rest = _restriction(rows, g)
            if not any(rest):
                return _Contact(
                    ConicType.CONTAINED_IN_B,
                    f"branch {name} restriction vanishes identically",
                    pinf_total,
                    pinfbar_total,
                    tuple(branches),
                )
            # rest[2] = m00 - 2 g m12 cancels only where its two terms are
            # close, so comparing it with |m00| alone finds the same
            # cancellations
            if abs(rest[2]) < CANCELLATION_FLOOR * abs(rows[0][0]):
                raise DomainError(
                    f"lost precision at lam={self.lam!r}: the x1^2 coefficient of the branch {name} restriction "
                    f"keeps {abs(rest[2] / rows[0][0]):.1e} of its terms, below {CANCELLATION_FLOOR:g}"
                )
            norm = _normalized(rest)
            nonzero = [k for k, c in enumerate(norm) if c != 0]
            pinf_mult = nonzero[0]
            pinfbar_mult = 4 - nonzero[-1]
            roots = square_root_roots(norm[nonzero[0] : nonzero[-1] + 1])
            touching = touching and roots is not None
            pinf_total += pinf_mult
            pinfbar_total += pinfbar_mult
            branches.append((name, norm, roots, pinf_mult, pinfbar_mult))

        if not touching:
            kind, detail = ConicType.NOT_TOUCHING, "a contact of odd order exists"
        elif pinf_total == 0 and pinfbar_total == 0:
            kind, detail = ConicType.GENERIC, ""
        elif pinf_total == 2 and pinfbar_total == 2:
            kind, detail = ConicType.SPECIAL, ""
        elif pinf_total == 4 and pinfbar_total == 4:
            kind, detail = ConicType.ORBIT, ""
        else:
            kind = ConicType.NOT_TOUCHING
            detail = f"unbalanced fixed-point contact ({pinf_total}, {pinfbar_total})"
        return _Contact(kind, detail, pinf_total, pinfbar_total, tuple(branches))


# ---------------------------------------------------------------------------
# constructors


def orbit_conic(alpha: float) -> ConicCoeffs:
    """The orbit-closure conic y2 y3 = alpha y1^2."""
    if alpha == 0.0:
        raise DomainError("alpha = 0 gives a line pair, not a conic")
    return _conic(((-alpha, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.5, 0.0)))


def _orbit_alpha(rows) -> float | None:
    """Recover alpha if the conic (nested rows of its matrix) has the orbit
    shape, else None.  orbit_conic writes literal zeros and the normaliser
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
    norms, of the matrix balanced by the congruence S m S, S = diag(s_i) with
    s_i = 2^-e_i and e_i half the binary exponent of row i's norm.

    Rows whose scales differ by a factor k lower the ratio of |det| to the
    bound by about k, so without the congruence a smooth conic far out reads
    as a line pair.  The congruence keeps the rank, and with powers of two
    it is exact: det(S m S) = det(m) (s_0 s_1 s_2)^2, with det by cofactors
    along the first row, and row i of S m S has norm s_i |row_i S|.
    """
    (a, b, c), (d, e, f), (g, h, k) = rows
    (ma, mb, mc), (md, me, mf), (mg, mh, mk) = [map(abs, row) for row in rows]
    s0 = math.ldexp(1.0, -(math.frexp(math.hypot(ma, mb, mc))[1] // 2))
    s1 = math.ldexp(1.0, -(math.frexp(math.hypot(md, me, mf))[1] // 2))
    s2 = math.ldexp(1.0, -(math.frexp(math.hypot(mg, mh, mk))[1] // 2))
    det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    norms = (
        math.hypot(ma * s0, mb * s1, mc * s2)
        * math.hypot(md * s0, me * s1, mf * s2)
        * math.hypot(mg * s0, mh * s1, mk * s2)
    )
    # |det(S m S)| / prod_i s_i |row_i S|, multiplied out so that no
    # partial product overflows
    return abs(det) * s0 * s1 * s2 <= REL_EPS * norms


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
    the product of the row norms, once the rows are balanced by a diagonal
    congruence; for the generic family that ratio is (Q^2 - f) / (f + Q^2),
    which the generic family keeps above REL_EPS.  A restriction whose x1^2
    coefficient cancels below CANCELLATION_FLOOR of its terms raises
    DomainError: its square test would read rounding.

    The orbit-shaped conics are certified symbolically: substituting
    y2 y3 = alpha y1^2 leaves ((alpha + Q)^2 - f) y1^4, so containment in the
    surface is the vanishing of that residual, to ORBIT_CONTAINMENT_REL.

    The type is Plane.conic_type's; this adds the contact records: the
    sorted finite contacts, their residuals and the fixed-point contacts.
    """
    plane = Plane(params, lam)
    rows = conic.rows
    contact = plane._contact(rows)
    if contact.branches is None:
        records = tuple(
            BranchRecord(
                branch=name,
                restriction=_normalized(_restriction(rows, g)),
                contacts=(("Pinf", 2), ("PinfBar", 2)),
                residual=0.0,
            )
            for name, g in zip(("g-", "g+"), plane.branch_factors)
        )
    else:
        records = tuple(_branch_record(*branch) for branch in contact.branches)
    return TangencyReport(contact.kind, records, contact.pinf, contact.pinfbar, contact.detail)


def _branch_record(name: str, norm, roots, pinf_mult: int, pinfbar_mult: int) -> BranchRecord:
    roots = roots or []
    contacts: list[tuple[object, int]] = [(complex(z), 2) for z in sorted(roots, key=lambda z: (z.real, z.imag))]
    residual = max((abs(evaluate(norm, z)) for z in roots), default=0.0)
    if pinf_mult:
        contacts.append(("Pinf", pinf_mult))
    if pinfbar_mult:
        contacts.append(("PinfBar", pinfbar_mult))
    return BranchRecord(branch=name, restriction=norm, contacts=tuple(contacts), residual=residual)


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
    if not conic.is_real(REALITY_TOL):
        raise PreconditionError("conic is not invariant under the real structure")
    mu = cmath.exp(0.5j * cmath.phase(conic.reality_factor()))
    return (_REAL_SLICE.T @ (mu * conic.m) @ _REAL_SLICE).real


def min_real_form(conic: ConicCoeffs) -> float:
    """Global minimum of the induced real form over the unit sphere of the
    real slice, i.e. the smallest Gram eigenvalue; strictly positive means
    the conic has no real point."""
    return float(np.linalg.eigvalsh(real_slice_gram(conic))[0])
