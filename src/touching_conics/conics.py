"""Real touching conics inside the invariant planes.

On the plane y0 = lam*y1 the surface cuts the curve

    (y2*y3 + (Q - sqrt(f)) y1^2) * (y2*y3 + (Q + sqrt(f)) y1^2) = 0,

a union of two branch conics.  This module builds the three explicit families
of real conics touching that curve, certifies the contact structure by
restricting to each branch, and certifies emptiness of the real locus.

Plane coordinates are ordered (y1, y2, y3); the real structure acts by
(y1 : y2 : y3) -> (conj y1 : conj y3 : conj y2).  The circle families are
real for an exact reason, and are built so that it holds in floats: each
e^{-i t} entry is the conjugate of its e^{i t} entry, and a matrix is scaled
by a positive real, so conjugating and swapping y2 and y3 gives back every
member's matrix to the bit.

A conic's matrix is kept as nested Python complex rows, and the surface data
of a plane is read once per `Plane`.  The type of one conic is decided by
`conic_contact`, in Python's complex arithmetic; that decision defines the
type.  A family sweep types one member of a circle family, whose members
share their type by an identity in e^{i t}, and each orbit member by the
residual test on its alpha, in plain floats.  The determinant, the reality
test and the least eigenvalue of the real-slice form are closed forms on the
rows: the package needs no numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .errors import DegenerateConicError, DegeneratePlaneError, DomainError, PreconditionError
from .poly import square_root_roots
from .resolution import ConicType
from .surface import SurfaceParams, f_value, q_value, s_minus_q, sqrt_disc

# the permutation that swaps y2 and y3
_SWAP23 = (0, 2, 1)

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

# Range of an orbit member's scaled entries m00 and m12 (at most 1), from
# below, and of alpha + Q, from above, inside which Plane.conic_types types
# it by its residual in plain floats: there no product _degenerate forms
# leaves the normal floats, so the conic is surely smooth, and (alpha + Q)^2
# is finite.  A member outside goes to conic_contact.
ORBIT_RANGE = (2.0**-300, 2.0**150)

_EPS = 2.0**-52

# Mismatch, relative to the largest entry, up to which the conjugated and
# swapped matrix is a unimodular multiple of the matrix (ConicCoeffs.is_real,
# which the real-slice form needs).  The families' matrices are invariant
# exactly, with factor 1; the tolerance admits a matrix given from outside
# whose invariance a few ulps of rounding spoil.  The Gram matrix drops what
# is left of the imaginary part, so its least eigenvalue moves by about this
# share of the largest entry.
REALITY_TOL = 1e-8

_SINGULAR = (
    f"conic matrix is singular: |det| is at most {REL_EPS:g} times its Hadamard bound, so the conic "
    "cannot be told from a union of lines"
)
_ALPHA_ZERO = "alpha = 0 gives a line pair, not a conic"


@dataclass(frozen=True)
class ConicCoeffs:
    """Symmetric 3x3 complex coefficient matrix, scaled so the entry of
    largest modulus has modulus one, as nested rows of Python complex
    numbers."""

    rows: tuple[tuple[complex, complex, complex], ...]

    def det(self) -> complex:
        return _det(self.rows)

    def is_real(self) -> bool:
        """Invariance of the zero set under the plane real structure.

        Conjugating and swapping the last two coordinates must reproduce the
        matrix up to a unimodular scalar, to REALITY_TOL.
        """
        mirror, entries, c = self._reality
        tol = REALITY_TOL * max(map(abs, entries))
        return abs(abs(c) - 1.0) <= REALITY_TOL and all(abs(z - c * w) <= tol for z, w in zip(mirror, entries))

    def reality_factor(self) -> complex:
        return self._reality[2]

    @cached_property
    def _reality(self) -> tuple[tuple[complex, ...], tuple[complex, ...], complex]:
        """The conjugate with its last two coordinates swapped and the
        matrix, each as its nine entries row by row, and their ratio at the
        matrix's first entry of largest modulus."""
        rows = self.rows
        mirror = tuple(rows[i][j].conjugate() for i in _SWAP23 for j in _SWAP23)
        entries = tuple(chain(*rows))
        k = max(range(9), key=lambda k: abs(entries[k]))
        return mirror, entries, mirror[k] / entries[k]


def _conic(rows) -> ConicCoeffs:
    """The conic of a finite, symmetric, nonzero 3x3 matrix, given by its
    nested rows of Python complex or float numbers, scaled so the entry of
    largest modulus has modulus one: each part times the reciprocal of that
    modulus, a positive real, so the scaling commutes with conjugation."""
    r0, r1, r2 = rows
    s = 1.0 / max(map(abs, (*r0, *r1, *r2)))
    e = [complex(z.real * s, z.imag * s) for z in (*r0, *r1, *r2)]
    return ConicCoeffs((tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9])))


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

    exact_conics counts the conics typed by conic_contact: each conic_type
    call, so one per circle family sweep, and each orbit member that a
    sweep leaves to it.
    """

    def __init__(self, params: SurfaceParams, lam: float):
        self.params = params
        self.lam = lam
        self.q = q = q_value(params, lam)
        self.f = f = f_value(params, lam)
        if not math.isfinite(4.0 * (q * q + abs(f))):
            raise DomainError(f"Q^2 + |f| at lambda={lam!r} overflows the float range")
        self.exact_conics = 0

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
        return _conic(((two_d, 0.0, 0.0), (0.0, sf * rot, q), (0.0, q, sf * rot.conjugate())))

    def special(self, theta: float) -> ConicCoeffs:
        """Member of the circle family through both fixed points:

            sqrt(Q^2 - f) y1^2 + B e^{i t} y1 y2 + B e^{-i t} y1 y3 + y2 y3,

        with B = sqrt((sqrt(Q^2 - f) - Q) / 2); all square roots positive.
        """
        s, half_b = self._special_entries
        rot = cmath.exp(1j * theta)
        w, w_bar = half_b * rot, half_b * rot.conjugate()
        return _conic(((s, w, w_bar), (w, 0.0, 0.5), (w_bar, 0.5, 0.0)))

    def conic_type(self, conic: ConicCoeffs) -> ConicType:
        """The conic's type on this plane: conic_contact's, without what
        decides it."""
        self.exact_conics += 1
        return conic_contact(self, conic.rows).kind

    def conic_types(self, family: str, knobs) -> list[ConicType]:
        """conic_type of the members of a family, "generic", "special" or
        "orbit", at the knobs (angles, or alphas for the orbit family); where
        a member cannot be built or typed, this raises what building and
        typing the members one by one, in knob order, raises first.

        A circle family's members share one type: every quantity that
        conic_contact reads on them is free of theta up to a unimodular
        factor (tests/test_conics.py proves it), so the first member is
        typed and its type, or its error, stands for all.  An orbit member's
        type is conic_contact's residual test on alpha, made here in plain
        floats on the entries orbit_conic would build; a member that
        conic_contact could refuse is built and typed."""
        if len(knobs) == 0:
            return []
        if family != "orbit":
            return [self.conic_type(FAMILIES[family](self, knobs[0]))] * len(knobs)
        try:
            self.branch_factors
        except DegeneratePlaneError:  # every member fails: the first one's error
            return [self.conic_type(orbit_conic(alpha)) for alpha in knobs]
        q, f = self.q, self.f
        lo, hi = ORBIT_RANGE
        kinds = []
        for alpha in knobs:
            # m00 and m12 as orbit_conic scales them, and _orbit_alpha's quotient
            s = 1.0 / max(abs(alpha), 0.5)
            m00, m12 = -alpha * s, 0.5 * s
            shifted = -m00 / (2.0 * m12) + q
            if not (abs(m00) >= lo and m12 >= lo and abs(shifted) <= hi):
                kinds.append(self.conic_type(orbit_conic(alpha)))
            elif abs(shifted**2 - f) <= ORBIT_CONTAINMENT_REL * (1.0 + shifted**2 + abs(f)):
                kinds.append(ConicType.CONTAINED_IN_B)
            else:
                kinds.append(ConicType.ORBIT)
        return kinds


# ---------------------------------------------------------------------------
# constructors


def orbit_conic(alpha: float) -> ConicCoeffs:
    """The orbit-closure conic y2 y3 = alpha y1^2."""
    if alpha == 0.0:
        raise DomainError(_ALPHA_ZERO)
    return _conic(((-alpha, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.5, 0.0)))


# each family's constructor, as a function of (plane, knob)
FAMILIES = {"generic": Plane.generic, "special": Plane.special, "orbit": lambda plane, alpha: orbit_conic(alpha)}


# ---------------------------------------------------------------------------
# the type decision of one conic


class Contact(NamedTuple):
    """What decides a conic's type.  branches holds, per branch examined,
    (name, normalised restriction, roots of its square root or None, contact
    at Pinf, contact at PinfBar); it is None for an orbit-shaped conic, whose
    type is read off alpha."""

    kind: ConicType
    detail: str
    pinf: int
    pinfbar: int
    branches: tuple | None


def conic_contact(plane: Plane, rows) -> Contact:
    """The type of a conic, given by the nested rows of its normalised
    matrix, on the plane, with what decides it.

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
    """
    if _degenerate(rows):
        raise DegenerateConicError(_SINGULAR)
    gm, gp = plane.branch_factors

    alpha = _orbit_alpha(rows)
    if alpha is not None:
        resid = (alpha + plane.q) ** 2 - plane.f
        scale = 1.0 + (alpha + plane.q) ** 2 + abs(plane.f)
        if abs(resid) <= ORBIT_CONTAINMENT_REL * scale:
            return Contact(ConicType.CONTAINED_IN_B, "orbit conic lies on the surface", 4, 4, None)
        return Contact(ConicType.ORBIT, f"orbit residual {resid:.6e}", 4, 4, None)

    branches = []
    pinf_total = 0
    pinfbar_total = 0
    touching = True
    for name, g in (("g-", gm), ("g+", gp)):
        rest = restriction(rows, g)
        if not any(rest):
            return Contact(
                ConicType.CONTAINED_IN_B,
                f"branch {name} restriction vanishes identically",
                pinf_total,
                pinfbar_total,
                tuple(branches),
            )
        if abs(rest[2]) < CANCELLATION_FLOOR * abs(rows[0][0]):
            raise DomainError(
                f"lost precision at lam={plane.lam!r}: the x1^2 coefficient of the branch {name} restriction "
                f"keeps {abs(rest[2] / rows[0][0]):.1e} of its terms, below {CANCELLATION_FLOOR:g}"
            )
        norm = normalized(rest)
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
    return Contact(kind, detail, pinf_total, pinfbar_total, tuple(branches))


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


def restriction(rows, g: complex) -> tuple[complex, ...]:
    """Substitute the branch x2 = -g x1^2 into the conic, given by the nested
    rows of its matrix, in the chart x1 = y1/y3, x2 = y2/y3; ascending
    coefficients, degree 4."""
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = rows
    return (m22, 2.0 * m02, m00 - g * (2.0 * m12), -g * (2.0 * m01), m11 * g * g)


def normalized(coeffs) -> tuple[complex, ...]:
    """Scaled to max modulus 1; all-zero coefficients are kept as they are."""
    top = max(map(abs, coeffs)) or 1.0
    return tuple([c / top for c in coeffs])


def _degenerate(rows) -> bool:
    """|det| within REL_EPS of the Hadamard bound, the product of the row
    norms, of the matrix balanced by the congruence S m S, S = diag(s_i) with
    s_i = 2^-e_i and e_i half the binary exponent of row i's norm.

    Rows whose scales differ by a factor k lower the ratio of |det| to the
    bound by about k, so without the congruence a smooth conic far out reads
    as a line pair.  The congruence keeps the rank, and with powers of two
    it is exact: det(S m S) = det(m) (s_0 s_1 s_2)^2, and row i of S m S has
    norm s_i |row_i S|.
    """
    (ma, mb, mc), (md, me, mf), (mg, mh, mk) = [map(abs, row) for row in rows]
    s0 = math.ldexp(1.0, -(math.frexp(math.hypot(ma, mb, mc))[1] // 2))
    s1 = math.ldexp(1.0, -(math.frexp(math.hypot(md, me, mf))[1] // 2))
    s2 = math.ldexp(1.0, -(math.frexp(math.hypot(mg, mh, mk))[1] // 2))
    norms = (
        math.hypot(ma * s0, mb * s1, mc * s2)
        * math.hypot(md * s0, me * s1, mf * s2)
        * math.hypot(mg * s0, mh * s1, mk * s2)
    )
    return abs(_det(rows)) * s0 * s1 * s2 <= REL_EPS * norms


def _det(rows) -> complex:
    """The determinant of the nested rows, by cofactors along the first row."""
    (a, b, c), (d, e, f), (g, h, k) = rows
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# real-point certificates


def real_slice_gram(conic: ConicCoeffs) -> tuple[tuple[float, float, float], ...]:
    """The real quadratic form induced on the real slice, as nested rows.

    Points fixed by the real structure can be written (t, z, conj z) with t
    real; after a unimodular rescaling mu of the matrix the restriction of
    the conic form there is a real quadratic form in (t, Re z, Im z).  With P
    the map from (t, Re z, Im z) to the point, its symmetric 3x3 Gram matrix
    is Re(P^T (mu m) P), whose entries are these sums of mu m's.
    """
    if not conic.is_real():
        raise PreconditionError("conic is not invariant under the real structure")
    mu = cmath.exp(0.5j * cmath.phase(conic.reality_factor()))
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = [[mu * z for z in row] for row in conic.rows]
    tu, tv, uv = (m01 + m02).real, (m02 - m01).imag, (m22 - m11).imag
    return (m00.real, tu, tv), (tu, (m11 + 2.0 * m12 + m22).real, uv), (tv, uv, (2.0 * m12 - m11 - m22).real)


def min_real_form(conic: ConicCoeffs) -> float:
    """Global minimum of the induced real form over the unit sphere of the
    real slice, i.e. the smallest Gram eigenvalue; strictly positive means
    the conic has no real point.

    A special or orbit conic's (u, v) block is a multiple of the identity,
    so the rotation of (u, v) that takes the t row to (a, r, 0) splits the
    Gram into blocks 1 + 2, and the least eigenvalue is in closed form.
    Any other Gram is diagonalised by Jacobi rotations: a generic conic's
    t stands apart from (u, v), and one rotation does it.  (Smith's
    trigonometric formula would lose half the digits where the least
    eigenvalue is double.)"""
    gram = real_slice_gram(conic)
    (a, b, c), (_, d, e), (_, _, f) = gram
    if e == 0.0 and d == f:
        return min(d, 0.5 * (a + d) - math.hypot(0.5 * (a - d), math.hypot(b, c)))
    m = [list(row) for row in gram]
    # cyclic sweeps, each rotation zeroing one off-diagonal entry, until
    # what is left off the diagonal is below the rounding of the diagonal;
    # they converge quadratically, in a handful
    for _ in range(16):
        if max(abs(m[0][1]), abs(m[0][2]), abs(m[1][2])) <= _EPS * max(abs(m[0][0]), abs(m[1][1]), abs(m[2][2])):
            break
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            if m[i][j] == 0.0:
                continue
            theta = 0.5 * (m[j][j] - m[i][i]) / m[i][j]
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            cos = 1.0 / math.hypot(t, 1.0)
            sin = t * cos
            m[i][i] -= t * m[i][j]
            m[j][j] += t * m[i][j]
            m[i][j] = m[j][i] = 0.0
            ki, kj = m[k][i], m[k][j]
            m[k][i] = m[i][k] = cos * ki - sin * kj
            m[k][j] = m[j][k] = sin * ki + cos * kj
    return min(m[0][0], m[1][1], m[2][2])

