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
type.  A family sweep types hundreds of conics on one plane, so it runs a
floating-point filter first: the same steps on the whole batch in numpy
complex128, on only the entries that the family's shape of literal zeros
leaves, where each comparison counts only when its margin exceeds a stated
bound on the rounding of both evaluations.  The conics the filter cannot
settle, and those whose decision would raise, go to `conic_contact`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConicError, DegeneratePlaneError, DomainError, PreconditionError
from .poly import EQUALITY_REL, square_root_roots
from .resolution import ConicType
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

    @cached_property
    def m(self) -> np.ndarray:
        """The matrix as a read-only numpy array, built on first use, for the
        determinant, the reality test and the real-slice form."""
        m = np.array(self.rows, dtype=complex)
        m.flags.writeable = False
        return m

    def det(self) -> complex:
        return complex(np.linalg.det(self.m))

    def is_real(self) -> bool:
        """Invariance of the zero set under the plane real structure.

        Conjugating and swapping the last two coordinates must reproduce the
        matrix up to a unimodular scalar, to REALITY_TOL.
        """
        ms, c = self._reality
        return bool(
            abs(abs(c) - 1.0) <= REALITY_TOL
            and np.abs(ms - c * self.m).max() <= REALITY_TOL * np.abs(self.m).max()
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
    call, and each member of a sweep that the filter left to it.
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
        "orbit", at the knobs (angles, or alphas for the orbit family).  The
        family's filter decides the batch, and each member it leaves open is
        built and typed on its own, in knob order; so where a member cannot
        be built or typed, this raises what building and typing the members
        one by one raises first."""
        knobs = np.asarray(knobs, dtype=float)
        if knobs.size == 0:
            return []
        code, sure = self._filter(family, self._lanes(family, knobs))
        kinds = list(_TYPES[code])
        build = FAMILIES[family]
        for i in np.flatnonzero(~sure):
            kinds[i] = self.conic_type(build(self, float(knobs[i])))
        return kinds

    def _lanes(self, family: str, knobs: np.ndarray) -> np.ndarray:
        """The entries the family's members can hold nonzero, at the knobs,
        as an array of shape (k, n) whose rows are the lanes of _AT[family]:
        equal to those entries of the rows of generic, special and
        orbit_conic to the bit.  At alpha = 0, which orbit_conic refuses,
        m00 is zero: a line pair, which the filter leaves to orbit_conic."""
        if family == "orbit":
            entries = (-knobs, 0.5)
        else:
            if family == "generic":
                two_d, radius, q = self._generic_entries
            else:
                s, radius = self._special_entries
            rot = np.exp(1j * knobs)
            w, w_bar = radius * rot, radius * np.conj(rot)
            entries = (two_d, w, q, w_bar) if family == "generic" else (s, w, w_bar, 0.5)
        m = np.empty((len(entries), knobs.size), dtype=complex)
        for i, z in enumerate(entries):
            m[i] = z
        # as _conic scales: each part by the reciprocal of the largest
        # modulus, found as Python's abs finds it
        scale = 1.0 / np.hypot(m.real, m.imag).max(axis=0)
        m.real, m.imag = m.real * scale, m.imag * scale
        return m

    def _filter(self, family: str, m: np.ndarray):
        """conic_contact's steps on a batch of conics of the family's shape,
        given by their lanes m (see _lanes): the type code of each conic,
        and whether conic_contact surely returns that type.  It is not sure
        of a conic that conic_contact would fail, whose arithmetic leaves
        FILTER_RANGE, or where a comparison falls within its margin."""
        n = m.shape[-1]
        try:
            g = np.array(self.branch_factors)
        except DegeneratePlaneError:  # every conic fails: the first one's error
            return np.full(n, _NOT_TOUCHING), np.zeros(n, dtype=bool)
        with np.errstate(all="ignore"):
            mods = np.abs(m)
            sure = _inside(mods).all(axis=0) & _inside(np.abs(g)).all() & _surely_smooth(m, mods, family)
            # both branches at once: row 0 restricts each conic to g-, row 1 to g+
            return _FILTERS[family](self, g[:, None], m, mods, sure)


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
    return abs(det) * s0 * s1 * s2 <= REL_EPS * norms


# ---------------------------------------------------------------------------
# the type decision on a batch: a floating-point filter over conic_contact
#
# One filter per family shape takes conic_contact's steps on n conics of
# that shape in numpy complex128: generic (m01 = m02 = 0: each restriction
# a quartic with a1 = a3 = 0), special (m11 = m22 = 0: x1 times a
# quadratic) or orbit (both: the type read off alpha).  It reads lanes of
# the entries the shape can hold nonzero and drops the terms of its literal
# zeros, which conic_contact computes as exact zeros.  numpy's products,
# quotients and moduli round otherwise than Python's.  Each comparison
# x <= t of the decision counts only where |x - t| exceeds a bound on how
# far either evaluation can be from exact arithmetic, so that both land on
# the same side.  The bounds follow the standard model, with u = 2^-53: a
# real operation, and each part of a complex sum, is off by at most u of
# its result; a complex product by sqrt(5) u of |a| |b|, with or without
# fused multiply-adds; a complex quotient by 16 u of its modulus, Smith's
# method as both CPython and numpy divide; a modulus by 4 u; a power by
# 8 u.  They hold where no operation underflows or overflows, which
# FILTER_RANGE secures.  CPython's modulus, a faithful hypot, is within 2 u,
# but numpy's vectorised complex modulus is not: numpy 2.4 read up to 2.3 u
# off on 200,000 seeded samples.
# tests/test_conics.py checks numpy's power, quotient and modulus against
# these bounds over FILTER_RANGE.

_U = 2.0**-53

# Range of the nonzero moduli the filter reads: the matrix entries, the
# branch factors, alpha + Q, and the normalised and the monic restriction
# coefficients.  A conic with one outside it goes to conic_contact.  Inside
# it no product of up to three entries or six monic coefficients leaves the
# normal floats, so the error model holds, and an exact zero of one
# evaluation is an exact zero of the other: the only coefficient that can
# cancel, the x1^2 one, is guarded by FLOOR_MARGIN.  A conic whose lane of
# a restriction's end coefficient (generic m11, m22; special m01, m02) reads
# 0 goes to conic_contact too.
FILTER_RANGE = (2.0**-300, 2.0**150)

# |det| <= REL_EPS H on the balanced matrix B, with H its Hadamard bound:
# each evaluation of |det| by cofactors is off by at most (2 sqrt 5 + 3) u
# times the sum of the moduli of its six products, the permanent of |B|,
# plus 4 u |det| for the modulus; the permanent is at most 3^(3/2) H, and
# REL_EPS H is off by less than 1e-10 u H.  So the two evaluations are sure
# of the same verdict where |det| - REL_EPS H differs from 0 by more than
# 2 (3^(3/2) (2 sqrt 5 + 3) + 4) u H = 85.7 u H.
DET_MARGIN = 86 * _U

# Each takes the balancing exponents from row norms it rounds its own way:
# CPython's hypot of the moduli within 4 u of the exact norm, numpy's square
# root of their summed squares within 7 u.  A norm within EXPONENT_BAND of a
# power of two that changes e_i // 2 may give the two evaluations different
# balancings, and its conic goes to conic_contact.
EXPONENT_BAND = 16 * _U

# |(alpha + Q)^2 - f| <= ORBIT_CONTAINMENT_REL S, S = 1 + (alpha + Q)^2 + |f|:
# alpha + Q is the same float in both; the square (2 u), the residual (u S)
# and its modulus (u S) leave 4 u S per evaluation, the threshold 5e-9 u S.
ORBIT_MARGIN = 9 * _U

# |m00 - 2 g m12| < CANCELLATION_FLOOR |m00|, with T = |m00| + 2 |g| |m12|:
# the coefficient is off by (sqrt 5 + 1) u T per evaluation, its modulus by
# 4 u T more, the threshold by 5e-6 u T: 2 (sqrt 5 + 5) u T = 14.5 u T.
FLOOR_MARGIN = 15 * _U

# The square tests compare expressions in the normalised restriction
# coefficients c_k, or in the monic ones a_k = c_k / c_4, which the two
# evaluations already hold rounded apart.  With kappa = T / |m00 - 2 g m12|
# from the floor above (kappa >= 1), each restriction coefficient is off by
# at most 4.5 kappa u of its modulus (the x1^4 one, two products, by
# 2 sqrt 5 u), each c_k by rho_c = (9 kappa + 5) u (the largest modulus and
# the division), and each a_k by rho_a = 2 rho_c + 16 u.  A test
# |l - r| <= EQUALITY_REL max(|l|, |r|, s^k) on inputs off by rho is then off
# by at most (6 rho + 74 u) times P + EQUALITY_REL (P + s^k) per evaluation,
# P summing the moduli of the products in l and r: that is the test with the
# s^6 floor, s off by rho + 11 u, which no family reaches; the filters' two,
# b^2 = 4ac and 4 a4 = a2^2, are off by less, and with a1 = a3 = 0 exact in
# both evaluations the tests |a1| <= EQUALITY_REL s and a3 = 0 hold exactly.
# Two evaluations, and 1% for the terms of second order (rho < 1e-8
# wherever the floor passes): 2.02 (6 rho + 74 u) < 13 rho + 150 u.
SQUARE_MARGIN = (13.0, 150 * _U)

# the types the filter decides, by code
_TYPES = np.array(
    [ConicType.GENERIC, ConicType.SPECIAL, ConicType.ORBIT, ConicType.NOT_TOUCHING, ConicType.CONTAINED_IN_B],
    dtype=object,
)
_GENERIC, _SPECIAL, _ORBIT, _NOT_TOUCHING, _CONTAINED_IN_B = range(5)

# per family shape: the row and the column of each lane's entry (on or above
# the diagonal); the lanes on each row of the matrix in column order, a lane
# off the diagonal lying on its row and its column's row; and the
# determinant of the balanced lanes b, _degenerate's cofactor expansion
# without the products of literal zeros
_AT = {"generic": ((0, 1, 1, 2), (0, 1, 2, 2)), "special": ((0, 0, 0, 1), (0, 1, 2, 2)), "orbit": ((0, 1), (0, 2))}
_ROWS = {"generic": ((0,), (1, 2), (2, 3)), "special": ((0, 1, 2), (1, 3), (2, 3)), "orbit": ((0,), (1,), (1,))}
_DET = {
    "generic": lambda b: b[0] * (b[1] * b[3] - b[2] * b[2]),
    "special": lambda b: b[1] * (b[3] * b[2]) - b[0] * (b[3] * b[3]) + b[2] * (b[1] * b[3]),
    "orbit": lambda b: b[0] * (b[1] * b[1]),
}


def _inside(mods: np.ndarray) -> np.ndarray:
    """Whether each modulus is zero or within FILTER_RANGE."""
    lo, hi = FILTER_RANGE
    return (mods == 0.0) | ((mods >= lo) & (mods <= hi))


def _surely_smooth(m: np.ndarray, mods: np.ndarray, shape: str) -> np.ndarray:
    """Where _degenerate surely passes on the conics of the shape, given by
    their lanes m and the lanes' moduli: the rows balanced as it balances
    them, and |det| of the balanced matrix above REL_EPS times its Hadamard
    bound by DET_MARGIN of the bound."""
    rows = _ROWS[shape]
    sq = mods * mods
    norms = np.sqrt([sum((sq[k] for k in row[1:]), sq[row[0]]) for row in rows])
    low, high = (np.frexp(norms * (1.0 + band))[1] // 2 for band in (-EXPONENT_BAND, EXPONENT_BAND))
    s = np.ldexp(1.0, -high)
    i, j = _AT[shape]
    ss = s[list(i)] * s[list(j)]
    sq = (mods * ss) ** 2
    bound = np.sqrt([sum((sq[k] for k in row[1:]), sq[row[0]]) for row in rows]).prod(axis=0)
    det = _DET[shape](m * ss)
    return (low == high).all(axis=0) & (np.abs(det) - REL_EPS * bound > DET_MARGIN * bound)


def _floor(g: np.ndarray, m00: np.ndarray, a00: np.ndarray, m12: np.ndarray):
    """The x1^2 coefficient m00 - 2 g m12 of the restriction to each branch
    (the rows of g) and its modulus, the bound rho on the rounding of the
    normalised coefficients (SQUARE_MARGIN), and where the coefficient
    surely passes CANCELLATION_FLOOR; a00 is |m00|."""
    two_m12 = 2.0 * m12
    c2 = m00 - g * two_m12
    terms = a00 + np.abs(g) * np.abs(two_m12)
    r2 = np.abs(c2)
    return c2, r2, (9.0 * terms / r2 + 5.0) * _U, r2 - CANCELLATION_FLOOR * a00 > FLOOR_MARGIN * terms


def _close(lhs, rhs, floor, products, rho):
    """poly._close(lhs, rhs, floor) per lane, and where both
    evaluations surely agree on it; products sums the moduli of the products
    in lhs and rhs, whose factors are off by rho (SQUARE_MARGIN)."""
    gap = np.abs(lhs - rhs) - EQUALITY_REL * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
    margin = (SQUARE_MARGIN[0] * rho + SQUARE_MARGIN[1]) * (products + EQUALITY_REL * (products + floor))
    return gap <= 0.0, np.abs(gap) > margin


def _quadratic_square(c, b, a, rho):
    """square_root_roots' test of the normalised quadratic c + b x + a x^2,
    whose coefficients are off by rho: b^2 = 4ac to EQUALITY_REL.  Returns
    the verdicts and where they are sure."""
    return _close(b * b, 4.0 * a * c, 0.0, np.abs(b) ** 2 + 4.0 * np.abs(a) * np.abs(c), rho)


def _even_quartic_square(c0, c2, c4, rho):
    """square_root_roots' test of the normalised quartic c0 + c2 x^2 + c4 x^4,
    whose coefficients are off by rho: two_double_roots_criterion with
    a1 = a3 = 0, that is 4 a4 = a2^2 to EQUALITY_REL in the monic
    coefficients.  Returns the verdicts and where they are sure."""
    a4, a2 = c0 / c4, c2 / c4
    m2, m4 = np.abs(a2), np.abs(a4)
    s = 1.0 + np.maximum(m2**0.5, m4**0.25)
    square, sure = _close(4.0 * a4, a2 * a2, s**4, 4.0 * m4 + m2 * m2, 2.0 * rho + 16.0 * _U)
    return square, sure & _inside(m2) & _inside(m4)


def _generic_filter(plane, g, m, mods, sure):
    """The shape (m00; m11, m12, m22): the restriction to g is the quartic
    m22 + (m00 - 2 g m12) x1^2 + m11 g^2 x1^4, contact 0 at both fixed
    points, so the conic is generic where both are squares."""
    m00, m11, m12, m22 = m
    sure &= (mods[1] != 0.0) & (mods[3] != 0.0)
    c2, r2, rho, passes = _floor(g, m00, mods[0], m12)
    c4 = m11 * g * g
    top = np.maximum(np.maximum(mods[3], r2), np.abs(c4))
    norm = (m22 / top, c2 / top, c4 / top)
    square, square_sure = _even_quartic_square(*norm, rho)
    lane_sure = passes & _inside(np.abs(norm)).all(axis=0) & square_sure
    code = np.where(sure & square[0] & square[1], _GENERIC, _NOT_TOUCHING)
    return code, sure & lane_sure[0] & lane_sure[1]


def _special_filter(plane, g, m, mods, sure):
    """The shape (m00, m01, m02; m12): the restriction to g is x1 times the
    quadratic 2 m02 + (m00 - 2 g m12) x1 - 2 g m01 x1^2, contact 1 at each
    fixed point, so the conic is special where both are squares."""
    m00, m01, m02, m12 = m
    sure &= (mods[1] != 0.0) & (mods[2] != 0.0)
    c2, r2, rho, passes = _floor(g, m00, mods[0], m12)
    c1, c3 = 2.0 * m02, -g * (2.0 * m01)
    top = np.maximum(np.maximum(np.abs(c1), r2), np.abs(c3))
    norm = (c1 / top, c2 / top, c3 / top)
    square, square_sure = _quadratic_square(*norm, rho)
    lane_sure = passes & _inside(np.abs(norm)).all(axis=0) & square_sure
    code = np.where(sure & square[0] & square[1], _SPECIAL, _NOT_TOUCHING)
    return code, sure & lane_sure[0] & lane_sure[1]


def _orbit_filter(plane, g, m, mods, sure):
    """The shape y2 y3 = alpha y1^2, (m00; m12): alpha is one float
    division, the same in both, where m00 and m12 are real."""
    m00, m12 = m
    shifted = -m00.real / (2.0 * m12.real) + plane.q
    scale = 1.0 + shifted * shifted + abs(plane.f)
    gap = np.abs(shifted * shifted - plane.f) - ORBIT_CONTAINMENT_REL * scale
    code = np.where(gap <= 0.0, _CONTAINED_IN_B, _ORBIT)
    sure &= (m00.imag == 0.0) & (m12.imag == 0.0) & _inside(np.abs(shifted))
    return code, sure & (np.abs(gap) > ORBIT_MARGIN * scale)


_FILTERS = {"generic": _generic_filter, "special": _special_filter, "orbit": _orbit_filter}


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
    if not conic.is_real():
        raise PreconditionError("conic is not invariant under the real structure")
    mu = cmath.exp(0.5j * cmath.phase(conic.reality_factor()))
    return (_REAL_SLICE.T @ (mu * conic.m) @ _REAL_SLICE).real


def min_real_form(conic: ConicCoeffs) -> float:
    """Global minimum of the induced real form over the unit sphere of the
    real slice, i.e. the smallest Gram eigenvalue; strictly positive means
    the conic has no real point."""
    return float(np.linalg.eigvalsh(real_slice_gram(conic))[0])
