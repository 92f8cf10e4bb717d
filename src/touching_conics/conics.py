"""Real touching conics inside the invariant planes.

On the plane y0 = lam*y1 the surface cuts the curve

    (y2*y3 + (Q - sqrt(f)) y1^2) * (y2*y3 + (Q + sqrt(f)) y1^2) = 0,

a union of two branch conics.  This module builds the three explicit families
of real conics touching that curve, certifies the contact structure by
restricting to each branch, and certifies emptiness of the real locus.

Plane coordinates are ordered (y1, y2, y3); the real structure acts by
(y1 : y2 : y3) -> (conj y1 : conj y3 : conj y2).

A conic's matrix is kept as nested Python complex rows, and the surface data
of a plane is read once per `Plane`.  On one 3x3 matrix numpy's cost per call
exceeds the arithmetic, so a conic that is built, exported or certified on
its own stays in Python numbers.  A family sweep types hundreds of conics on
one plane, so the type decision runs on a batch: the matrices as (re, im)
float arrays, with Python's complex arithmetic spelled out on the parts, so
that every value and verdict is the per-conic one to the bit.  A single conic
is decided as a batch of one.  The decision reads both branches of every
conic in one pass, over the g- and g+ restrictions stacked side by side, and
a batch whose conics are all settled before the branches, as the orbit
family's are, reads no branch at all.
"""

from __future__ import annotations

import cmath
import enum
import itertools
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
from .poly import EQUALITY_REL, evaluate, square_root_roots
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

# Default mismatch of ConicCoeffs.is_real, in the same units: the families'
# matrices miss invariance by a few ulps, and 1e-9 keeps seven orders of
# magnitude above that, as the square tests' EQUALITY_REL does.
INVARIANCE_TOL = 1e-9

# The symmetry test of a matrix given to ConicCoeffs.from_matrix is
# numpy.allclose(m, m.T) with these: mirrored entries pass when they agree to
# SYMMETRY_REL of their own size, numpy's default rtol, or to SYMMETRY_TOL of
# 1 + the largest modulus, about twelve digits, which lets an entry opposite
# an exact zero differ from it by rounding.  The families' matrices are
# symmetric by construction.
SYMMETRY_TOL = 1e-12
SYMMETRY_REL = 1e-5

_SINGULAR = (
    f"conic matrix is singular: |det| is at most {REL_EPS:g} times its Hadamard bound, so the conic "
    "cannot be told from a union of lines"
)
_ALPHA_ZERO = "alpha = 0 gives a line pair, not a conic"


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
            symmetric = _symmetric(rows, SYMMETRY_TOL * (1.0 + top))
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

    def is_real(self, tol: float = INVARIANCE_TOL) -> bool:
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
    """numpy.isclose(x, y, rtol=SYMMETRY_REL, atol=atol) on Python numbers."""
    return x == y or (abs(x - y) <= atol + SYMMETRY_REL * abs(y) and cmath.isfinite(y))


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
        return _OUTCOMES[self._decide(*_batch_of(conic), _Pending(1)).code[0]][0]

    def conic_types(self, family: str, knobs) -> list[ConicType]:
        """conic_type of the members of a family, "generic", "special" or
        "orbit", at the knobs (angles, or alphas for the orbit family), decided
        in one batch.  Where a member cannot be built or typed, this raises
        what building and typing the members one by one, in knob order, raises
        first."""
        knobs = np.asarray(knobs, dtype=float)
        if knobs.size == 0:
            return []
        pending = _Pending(knobs.size)
        members = self._members(family, knobs, pending)
        return [_OUTCOMES[c][0] for c in self._decide(*members, pending).code.tolist()]

    def _members(self, family: str, knobs: np.ndarray, pending: "_Pending"):
        """The normalised matrices of the family's members at the knobs, as a
        batch: equal to the rows of generic, special and orbit_conic to the
        bit.  alpha = 0 fails its conic, as orbit_conic raises there."""
        if family == "orbit":
            pending.fail(knobs == 0.0, lambda i: DomainError(_ALPHA_ZERO))
            entries = ((-knobs, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.5, 0.0))
        else:
            if family == "generic":
                two_d, radius, q = self._generic_entries
            else:
                s, radius = self._special_entries
            rot = np.exp(1j * knobs)
            rot = (rot.real, rot.imag)
            with np.errstate(divide="ignore", invalid="ignore"):  # the branch of the quotient not taken
                w, w_bar = _mul((radius, 0.0), rot), _quot((radius, 0.0), rot)
            if family == "generic":
                entries = ((two_d, 0.0, 0.0), (0.0, w, q), (0.0, q, w_bar))
            else:
                entries = ((s, w, w_bar), (w, 0.0, 0.5), (w_bar, 0.5, 0.0))
        re = np.empty((3, 3, knobs.size))
        im = np.zeros((3, 3, knobs.size))
        for i, row in enumerate(entries):
            for j, z in enumerate(row):
                if isinstance(z, tuple):
                    re[i, j], im[i, j] = z
                else:
                    re[i, j] = z
        # as _conic scales: by the reciprocal of the largest modulus, each
        # part as Python's complex times float rounds it
        scale = 1.0 / np.hypot(re, im).max(axis=(0, 1))
        return (re + im * 0.0) * scale, (im - re * 0.0) * scale

    def _decide(self, re: np.ndarray, im: np.ndarray, pending: "_Pending") -> "_Decision":
        """The one type decision, on a batch of normalised matrices (re, im),
        arrays of shape (3, 3, n); see verify_touching.  Each conic takes the
        steps it would take alone, in order: the degeneracy test; the orbit
        shape and its containment residual; then per branch, g- before g+,
        identical vanishing, the cancellation floor, normalisation, the
        fixed-point contact and the square test of what remains.  A conic that
        raises drops out of the later steps, and the batch raises the error of
        its first such conic.

        The branch steps run once, on the 2n lanes of _restrictions: each
        conic's g- lane and its g+ lane.  A lane that vanishes or fails ends
        its conic unless the conic's g- lane ended it first, so what the g+
        lane of a conic settled or failed on g- computes counts for nothing.
        Where no conic is left after the orbit step, the branches are not
        read."""
        with np.errstate(all="ignore"):
            decision = self._decide_parts(re, im, pending)
        pending.raise_first()
        return decision

    def _decide_parts(self, re, im, pending: "_Pending") -> "_Decision":
        n = re.shape[-1]
        code = np.zeros(n, dtype=np.int8)
        mods = np.hypot(re, im)
        pending.fail(_degenerate(re, im, mods), lambda i: DegenerateConicError(_SINGULAR))
        # every conic that is not degenerate reads the branch factors, so on
        # the double-root plane the first of them fails
        try:
            branch_factors = self.branch_factors
        except DegeneratePlaneError as exc:
            pending.fail(pending.live, lambda i: exc)
            pending.raise_first()

        # the orbit shape y2 y3 = alpha y1^2: orbit_conic writes literal zeros
        # and the normaliser scales by a positive real, so the shape and the
        # reality of alpha are read exactly
        m00 = re[0, 0], im[0, 0]
        alpha, alpha_im = _quot((-m00[0], -m00[1]), _mul((2.0, 0.0), (re[1, 2], im[1, 2])))
        zero = mods == 0.0
        orbit = pending.live & zero[0, 1] & zero[0, 2] & zero[1, 1] & zero[2, 2] & ~zero[1, 2] & (alpha_im == 0)
        resid = np.full(n, math.nan)
        if orbit.any():
            shifted = pending.power(alpha + self.q, 2, orbit)
            resid = shifted - self.f
            on_surface = np.abs(resid) <= ORBIT_CONTAINMENT_REL * (1.0 + shifted + abs(self.f))
            code[orbit] = np.where(on_surface, _ON_SURFACE, _ORBIT_SHAPE)[orbit]
            pending.settle(orbit)

        if not pending.live.any():  # every conic settled or failed: no branch to read
            return _Decision(code, resid, None, None, None)

        # the branch steps, once, on lane i (g-) and lane n + i (g+) of conic i
        (rest_re, rest_im), rest_mods, (norm_re, norm_im) = _restrictions(re, im, branch_factors)
        lanes = _Pending(2 * n)
        lanes.live = np.concatenate((pending.live, pending.live))
        vanishes = lanes.live & (rest_mods.max(axis=0) == 0.0)  # a NaN part is not zero
        lanes.settle(vanishes)
        # rest[2] = m00 - 2 g m12 cancels only where its two terms are close,
        # so comparing it with |m00| alone finds the same cancellations
        lanes.fail(
            rest_mods[2] < CANCELLATION_FLOOR * np.concatenate((mods[0, 0], mods[0, 0])),
            lambda k: self._lost_precision(_BRANCHES[k // n], complex(rest_re[2, k], rest_im[2, k]), m00, k % n),
        )
        nonzero = (norm_re != 0.0) | (norm_im != 0.0)
        low = nonzero.argmax(axis=0)
        high = 4 - nonzero[::-1].argmax(axis=0)
        square = _square(norm_re, norm_im, low, high, lanes)

        # a conic ends at its g- lane where that lane vanished or failed, else
        # at its g+ lane where that one did
        failed = np.zeros(2 * n, dtype=bool)
        failed[list(lanes.errors)] = True
        ends = vanishes | failed
        lane = np.where(ends[:n], 0, n) + np.arange(n)
        ended = ends[lane]
        code[ended] = (_VANISHES + lane // n)[ended]
        pending.fail(ended & failed[lane], lambda i: lanes.errors[int(lane[i])])
        pending.settle(ended)

        live = pending.live
        pinf = low[:n] + low[n:]
        pinfbar = 8 - high[:n] - high[n:]
        both = (square[:n] & square[n:]).astype(np.intp)
        code[live] = _BY_CONTACT[both, pinf, pinfbar][live]
        return _Decision(code, resid, (norm_re, norm_im), low, high)

    def _lost_precision(self, name: str, x2: complex, m00, i: int) -> DomainError:
        return DomainError(
            f"lost precision at lam={self.lam!r}: the x1^2 coefficient of the branch {name} restriction "
            f"keeps {abs(x2 / complex(m00[0][i], m00[1][i])):.1e} of its terms, below {CANCELLATION_FLOOR:g}"
        )


# ---------------------------------------------------------------------------
# constructors


def orbit_conic(alpha: float) -> ConicCoeffs:
    """The orbit-closure conic y2 y3 = alpha y1^2."""
    if alpha == 0.0:
        raise DomainError(_ALPHA_ZERO)
    return _conic(((-alpha, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.5, 0.0)))


# ---------------------------------------------------------------------------
# the type decision on a batch of conics
#
# A batch is n normalised matrices as a pair (re, im) of float arrays of shape
# (3, 3, n).  Every step is the one Python takes on complex numbers, spelled
# out on the parts, so each value, and so each verdict, equals the per-conic
# arithmetic's to the bit: products as CPython multiplies (a float operand is
# the complex (x, 0.0)), quotients by Smith's method in CPython's order,
# moduli as hypot.  numpy's own complex * and / round otherwise.  numpy's pow
# and the 3-argument math.hypot round otherwise too, so those run per element
# in Python.  Where Python raises on a value, an overflowing power or modulus,
# the conic fails with the same error.

_BRANCHES = ("g-", "g+")

# the outcomes of the decision by code: the type, and verify_touching's detail
_OUTCOMES = (
    (ConicType.GENERIC, ""),
    (ConicType.SPECIAL, ""),
    (ConicType.ORBIT, ""),
    (ConicType.NOT_TOUCHING, "a contact of odd order exists"),
    (ConicType.NOT_TOUCHING, "unbalanced fixed-point contact ({pinf}, {pinfbar})"),
    (ConicType.ORBIT, "orbit residual {resid:.6e}"),
    (ConicType.CONTAINED_IN_B, "orbit conic lies on the surface"),
    (ConicType.CONTAINED_IN_B, "branch g- restriction vanishes identically"),
    (ConicType.CONTAINED_IN_B, "branch g+ restriction vanishes identically"),
)
_GENERIC, _SPECIAL, _ORBIT, _ODD, _UNBALANCED, _ORBIT_SHAPE, _ON_SURFACE, _VANISHES = range(8)

# the code of a conic whose restrictions both pass the earlier steps, by
# [both squares, contact at Pinf, contact at PinfBar], each contact summed
# over the branches (0 to 8)
_BY_CONTACT = np.full((2, 9, 9), _UNBALANCED, dtype=np.int8)
_BY_CONTACT[0] = _ODD
_BY_CONTACT[1, [0, 2, 4], [0, 2, 4]] = _GENERIC, _SPECIAL, _ORBIT


class _Decision(NamedTuple):
    """The decision on a batch of n conics: each conic's outcome code, its
    orbit residual (NaN off the orbit shape), and the normalised branch
    restrictions of _restrictions, arrays of shape (5, 2n) as a (re, im)
    pair, with the positions of each lane's first and last nonzero
    coefficients; these three are None where no conic reached the branches."""

    code: np.ndarray
    resid: np.ndarray
    norm: tuple | None
    low: np.ndarray | None
    high: np.ndarray | None


class _Pending:
    """Which conics of a batch are still undecided, and the error of each
    that failed.  A conic fails at most once, at its first error, and the
    batch raises the error of its first failed conic: what a loop over the
    conics in order raises."""

    def __init__(self, n: int):
        self.live = np.ones(n, dtype=bool)
        self.errors: dict[int, Exception] = {}

    def settle(self, mask: np.ndarray) -> None:
        self.live &= ~mask

    def fail(self, mask: np.ndarray, error) -> None:
        """Fail the live conics in mask with error(index)."""
        for i in np.flatnonzero(mask & self.live).tolist():
            self.errors[i] = error(i)
        self.settle(mask)

    def raise_first(self) -> None:
        if self.errors:
            raise self.errors[min(self.errors)]

    def power(self, x: np.ndarray, y: float, where: np.ndarray) -> np.ndarray:
        """x ** y per element with Python's float power; where that raises
        OverflowError, the conics in where fail with it."""
        values = x.tolist()
        try:
            return np.array(list(map(pow, values, itertools.repeat(y, len(values)))))
        except OverflowError:
            pass
        out = []
        for i, v in enumerate(values):
            try:
                out.append(pow(v, y))
            except OverflowError as exc:
                if where[i] and self.live[i]:
                    self.errors[i] = exc
                    self.live[i] = False
                out.append(math.inf)
        return np.array(out)

    def modulus(self, z, where: np.ndarray) -> np.ndarray:
        """abs(z) per element, for z of shape (n,) or (k, n); where Python's
        abs raises OverflowError, on finite parts whose modulus passes the
        float range, the conics in where fail as it does."""
        h = np.hypot(*z)
        if np.isinf(h).any():
            over = np.isinf(h) & np.isfinite(z[0]) & np.isfinite(z[1])
            self.fail(where & over.reshape(-1, where.size).any(axis=0), lambda i: OverflowError("absolute value too large"))
        return h


def _batch_of(conic: ConicCoeffs) -> tuple[np.ndarray, np.ndarray]:
    m = np.array(conic.rows, dtype=complex)[..., None]
    return m.real, m.imag


def _restrictions(re: np.ndarray, im: np.ndarray, branch_factors):
    """Each conic's restriction to each branch x2 = -g x1^2, in the chart
    x1 = y1/y3, x2 = y2/y3: the ascending coefficients of the quartic

        m22 + 2 m02 x1 + (m00 - 2 g m12) x1^2 - 2 g m01 x1^3 + m11 g^2 x1^4,

    stacked as arrays of shape (5, 2n), the g- lanes of the n conics of the
    batch (re, im) and then their g+ lanes.  Returns the coefficients as a
    (re, im) pair, their moduli, and the coefficients scaled to max modulus
    1 as a pair (all-zero lanes stay as they are)."""
    n = re.shape[-1]
    re, im = np.concatenate((re, re), axis=-1), np.concatenate((im, im), axis=-1)
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = [[(re[i, j], im[i, j]) for j in range(3)] for i in range(3)]
    g = np.repeat([[z.real for z in branch_factors], [z.imag for z in branch_factors]], n, axis=1)
    two_m01, two_m02, two_m12 = (_mul((2.0, 0.0), z) for z in (m01, m02, m12))
    parts = (m22, two_m02, _sub(m00, _mul(g, two_m12)), _mul(-g, two_m01), _mul(_mul(m11, g), g))
    rest_re = np.array([part[0] for part in parts])
    rest_im = np.array([part[1] for part in parts])
    rest_mods = np.hypot(rest_re, rest_im)
    top = _pymax(*rest_mods)
    top = np.where(top == 0.0, 1.0, top)
    return (rest_re, rest_im), rest_mods, ((rest_re + rest_im * 0.0) / top, (rest_im - rest_re * 0.0) / top)


def _mul(a, b):
    """a * b on (re, im) pairs, as CPython multiplies complex numbers."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(a, b):
    """a / b on (re, im) pairs, b nonzero, as CPython divides complex numbers:
    Smith's method, scaled by the part of b of larger modulus."""
    (ar, ai), (br, bi) = a, b
    by_re = np.abs(br) >= np.abs(bi)
    ratio = bi / br
    denom = br + bi * ratio
    ratio_t = br / bi
    denom_t = br * ratio_t + bi
    return (
        np.where(by_re, (ar + ai * ratio) / denom, (ar * ratio_t + ai) / denom_t),
        np.where(by_re, (ai - ar * ratio) / denom, (ai * ratio_t - ar) / denom_t),
    )


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _pymax(first, *rest):
    """Python's max of floats per element: a later value replaces the one
    kept only where it is larger."""
    for x in rest:
        first = np.where(x > first, x, first)
    return first


def _degenerate(re: np.ndarray, im: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """|det| within REL_EPS of the Hadamard bound, the product of the row
    norms, of the matrix balanced by the congruence S m S, S = diag(s_i) with
    s_i = 2^-e_i and e_i half the binary exponent of row i's norm.  mods holds
    the entries' moduli.

    Rows whose scales differ by a factor k lower the ratio of |det| to the
    bound by about k, so without the congruence a smooth conic far out reads
    as a line pair.  The congruence keeps the rank, and with powers of two
    it is exact: det(S m S) = det(m) (s_0 s_1 s_2)^2, with det by cofactors
    along the first row, and row i of S m S has norm s_i |row_i S|.
    """
    norms = [list(map(math.hypot, *row)) for row in mods.tolist()]
    s = np.ldexp(1.0, -(np.frexp(norms)[1] // 2))
    bounds = [np.array(list(map(math.hypot, *row))) for row in (mods * s).tolist()]
    # the three 2x2 minors of the last two rows, e k - f h, d k - f g and
    # d h - e g, then a minor_0 - b minor_1 + c minor_2
    left, right = [1, 0, 0], [2, 2, 1]
    minors = _sub(
        _mul((re[1, left], im[1, left]), (re[2, right], im[2, right])),
        _mul((re[1, right], im[1, right]), (re[2, left], im[2, left])),
    )
    terms = _mul((re[0], im[0]), minors)
    det = _add(_sub((terms[0][0], terms[1][0]), (terms[0][1], terms[1][1])), (terms[0][2], terms[1][2]))
    # |det(S m S)| / prod_i s_i |row_i S|, multiplied out so that no
    # partial product overflows
    return np.hypot(*det) * s[0] * s[1] * s[2] <= REL_EPS * (bounds[0] * bounds[1] * bounds[2])


def _square(norm_re, norm_im, low, high, pending: _Pending) -> np.ndarray:
    """Whether the part of each live restriction between its first and last
    nonzero coefficients is a constant times a square: poly.square_root_roots'
    test, without its roots.  Degree 0 is the empty square, degree 2 needs
    b^2 = 4ac and degree 4 two double roots, both to EQUALITY_REL; odd
    degrees never are squares."""
    degree = high - low
    square = degree == 0
    quadratic = pending.live & (degree == 2)
    if quadratic.any():
        cols = np.arange(low.size)
        k = np.where(quadratic, low, 0)
        c, b, a = ((norm_re[k + j, cols], norm_im[k + j, cols]) for j in range(3))
        bb = _mul(b, b)
        ac4 = _mul(_mul((4.0, 0.0), a), c)
        tol = EQUALITY_REL * _pymax(np.hypot(*bb), np.hypot(*ac4))
        square = np.where(quadratic, ~(np.hypot(*_sub(bb, ac4)) > tol), square)
    quartic = pending.live & (degree == 4)
    if quartic.any():
        square = np.where(quartic, _two_double_roots(norm_re, norm_im, quartic, pending), square)
    return square


def _two_double_roots(norm_re, norm_im, where: np.ndarray, pending: _Pending) -> np.ndarray:
    """poly.two_double_roots_criterion of the monic quartic of each
    restriction of degree 4, with the default tolerance."""
    # the monic coefficients (a4, a3, a2, a1), by rows
    a_re, a_im = _quot((norm_re[:4], norm_im[:4]), (norm_re[4], norm_im[4]))
    a4, a3, a2, a1 = zip(a_re, a_im)
    m4, m3, m2, m1 = pending.modulus((a_re, a_im), where)
    s = 1.0 + _pymax(m1, pending.power(m2, 0.5, where), pending.power(m3, 1.0 / 3.0, where), pending.power(m4, 0.25, where))

    def close(lhs, rhs, floor, where):
        """abs(lhs - rhs) <= EQUALITY_REL * max(abs(lhs), abs(rhs), floor)."""
        gap = _sub(lhs, rhs)
        mods = pending.modulus((np.array([gap[0], lhs[0], rhs[0]]), np.array([gap[1], lhs[1], rhs[1]])), where)
        return mods[0] <= EQUALITY_REL * _pymax(mods[1], mods[2], floor)

    small = m1 <= EQUALITY_REL * s
    square = np.zeros(s.size, dtype=bool)
    # x^4 + a2 x^2 + a4 (a1 = 0): a3 = 0 and 4 a4 = a2^2
    first = where & small & pending.live
    if first.any():
        zero = np.zeros(s.size)
        held = close(a3, (zero, zero), pending.power(s, 3, first), first)
        second = first & held & pending.live
        if second.any():
            held = held & close(_mul((4.0, 0.0), a4), _mul(a2, a2), pending.power(s, 4, second), second)
        square = np.where(first, held, square)
    # otherwise 4 a1 a2 = a1^3 + 8 a3 and a1^2 a4 = a3^2
    first = where & ~small & pending.live
    if first.any():
        cube = _mul(_mul((1.0, 0.0), a1), _mul(a1, a1))  # a1 ** 3, by repeated squaring
        pending.fail(first & (np.isinf(cube[0]) | np.isinf(cube[1])), lambda i: OverflowError("complex exponentiation"))
        rhs = _add(cube, _mul((8.0, 0.0), a3))
        held = close(_mul(_mul((4.0, 0.0), a1), a2), rhs, pending.power(s, 3, first), first)
        second = first & held & pending.live
        if second.any():
            held = held & close(_mul(_mul(a1, a1), a4), _mul(a3, a3), pending.power(s, 6, second), second)
        square = np.where(first, held, square)
    return square


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

    The type is Plane.conic_type's, the decision on a batch of one; this adds
    the contact records: the sorted finite contacts, their residuals and the
    fixed-point contacts.
    """
    plane = Plane(params, lam)
    batch = _batch_of(conic)
    decision = plane._decide(*batch, _Pending(1))
    code = int(decision.code[0])
    norm = decision.norm
    if norm is None:  # an orbit conic: decided before the branches, which its records still show
        with np.errstate(all="ignore"):
            norm = _restrictions(*batch, plane.branch_factors)[2]
    norms = [tuple(map(complex, norm[0][:, b].tolist(), norm[1][:, b].tolist())) for b in range(2)]
    if code in (_ORBIT_SHAPE, _ON_SURFACE):
        pinf = pinfbar = 4
        contacts = (("Pinf", 2), ("PinfBar", 2))
        records = tuple(BranchRecord(name, norm, contacts, 0.0) for name, norm in zip(_BRANCHES, norms))
    else:
        lows, highs = decision.low.tolist(), decision.high.tolist()
        examined = code - _VANISHES if code >= _VANISHES else 2
        pinf = sum(lows[:examined])
        pinfbar = sum(4 - high for high in highs[:examined])
        records = tuple(_branch_record(_BRANCHES[b], norms[b], lows[b], highs[b]) for b in range(examined))
    kind, detail = _OUTCOMES[code]
    return TangencyReport(kind, records, pinf, pinfbar, detail.format(pinf=pinf, pinfbar=pinfbar, resid=float(decision.resid[0])))


def _branch_record(name: str, norm, low: int, high: int) -> BranchRecord:
    roots = square_root_roots(norm[low : high + 1]) or []
    contacts: list[tuple[object, int]] = [(complex(z), 2) for z in sorted(roots, key=lambda z: (z.real, z.imag))]
    residual = max((abs(evaluate(norm, z)) for z in roots), default=0.0)
    if low:
        contacts.append(("Pinf", low))
    if high < 4:
        contacts.append(("PinfBar", 4 - high))
    return BranchRecord(branch=name, restriction=norm, contacts=tuple(contacts), residual=residual)


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
