"""Independent oracles the tests check production code against.

Everything here is deliberately written from scratch: brute-force grids,
raw companion-matrix roots through numpy, greedy pairing, single-linkage
root clustering.  None of it calls back into the validation paths it
certifies; the clustering starts from `poly.companion_roots`.  The
radius-function handles and normal-bundle verdicts, the elimination one
trace at a time, the analysis one radius function at a time and the closed
forms of the conic families are the exception: those wrap the package for
the tests.
"""

from __future__ import annotations

import cmath
import enum
import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from touching_conics.analysis import (
    _H1_TABLE,
    _H2_TABLE,
    _H3_TABLE,
    HTableReport,
    PsiReport,
    RadiusAnalysis,
    TableRow,
    _missing,
    _pair_key,
    _pair_label,
    _sign_changes,
    _triple_key,
    domain_side,
    limit,
)
from touching_conics.analysis import LimitKind as AnalysisLimit
from touching_conics.classifier import (
    EXPECTED_SURVIVORS,
    EliminationTrace,
    Hypothesis,
    Reason,
    Verdict,
    _firsts,
    _match_reason,
    _plan,
    _schedule,
    _trace,
    assign_types,
    eliminate,
)
from touching_conics.cli import _json_safe, _pairing_samples
from touching_conics.conics import ConicCoeffs, ConicType, Plane, _conic, conic_contact, normalized, restriction
from touching_conics.errors import DomainError, InputError, PreconditionError, RealityError
from touching_conics.poly import companion_roots, evaluate
from touching_conics.resolution import Edge, HKind, LinearForm, ResolutionChoice, all_resolutions
from touching_conics.surface import (
    Interval,
    Q_restricted,
    SurfaceParams,
    disc_value,
    f_poly,
    f_value,
    intervals,
    q_value,
    s_minus_q,
    sqrt_disc,
)


def dense_grid_certificate(params, lam0: float, n: int = 100_001) -> dict:
    """Brute-force certification of the two admissibility conditions.

    Uniform grid of n points on [-10 - |lam0|, lam0 + 10] plus geometric
    refinement stacks near the cubic's roots and near the double root.
    Returns a dict of booleans and witnesses.
    """
    q0, q1, q2, a, b = params.q0, params.q1, params.q2, params.a, params.b
    lo, hi = -10.0 - abs(lam0), lam0 + 10.0
    grid = np.linspace(lo, hi, n)
    stacks = []
    for center in (-1.0, 0.0, b / a, lam0):
        d = np.logspace(-9.0, -1.0, 60)
        stacks.extend([center - d, center + d])
    grid = np.unique(np.concatenate([grid] + stacks))

    q = (q0 * grid + q1) * grid + q2
    f = grid * (grid + 1.0) * (a * grid - b)
    disc = q * q - f
    scale = 1.0 + np.abs(grid) ** 4 * (1.0 + q0 * q0)

    near0 = np.abs(grid - lam0) <= 1e-3
    cond_i = bool(np.all(disc[~near0] > -1e-9 * scale[~near0]) and q0 != 0.0)
    # equality region attained only near the double root
    tiny = disc <= 1e-6 * scale
    only_near = bool(np.all(np.abs(grid[tiny] - lam0) < 1e-2)) if tiny.any() else False

    mask = (f >= 0.0) & ~near0
    gap = q[mask] - np.sqrt(np.maximum(f[mask], 0.0))
    cond_star = bool(np.all(gap > 0.0) and q0 > 0.0)
    worst = float(grid[mask][np.argmin(gap)]) if mask.any() else None
    return {
        "condition_i": cond_i,
        "equality_only_near_root": only_near,
        "condition_star": cond_star,
        "worst_lambda": worst,
    }


def quartic_double_double(coeffs, pair_tol: float = 1e-6, sep_tol: float = 1e-3) -> bool:
    """Companion-matrix multiplicity oracle: does the quartic have exactly two
    double roots?  Roots via numpy, greedily paired by distance."""
    roots = np.roots(coeffs[::-1])  # numpy wants descending order
    if len(roots) != 4:
        return False
    scale = 1.0 + max(abs(r) for r in roots)
    rs = list(roots)
    pairs = []
    while rs:
        r = rs.pop()
        j = min(range(len(rs)), key=lambda i: abs(rs[i] - r)) if rs else None
        if j is None:
            return False
        partner = rs.pop(j)
        pairs.append((r, partner))
    if len(pairs) != 2:
        return False
    intra = max(abs(u - v) for u, v in pairs)
    inter = abs((pairs[0][0] + pairs[0][1]) / 2 - (pairs[1][0] + pairs[1][1]) / 2)
    return intra < pair_tol * scale and inter > sep_tol * scale


def expand_two_double_roots(alpha: complex, beta: complex):
    """Monic quartic (x - alpha)^2 (x - beta)^2, ascending real coefficients."""
    s, p = alpha + beta, alpha * beta
    a1 = -2.0 * s
    a2 = s * s + 2.0 * p
    a3 = -2.0 * p * s
    a4 = p * p
    out = [a4, a3, a2, a1, 1.0]
    return [float(np.real(c)) for c in out]


def expand_from_roots(roots):
    """Monic polynomial with the given roots, ascending real coefficients."""
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0.0j]))
    assert np.abs(coeffs.imag).max() < 1e-9 * max(1.0, np.abs(coeffs).max())
    return [float(c) for c in coeffs.real]


@dataclass(frozen=True)
class RootCluster:
    """A group of numerically coincident roots.

    value         cluster centroid
    multiplicity  number of roots in the cluster
    residual      max |p| over the cluster members
    """

    value: complex
    multiplicity: int
    residual: float


def cluster_roots(roots, tol: float) -> list[list[complex]]:
    """Single-linkage clustering with radius tol * (1 + |root|)."""
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        placed = False
        for cl in clusters:
            if any(abs(r - m) <= tol * (1.0 + abs(m)) for m in cl):
                cl.append(r)
                placed = True
                break
        if not placed:
            clusters.append([r])
    return clusters


def root_clusters(coeffs, tol: float) -> list[RootCluster]:
    """All roots of the (complex) polynomial, grouped into clusters."""
    roots = companion_roots(coeffs)
    cs = [complex(c) for c in coeffs]
    out = []
    for members in cluster_roots(roots, tol):
        center = sum(members) / len(members)
        res = max(abs(evaluate(cs, m)) for m in members)
        out.append(RootCluster(value=center, multiplicity=len(members), residual=res))
    out.sort(key=lambda c: (c.value.real, c.value.imag))
    return out


def real_roots_with_multiplicity(p: tuple[float, ...], tol: float = 1e-7) -> list[RootCluster]:
    """Real roots of p grouped by multiplicity.

    A cluster counts as real when its centroid sits on the real axis within
    the clustering radius; its value is reported with the imaginary part
    dropped.  Raises InputError for constant input.
    """
    if len(p) < 2:
        raise InputError("root finding needs degree >= 1")
    out = []
    for cl in root_clusters(p, tol):
        if abs(cl.value.imag) <= tol * (1.0 + abs(cl.value)):
            out.append(
                RootCluster(
                    value=complex(cl.value.real, 0.0),
                    multiplicity=cl.multiplicity,
                    residual=cl.residual,
                )
            )
    return out


def poly_from_roots(roots) -> tuple[float, ...]:
    """Monic real polynomial with the given (conjugation-closed) roots."""
    coeffs = [1.0 + 0.0j]
    for r in roots:
        nxt = [0.0 + 0.0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= complex(r) * c
        coeffs = nxt
    imag = max(abs(c.imag) for c in coeffs)
    if imag > 1e-9 * max(1.0, max(abs(c) for c in coeffs)):
        raise InputError("root set is not closed under conjugation")
    return tuple(c.real for c in coeffs)


def conic_through_points(points) -> np.ndarray:
    """Symmetric matrix of a conic through five general points."""
    rows = []
    for y1, y2, y3 in points:
        rows.append([y1 * y1, 2 * y1 * y2, y2 * y2, 2 * y1 * y3, 2 * y2 * y3, y3 * y3])
    null = np.linalg.svd(np.array(rows))[2][-1].conj()
    a, b, c, d, e, h = null
    return np.array([[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, h]])


def allclose_symmetric(m) -> bool:
    """The symmetry test `from_matrix` makes, through numpy."""
    m = np.asarray(m, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # atol is NaN or inf on such entries
        return bool(np.allclose(m, m.T, atol=1e-12 * (1 + np.abs(m).max())))


def lapack_degenerate(m, rel_eps: float) -> bool:
    """The degeneracy test of `conic_contact`, through numpy: the matrix
    balanced by the congruence with diag(2^-e_i), e_i half the binary
    exponent of row i's norm, then |det| by LU factorization against the
    product of the row norms."""
    m = np.asarray(m, dtype=complex)
    s = np.array([2.0 ** -(math.frexp(n)[1] // 2) for n in np.linalg.norm(m, axis=1)])
    m = s[:, None] * m * s[None, :]
    return bool(abs(np.linalg.det(m)) <= rel_eps * float(np.prod(np.linalg.norm(m, axis=1))))


def central_difference(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def polarized_gram(m: np.ndarray) -> np.ndarray:
    """Gram matrix of Re(y^T m y) on the real slice y = (t, u + iv, u - iv),
    by polarization of the form on the basis vectors and their sums."""

    def form(x) -> float:
        t, u, v = x
        y = np.array([t, u + 1j * v, u - 1j * v], dtype=complex)
        return float((y @ m @ y).real)

    basis = np.eye(3)
    gram = np.empty((3, 3))
    for i in range(3):
        gram[i, i] = form(basis[i])
    for i in range(3):
        for j in range(i + 1, 3):
            gram[i, j] = gram[j, i] = 0.5 * (form(basis[i] + basis[j]) - gram[i, i] - gram[j, j])
    return gram


def grid_minimum_on_slice(m: np.ndarray, n: int = 60) -> float:
    """Brute-force minimum of Re(y^T m y) over the unit sphere of the real
    slice (t, z, conj z); cross-checks the eigenvalue reduction."""
    best = math.inf
    for i in range(n + 1):
        phi = math.pi * i / n
        for j in range(2 * n):
            psi = math.pi * j / n
            t = math.cos(phi)
            z = math.sin(phi) * complex(math.cos(psi), math.sin(psi))
            y = np.array([t, z, z.conjugate()])
            best = min(best, float((y @ m @ y).real))
    return best


# ---------------------------------------------------------------------------
# the numeric critical-point scanner and endpoint-limit ladder
#
# Numeric counterparts of analysis.RadiusAnalysis, which works from
# polynomials and valuations.  They touch the radius functions only through
# point evaluations, so they cross-check the exact path independently.


class UnstableScanError(RuntimeError):
    """Critical-point count kept changing under grid refinement."""


class LadderGaveUpError(RuntimeError):
    """The approach ladder found no class for a one-sided limit; it raises
    rather than guesses."""


@dataclass(frozen=True)
class ScanConfig:
    grid: int = 1200
    tol: float = 1e-9
    deriv_step: float = 1e-6
    max_doublings: int = 2


@dataclass(frozen=True)
class CriticalPoint:
    location: float
    derivative_residual: float


@dataclass(frozen=True)
class CriticalReport:
    interval: tuple[float, float]
    count: int
    points: tuple[CriticalPoint, ...]
    grid_used: int


class LimitKind(enum.Enum):
    ZERO = "Zero"
    FINITE = "Finite"
    INFINITY = "Infinity"


@dataclass(frozen=True)
class LimitClass:
    kind: LimitKind
    value: float | None = None

    def reciprocal_matches(self, other: "LimitClass", rel: float = 1e-3) -> bool:
        """Class-level reciprocity: Zero pairs with Infinity and vice versa;
        two finite limits must be reciprocal values."""
        if self.kind is LimitKind.ZERO:
            return other.kind is LimitKind.INFINITY
        if self.kind is LimitKind.INFINITY:
            return other.kind is LimitKind.ZERO
        if other.kind is not LimitKind.FINITE:
            return False
        assert self.value is not None and other.value is not None
        if self.value == 0.0 or other.value == 0.0:
            return False
        return abs(self.value * other.value - 1.0) <= rel


def _tan_nodes(lo: float, hi: float, n: int) -> list[float]:
    """Interior nodes of (lo, hi), uniform in the arctangent compactification
    with geometric stacks near both ends."""
    t_lo = math.atan(lo) if math.isfinite(lo) else -0.5 * math.pi
    t_hi = math.atan(hi) if math.isfinite(hi) else 0.5 * math.pi
    span = t_hi - t_lo
    ts = [t_lo + span * (k + 1) / (n + 1) for k in range(n)]
    tail = span / (n + 1)
    for k in range(1, 41):
        tail *= 0.5
        if tail < 1e-14 * max(1.0, abs(t_lo), abs(t_hi)):
            break
        ts.append(t_lo + tail)
        ts.append(t_hi - tail)
    ts = sorted(set(ts))
    return [math.tan(t) for t in ts if t_lo < t < t_hi]


def _central_diff(h: Callable[[float], float], x: float, step_scale: float) -> float:
    d = step_scale * (1.0 + abs(x))
    return (h(x + d) - h(x - d)) / (2.0 * d)


def _scan_once(
    h: Callable[[float], float],
    lo: float,
    hi: float,
    n: int,
    cfg: ScanConfig,
) -> list[CriticalPoint]:
    xs = _tan_nodes(lo, hi, n)
    vals = []
    nodes = []
    for x in xs:
        try:
            v = h(x)
        except (DomainError, ValueError, OverflowError, ZeroDivisionError):
            continue
        if math.isfinite(v):
            nodes.append(x)
            vals.append(v)
    if len(nodes) < 3:
        raise InputError("fewer than 3 valid grid points in the scan interval")

    found: list[CriticalPoint] = []
    slopes = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    last_sign = 0
    last_idx = -1
    for i, s in enumerate(slopes):
        if s == 0.0:
            # exact float ties straddle flat extrema; the sign tracker below
            # still sees the change across the tie
            continue
        sign = 1 if s > 0.0 else -1
        if last_sign != 0 and sign != last_sign:
            a, b = nodes[last_idx], nodes[i + 1]
            pt = _refine_bracket(h, a, b, cfg)
            if pt is not None:
                if not found or abs(pt.location - found[-1].location) > 100.0 * cfg.tol * (
                    1.0 + abs(pt.location)
                ):
                    found.append(pt)
        last_sign, last_idx = sign, i
    return found


def _refine_bracket(h, a: float, b: float, cfg: ScanConfig) -> CriticalPoint | None:
    ga = _central_diff(h, a, cfg.deriv_step)
    gb = _central_diff(h, b, cfg.deriv_step)
    if not (math.isfinite(ga) and math.isfinite(gb)) or (ga > 0.0) == (gb > 0.0):
        return None
    while (b - a) > cfg.tol * (1.0 + abs(a) + abs(b)):
        mid = 0.5 * (a + b)
        gm = _central_diff(h, mid, cfg.deriv_step)
        if gm == 0.0:
            a = b = mid
            break
        if (gm > 0.0) == (ga > 0.0):
            a, ga = mid, gm
        else:
            b, gb = mid, gm
    loc = 0.5 * (a + b)
    return CriticalPoint(location=loc, derivative_residual=abs(_central_diff(h, loc, cfg.deriv_step)))


def critical_points(
    h: Callable[[float], float],
    interval: tuple[float, float],
    cfg: ScanConfig = ScanConfig(),
) -> CriticalReport:
    """Bracketed sign changes of the numerical derivative on an open interval.

    The interval is compactified through arctangent so unbounded ends get a
    genuine asymptotic tail.  The count must be stable under grid doubling;
    if it keeps changing the scan aborts rather than report a guess.
    """
    lo, hi = interval
    if not lo < hi:
        raise InputError(f"empty interval {interval}")
    n = cfg.grid
    prev = _scan_once(h, lo, hi, n, cfg)
    for _ in range(cfg.max_doublings):
        cur = _scan_once(h, lo, hi, 2 * n, cfg)
        if len(cur) == len(prev):
            return CriticalReport(interval=interval, count=len(cur), points=tuple(cur), grid_used=2 * n)
        prev, n = cur, 2 * n
    raise UnstableScanError(f"critical-point count on {interval} unstable under refinement")


def endpoint_limit(
    h: Callable[[float], float],
    endpoint: float,
    side: str,
    limit_low: float = 1e-4,
    limit_high: float = 1e4,
) -> LimitClass:
    """One-sided limit classified from a geometric approach ladder.

    Finite endpoints are approached at distances 10^-1 .. 10^-10; infinite
    ones at radii 10^1 .. 10^10 (the square-root rates that occur here need
    the extra decades to clear the thresholds).  Zero and Infinity demand a
    monotone trend over the last four decades; a finite limit must have
    stabilized; anything else raises rather than guesses.
    """
    if side not in ("left", "right"):
        raise InputError("side must be 'left' or 'right'")
    sign = 1.0 if side == "right" else -1.0
    xs = []
    if math.isfinite(endpoint):
        xs = [endpoint + sign * 10.0 ** (-k) for k in range(1, 11)]
    else:
        direction = 1.0 if endpoint > 0 else -1.0
        xs = [direction * 10.0**k for k in range(1, 11)]
    vals = []
    for x in xs:
        try:
            v = h(x)
        except (DomainError, ValueError, OverflowError, ZeroDivisionError):
            continue
        if math.isfinite(v):
            vals.append(v)
    if len(vals) < 6:
        raise LadderGaveUpError("not enough valid samples on the approach ladder")
    tail = vals[-5:]
    decreasing = all(tail[i + 1] < tail[i] for i in range(4))
    increasing = all(tail[i + 1] > tail[i] for i in range(4))
    if decreasing and abs(tail[-1]) < limit_low:
        return LimitClass(LimitKind.ZERO)
    if increasing and tail[-1] > limit_high:
        return LimitClass(LimitKind.INFINITY)
    if abs(tail[-1] - tail[-2]) <= 1e-3 * (1.0 + abs(tail[-1])):
        value = tail[-1]
        d1, d2 = tail[-1] - tail[-2], tail[-2] - tail[-3]
        if d2 != 0.0:
            ratio = d1 / d2
            if 0.0 < abs(ratio) < 0.9:
                value = tail[-1] + d1 * ratio / (1.0 - ratio)
        return LimitClass(LimitKind.FINITE, value)
    raise LadderGaveUpError(
        f"no monotone trend toward a class at {endpoint} ({side}); last values {tail}"
    )


def vanishing_order(h: Callable[[float], float], endpoint: float, side: str) -> float:
    """Local exponent of h at a one-sided endpoint, from two samples close to
    it: h ~ |lam - e|^k near a finite end gives k; h ~ |lam|^d toward
    infinity gives -d."""
    if math.isfinite(endpoint):
        sign = 1.0 if side == "right" else -1.0
        near, far = endpoint + sign * 1e-9, endpoint + sign * 1e-7
        return math.log(h(near) / h(far)) / math.log(1e-2)
    far, farther = math.copysign(1e7, endpoint), math.copysign(1e9, endpoint)
    return -math.log(h(farther) / h(far)) / math.log(1e2)


def pairing_by_bisection(h: Callable[[float], float], lam: float, crit: float, tol: float = 1e-13) -> float:
    """The mu on the far side of crit in (-1, 0) with h(mu) = h(lam), by
    bisection between crit (h's minimum) and the end of I2 where h blows up."""
    target = h(lam)
    x_in, x_out = crit, (0.0 if lam < crit else -1.0)
    while abs(x_in - x_out) > tol * (1.0 + abs(x_in)):
        mid = 0.5 * (x_in + x_out)
        if h(mid) < target:
            x_in = mid
        else:
            x_out = mid
    return 0.5 * (x_in + x_out)


# ---------------------------------------------------------------------------
# the radius functions sampled in floating point, from the closed forms of
# the resolution module's docstring


def restricted(form: LinearForm, params: SurfaceParams, lam: float) -> float:
    """Value of the form along the plane, per unit x1."""
    if form is LinearForm.X0:
        return lam
    if form is LinearForm.X1:
        return 1.0
    if form is LinearForm.X0_PLUS_X1:
        return lam + 1.0
    return params.a * lam - params.b


def Bfun(params: SurfaceParams, lam: float) -> float:
    """B(lam) = sqrt((sqrt(Q^2 - f) - Q)/2), positive; defined where f < 0."""
    f = f_value(params, lam)
    if f >= 0.0:
        raise DomainError(f"B needs f < 0; f({lam}) = {f:.3e}")
    return math.sqrt(0.5 * s_minus_q(params, lam))


def _form_values(choice: ResolutionChoice, params: SurfaceParams, lam: float, count: int) -> list[float]:
    vals = []
    for form in choice.forms()[:count]:
        v = restricted(form, params, lam)
        if v == 0.0:
            raise DomainError(f"{form.value} vanishes at lam={lam}")
        vals.append(v)
    return vals


def h_function(kind: HKind, choice: ResolutionChoice, params: SurfaceParams, lam: float) -> float:
    """Evaluate one of the four radius functions for the given resolution."""
    f = f_value(params, lam)
    if kind is HKind.H0:
        if f <= 0.0:
            raise DomainError(f"h0 needs f > 0; f({lam}) = {f:.3e}")
        d = disc_value(params, lam)
        if d <= 0.0:
            raise DomainError("h0 not defined on the double-root plane (Q^2 - f = 0)")
        return (q_value(params, lam) + math.sqrt(d)) / math.sqrt(f)
    if kind is HKind.H1:
        if f >= 0.0:
            raise DomainError(f"h1 needs f < 0; f({lam}) = {f:.3e}")
        (l1,) = _form_values(choice, params, lam, 1)
        return 2.0 * Bfun(params, lam) / abs(l1)
    if kind is HKind.H2:
        if f <= 0.0:
            raise DomainError(f"h2 needs f > 0; f({lam}) = {f:.3e}")
        l1, l2 = _form_values(choice, params, lam, 2)
        return math.sqrt(f) / abs(l1 * l2)
    if f >= 0.0:
        raise DomainError(f"h3 needs f < 0; f({lam}) = {f:.3e}")
    l1, l2, l3 = _form_values(choice, params, lam, 3)
    return -f / (2.0 * Bfun(params, lam) * abs(l1 * l2 * l3))


# ---------------------------------------------------------------------------
# the radial profile of the line correspondence on a grid, against which
# analysis.PSI states its claims exactly


def k_profile(r: float) -> float:
    """k(r) = r / (1 + sqrt(1 + r^2)), the radial profile of the
    correspondence between real lines through the double point and the
    exceptional curve."""
    return r / (1.0 + math.sqrt(1.0 + r * r))


# The step of the one-sided difference quotient of k(1/s) at s = 0.  Its
# truncation error grows like s (k(1/s) = 1 - s + s^2/2 - ...) and its
# rounding error like eps / s, since k(1/s) - 1 cancels all but the last bits
# of k; a step near sqrt(eps) = 1.5e-8 balances the two, leaving the quotient
# within about 1e-8 of the derivative -1, far from the 0.1 the check needs.
PSI_DIFFERENCE_STEP = 1e-8

# How close to its cap of 1 the profile must come at r = 1e6.  There
# k = 1 - 1/r + O(r^-2) lies 1e-6 below 1; ten times that leaves room for the
# rounding of k while still telling a profile that tends to 1 from one that
# levels off below it.
PSI_CAP_MARGIN = 1e-5


def psi_by_grid(samples: int) -> PsiReport:
    """Monotonicity and boundary behavior of the radial profile, read off a
    grid.

    Strict increase on a log-spaced grid, k(0) = 0, values capped below 1
    with k(10^6) within PSI_CAP_MARGIN of it, and a nonvanishing derivative
    of k(1/s) at s = 0 (numerically, the one-sided difference quotient with
    step PSI_DIFFERENCE_STEP)."""
    if samples < 10:
        raise InputError("need at least 10 samples")
    rs = [10.0 ** (-6.0 + 12.0 * i / (samples - 1)) for i in range(samples)]
    ks = [k_profile(r) for r in rs]
    monotone = all(ks[i + 1] > ks[i] for i in range(len(ks) - 1))
    sup_value = ks[-1]
    s = PSI_DIFFERENCE_STEP
    boundary = (k_profile(1.0 / s) - 1.0) / s
    return PsiReport(
        k_at_zero=k_profile(0.0),
        monotone=monotone,
        sup_value=sup_value,
        sup_below_one=all(k < 1.0 for k in ks),
        limit_ok=k_profile(1e6) > 1.0 - PSI_CAP_MARGIN,
        boundary_derivative=boundary,
        identity=f"{samples} log-spaced samples of r in [1e-6, 1e6], difference step {s:g}",
    )


# ---------------------------------------------------------------------------
# radius-function handles and normal-bundle verdicts: the tests' view of the
# package, which no path from the command line needs.


def h_handle(kind: HKind, choice: ResolutionChoice, params: SurfaceParams) -> Callable[[float], float]:
    return lambda lam: h_function(kind, choice, params, lam)


def analysis_of(params: SurfaceParams) -> RadiusAnalysis:
    """The analysis of a set and its partition; intervals() refuses
    inadmissible input, as the command line does."""
    return RadiusAnalysis(params, intervals(params))


class NormalBundleVerdict(enum.Enum):
    BALANCED = "O(1)+O(1)"
    DEGENERATE = "O+O(2)"


class FamilyLabel(enum.Enum):
    GEN_PLUS = "GenPlus"
    GEN_MINUS = "GenMinus"
    SP_PLUS = "SpPlus"
    SP_MINUS = "SpMinus"
    ORBIT = "Orbit"


_FAMILY_TO_KIND = {
    FamilyLabel.GEN_PLUS: HKind.H0,
    FamilyLabel.GEN_MINUS: HKind.H0,
    FamilyLabel.SP_PLUS: HKind.H1,
    FamilyLabel.SP_MINUS: HKind.H3,
    FamilyLabel.ORBIT: HKind.H2,
}

# Relative distance within which a plane counts as a critical one.  Callers
# name a critical plane by a float from another route (a bisection or a
# numeric scan agrees with the exact root to about 1e-7), and the window is
# still narrow enough that of a thousand planes across I2 at most one is in it.
_CRITICAL_MATCH_REL = 1e-6


def normal_bundle_at(
    kind: FamilyLabel,
    choice: ResolutionChoice,
    analysis: RadiusAnalysis,
    lam: float,
) -> NormalBundleVerdict:
    """Degenerate exactly when lam sits at a critical point of the governing
    radius function; Balanced otherwise."""
    hkind = _FAMILY_TO_KIND[kind]
    part = analysis.partition
    f = f_value(analysis.params, lam)
    if hkind in (HKind.H0, HKind.H2) and f <= 0.0:
        raise DomainError(f"family {kind.value} lives where f > 0; f({lam}) = {f:.3e}")
    if hkind in (HKind.H1, HKind.H3) and f >= 0.0:
        raise DomainError(f"family {kind.value} lives where f < 0; f({lam}) = {f:.3e}")
    if hkind is HKind.H0:
        key = None
    elif hkind is HKind.H1:
        key = choice.ell1
    elif hkind is HKind.H2:
        key = _pair_key(choice)
    else:
        key = _triple_key(choice)

    candidates: list[Interval] = []
    for which in Interval:
        lo, hi = part.bounds(which)
        if lo < lam < hi:
            candidates.append(which)
    if not candidates:
        raise DomainError(f"lam={lam} sits on an interval boundary")
    for loc in analysis.critical(hkind, key, analysis.span(candidates[0], hkind)):
        if abs(lam - loc) <= _CRITICAL_MATCH_REL * (1.0 + abs(lam)):
            return NormalBundleVerdict.DEGENERATE
    return NormalBundleVerdict.BALANCED


# ---------------------------------------------------------------------------
# the elimination one trace at a time: each trace asks the analysis for its
# three rows and the process for its four limits.  classifier.eliminate reads
# each count row once and fills in a plan per trace; this is its reference.
# It calls the package like the section above.


def trace_by_lookup(analysis: RadiusAnalysis, choice: ResolutionChoice, hyp: Hypothesis) -> EliminationTrace:
    reasons: list[Reason] = []
    pair = _pair_key(choice)
    triple = _triple_key(choice)
    ell1 = choice.ell1

    # A: orbit-family degeneration inside I2
    locs = analysis.critical(HKind.H2, pair, analysis.span(Interval.I2))
    if locs:
        reasons.append(Reason("A", f"h2 of {sorted(f.value for f in pair)} has a critical point on I2", locs[0]))

    # B: degeneration of the chosen special components
    if hyp is Hypothesis.PLUS_OVER_I1:
        govern_i1 = (HKind.H1, ell1, f"h1 (l1={ell1.value})")
        govern_i3 = (HKind.H3, triple, "h3")
    else:
        govern_i1 = (HKind.H3, triple, "h3")
        govern_i3 = (HKind.H1, ell1, f"h1 (l1={ell1.value})")
    locs = analysis.critical(govern_i1[0], govern_i1[1], analysis.span(Interval.I1))
    if locs:
        reasons.append(Reason("B", f"{govern_i1[2]} has a critical point on I1", locs[0]))
    locs = analysis.critical(govern_i3[0], govern_i3[1], analysis.span(Interval.I3))
    if locs:
        reasons.append(Reason("B", f"{govern_i3[2]} has a critical point on I3", locs[0]))

    # C: reciprocal gluing of the limits across lambda = -1 and lambda = 0
    h2_at_m1 = limit(HKind.H2, pair, Edge.MINUS_ONE)
    h2_at_0 = limit(HKind.H2, pair, Edge.ZERO)
    if hyp is Hypothesis.PLUS_OVER_I1:
        inner_m1 = limit(HKind.H1, ell1, Edge.MINUS_ONE)
        inner_m1_name = f"h1 (l1={ell1.value}) at -1-"
        outer_0 = limit(HKind.H3, triple, Edge.ZERO)
        outer_0_name = "h3 at 0+"
    else:
        inner_m1 = limit(HKind.H3, triple, Edge.MINUS_ONE)
        inner_m1_name = "h3 at -1-"
        outer_0 = limit(HKind.H1, ell1, Edge.ZERO)
        outer_0_name = f"h1 (l1={ell1.value}) at 0+"
    for reason in (
        _match_reason("C", "lambda = -1", inner_m1, h2_at_m1, inner_m1_name, "h2 at -1+"),
        _match_reason("C", "lambda = 0", h2_at_0, outer_0, "h2 at 0-", outer_0_name),
    ):
        if reason:
            reasons.append(reason)

    verdict = Verdict.ELIMINATED if reasons else Verdict.SURVIVES
    return EliminationTrace(choice=choice, hypothesis=hyp, verdict=verdict, reasons=tuple(reasons))


class OutcomeByLookup(NamedTuple):
    survivors: tuple[tuple[ResolutionChoice, Hypothesis], ...]
    traces: tuple[EliminationTrace, ...]


def eliminate_by_lookup(analysis: RadiusAnalysis) -> OutcomeByLookup:
    """classifier.eliminate's survivors and traces, built trace by trace."""
    traces = tuple(trace_by_lookup(analysis, choice, hyp) for choice in all_resolutions() for hyp in Hypothesis)
    survivors = tuple((t.choice, t.hypothesis) for t in traces if t.verdict is Verdict.SURVIVES)
    return OutcomeByLookup(survivors=survivors, traces=traces)


# ---------------------------------------------------------------------------
# the analysis one radius function at a time, as the package solved it before
# the stacked solve: polynomial arithmetic on a frozen dataclass that converts
# and strips every result, one companion-matrix eigenvalue call per critical
# polynomial, lazy memos keyed by (kind, key, span), the h tables read row by
# row and the classification section built trace by trace.  The production
# analysis must give the same bits.  Like the sections above, it calls the
# package for the limits, the tables and the elimination.


@dataclass(frozen=True)
class ReferencePolynomial:
    """Ascending coefficients, converted to float and stripped of trailing
    zeros on construction; each operation builds its result from scratch."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0.0,)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0.0,)

    def __call__(self, x: float) -> float:
        return evaluate(self.coefficients, x)

    def __add__(self, other: "ReferencePolynomial") -> "ReferencePolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        a = list(self.coefficients) + [0.0] * (n - len(self.coefficients))
        b = list(other.coefficients) + [0.0] * (n - len(other.coefficients))
        return ReferencePolynomial(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "ReferencePolynomial") -> "ReferencePolynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "ReferencePolynomial") -> "ReferencePolynomial":
        if self.is_zero or other.is_zero:
            return ReferencePolynomial((0.0,))
        out = [0.0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, ci in enumerate(self.coefficients):
            for j, cj in enumerate(other.coefficients):
                out[i + j] += ci * cj
        return ReferencePolynomial(tuple(out))

    def scale(self, k: float) -> "ReferencePolynomial":
        return ReferencePolynomial(tuple(k * c for c in self.coefficients))


def reference_derivative(p: ReferencePolynomial) -> ReferencePolynomial:
    if p.degree == 0:
        return ReferencePolynomial((0.0,))
    return ReferencePolynomial(tuple(k * c for k, c in enumerate(p.coefficients) if k > 0))


def reference_deflate(p: ReferencePolynomial, root: float) -> ReferencePolynomial:
    out = [0.0] * p.degree
    acc = 0.0
    for k in range(p.degree, 0, -1):
        acc = acc * root + p.coefficients[k]
        out[k - 1] = acc
    return ReferencePolynomial(tuple(out))


def reference_companion_roots(coeffs) -> list[complex]:
    """poly.companion_roots as one polynomial's own eigenvalue call: the
    companion matrix built alone, then the guarded Newton polish."""
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    n = len(cs) - 1
    if n < 1:
        return []
    lead = cs[-1]
    monic = [c / lead for c in cs]
    if not all(cmath.isfinite(c) for c in monic):
        raise DomainError(f"roots need finite coefficients over the leading one, of size {abs(lead):.3e}")
    comp = np.zeros((n, n), dtype=complex)
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = [-monic[k] for k in range(n)]
    roots = list(np.linalg.eigvals(comp))
    dcs = [k * cs[k] for k in range(1, len(cs))]
    polished = []
    with np.errstate(over="ignore", invalid="ignore"):
        for r in roots:
            pr = evaluate(cs, r)
            dpr = evaluate(dcs, r)
            if abs(dpr) > 0:
                cand = r - pr / dpr
                if abs(evaluate(cs, cand)) < abs(pr):
                    step = abs(cand - r)
                    for other in roots:
                        if other is not r and abs(cand - other) <= step:
                            break
                    else:
                        r = cand
            polished.append(r)
    return polished


def _reference_product(polys) -> ReferencePolynomial:
    out = ReferencePolynomial((1.0,))
    for p in polys:
        out = out * p
    return out


class LazyAnalysis:
    """RadiusAnalysis solving each radius function on first demand, alone,
    with ReferencePolynomial arithmetic: the interface the classifier, the
    pairing and the oracle tables below read."""

    def __init__(self, params: SurfaceParams, partition):
        self.params = params
        self.partition = partition
        self.f = f_poly(params)
        self.q = Q_restricted(params)
        self._forms = {form: ReferencePolynomial(form.polynomial(params)) for form in LinearForm}
        self._roots: dict = {}
        self._critical: dict = {}
        self._first: dict = {}

    def work_counts(self) -> dict[str, int]:
        return {
            "critical_polynomials": len(self._roots),
            "critical_spans": len(self._critical),
            "count_rows": len(self._first),
        }

    def span(self, which: Interval, kind: HKind | None = None) -> tuple[float, float]:
        if kind is HKind.H2 and which in (Interval.I4MINUS, Interval.I4PLUS):
            return (self.partition.i4minus[0], math.inf)
        return self.partition.bounds(which)

    def roots(self, kind: HKind, key) -> list[float]:
        """Real parts of the critical polynomial's roots, in eigenvalue order."""
        if kind is HKind.H3:
            kind, key = HKind.H1, _missing(key)
        if (kind, key) not in self._roots:
            poly, sign = self.derivative_data(kind, key)
            self._roots[kind, key] = ([float(r.real) for r in reference_companion_roots(poly.coefficients)], sign)
        return self._roots[kind, key][0]

    def critical(self, kind: HKind, key, span: tuple[float, float]) -> tuple[float, ...]:
        if kind is HKind.H3:
            kind, key = HKind.H1, _missing(key)
        k = (kind, key, span)
        if k not in self._critical:
            self.roots(kind, key)
            roots, sign = self._roots[kind, key]
            self._critical[k] = _sign_changes(roots, span[0], span[1], sign)
        return self._critical[k]

    def first_critical(self, kind: HKind, key, which: Interval) -> float | None:
        row = (kind, key, which)
        if row not in self._first:
            locs = self.critical(kind, key, self.span(which, kind))
            self._first[row] = locs[0] if locs else None
        return self._first[row]

    def derivative_data(self, kind: HKind, key) -> tuple[ReferencePolynomial, Callable[[float], float]]:
        f, q = ReferencePolynomial(self.f), ReferencePolynomial(self.q)
        dq = reference_derivative(q)
        if kind is HKind.H0:
            num = f * dq.scale(2.0) - reference_derivative(f) * q
            poly = reference_deflate(num, self.partition.lambda0)
            return poly, poly
        if kind is HKind.H2:
            p = _reference_product(self._forms[form] for form in key)
            r = _reference_product(self._forms[form] for form in LinearForm if form not in key)
            poly = reference_derivative(r) * p - r * reference_derivative(p)
            return poly, poly
        ell = self._forms[key]
        dell = reference_derivative(ell)
        r = _reference_product(self._forms[form] for form in LinearForm if form is not key)
        e = (dell * r).scale(3.0) - ell * reference_derivative(r)
        c = (dell * q).scale(4.0) - (ell * dq).scale(2.0)
        poly = ell * e * e - (q * c * e).scale(2.0) + r * c * c
        params = self.params
        return poly, lambda x: ell(x) * e(x) + s_minus_q(params, x) * c(x)


def verify_h_tables_by_row(analysis) -> HTableReport:
    """analysis.verify_h_tables, every row worked out where it is read."""
    rows: list[TableRow] = []

    def count_row(fn: str, label: str, kind: HKind, key, which: Interval, expected: int, name: str = ""):
        count = len(analysis.critical(kind, key, analysis.span(which, kind)))
        check = f"count on {name or which.value}"
        rows.append(TableRow(fn, label, check, str(expected), str(count), count == expected))

    def limit_row(fn: str, label: str, kind: HKind, key, edge: Edge, expected: AnalysisLimit):
        got = limit(kind, key, edge)
        check = f"limit at {edge.value} ({domain_side(kind, edge)})"
        rows.append(TableRow(fn, label, check, expected.value, got.value, got is expected))

    count_row("h0", "-", HKind.H0, None, Interval.I2, 1)
    count_row("h0", "-", HKind.H0, None, Interval.I4MINUS, 0)
    count_row("h0", "-", HKind.H0, None, Interval.I4PLUS, 0)
    limit_row("h0", "-", HKind.H0, None, Edge.MINUS_ONE, AnalysisLimit.INFINITY)
    limit_row("h0", "-", HKind.H0, None, Edge.ZERO, AnalysisLimit.INFINITY)
    for ell1, (c1, c3, limits) in _H1_TABLE.items():
        count_row("h1", ell1.value, HKind.H1, ell1, Interval.I1, c1)
        count_row("h1", ell1.value, HKind.H1, ell1, Interval.I3, c3)
        for edge, expected in limits:
            limit_row("h1", ell1.value, HKind.H1, ell1, edge, expected)
    for missing, (c1, c3, limits) in _H3_TABLE.items():
        triple = frozenset(f for f in LinearForm if f is not missing)
        label = _pair_label(triple)
        count_row("h3", label, HKind.H3, triple, Interval.I1, c1)
        count_row("h3", label, HKind.H3, triple, Interval.I3, c3)
        for edge, expected in limits:
            limit_row("h3", label, HKind.H3, triple, edge, expected)
    for pair, c2, c4, limits in _H2_TABLE:
        label = _pair_label(pair)
        count_row("h2", label, HKind.H2, pair, Interval.I2, c2)
        count_row("h2", label, HKind.H2, pair, Interval.I4MINUS, c4, name="I4")
        for edge, expected in limits:
            limit_row("h2", label, HKind.H2, pair, edge, expected)
    return HTableReport(rows=tuple(rows))


def component_schedule(choice: ResolutionChoice, analysis):
    """classifier._schedule of the choice under the first hypothesis it
    survives, that one choice's two traces built alone."""
    firsts = _firsts(analysis)
    matching = [tr for tr in (_trace(_plan(choice, h), firsts) for h in Hypothesis) if tr.verdict is Verdict.SURVIVES]
    if not matching:
        raise PreconditionError(f"{choice.label()} is not a surviving resolution")
    return _schedule(choice, matching[0].hypothesis)


def classification_by_trace(analysis):
    """cli._classification, each trace record built from its trace and each
    survivor's schedule from component_schedule."""
    t0 = time.perf_counter()
    outcome = eliminate(analysis)
    schedules = tuple((choice, hyp, component_schedule(choice, analysis)) for choice, hyp in outcome.survivors)
    body = {
        "type_assignment": [
            {"interval": name, "type": kind.value, "justification": why}
            for name, kind, why in assign_types().by_interval
        ],
        "survivors": [{"resolution": ch.label(), "hypothesis": hyp.value} for ch, hyp in outcome.survivors],
        "inconclusive": False,
        "traces": [
            {
                "resolution": t.choice.label(),
                "hypothesis": t.hypothesis.value,
                "verdict": t.verdict.value,
                "reasons": [
                    {"code": r.code, "description": r.description, "witness": _json_safe(r.witness)}
                    for r in t.reasons
                ],
            }
            for t in outcome.traces
        ],
        "component_schedules": [
            {
                "resolution": ch.label(),
                "hypothesis": hyp.value,
                "I1": s.i1.value,
                "I2": s.i2.value,
                "I3": s.i3.value,
                "I4minus": s.i4minus.value,
                "I4plus": s.i4plus.value,
                "gamma_progression": list(s.gamma_progression()),
            }
            for ch, hyp, s in schedules
        ],
        "broken_pairing": _pairing_samples(analysis),
    }
    ok = set(outcome.survivors) == set(EXPECTED_SURVIVORS)
    return {"classification": body}, ok, {"classify_s": round(time.perf_counter() - t0, 6)}


# ---------------------------------------------------------------------------
# closed forms of the conic families on one plane: where the generic family
# meets the fixed line, and lower bounds of the families' real forms.  No
# path from the command line needs them; min_real_form certifies the forms.


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


# ---------------------------------------------------------------------------
# a conic given by any symmetric matrix, and the contact records of the type
# decision: the tests' and the acceptance gates' view of conics.conic_contact

# The symmetry test of a matrix given to from_matrix is
# numpy.allclose(m, m.T) with these: mirrored entries pass when they agree to
# SYMMETRY_REL of their own size, numpy's default rtol, or to SYMMETRY_TOL of
# 1 + the largest modulus, about twelve digits, which lets an entry opposite
# an exact zero differ from it by rounding.  The families' matrices are
# symmetric by construction.
SYMMETRY_TOL = 1e-12
SYMMETRY_REL = 1e-5


def from_matrix(m) -> ConicCoeffs:
    """The conic of a symmetric 3x3 matrix, scaled as the families' are."""
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


def verify_touching(conic: ConicCoeffs, params: SurfaceParams, lam: float) -> TangencyReport:
    """conic_contact's decision on the plane y0 = lam y1, with the contact
    records of each branch it examined: the sorted finite contacts, their
    residuals and the fixed-point contacts.  An orbit conic is decided
    before the branches, which its records still show."""
    plane = Plane(params, lam)
    contact = conic_contact(plane, conic.rows)
    if contact.branches is None:
        fixed = (("Pinf", 2), ("PinfBar", 2))
        records = tuple(
            BranchRecord(name, normalized(restriction(conic.rows, g)), fixed, 0.0)
            for name, g in zip(("g-", "g+"), plane.branch_factors)
        )
    else:
        records = tuple(_branch_record(*branch) for branch in contact.branches)
    return TangencyReport(contact.kind, records, contact.pinf, contact.pinfbar, contact.detail)


def _branch_record(name: str, norm, roots, pinf: int, pinfbar: int) -> BranchRecord:
    roots = roots or []
    contacts: list[tuple[object, int]] = [(complex(z), 2) for z in sorted(roots, key=lambda z: (z.real, z.imag))]
    residual = max((abs(evaluate(norm, z)) for z in roots), default=0.0)
    if pinf:
        contacts.append(("Pinf", pinf))
    if pinfbar:
        contacts.append(("PinfBar", pinfbar))
    return BranchRecord(branch=name, restriction=norm, contacts=tuple(contacts), residual=residual)


# ---------------------------------------------------------------------------
# the local picture on the exceptional chain, which the command line does not
# reach: the special and orbit families' intersection coordinates and the
# series of the special family's component through the worse fixed point,
# against which tests and acceptance gate 9 check the radius functions and
# the cover equation.  A truncated series of order n represents
# f(x) + O(x^(n+1)); its coefficients are ascending, and every operation
# truncates back to the common order.


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple[complex, ...]

    @staticmethod
    def of(values, order: int) -> "TruncatedSeries":
        vals = [complex(v) for v in values][: order + 1]
        vals += [0.0 + 0.0j] * (order + 1 - len(vals))
        return TruncatedSeries(tuple(vals))

    @staticmethod
    def constant(value: complex, order: int) -> "TruncatedSeries":
        return TruncatedSeries.of([value], order)

    @staticmethod
    def identity(order: int) -> "TruncatedSeries":
        return TruncatedSeries.of([0.0, 1.0], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        n = self.order
        out = [0.0 + 0.0j] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(0, n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(tuple(out))

    def scale(self, k: complex) -> "TruncatedSeries":
        k = complex(k)
        return TruncatedSeries(tuple(k * c for c in self.coeffs))

    def shift(self, powers: int) -> "TruncatedSeries":
        """Multiply by x^powers, truncating at the same order."""
        out = [0.0 + 0.0j] * powers + list(self.coeffs)
        return TruncatedSeries(tuple(out[: self.order + 1]))

    def reciprocal(self) -> "TruncatedSeries":
        if self.coeffs[0] == 0:
            raise InputError("reciprocal needs a unit constant term")
        n = self.order
        out = [1.0 / self.coeffs[0]] + [0.0 + 0.0j] * n
        for k in range(1, n + 1):
            acc = 0.0 + 0.0j
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out[k] = -acc / self.coeffs[0]
        return TruncatedSeries(tuple(out))

    def sqrt(self, branch: complex) -> "TruncatedSeries":
        """Square root with prescribed constant term (branch^2 must equal the
        constant coefficient)."""
        c0 = self.coeffs[0]
        branch = complex(branch)
        if abs(branch * branch - c0) > 1e-9 * (1.0 + abs(c0)):
            raise InputError("branch value does not square to the constant term")
        if branch == 0:
            raise InputError("sqrt at a zero constant term is not a power series")
        n = self.order
        out = [branch] + [0.0 + 0.0j] * n
        for k in range(1, n + 1):
            acc = 0.0 + 0.0j
            for j in range(1, k):
                acc += out[j] * out[k - j]
            out[k] = (self.coeffs[k] - acc) / (2.0 * branch)
        return TruncatedSeries(tuple(out))

    def __call__(self, x: complex) -> complex:
        return evaluate(self.coeffs, x)

    def _check(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise InputError("series orders differ")


def h2_signed(choice: ResolutionChoice, params: SurfaceParams, lam: float) -> float:
    """sqrt(f) * x1^2/(l1 l2) with its sign, for callers that need the actual
    coordinate ratio rather than the radius."""
    f = f_value(params, lam)
    if f <= 0.0:
        raise DomainError(f"h2 needs f > 0; f({lam}) = {f:.3e}")
    l1, l2 = _form_values(choice, params, lam, 2)
    return math.sqrt(f) / (l1 * l2)


def special_intersections(
    choice: ResolutionChoice,
    params: SurfaceParams,
    lam: float,
    theta: float,
) -> tuple[complex, complex]:
    """Where the two special-family components meet the exceptional chain.

    The plus component meets only G1, at u = -2i B e^{-i t} / L1; the minus
    component meets only G3, at w = -i e^{i t} f / (2 B L1 L2 L3).  Radii are
    h1 and h3 respectively.
    """
    f = f_value(params, lam)
    if f >= 0.0:
        raise DomainError(f"special intersections need f < 0; f({lam}) = {f:.3e}")
    b = Bfun(params, lam)
    l1, l2, l3 = _form_values(choice, params, lam, 3)
    u = -2.0j * b * cmath.exp(-1j * theta) / l1
    w = -1j * cmath.exp(1j * theta) * f / (2.0 * b * l1 * l2 * l3)
    return u, w


def orbit_intersections(
    choice: ResolutionChoice,
    params: SurfaceParams,
    lam: float,
    alpha: float,
) -> tuple[complex, complex]:
    """Where the two orbit-family components meet G2.

    v = (+-sqrt(f - (alpha+Q)^2) + i (alpha+Q)) / (L1 L2); both moduli equal
    h2 independently of alpha.  Raises when alpha leaves the window where the
    components stay real.
    """
    f = f_value(params, lam)
    if f <= 0.0:
        raise DomainError(f"orbit intersections need f > 0; f({lam}) = {f:.3e}")
    q = q_value(params, lam)
    rad = f - (alpha + q) ** 2
    if rad < 0.0:
        raise RealityError(
            f"alpha={alpha} outside [-Q-sqrt(f), -Q+sqrt(f)] at lam={lam}: components are not real"
        )
    l1, l2 = _form_values(choice, params, lam, 2)
    ratio = 1.0 / (l1 * l2)
    root = math.sqrt(rad)
    v_plus = complex(root, alpha + q) * ratio
    v_minus = complex(-root, alpha + q) * ratio
    return v_plus, v_minus


@dataclass(frozen=True)
class SeriesPresentation:
    """Local expansions, in the plane coordinate x1, of the special-family
    component through the worse fixed point: the plane slice x2(x1) of the
    conic and the two cover coordinates xi(x1), eta(x1)."""

    lam: float
    theta: float
    order: int
    x2: tuple[complex, ...]
    xi: tuple[complex, ...]
    eta: tuple[complex, ...]


def series_presentation(
    params: SurfaceParams,
    lam: float,
    theta: float,
    order: int,
) -> SeriesPresentation:
    """Maclaurin data of the plus component of a special conic.

    Solving the conic for x2 gives x2 = -g(x1) x1 with
    g = (B e^{-it} + sqrt(Q^2-f) x1) / (1 + B e^{it} x1); the cover branch is
    z = k(x1) x1 with k^2 = (f - Q^2) x1^2 + 2 Q g x1 - g^2 and
    k(0) = -i B e^{-it}, from which xi = (k - ig) x1 + iQ x1^2 and
    eta = (k + ig) x1 - iQ x1^2.
    """
    if order < 1 or order > 6:
        raise DomainError("series order must be between 1 and 6")
    f = f_value(params, lam)
    if f >= 0.0:
        raise DomainError(f"series presentation needs f < 0; f({lam}) = {f:.3e}")
    q = q_value(params, lam)
    s = sqrt_disc(params, lam)
    b = Bfun(params, lam)
    rot = cmath.exp(-1j * theta)

    x = TruncatedSeries.identity(order)
    one = TruncatedSeries.constant(1.0, order)
    num = TruncatedSeries.of([b * rot, s], order)
    den = one + x.scale(b / rot)
    g = num * den.reciprocal()

    x2 = g.shift(1).scale(-1.0)

    radicand = x.scale(f - q * q) * x + g.shift(1).scale(2.0 * q) - g * g
    k = radicand.sqrt(branch=-1j * b * rot)

    xi = (k - g.scale(1j)).shift(1) + x.scale(1j * q) * x
    eta = (k + g.scale(1j)).shift(1) - x.scale(1j * q) * x
    return SeriesPresentation(lam=lam, theta=theta, order=order, x2=x2.coeffs, xi=xi.coeffs, eta=eta.coeffs)


def cover_residual(pres: SeriesPresentation, params: SurfaceParams, x1: complex) -> float:
    """|z^2 + (x2 + Q x1^2)^2 - f x1^4| with z and x2 taken from the truncated
    series; should vanish to one order beyond the truncation."""
    q = q_value(params, pres.lam)
    f = f_value(params, pres.lam)
    xi = evaluate(pres.xi, x1)
    eta = evaluate(pres.eta, x1)
    z = 0.5 * (xi + eta)
    w = evaluate(pres.x2, x1) + q * x1 * x1
    return abs(z * z + w * w - f * x1**4)
