"""Independent oracles the tests check production code against.

Everything here is deliberately written from scratch: brute-force grids,
raw companion-matrix roots through numpy, greedy pairing.  None of it calls
back into the clustering or validation paths it certifies, except the two
test-only polynomial helpers `real_roots_with_multiplicity` (a real-axis view
of `poly.root_clusters`, which its tests exercise) and `poly_from_roots`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from touching_conics.errors import DomainError, InputError, UnclassifiableLimitError
from touching_conics.poly import RealPolynomial, RootCluster, root_clusters


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


def real_roots_with_multiplicity(p: RealPolynomial, tol: float = 1e-7) -> list[RootCluster]:
    """Real roots of p grouped by multiplicity.

    A cluster counts as real when its centroid sits on the real axis within
    the clustering radius; its value is reported with the imaginary part
    dropped.  Raises InputError for constant input.
    """
    if p.degree < 1:
        raise InputError("root finding needs degree >= 1")
    out = []
    for cl in root_clusters(p.coefficients, tol):
        if abs(cl.value.imag) <= tol * (1.0 + abs(cl.value)):
            out.append(
                RootCluster(
                    value=complex(cl.value.real, 0.0),
                    multiplicity=cl.multiplicity,
                    residual=cl.residual,
                )
            )
    return out


def poly_from_roots(roots) -> RealPolynomial:
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
    return RealPolynomial(tuple(c.real for c in coeffs))


def conic_through_points(points) -> np.ndarray:
    """Symmetric matrix of a conic through five general points."""
    rows = []
    for y1, y2, y3 in points:
        rows.append([y1 * y1, 2 * y1 * y2, y2 * y2, 2 * y1 * y3, 2 * y2 * y3, y3 * y3])
    null = np.linalg.svd(np.array(rows))[2][-1].conj()
    a, b, c, d, e, h = null
    return np.array([[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, h]])


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
        raise UnclassifiableLimitError("not enough valid samples on the approach ladder")
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
    raise UnclassifiableLimitError(
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
