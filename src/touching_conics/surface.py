"""The one-parameter family of singular quartic surfaces.

A surface in the family is cut out by

    (y2*y3 + Q(y0, y1))^2 - y0*y1*(y0 + y1)*(a*y0 - b*y1) = 0

with Q a real quadratic form and a, b > 0.  Everything downstream lives on
the pencil of invariant planes y0 = lam * y1, where the surface data reduces
to the scalar functions Q(lam) = q0*lam^2 + q1*lam + q2 and
f(lam) = lam*(lam + 1)*(a*lam - b).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import InvalidParameterError, NotFoundError, PreconditionError
from .poly import RealPolynomial, RootCluster, derivative, evaluate, root_clusters

# Clustering radius used when separating the structural multiplicities of the
# degree-4 tangency polynomial.  Floating-point triple roots split by roughly
# (machine eps)^(1/3) ~ 1e-5, so the generic 1e-7 radius is too tight here;
# distinct structural roots are order-1 apart.
STRUCTURAL_CLUSTER_TOL = 1e-4


@dataclass(frozen=True)
class SurfaceParams:
    """The five reals (q0, q1, q2, a, b) defining a member of the family."""

    q0: float
    q1: float
    q2: float
    a: float
    b: float

    def as_dict(self) -> dict[str, float]:
        return {"q0": self.q0, "q1": self.q1, "q2": self.q2, "a": self.a, "b": self.b}


class Interval(enum.Enum):
    I1 = "I1"
    I2 = "I2"
    I3 = "I3"
    I4MINUS = "I4minus"
    I4PLUS = "I4plus"


@dataclass(frozen=True)
class IntervalPartition:
    """The real line cut at -1, 0, b/a and the double-root location lambda0."""

    lambda0: float
    i1: tuple[float, float]
    i2: tuple[float, float]
    i3: tuple[float, float]
    i4minus: tuple[float, float]
    i4plus: tuple[float, float]

    def bounds(self, which: Interval) -> tuple[float, float]:
        return {
            Interval.I1: self.i1,
            Interval.I2: self.i2,
            Interval.I3: self.i3,
            Interval.I4MINUS: self.i4minus,
            Interval.I4PLUS: self.i4plus,
        }[which]


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    condition_i: CheckResult
    condition_star: CheckResult
    lambda0_in_i4: CheckResult
    lambda0: float | None = None
    f_at_lambda0: float | None = None
    q_at_lambda0: float | None = None

    @property
    def passed(self) -> bool:
        return (
            self.condition_i.passed
            and self.condition_star.passed
            and self.lambda0_in_i4.passed
        )


class SingularKind(enum.Enum):
    ELLIPTIC_E7 = "elliptic-E7~"
    ODP = "ordinary-double-point"
    NON_ODP = "non-ODP"


@dataclass(frozen=True)
class SingularPoint:
    location: str
    kind: SingularKind
    lam: float | None = None
    multiplicity: int | None = None


@dataclass(frozen=True)
class SearchConfig:
    """Sweep setup for the admissible-parameter search.

    The target double-root location and a, b are fixed; the leading
    Q-coefficient is swept over [q0_min, q0_max] in q0_steps equal steps and
    the first candidate certified on a dense grid wins.
    """

    a: float = 1.0
    b: float = 1.0
    lambda0: float = 2.0
    q0_min: float = 0.05
    q0_max: float = 5.0
    q0_steps: int = 100
    grid_points: int = 100_000


# ---------------------------------------------------------------------------
# scalar evaluations on an invariant plane


def q_value(params: SurfaceParams, lam: float) -> float:
    return (params.q0 * lam + params.q1) * lam + params.q2


def f_value(params: SurfaceParams, lam: float) -> float:
    return lam * (lam + 1.0) * (params.a * lam - params.b)


def disc_value(params: SurfaceParams, lam: float) -> float:
    """Q(lam)^2 - f(lam)."""
    q = q_value(params, lam)
    return q * q - f_value(params, lam)


def sqrt_disc(params: SurfaceParams, lam: float) -> float:
    """sqrt(Q^2 - f), clamping the tiny negatives that rounding produces near
    the double root."""
    d = disc_value(params, lam)
    if d < 0.0:
        scale = q_value(params, lam) ** 2 + abs(f_value(params, lam))
        if d > -1e-12 * (1.0 + scale):
            return 0.0
        raise InvalidParameterError(f"Q^2 - f < 0 at lam={lam}; parameters not admissible")
    return math.sqrt(d)


def s_minus_q(params: SurfaceParams, lam: float) -> float:
    """sqrt(Q^2 - f) - Q computed stably as (-f) / (sqrt(Q^2 - f) + Q)."""
    s = sqrt_disc(params, lam)
    q = q_value(params, lam)
    denom = s + q
    if denom <= 0.0:
        # q <= -s can only happen for inadmissible parameters; fall back.
        return s - q
    return -f_value(params, lam) / denom


# ---------------------------------------------------------------------------
# polynomial views


def f_poly(params: SurfaceParams) -> RealPolynomial:
    """lam*(lam + 1)*(a*lam - b), expanded."""
    a, b = params.a, params.b
    return RealPolynomial((0.0, -b, a - b, a))


def Q_restricted(params: SurfaceParams) -> RealPolynomial:
    """Q restricted to the plane parameter: q0*lam^2 + q1*lam + q2."""
    return RealPolynomial((params.q2, params.q1, params.q0))


def discriminant_poly(params: SurfaceParams) -> RealPolynomial:
    """The tangency quartic Q(lam)^2 - f(lam); degree drops when q0 = 0."""
    q = Q_restricted(params)
    return q * q - f_poly(params)


# ---------------------------------------------------------------------------
# admissibility


def _require_ab(params: SurfaceParams) -> None:
    if not (params.a > 0.0 and params.b > 0.0):
        raise InvalidParameterError(f"need a > 0 and b > 0, got a={params.a}, b={params.b}")


def _grid_with_refinement(params: SurfaceParams, lam0: float, floor: float) -> np.ndarray:
    """Scan grid covering every feature of the quartic: a dense base grid on a
    box containing all critical points, with geometric refinement stacked near
    the roots of f and near lam0."""
    p = discriminant_poly(params)
    crit = [c.value.real for c in root_clusters(derivative(p).coefficients, 1e-6) if abs(c.value.imag) < 1e-6]
    lo = min([-10.0, lam0 - 1.0] + [c - 1.0 for c in crit])
    hi = max([lam0 + 10.0, params.b / params.a + 1.0] + [c + 1.0 for c in crit])
    n = max(64, int((hi - lo) / floor))
    base = np.linspace(lo, hi, min(n, 400_000))
    special = [-1.0, 0.0, params.b / params.a, lam0]
    extra = []
    for s in special:
        d = np.logspace(-9, 0, 40)
        extra.append(s + d)
        extra.append(s - d)
    return np.unique(np.concatenate([base] + extra))


def _disc_on_grid(params: SurfaceParams, grid: np.ndarray) -> np.ndarray:
    q = (params.q0 * grid + params.q1) * grid + params.q2
    f = grid * (grid + 1.0) * (params.a * grid - params.b)
    return q * q - f


def _double_root_cluster(params: SurfaceParams) -> RootCluster | None:
    """The unique real multiplicity-2 cluster of the tangency quartic, or None."""
    p = discriminant_poly(params)
    if p.degree < 4:
        return None
    clusters = root_clusters(p.coefficients, STRUCTURAL_CLUSTER_TOL)
    real = [c for c in clusters if abs(c.value.imag) <= STRUCTURAL_CLUSTER_TOL * (1.0 + abs(c.value))]
    if len(real) != 1 or real[0].multiplicity != 2:
        return None
    return real[0]


def _polish_double_root(params: SurfaceParams, x0: float, cfg: Tolerances) -> float:
    """Newton on (Q^2 - f)' starting from the cluster centroid."""
    p = discriminant_poly(params)
    dp = derivative(p)
    ddp = derivative(dp)
    x = x0
    for _ in range(60):
        d1 = evaluate(dp, x)
        d2 = evaluate(ddp, x)
        if d2 == 0.0:
            break
        step = d1 / d2
        x -= step
        if abs(step) < 1e-15 * (1.0 + abs(x)):
            break
    return x


def lambda0(params: SurfaceParams, cfg: Tolerances = DEFAULT_TOL) -> float:
    """The unique real double root of Q^2 - f, polished so that both the
    quartic and its derivative vanish there to cfg.polish_tol."""
    _require_ab(params)
    cluster = _double_root_cluster(params)
    if cluster is None:
        raise PreconditionError("parameters do not satisfy condition (i): no unique real double root")
    lam = float(_polish_double_root(params, float(cluster.value.real), cfg))
    p = discriminant_poly(params)
    scale = 1.0 + abs(lam) ** 4 * (1.0 + params.q0 * params.q0)
    if abs(evaluate(p, lam)) > cfg.polish_tol * scale or abs(evaluate(derivative(p), lam)) > cfg.polish_tol * scale:
        raise PreconditionError("double-root polish did not converge")
    return lam


def validate(params: SurfaceParams, cfg: Tolerances = DEFAULT_TOL) -> ValidationReport:
    """Check the two admissibility conditions and the interval normalization.

    condition_i:    Q^2 - f >= 0 on R, vanishing only at one real point, with
                    multiplicity exactly two (multiplicity 3 or 4 is a hard
                    failure, surfaced through the witness).
    condition_star: Q(lam) > sqrt(f(lam)) wherever f >= 0, except at the
                    double root itself.
    lambda0_in_i4:  the double root sits right of b/a, so the interval
                    formulas downstream apply literally.
    """
    _require_ab(params)

    p = discriminant_poly(params)
    if p.degree < 4 or params.q0 == 0.0:
        return ValidationReport(
            condition_i=CheckResult(False, None, "degree of Q^2 - f dropped below 4 (q0 = 0); cannot be >= 0 on R"),
            condition_star=CheckResult(False, None, "not evaluated"),
            lambda0_in_i4=CheckResult(False, None, "not evaluated"),
        )

    cluster = _double_root_cluster(params)
    if cluster is None:
        clusters = root_clusters(p.coefficients, STRUCTURAL_CLUSTER_TOL)
        real = [c for c in clusters if abs(c.value.imag) <= STRUCTURAL_CLUSTER_TOL * (1.0 + abs(c.value))]
        witness = real[0].value.real if real else None
        mults = sorted(c.multiplicity for c in real)
        return ValidationReport(
            condition_i=CheckResult(False, witness, f"real root multiplicities {mults} != [2]"),
            condition_star=CheckResult(False, None, "not evaluated"),
            lambda0_in_i4=CheckResult(False, None, "not evaluated"),
        )

    lam0 = float(_polish_double_root(params, float(cluster.value.real), cfg))
    grid = _grid_with_refinement(params, lam0, cfg.grid_floor)
    disc = _disc_on_grid(params, grid)
    scale = 1.0 + np.abs(grid) ** 4 * (1.0 + params.q0**2)
    bad = np.nonzero(disc < -1e-9 * scale)[0]
    away = np.abs(grid - lam0) > cfg.lambda0_exclusion
    if bad.size and np.any(away[bad]):
        w = float(grid[bad[np.argmax(away[bad])]])
        cond_i = CheckResult(False, w, f"Q^2 - f = {float(_disc_on_grid(params, np.array([w]))[0]):.3e} < 0")
    else:
        cond_i = CheckResult(True, lam0, "unique real double root; nonnegative on scan grid")

    fl0 = f_value(params, lam0)
    ql0 = q_value(params, lam0)
    if cond_i.passed and (fl0 <= 0.0 or abs(ql0 - math.sqrt(fl0)) > 1e-6 * (1.0 + abs(ql0))):
        cond_i = CheckResult(False, lam0, f"at the double root f={fl0:.3e}, Q={ql0:.3e}; need Q = +sqrt(f) > 0")

    f_grid = grid * (grid + 1.0) * (params.a * grid - params.b)
    q_grid = (params.q0 * grid + params.q1) * grid + params.q2
    mask = (f_grid >= 0.0) & (np.abs(grid - lam0) > cfg.lambda0_exclusion)
    gap = q_grid[mask] - np.sqrt(np.maximum(f_grid[mask], 0.0))
    if params.q0 <= 0.0:
        cond_star = CheckResult(False, float(grid[-1]), "q0 <= 0: Q < sqrt(f) for large lam")
    elif np.all(gap > 0.0):
        cond_star = CheckResult(True, None, "Q - sqrt(f) > 0 on the scan grid where f >= 0")
    else:
        idx = np.nonzero(gap <= 0.0)[0][0]
        w = float(grid[mask][idx])
        cond_star = CheckResult(False, w, f"Q - sqrt(f) = {float(gap[idx]):.3e} <= 0")

    if lam0 > params.b / params.a:
        in_i4 = CheckResult(True, lam0, "")
    else:
        in_i4 = CheckResult(
            False, lam0,
            "double root left of b/a; exchange the roles of the first two plane coordinates and retry",
        )

    return ValidationReport(
        condition_i=cond_i,
        condition_star=cond_star,
        lambda0_in_i4=in_i4,
        lambda0=lam0,
        f_at_lambda0=fl0,
        q_at_lambda0=ql0,
    )


def intervals(params: SurfaceParams, cfg: Tolerances = DEFAULT_TOL) -> IntervalPartition:
    """The five open intervals cut by -1, 0, b/a and the double root."""
    lam0 = lambda0(params, cfg)
    ba = params.b / params.a
    if not lam0 > ba:
        raise PreconditionError(f"double root {lam0} not right of b/a = {ba}")
    return IntervalPartition(
        lambda0=lam0,
        i1=(-math.inf, -1.0),
        i2=(-1.0, 0.0),
        i3=(0.0, ba),
        i4minus=(ba, lam0),
        i4plus=(lam0, math.inf),
    )


def singular_locus(params: SurfaceParams, cfg: Tolerances = DEFAULT_TOL) -> list[SingularPoint]:
    """Singular points of the quartic surface.

    The two fixed points of the circle action are always present and are
    elliptic of type E7~.  Every real multiple root of the tangency quartic
    contributes a point on the axis; it is an ordinary double point exactly
    when the multiplicity is two.
    """
    _require_ab(params)
    out = [
        SingularPoint("Pinf", SingularKind.ELLIPTIC_E7),
        SingularPoint("PinfBar", SingularKind.ELLIPTIC_E7),
    ]
    p = discriminant_poly(params)
    if p.degree < 1:
        return out
    for cl in root_clusters(p.coefficients, STRUCTURAL_CLUSTER_TOL):
        if cl.multiplicity < 2:
            continue
        if abs(cl.value.imag) > STRUCTURAL_CLUSTER_TOL * (1.0 + abs(cl.value)):
            continue
        lam = float(cl.value.real)
        if cl.multiplicity == 2:
            lam = float(_polish_double_root(params, lam, cfg))
        kind = SingularKind.ODP if cl.multiplicity == 2 else SingularKind.NON_ODP
        out.append(
            SingularPoint(f"A(lam={lam:.12g})", kind, lam=lam, multiplicity=cl.multiplicity)
        )
    return out


def complex_multiple_roots(params: SurfaceParams) -> list[RootCluster]:
    """Non-real multiple roots of the tangency quartic, listed separately from
    the real axis points."""
    p = discriminant_poly(params)
    return [
        cl
        for cl in root_clusters(p.coefficients, STRUCTURAL_CLUSTER_TOL)
        if cl.multiplicity >= 2 and abs(cl.value.imag) > STRUCTURAL_CLUSTER_TOL * (1.0 + abs(cl.value))
    ]


def tangency_coefficients(a: float, b: float, lam0: float) -> tuple[float, float]:
    """Right-hand sides of the two linear constraints pinning Q at lam0:
    Q(lam0) = sqrt(f(lam0)) and 2*Q*Q' = f' there."""
    f0 = lam0 * (lam0 + 1.0) * (a * lam0 - b)
    if f0 <= 0.0:
        raise NotFoundError(f"target lam0={lam0} has f <= 0; no admissible surface there")
    s = math.sqrt(f0)
    df = 3.0 * a * lam0 * lam0 + 2.0 * (a - b) * lam0 - b
    return s, df / (2.0 * s)


def params_for_q0(search: SearchConfig, q0: float) -> SurfaceParams:
    """Solve the two tangency constraints for (q1, q2) given the free q0."""
    s, d = tangency_coefficients(search.a, search.b, search.lambda0)
    lam0 = search.lambda0
    q1 = d - 2.0 * q0 * lam0
    q2 = s - d * lam0 + q0 * lam0 * lam0
    return SurfaceParams(q0=q0, q1=q1, q2=q2, a=search.a, b=search.b)


def find_valid_params(search: SearchConfig, cfg: Tolerances = DEFAULT_TOL) -> SurfaceParams:
    """First admissible parameter set along the deterministic q0 sweep.

    Candidates satisfy the double-root constraints at the target lambda0 by
    construction; each is accepted only after validate() passes and a dense
    uniform grid re-check of both admissibility conditions succeeds.  Raises
    NotFoundError carrying the best near-miss.
    """
    if search.q0_steps < 1 or search.q0_max < search.q0_min:
        raise NotFoundError("empty q0 sweep range")
    if not search.lambda0 > search.b / search.a:
        raise NotFoundError("target lambda0 must satisfy lambda0 > b/a")
    best: tuple[int, SurfaceParams, float | None] | None = None
    qs = np.linspace(search.q0_min, search.q0_max, search.q0_steps)
    for q0 in qs:
        cand = params_for_q0(search, float(q0))
        report = validate(cand, cfg)
        if report.passed and _dense_grid_ok(cand, report.lambda0, search.grid_points, cfg):
            return cand
        score = sum(int(c.passed) for c in (report.condition_i, report.condition_star, report.lambda0_in_i4))
        fail = report.condition_i if not report.condition_i.passed else report.condition_star
        if best is None or score > best[0]:
            best = (score, cand, fail.witness)
    assert best is not None
    raise NotFoundError(
        f"sweep exhausted; best near-miss {best[1].as_dict()} violating near lam={best[2]}"
    )


def _dense_grid_ok(params: SurfaceParams, lam0: float, n: int, cfg: Tolerances) -> bool:
    """Uniform dense-grid certification of both conditions (the sweep's
    acceptance gate; the adaptive scan in validate() is refined where it
    matters, this one is brute)."""
    lo, hi = -10.0 - abs(lam0), lam0 + 10.0
    grid = np.linspace(lo, hi, n)
    disc = _disc_on_grid(params, grid)
    scale = 1.0 + np.abs(grid) ** 4 * (1.0 + params.q0**2)
    if np.any((disc < -1e-9 * scale) & (np.abs(grid - lam0) > cfg.lambda0_exclusion)):
        return False
    f_grid = grid * (grid + 1.0) * (params.a * grid - params.b)
    q_grid = (params.q0 * grid + params.q1) * grid + params.q2
    mask = (f_grid >= 0.0) & (np.abs(grid - lam0) > cfg.lambda0_exclusion)
    return bool(np.all(q_grid[mask] - np.sqrt(np.maximum(f_grid[mask], 0.0)) > 0.0) and params.q0 > 0.0)
