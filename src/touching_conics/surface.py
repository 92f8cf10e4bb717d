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

from .errors import InvalidParameterError, NotFoundError, PreconditionError
from .poly import RealPolynomial, companion_roots, deflate, derivative, evaluate, square_root_roots


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
    the first admissible candidate wins.
    """

    a: float = 1.0
    b: float = 1.0
    lambda0: float = 2.0
    q0_min: float = 0.05
    q0_max: float = 5.0
    q0_steps: int = 100


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

# Size, relative to the terms of D = Q^2 - f, below which D and D' count as
# zero at a polished double root.  Rounding leaves them near 1e-16 of those
# terms at a true double root.  The README set rounded to 8 digits splits it
# into a complex pair, with D = 3.5e-8 at its least point, about 1e-9 of the
# terms there.
POLISH_TOL = 1e-10


def _require_ab(params: SurfaceParams) -> None:
    if not all(math.isfinite(v) for v in vars(params).values()):
        raise InvalidParameterError(f"parameters must be finite, got {params.as_dict()}")
    if not (params.a > 0.0 and params.b > 0.0):
        raise InvalidParameterError(f"need a > 0 and b > 0, got a={params.a}, b={params.b}")


def _polish_double_root(params: SurfaceParams, x0: float) -> float:
    """Newton on (Q^2 - f)' starting from x0."""
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


def _double_root_tol(params: SurfaceParams, x: float) -> float:
    """Size below which D = Q^2 - f and D' count as zero at x, scaled like
    the terms of D there."""
    return POLISH_TOL * (1.0 + abs(x) ** 4 * (1.0 + params.q0 * params.q0))


def _vanishing_order(params: SurfaceParams, derivs, x: float) -> int:
    """How many of D, D', D'', ... (derivs, in that order) vanish at x before
    the first that does not, to the double-root tolerance: the one
    multiplicity test.  validate asks it for 2 at lambda0 (D and D' vanish,
    a double root), singular_locus for the multiplicity of each axis point."""
    tol = _double_root_tol(params, x)
    return next((k for k, d in enumerate(derivs) if abs(evaluate(d, x)) > tol), len(derivs))


def _double_root_candidates(params: SurfaceParams, p: RealPolynomial, dp: RealPolynomial) -> list[float]:
    """The real parts of the roots of D' = dp, each Newton-polished, least
    D = p first: validate takes the first as lambda0, singular_locus the
    first that passes the double-root test."""
    return sorted(
        (_polish_double_root(params, float(r.real)) for r in companion_roots(dp.coefficients)),
        key=lambda x: evaluate(p, x),
    )


def validate(params: SurfaceParams) -> ValidationReport:
    """Check the two admissibility conditions and the interval normalization,
    exactly.  With D = Q^2 - f, a quartic of leading coefficient q0^2:

    lambda0:        the real root of the cubic D' where D is least, after a
                    Newton polish; it is the double root when D and D'
                    vanish there to POLISH_TOL.
    condition_i:    D >= 0 on R, vanishing only at lambda0, to order two, and
                    Q = +sqrt(f) > 0 there.  Deflating D twice at lambda0
                    leaves a quadratic r; D has no other real root exactly
                    when disc r < 0, and no second double root when D is
                    above the same tolerance at the vertex of r.
    condition_star: Q > sqrt(f) wherever f >= 0, except at the double root.
                    Given (i), Q^2 > f off lambda0, so this holds exactly
                    when Q > 0 on [-1, 0] and [b/a, inf): q0 > 0, Q > 0 at
                    -1, 0 and b/a, and no real root of Q lies in either set.
    lambda0_in_i4:  the double root sits right of b/a, so the interval
                    formulas downstream apply literally.

    Each failure carries as witness the offending point: the least point of
    D, a further real root of D, an endpoint or a root of Q.
    """
    _require_ab(params)
    not_evaluated = CheckResult(False, None, "not evaluated: needs condition (i)")
    p = discriminant_poly(params)
    if p.degree < 4:
        return ValidationReport(
            condition_i=CheckResult(False, None, "degree of Q^2 - f dropped below 4 (q0 = 0); cannot be >= 0 on R"),
            condition_star=not_evaluated,
            lambda0_in_i4=not_evaluated,
        )

    dp = derivative(p)
    lam0 = _double_root_candidates(params, p, dp)[0]
    if _vanishing_order(params, (p, dp), lam0) < 2:
        d0 = evaluate(p, lam0)
        what = "< 0" if d0 < 0.0 else "> 0 at its least point: no real double root"
        return ValidationReport(
            condition_i=CheckResult(False, lam0, f"Q^2 - f = {d0:.3e} {what}"),
            condition_star=not_evaluated,
            lambda0_in_i4=not_evaluated,
        )

    fl0 = f_value(params, lam0)
    ql0 = q_value(params, lam0)
    # Q^2 - f = (lam - lam0)^2 r; at the vertex v of r, (v - lam0)^2 r(v) is
    # <= 0 when disc r >= 0, and within the double-root tolerance when v is a
    # second double root
    c, b, a = deflate(deflate(p, lam0), lam0).coefficients
    v = -b / (2.0 * a)
    dv = (v - lam0) ** 2 * (c - b * b / (4.0 * a))
    if dv <= _double_root_tol(params, v):
        cond_i = CheckResult(False, v, f"Q^2 - f = (lam - lambda0)^2 r is {dv:.3e} at the vertex of r: a further real root")
    elif not (fl0 > 0.0 and ql0 > 0.0):
        cond_i = CheckResult(False, lam0, f"at the double root f={fl0:.3e}, Q={ql0:.3e}; need Q = +sqrt(f) > 0")
    else:
        cond_i = CheckResult(True, lam0, "unique real double root: Q^2 - f = (lam - lambda0)^2 r with r > 0")

    ba = params.b / params.a
    if not cond_i.passed:
        cond_star = not_evaluated
    elif params.q0 <= 0.0:
        cond_star = CheckResult(False, None, "q0 <= 0: Q < sqrt(f) for large lam")
    else:
        cond_star = CheckResult(True, None, "Q > 0 on [-1, 0] and [b/a, inf), so Q > sqrt(f) there off the double root")
        for end in (-1.0, 0.0, ba):
            if not q_value(params, end) > 0.0:
                cond_star = CheckResult(False, end, f"Q = {q_value(params, end):.3e} <= 0 at the root {end:.12g} of f")
                break
        else:
            # the sign of the discriminant decides whether Q has real roots
            real = params.q1 * params.q1 >= 4.0 * params.q0 * params.q2
            roots = companion_roots((params.q2, params.q1, params.q0)) if real else []
            for root in sorted(float(r.real) for r in roots):
                if -1.0 <= root <= 0.0 or root >= ba:
                    cond_star = CheckResult(False, root, "Q vanishes where f >= 0")
                    break

    if lam0 > ba:
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


def lambda0(params: SurfaceParams) -> float:
    """The double root of Q^2 - f; raises PreconditionError, naming the
    failed condition, unless validate() passes."""
    rep = validate(params)
    for name, check in (
        ("condition (i)", rep.condition_i),
        ("condition (*)", rep.condition_star),
        ("lambda0 > b/a", rep.lambda0_in_i4),
    ):
        if not check.passed:
            raise PreconditionError(f"parameters not admissible: {name} fails: {check.detail}")
    return rep.lambda0


def intervals(params: SurfaceParams) -> IntervalPartition:
    """The five open intervals cut by -1, 0, b/a and the double root; raises
    PreconditionError unless validate() passes."""
    lam0 = lambda0(params)
    ba = params.b / params.a
    return IntervalPartition(
        lambda0=lam0,
        i1=(-math.inf, -1.0),
        i2=(-1.0, 0.0),
        i3=(0.0, ba),
        i4minus=(ba, lam0),
        i4plus=(lam0, math.inf),
    )


def singular_locus(params: SurfaceParams) -> list[SingularPoint]:
    """Singular points of the quartic surface.

    The two fixed points of the circle action are always present and are
    elliptic of type E7~.  Each real root of multiplicity m >= 2 of the
    tangency quartic D = Q^2 - f is a point on the axis, an ordinary double
    point exactly when m = 2; it is a root of D^(m-1) where D, ..., D^(m-1)
    all pass validate's double-root tolerance.  A root with m = 3 or 4 is
    the root of D''' or a root of D'', and leaves no other multiple root.
    Otherwise the double root is the first of validate's candidates that
    passes, validate's lambda0 on admissible input, and a second one is the
    root of D / (lam - lambda0)^2 when that quadratic is a constant times a
    square.
    """
    _require_ab(params)
    out = [
        SingularPoint("Pinf", SingularKind.ELLIPTIC_E7),
        SingularPoint("PinfBar", SingularKind.ELLIPTIC_E7),
    ]
    p = discriminant_poly(params)
    dp = derivative(p)
    ddp = derivative(dp)
    dddp = derivative(ddp)
    # a root of D is a root of at most deg D - 1 of its derivatives
    derivs = (p, dp, ddp, dddp)[: p.degree]

    def axis_point(lam: float, multiplicity: int) -> SingularPoint:
        kind = SingularKind.ODP if multiplicity == 2 else SingularKind.NON_ODP
        return SingularPoint(f"A(lam={lam:.12g})", kind, lam=lam, multiplicity=multiplicity)

    for r in companion_roots(dddp.coefficients) + companion_roots(ddp.coefficients):
        lam = float(r.real)
        m = _vanishing_order(params, derivs, lam)
        if m > 2:
            return out + [axis_point(lam, m)]

    cands = _double_root_candidates(params, p, dp)
    first = next((x for x in cands if _vanishing_order(params, (p, dp), x) == 2), None)
    if first is None:
        return out
    second = square_root_roots(deflate(deflate(p, first), first).coefficients) or []
    return out + [axis_point(lam, 2) for lam in sorted([first, *second])]


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


def find_valid_params(search: SearchConfig) -> SurfaceParams:
    """First admissible parameter set along the deterministic q0 sweep.

    Candidates satisfy the double-root constraints at the target lambda0 by
    construction; the first that validate() passes is returned.  Raises
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
        report = validate(cand)
        if report.passed:
            return cand
        score = sum(int(c.passed) for c in (report.condition_i, report.condition_star, report.lambda0_in_i4))
        fail = report.condition_i if not report.condition_i.passed else report.condition_star
        if best is None or score > best[0]:
            best = (score, cand, fail.witness)
    assert best is not None
    raise NotFoundError(
        f"sweep exhausted; best near-miss {best[1].as_dict()} violating near lam={best[2]}"
    )
