"""Constraint-propagation elimination over the 24 small resolutions.

For each resolution and each of the two ways of distributing the special
components over the f < 0 intervals, three constraint groups apply:

  A  the orbit-family radius h2 of {l1, l2} must be critical-point free on
     I2, since only orbit conics project from candidate fibers there;
  B  the radius governing the component chosen over I1 (h1 for the plus
     component, h3 for the minus one) must be critical-point free on I1, and
     the complementary radius must be critical-point free on I3;
  C  crossing lambda = -1 and lambda = 0 the candidate fibers move between
     exceptional curves whose affine coordinates are glued reciprocally, so
     class-level limits must pair Zero with Infinity across each crossing.

A choice survives under a hypothesis only if no constraint fires; exactly
two of the 48 pairs do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .analysis import LimitKind, RadiusAnalysis, _pair_key, _triple_key
from .conics import ConicType
from .errors import PreconditionError, UnclassifiableLimitError
from .resolution import HKind, LinearForm, ResolutionChoice, all_resolutions
from .surface import Interval, SurfaceParams


@dataclass(frozen=True)
class TypeAssignment:
    """Which touching-conic family carries the candidate fibers per interval."""

    by_interval: tuple[tuple[str, ConicType, str], ...]

    def label(self, interval: str) -> ConicType:
        for name, kind, _ in self.by_interval:
            if name == interval:
                return kind
        raise KeyError(interval)


class Hypothesis(enum.Enum):
    PLUS_OVER_I1 = "L+ over I1"
    MINUS_OVER_I1 = "L- over I1"


class Verdict(enum.Enum):
    SURVIVES = "Survives"
    ELIMINATED = "Eliminated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Reason:
    code: str
    description: str
    witness: float | str | None


@dataclass(frozen=True)
class EliminationTrace:
    choice: ResolutionChoice
    hypothesis: Hypothesis
    verdict: Verdict
    reasons: tuple[Reason, ...]


@dataclass(frozen=True)
class EliminationOutcome:
    survivors: tuple[tuple[ResolutionChoice, Hypothesis], ...]
    traces: tuple[EliminationTrace, ...]
    inconclusive: bool


class ComponentChoice(enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"
    BOTH = "Both"


@dataclass(frozen=True)
class ComponentSchedule:
    i1: ComponentChoice
    i2: ComponentChoice
    i3: ComponentChoice
    i4minus: ComponentChoice
    i4plus: ComponentChoice

    def gamma_progression(self) -> tuple[int, int, int]:
        """Which exceptional curve the chosen component touches as the plane
        parameter sweeps I1 -> I2 -> I3 (plus components touch the first
        curve of the chain, minus components the third, orbit components the
        middle one)."""
        first = 1 if self.i1 is ComponentChoice.PLUS else 3
        third = 1 if self.i3 is ComponentChoice.PLUS else 3
        return (first, 2, third)


def assign_types(params: SurfaceParams) -> TypeAssignment:
    """The interval-to-family table for candidate fiber images.

    Fixed for every admissible parameter set: the special families exist only
    where f < 0; over I2 the generic family is excluded because its radius
    function always degenerates somewhere inside; over I4 the orbit family is
    excluded because its exceptional-curve circles already sweep the middle
    curve from I2.
    """
    return TypeAssignment(
        by_interval=(
            ("I1", ConicType.SPECIAL, "f < 0 on I1: only special and orbit conics exist, and orbit circles on the middle exceptional curve are claimed by I2"),
            ("I2", ConicType.ORBIT, "the generic-family radius has a critical point inside I2, so its components degenerate there and cannot all be fibers"),
            ("I3", ConicType.SPECIAL, "f < 0 on I3: same dichotomy as I1"),
            ("I4minus", ConicType.GENERIC, "f > 0 right of b/a and the generic radius is critical-point free off the double root"),
            ("I4plus", ConicType.GENERIC, "same as I4minus, on the far side of the double root"),
            ("lambda0", ConicType.LINE_IMAGE, "on the double-root plane the conic family degenerates to a line through the surface node"),
        )
    )


def _limit_or_none(cache: RadiusAnalysis, kind: HKind, key, edge: float, side: str):
    try:
        return cache.limit(kind, key, edge, side)
    except UnclassifiableLimitError as exc:
        return exc


def _match_reason(
    code: str,
    crossing: str,
    inner: LimitKind | Exception,
    outer: LimitKind | Exception,
    inner_name: str,
    outer_name: str,
) -> tuple[Reason | None, bool]:
    """(reason, inconclusive) for one boundary-matching constraint."""
    if isinstance(inner, Exception) or isinstance(outer, Exception):
        return (
            Reason(code, f"unclassifiable limit at {crossing}", str(inner if isinstance(inner, Exception) else outer)),
            True,
        )
    if outer is inner.reciprocal:
        return None, False
    return (
        Reason(
            code,
            f"limit mismatch at {crossing}: {inner_name} -> {inner.value} "
            f"needs {outer_name} -> {inner.reciprocal.value}, got {outer.value}",
            f"{inner.value}/{outer.value}",
        ),
        False,
    )


def _trace(
    cache: RadiusAnalysis,
    choice: ResolutionChoice,
    hyp: Hypothesis,
) -> EliminationTrace:
    params = cache.params
    reasons: list[Reason] = []
    inconclusive = False
    pair = _pair_key(choice)
    triple = _triple_key(choice)
    ell1 = choice.ell1

    # A: orbit-family degeneration inside I2
    locs = cache.critical(HKind.H2, pair, cache.span(Interval.I2))
    if locs:
        reasons.append(Reason("A", f"h2 of {sorted(f.value for f in pair)} has a critical point on I2", locs[0]))

    # B: degeneration of the chosen special components
    if hyp is Hypothesis.PLUS_OVER_I1:
        govern_i1 = (HKind.H1, ell1, f"h1 (l1={ell1.value})")
        govern_i3 = (HKind.H3, triple, "h3")
    else:
        govern_i1 = (HKind.H3, triple, "h3")
        govern_i3 = (HKind.H1, ell1, f"h1 (l1={ell1.value})")
    locs = cache.critical(govern_i1[0], govern_i1[1], cache.span(Interval.I1))
    if locs:
        reasons.append(Reason("B", f"{govern_i1[2]} has a critical point on I1", locs[0]))
    locs = cache.critical(govern_i3[0], govern_i3[1], cache.span(Interval.I3))
    if locs:
        reasons.append(Reason("B", f"{govern_i3[2]} has a critical point on I3", locs[0]))

    # C: reciprocal gluing of the limits across lambda = -1 and lambda = 0
    h2_at_m1 = _limit_or_none(cache, HKind.H2, pair, -1.0, "right")
    h2_at_0 = _limit_or_none(cache, HKind.H2, pair, 0.0, "left")
    if hyp is Hypothesis.PLUS_OVER_I1:
        inner_m1 = _limit_or_none(cache, HKind.H1, ell1, -1.0, "left")
        inner_m1_name = f"h1 (l1={ell1.value}) at -1-"
        outer_0 = _limit_or_none(cache, HKind.H3, triple, 0.0, "right")
        outer_0_name = "h3 at 0+"
    else:
        inner_m1 = _limit_or_none(cache, HKind.H3, triple, -1.0, "left")
        inner_m1_name = "h3 at -1-"
        outer_0 = _limit_or_none(cache, HKind.H1, ell1, 0.0, "right")
        outer_0_name = f"h1 (l1={ell1.value}) at 0+"

    reason, inc = _match_reason("C", "lambda = -1", inner_m1, h2_at_m1, inner_m1_name, "h2 at -1+")
    if reason:
        reasons.append(reason)
    inconclusive |= inc
    reason, inc = _match_reason("C", "lambda = 0", h2_at_0, outer_0, "h2 at 0-", outer_0_name)
    if reason:
        reasons.append(reason)
    inconclusive |= inc

    if inconclusive:
        verdict = Verdict.INCONCLUSIVE
    elif reasons:
        verdict = Verdict.ELIMINATED
    else:
        verdict = Verdict.SURVIVES
    return EliminationTrace(choice=choice, hypothesis=hyp, verdict=verdict, reasons=tuple(reasons))


def eliminate(params: SurfaceParams, cache: RadiusAnalysis | None = None) -> EliminationOutcome:
    """Run all 24 x 2 hypothesis checks with full traces.

    Any unclassifiable limit makes the whole outcome inconclusive rather than
    promoting a silent survivor.
    """
    cache = cache or RadiusAnalysis(params)
    traces = []
    survivors = []
    inconclusive = False
    for choice in all_resolutions():
        for hyp in Hypothesis:
            tr = _trace(cache, choice, hyp)
            traces.append(tr)
            if tr.verdict is Verdict.SURVIVES:
                survivors.append((choice, hyp))
            elif tr.verdict is Verdict.INCONCLUSIVE:
                inconclusive = True
    return EliminationOutcome(
        survivors=tuple(survivors), traces=tuple(traces), inconclusive=inconclusive
    )


EXPECTED_SURVIVORS = (
    (
        ResolutionChoice(LinearForm.X1, LinearForm.X0_PLUS_X1, LinearForm.X0),
        Hypothesis.PLUS_OVER_I1,
    ),
    (
        ResolutionChoice(LinearForm.AX0_MINUS_BX1, LinearForm.X0, LinearForm.X0_PLUS_X1),
        Hypothesis.MINUS_OVER_I1,
    ),
)


def component_schedule(
    choice: ResolutionChoice,
    params: SurfaceParams,
    cache: RadiusAnalysis | None = None,
) -> ComponentSchedule:
    """Which irreducible component carries the candidate fibers per interval.

    I1 follows the surviving hypothesis and I3 is its opposite; over I2 both
    components of each orbit preimage must be taken together.  Over I4 the
    selection is pinned by continuity at b/a: the circle traced by the chosen
    component on the exceptional chain shrinks to a point (limit Zero) or
    escapes to the far fixed point (limit Infinity), and the fixed-line
    circle of the generic component over I4minus must do the same, which
    singles out the reciprocal-radius side.  By convention Plus over I4 names
    the component meeting the fixed line in the larger circle.
    """
    cache = cache or RadiusAnalysis(params)
    matching = [tr for tr in (_trace(cache, choice, h) for h in Hypothesis) if tr.verdict is Verdict.SURVIVES]
    if not matching:
        raise PreconditionError(f"{choice.label()} is not a surviving resolution")
    hyp = matching[0].hypothesis
    if hyp is Hypothesis.PLUS_OVER_I1:
        i1, i3 = ComponentChoice.PLUS, ComponentChoice.MINUS
        govern = (HKind.H3, _triple_key(choice))
    else:
        i1, i3 = ComponentChoice.MINUS, ComponentChoice.PLUS
        govern = (HKind.H1, choice.ell1)
    ba = params.b / params.a
    lim = cache.limit(govern[0], govern[1], ba, "left")
    i4minus = ComponentChoice.MINUS if lim is LimitKind.ZERO else ComponentChoice.PLUS
    i4plus = ComponentChoice.PLUS if i4minus is ComponentChoice.MINUS else ComponentChoice.MINUS
    return ComponentSchedule(i1=i1, i2=ComponentChoice.BOTH, i3=i3, i4minus=i4minus, i4plus=i4plus)


@dataclass(frozen=True)
class ClassificationReport:
    assignment: TypeAssignment
    outcome: EliminationOutcome
    schedules: tuple[tuple[ResolutionChoice, Hypothesis, ComponentSchedule], ...]


def classify(params: SurfaceParams, cache: RadiusAnalysis | None = None) -> ClassificationReport:
    """Full pipeline: type table, elimination with traces, and the component
    schedules of the survivors."""
    cache = cache or RadiusAnalysis(params)
    outcome = eliminate(params, cache=cache)
    schedules = tuple(
        (choice, hyp, component_schedule(choice, params, cache=cache))
        for choice, hyp in outcome.survivors
    )
    return ClassificationReport(
        assignment=assign_types(params), outcome=outcome, schedules=schedules
    )
