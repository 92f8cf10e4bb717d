"""Critical-point scans, endpoint limits, the verification tables, and the
degeneration utilities."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from oracles import (
    FamilyLabel,
    ReferencePolynomial,
    LadderGaveUpError,
    LazyAnalysis,
    LimitKind,
    NormalBundleVerdict,
    ScanConfig,
    central_difference,
    critical_points,
    endpoint_limit,
    analysis_of,
    h_handle,
    k_profile,
    normal_bundle_at,
    pairing_by_bisection,
    psi_by_grid,
    vanishing_order,
    verify_h_tables_by_row,
)
from touching_conics.analysis import (
    PSI,
    _function_index,
    _radius_functions,
    domain_side,
    h0_critical_on_i2,
    h0_pairing,
    h0_pairings,
    limit,
    verify_h_tables,
)
from touching_conics.errors import DomainError, InputError, PreconditionError
from touching_conics.resolution import Edge, HKind, LinearForm, ResolutionChoice, all_resolutions
from touching_conics.surface import Interval, SearchConfig, f_value, intervals, params_for_q0, q_value


CH0 = all_resolutions()[0]


def test_critical_points_parabola():
    rep = critical_points(lambda x: (x - 0.7) ** 2, (-0.3, 1.7))
    assert rep.count == 1
    assert abs(rep.points[0].location - 0.7) < 1e-8


def test_critical_points_monotone():
    rep = critical_points(lambda x: 3.0 * x + 1.0, (0.0, 5.0))
    assert rep.count == 0


def test_critical_points_needs_domain():
    with pytest.raises(InputError):
        critical_points(lambda x: float("nan"), (0.0, 1.0))


def test_critical_points_unbounded_tail():
    # single interior minimum on an unbounded interval
    rep = critical_points(lambda x: x + 4.0 / x, (0.0, math.inf))
    assert rep.count == 1
    assert abs(rep.points[0].location - 2.0) < 1e-7


def test_h0_unique_critical_point_on_i2(params_star):
    rep = critical_points(h_handle(HKind.H0, CH0, params_star), (-1.0, 0.0))
    assert rep.count == 1


def test_endpoint_limit_reciprocal_example():
    assert endpoint_limit(lambda x: 1.0 / x, 0.0, "right").kind is LimitKind.INFINITY


def test_endpoint_limit_finite():
    lim = endpoint_limit(lambda x: 3.0 + x * x, 0.0, "right")
    assert lim.kind is LimitKind.FINITE
    assert abs(lim.value - 3.0) < 1e-6


def test_endpoint_limit_unclassifiable():
    with pytest.raises(LadderGaveUpError):
        endpoint_limit(lambda x: math.sin(1.0 / x), 0.0, "right")


def test_endpoint_limit_h1_at_minus_one(params_star):
    h = h_handle(HKind.H1, ResolutionChoice(LinearForm.X1, LinearForm.X0, LinearForm.X0_PLUS_X1), params_star)
    assert endpoint_limit(h, -1.0, "left").kind is LimitKind.ZERO


def test_endpoint_limit_h2_example(params_star):
    h = h_handle(
        HKind.H2,
        ResolutionChoice(LinearForm.X0_PLUS_X1, LinearForm.AX0_MINUS_BX1, LinearForm.X0),
        params_star,
    )
    assert endpoint_limit(h, -1.0, "right").kind is LimitKind.INFINITY


def test_verify_h_tables_params_star(params_star):
    rep = verify_h_tables(analysis_of(params_star))
    assert rep.passed, [r for r in rep.rows if not r.passed]
    assert len(rep.rows) >= 60
    # the stated limit rows alone exceed twenty
    assert sum("limit" in r.check for r in rep.rows) >= 20


def test_h_table_specific_rows(params_star):
    rep = verify_h_tables(analysis_of(params_star))
    row = {(r.function, r.choice, r.check): (r.expected, r.computed) for r in rep.rows}
    assert row[("h2", "{X0,X1}", "limit at -1.0 (right)")] == ("Zero", "Zero")
    assert row[("h2", "{X0,X1}", "limit at 0.0 (left)")] == ("Infinity", "Infinity")
    assert row[("h2", "{X0,X1}", "limit at b/a (right)")] == ("Zero", "Zero")
    assert row[("h2", "{X0,X1}", "limit at +inf (right)")] == ("Infinity", "Infinity")
    assert row[("h3", "{X0,X0plusX1,X1}", "limit at 0.0 (right)")] == ("Infinity", "Infinity")
    assert row[("h3", "{X0,X0plusX1,X1}", "limit at b/a (left)")] == ("Zero", "Zero")


def test_gamma_and_h0_critical_points_coincide(params_star):
    crit_h0 = h0_critical_on_i2(analysis_of(params_star))
    gamma = lambda lam: q_value(params_star, lam) ** 2 / f_value(params_star, lam)
    rep = critical_points(gamma, (-1.0, 0.0))
    assert rep.count == 1
    assert abs(rep.points[0].location - crit_h0) < 1e-8


def test_h1_and_h1_squared_critical_points_coincide(params_star):
    ch = ResolutionChoice(LinearForm.X1, LinearForm.X0, LinearForm.X0_PLUS_X1)
    h = h_handle(HKind.H1, ch, params_star)
    part = intervals(params_star)
    rep = critical_points(h, part.i3)
    rep_sq = critical_points(lambda lam: h(lam) ** 2, part.i3)
    assert rep.count == rep_sq.count == 1
    assert abs(rep.points[0].location - rep_sq.points[0].location) < 1e-8


def test_scan_stable_under_doubling(params_star):
    h = h_handle(HKind.H0, CH0, params_star)
    a = critical_points(h, (-1.0, 0.0), ScanConfig(grid=800))
    b = critical_points(h, (-1.0, 0.0), ScanConfig(grid=1600))
    assert a.count == b.count == 1
    assert abs(a.points[0].location - b.points[0].location) < 1e-7


def test_normal_bundle_verdicts(params_star):
    crit = h0_critical_on_i2(analysis_of(params_star))
    ch = ResolutionChoice(LinearForm.X1, LinearForm.X0_PLUS_X1, LinearForm.X0)
    assert normal_bundle_at(FamilyLabel.GEN_PLUS, ch, analysis_of(params_star), crit) is NormalBundleVerdict.DEGENERATE
    part = intervals(params_star)
    lam4 = 0.5 * (part.i4minus[0] + part.lambda0)
    assert normal_bundle_at(FamilyLabel.GEN_PLUS, ch, analysis_of(params_star), lam4) is NormalBundleVerdict.BALANCED
    orbit_ch = ResolutionChoice(LinearForm.X0, LinearForm.X1, LinearForm.X0_PLUS_X1)
    assert normal_bundle_at(FamilyLabel.ORBIT, orbit_ch, analysis_of(params_star), -0.5) is NormalBundleVerdict.BALANCED


def test_normal_bundle_domain_check(params_star):
    with pytest.raises(DomainError):
        normal_bundle_at(FamilyLabel.SP_PLUS, CH0, analysis_of(params_star), -0.5)


def test_degenerate_set_has_measure_zero(params_star):
    ch = ResolutionChoice(LinearForm.X1, LinearForm.X0_PLUS_X1, LinearForm.X0)
    cache = analysis_of(params_star)
    grid = np.linspace(-0.999, -0.001, 1000)
    hits = sum(
        normal_bundle_at(FamilyLabel.GEN_PLUS, ch, cache, float(lam))
        is NormalBundleVerdict.DEGENERATE
        for lam in grid
    )
    assert hits <= 1


def test_h0_pairing(params_star):
    crit = h0_critical_on_i2(analysis_of(params_star))
    h = h_handle(HKind.H0, CH0, params_star)
    for lam in (-0.9, -0.6, crit + 0.1, -0.05):
        if abs(lam - crit) < 1e-3:
            continue
        mu = h0_pairing(analysis_of(params_star), lam)
        assert (lam - crit) * (mu - crit) < 0.0  # opposite sides
        assert abs(h(mu) - h(lam)) < 1e-8


def test_h0_pairing_matches_bisection(params_draws):
    for params in params_draws:
        cache = analysis_of(params)
        crit = h0_critical_on_i2(cache)
        h = h_handle(HKind.H0, CH0, params)
        for lam in (-0.82, -0.64, -0.46, -0.28, -0.1):
            if abs(lam - crit) < 1e-3:
                continue
            mu = h0_pairing(cache, lam)
            assert abs(mu - pairing_by_bisection(h, lam, crit)) <= 1e-9 * abs(mu)


def test_stacked_pairings_equal_the_planes_paired_one_at_a_time(params_draws):
    for params in params_draws:
        cache = analysis_of(params)
        crit = h0_critical_on_i2(cache)
        lams = [lam for lam in (-0.82, -0.64, -0.46, -0.28, -0.1) if abs(lam - crit) >= 1e-3]
        assert h0_pairings(cache, lams, crit) == [h0_pairing(cache, lam) for lam in lams]


def test_pairing_errors_come_in_the_order_of_the_planes(params_star):
    # -1e-300 has no partner inside I2, and at -5e-324 c = Q^2 / f overflows,
    # so the solver refuses that quartic: as when the planes are paired one
    # at a time, the first plane that fails names the error
    cache = analysis_of(params_star)
    crit = h0_critical_on_i2(cache)
    with pytest.raises(PreconditionError, match="no partner of -1e-300"):
        h0_pairings(cache, [-0.82, -1e-300, -5e-324], crit)
    with pytest.raises(DomainError, match="finite coefficients"):
        h0_pairings(cache, [-0.82, -5e-324, -1e-300], crit)
    with pytest.raises(PreconditionError, match="no partner of -1e-300"):
        h0_pairings(cache, [-1e-300, 0.5], crit)
    with pytest.raises(DomainError, match="lam in I2"):
        h0_pairings(cache, [-0.82, 0.5, -1e-300], crit)


def test_h0_pairing_rejects_critical_plane(params_star):
    crit = h0_critical_on_i2(analysis_of(params_star))
    with pytest.raises(DomainError):
        h0_pairing(analysis_of(params_star), crit)


@pytest.mark.parametrize("offset", [2e-9, -2e-9])
def test_h0_pairing_rejects_planes_within_rounding_of_the_critical_one(params_star, offset):
    # g = Q / sqrt(f) is within rounding of its minimum here: the quartic's
    # roots merge into crit itself (+2e-9) or both fall on one side (-2e-9)
    cache = analysis_of(params_star)
    crit = h0_critical_on_i2(cache)
    with pytest.raises(DomainError, match="critical plane"):
        h0_pairing(cache, crit + offset)


@pytest.mark.parametrize("offset", [1e-7, -1e-7])
def test_h0_pairing_just_outside_the_critical_window(params_draws, offset):
    for params in params_draws:
        cache = analysis_of(params)
        crit = h0_critical_on_i2(cache)
        lam = crit + offset
        mu = h0_pairing(cache, lam)
        # g is quadratic about its minimum, so the partner mirrors lam
        assert -1.01 < (mu - crit) / offset < -0.99
        assert abs(mu - pairing_by_bisection(h_handle(HKind.H0, CH0, params), lam, crit)) <= 1e-9


def test_psi_profile():
    # a 1000-point grid reads what PSI states: k(0) = 0, a strictly
    # increasing profile below its cap, and the boundary derivative to 1e-6
    rep = psi_by_grid(1000)
    assert rep.passed and PSI.passed
    assert rep.k_at_zero == PSI.k_at_zero == 0.0
    assert rep.monotone and PSI.monotone
    assert k_profile(1e6) > 1.0 - 1e-5
    assert 0.0 < PSI.sup_value - rep.sup_value < 1e-5
    assert abs(rep.boundary_derivative - PSI.boundary_derivative) < 1e-6


def test_psi_claims_hold_symbolically():
    # every field of PSI is the value of a claim proved here about
    # k(r) = r / (1 + sqrt(1 + r^2)) for r > 0
    sp = pytest.importorskip("sympy")
    r, s, w = sp.symbols("r s w", positive=True)
    root = sp.sqrt(1 + r**2)
    k = r / (1 + root)
    # k(tan t) = tan(t / 2) on (0, pi/2): there u = tan(t / 2) runs over
    # (0, 1), so u = w / (1 + w) with w > 0, and tan t = tan(2 arctan u)
    u = w / (1 + w)
    tan_t = sp.factor(sp.expand_trig(sp.tan(2 * sp.atan(u))))
    assert sp.simplify(k.subs(root, sp.sqrt(sp.factor(1 + tan_t**2))).subs(r, tan_t) - u) == 0
    # k' = 1 / (sqrt(1 + r^2) (1 + sqrt(1 + r^2))) > 0, and k(0) = 0
    slope = 1 / (root * (1 + root))
    assert sp.simplify(sp.diff(k, r) - slope) == 0 and slope.is_positive
    assert k.subs(r, 0) == 0
    # 1 - k = (1 + 1 / (sqrt(1 + r^2) + r)) / (1 + sqrt(1 + r^2)) > 0, as
    # sqrt(1 + r^2) - r = 1 / (sqrt(1 + r^2) + r); and k -> 1
    gap = (1 + 1 / (root + r)) / (1 + root)
    assert sp.simplify(1 - k - gap) == 0 and gap.is_positive
    assert sp.limit(k, r, sp.oo) == 1
    # k(1/s) = sqrt(1 + s^2) - s, with derivative -1 at s = 0
    boundary = sp.sqrt(1 + s**2) - s
    assert sp.simplify(k.subs(r, 1 / s) - boundary) == 0
    assert sp.diff(boundary, s).subs(s, 0) == -1

    assert PSI.k_at_zero == float(k.subs(r, 0))
    assert PSI.monotone is True and PSI.sup_below_one is True and PSI.limit_ok is True
    assert PSI.sup_value == float(sp.limit(k, r, sp.oo))
    assert PSI.boundary_derivative == float(sp.diff(boundary, s).subs(s, 0))
    assert PSI.identity == "k(r) = tan(arctan(r) / 2); k(1/s) = sqrt(1 + s^2) - s"
    assert PSI.passed


def test_derivative_residuals_at_reported_criticals(params_star):
    rep = critical_points(h_handle(HKind.H0, CH0, params_star), (-1.0, 0.0))
    h = h_handle(HKind.H0, CH0, params_star)
    for pt in rep.points:
        assert abs(central_difference(h, pt.location, 1e-6)) < 1e-5


# ---------------------------------------------------------------------------
# the exact counts and limits against the numeric scanner and ladder

_F_NEGATIVE_ENDS = ((Edge.MINUS_INF, "left"), (Edge.MINUS_ONE, "left"), (Edge.ZERO, "right"), (Edge.B_OVER_A, "left"))
_F_POSITIVE_ENDS = ((Edge.MINUS_ONE, "right"), (Edge.ZERO, "left"), (Edge.B_OVER_A, "right"), (Edge.PLUS_INF, "right"))


def _oracle_sets(params_draws):
    return list(params_draws) + [
        params_for_q0(SearchConfig(a=0.5, b=0.5, lambda0=6.0), 1.85),
        params_for_q0(SearchConfig(a=0.5, b=3.0, lambda0=7.5), 0.95),
    ]


def _functions():
    """(kind, cache key, a resolution realizing it, table label) for every
    radius function the tables and the classifier read."""
    out = [(HKind.H0, None, CH0, "-")]
    for ell1 in LinearForm:
        rest = [f for f in LinearForm if f is not ell1]
        out.append((HKind.H1, ell1, ResolutionChoice(ell1, *rest[:2]), ell1.value))
        out.append((HKind.H3, frozenset(rest), ResolutionChoice(*rest), _label(rest)))
    for l1, l2 in itertools.combinations(LinearForm, 2):
        rest = [f for f in LinearForm if f not in (l1, l2)]
        out.append((HKind.H2, frozenset((l1, l2)), ResolutionChoice(l1, l2, rest[0]), _label((l1, l2))))
    return out


def _label(forms) -> str:
    return "{" + ",".join(sorted(f.value for f in forms)) + "}"


def _spans(kind, cache):
    part = cache.partition
    if kind is HKind.H0:
        # the scanner cannot evaluate h0 on the double-root plane itself
        return [(part.i2, part.i2), (part.i4minus, (part.i4minus[0], part.lambda0 - 1e-3)),
                (part.i4plus, (part.lambda0 + 1e-3, math.inf))]
    if kind is HKind.H2:
        return [(part.i2, part.i2), ((part.i4minus[0], math.inf),) * 2]
    return [(part.i1, part.i1), (part.i3, part.i3)]


@pytest.mark.parametrize("which", range(5))
def test_exact_analysis_matches_oracles(params_draws, which):
    params = _oracle_sets(params_draws)[which]
    cache = analysis_of(params)
    expected = {(r.function, r.choice, r.check): r.expected for r in verify_h_tables(cache).rows}
    at = {Edge.MINUS_INF: -math.inf, Edge.MINUS_ONE: -1.0, Edge.ZERO: 0.0, Edge.B_OVER_A: params.b / params.a,
          Edge.PLUS_INF: math.inf}
    for kind, key, choice, label in _functions():
        h = h_handle(kind, choice, params)
        for span, scan_span in _spans(kind, cache):
            exact = cache.critical(kind, key, span)
            oracle = critical_points(h, scan_span)
            assert len(exact) == oracle.count, (kind, label, span)
            for x, pt in zip(exact, oracle.points):
                assert abs(x - pt.location) < 1e-7 * (1.0 + abs(x))
        ends = _F_POSITIVE_ENDS if kind in (HKind.H0, HKind.H2) else _F_NEGATIVE_ENDS
        for edge, side in ends:
            assert domain_side(kind, edge) == side, (kind, edge)
            got = limit(kind, key, edge)
            try:
                ladder = endpoint_limit(h, at[edge], side).kind
            except LadderGaveUpError:
                ladder = None
            if ladder in (LimitKind.ZERO, LimitKind.INFINITY):
                assert got.value == ladder.value, (kind, label, edge, side)
                continue
            # the ladder stops at 1e-10 and its 1e-4 / 1e4 thresholds: where
            # it settles on Finite or gives up, the table and the local
            # exponent decide
            row = expected.get((kind.value, label, f"limit at {edge.value} ({side})"))
            if row is not None:
                assert got.value == row, (kind, label, edge, side)
            order = vanishing_order(h, at[edge], side)
            assert abs(abs(order) - 0.5) < 0.05 and (order > 0) == (got.value == "Zero"), (kind, label, edge, order)


def test_h3_is_the_reciprocal_of_h1(params_star):
    for missing in LinearForm:
        rest = [f for f in LinearForm if f is not missing]
        h1 = h_handle(HKind.H1, ResolutionChoice(missing, *rest[:2]), params_star)
        h3 = h_handle(HKind.H3, ResolutionChoice(*rest), params_star)
        for lam in (-7.0, -2.0, -1.1, 0.1, 0.5, 0.9):
            assert abs(h1(lam) * h3(lam) - 1.0) < 1e-15


def test_limit_rejects_regular_points_and_wrong_sides():
    # an edge is a root of f or an infinity, and its side is derived, so only
    # the infinity next to which a function is not defined is left to reject
    with pytest.raises(DomainError):
        limit(HKind.H1, LinearForm.X0, Edge.PLUS_INF)
    with pytest.raises(DomainError):
        limit(HKind.H3, frozenset((LinearForm.X0, LinearForm.X1, LinearForm.X0_PLUS_X1)), Edge.PLUS_INF)
    with pytest.raises(DomainError):
        limit(HKind.H2, frozenset((LinearForm.X0, LinearForm.X1)), Edge.MINUS_INF)
    with pytest.raises(DomainError):
        limit(HKind.H0, None, Edge.MINUS_INF)


def test_memoized_limits_are_transparent():
    # limit is worked out once per process: the memo returns what the
    # function computes, and an undefined pair raises on every call, as
    # exceptions are not cached
    keys = {
        HKind.H0: [None],
        HKind.H1: list(LinearForm),
        HKind.H2: [frozenset(c) for c in itertools.combinations(LinearForm, 2)],
        HKind.H3: [frozenset(c) for c in itertools.combinations(LinearForm, 3)],
    }
    undefined = 0
    for kind, edge in itertools.product(HKind, Edge):
        for key in keys[kind]:
            try:
                expected = limit.__wrapped__(kind, key, edge)
            except DomainError:
                undefined += 1
                for _ in range(2):
                    with pytest.raises(DomainError):
                        limit(kind, key, edge)
                continue
            assert limit(kind, key, edge) is expected
            assert limit(kind, key, edge) is expected
    # every radius function is undefined next to exactly one infinity
    assert undefined == sum(len(k) for k in keys.values())


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _all_keys():
    """Every (kind, key) of a radius function, h3 of each triple included."""
    yield HKind.H0, None
    for form in LinearForm:
        yield HKind.H1, form
        yield HKind.H3, frozenset(f for f in LinearForm if f is not form)
    for pair in itertools.combinations(LinearForm, 2):
        yield HKind.H2, frozenset(pair)


def test_one_solve_equals_the_one_at_a_time_analysis(region_sets):
    # the 11 critical polynomials built on coefficient tuples and solved by
    # one eigenvalue call per degree give the coefficients, roots, critical
    # points and h tables of the dataclass arithmetic solved one at a time,
    # bit for bit, on the reference draws and 32 sets across the region
    for params in region_sets:
        exact, lazy = analysis_of(params), LazyAnalysis(params, intervals(params))
        exact.critical(HKind.H0, None, exact.span(Interval.I2))
        forms = [form.polynomial(params) for form in LinearForm]
        for index, (kind, key, own) in enumerate(_radius_functions()):
            poly, _ = exact._derivative_data(kind, own, forms)
            reference, _ = lazy.derivative_data(kind, key)
            assert _bits(poly) == _bits(reference.coefficients), (params, kind, key)
            roots = exact._solved[index][0]
            assert _bits(roots) == _bits(lazy.roots(kind, key)), (params, kind, key)
        for kind, key in _all_keys():
            assert _bits(sorted(exact._solved[_function_index()[kind, key]][0])) == _bits(sorted(lazy.roots(kind, key)))
            for which in Interval:
                span = exact.span(which, kind)
                assert exact.critical(kind, key, span) == lazy.critical(kind, key, span)
                assert exact.first_critical(kind, key, which) == lazy.first_critical(kind, key, which)
        assert verify_h_tables(exact) == verify_h_tables_by_row(lazy)


@pytest.mark.parametrize("k", range(11))
def test_the_first_unsolvable_polynomial_raises_on_the_first_call(params_star, k):
    # when the k-th critical polynomial (and, after it, the last one) has a
    # monic form that is not finite, the one solve raises on the first call
    # for critical points, whichever it is, the DomainError that reading the
    # h tables one function at a time met first
    bad = {k, 10}

    def corrupt(data, index, make):
        def derivative_data(*args):
            poly, sign = data(*args)
            return (make((1.0, 1.0, 10.0 ** -(310 + index))) if index in bad else poly), sign

        return derivative_data

    lazy = LazyAnalysis(params_star, intervals(params_star))
    lazy_data = lazy.derivative_data
    by_key = {(kind, key): i for i, (kind, key, _) in enumerate(_radius_functions())}
    by_places = {(kind, own): i for i, (kind, _, own) in enumerate(_radius_functions())}
    lazy.derivative_data = lambda kind, key: corrupt(lazy_data, by_key[kind, key], ReferencePolynomial)(kind, key)
    with pytest.raises(DomainError) as expected:
        verify_h_tables_by_row(lazy)

    for first_call in (
        lambda a: a.critical(HKind.H0, None, a.span(Interval.I2)),
        lambda a: a.first_critical(HKind.H2, frozenset((LinearForm.X0, LinearForm.X1)), Interval.I2),
        verify_h_tables,
    ):
        exact = analysis_of(params_star)
        exact_data = exact._derivative_data
        exact._derivative_data = lambda kind, own, forms: corrupt(exact_data, by_places[kind, own], tuple)(
            kind, own, forms
        )
        with pytest.raises(DomainError) as got:
            first_call(exact)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert exact.work_counts()["critical_polynomials"] == 0
