"""Surface-family validation, double root, intervals, singular locus, search."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from oracles import dense_grid_certificate, poly_from_roots, root_clusters
from touching_conics.errors import InvalidParameterError, NotFoundError, PreconditionError
from touching_conics.poly import evaluate, poly_derivative, poly_mul, poly_sub
from touching_conics.resolution import LinearForm
from touching_conics.surface import (
    SearchConfig,
    SingularPoint,
    SurfaceParams,
    discriminant_poly,
    f_poly,
    f_value,
    find_valid_params,
    intervals,
    lambda0,
    params_for_q0,
    q0_sweep,
    Q_restricted,
    q_value,
    SingularKind,
    singular_locus,
    validate,
)

# clustering radius of the reference multiplicities: floating-point triple
# roots split by about (machine eps)^(1/3) ~ 1e-5, distinct roots here are
# order-1 apart
CLUSTER_TOL = 1e-4

# frozen fsolve solution planting a triple root of Q^2 - f at lam = 2 (a = b = 1)
TRIPLE_ROOT_PARAMS = SurfaceParams(
    0.1956189725139344, 1.462889707495509, -1.2587655622635772, 1.0, 1.0
)


def _floats(p):
    """p, once it is checked to be a plain tuple of floats with no trailing
    zero unless it is the zero polynomial (0.0,)."""
    assert type(p) is tuple and all(type(c) is float for c in p), p
    assert len(p) == 1 or p[-1] != 0.0, p
    return p


def test_f_poly_unit_case():
    assert _floats(f_poly(SurfaceParams(0, 0, 0, 1.0, 1.0))) == (0.0, -1.0, 0.0, 1.0)
    # int parameters come back as floats, in f and in the linear forms whose
    # product it is
    p = SurfaceParams(1, 0, 0, 2, 3)
    assert _floats(f_poly(p)) == (0.0, -3.0, -1.0, 2.0)
    assert _floats(LinearForm.AX0_MINUS_BX1.polynomial(p)) == (-3.0, 2.0)
    forms = [_floats(form.polynomial(p)) for form in LinearForm]
    assert forms == [(0.0, 1.0), (1.0,), (1.0, 1.0), (-3.0, 2.0)]
    assert poly_mul(poly_mul(forms[0], forms[1]), poly_mul(forms[2], forms[3])) == f_poly(p)


def test_f_poly_roots_by_construction():
    p = SurfaceParams(0.3, 0.1, 0.9, 1.7, 0.4)
    f = f_poly(p)
    for root in (0.0, -1.0, p.b / p.a):
        assert abs(evaluate(f, root)) < 1e-12


def test_f_direct_arithmetic():
    assert f_value(SurfaceParams(0, 0, 0, 2.0, 3.0), 1.0) == -2.0


def test_Q_restricted_shapes():
    assert _floats(Q_restricted(SurfaceParams(1, 0, 0, 1, 1))) == (0.0, 0.0, 1.0)
    assert _floats(Q_restricted(SurfaceParams(0, 0, 2.5, 1, 1))) == (2.5,)
    assert _floats(Q_restricted(SurfaceParams(0, 0, 0, 1, 1))) == (0.0,)


def test_defining_identity_as_polynomials():
    p = SurfaceParams(0.7, -0.3, 1.1, 1.3, 0.6)
    q = Q_restricted(p)
    identity = poly_sub(poly_mul(q, q), discriminant_poly(p))
    assert np.allclose(identity, f_poly(p), atol=1e-12)


def test_discriminant_degree_drop():
    p = SurfaceParams(0, 0, 1, 1, 1)
    assert _floats(discriminant_poly(p)) == (1.0, 1.0, 0.0, -1.0)


def test_discriminant_pointwise_identity():
    p = SurfaceParams(0.9, 0.2, -0.4, 0.8, 1.9)
    d = discriminant_poly(p)
    rng = np.random.default_rng(5)
    for lam in rng.uniform(-5, 5, size=25):
        direct = q_value(p, lam) ** 2 - f_value(p, lam)
        scale = 1.0 + abs(direct)
        assert abs(evaluate(d, lam) - direct) < 1e-12 * scale


def test_params_star_has_unique_double_root(params_star):
    clusters = root_clusters(discriminant_poly(params_star), CLUSTER_TOL)
    real = [c for c in clusters if abs(c.value.imag) < 1e-4]
    assert len(real) == 1 and real[0].multiplicity == 2
    cert = dense_grid_certificate(params_star, 2.0)
    assert cert["condition_i"] and cert["equality_only_near_root"]


def test_validate_params_star_agrees_with_oracle(params_star):
    rep = validate(params_star)
    cert = dense_grid_certificate(params_star, rep.lambda0)
    assert rep.passed
    assert cert["condition_i"] and cert["condition_star"]
    assert rep.f_at_lambda0 > 0.0
    assert abs(rep.q_at_lambda0 - math.sqrt(rep.f_at_lambda0)) < 1e-8


def test_validate_zero_form_fails_condition_i():
    rep = validate(SurfaceParams(0, 0, 0, 1, 1))
    assert not rep.condition_i.passed
    assert not rep.passed


def test_validate_negative_q_on_i2_fails_star():
    # Q(lam) = lam^2 - 1 is negative throughout I2
    rep = validate(SurfaceParams(1.0, 0.0, -1.0, 1.0, 1.0))
    assert not rep.condition_star.passed


def test_validate_fails_condition_i_where_q_is_negative_at_the_double_root(params_star):
    # negating q0, q1 and q2 leaves Q^2 - f and its double root as they are,
    # and makes Q = -sqrt(f) there
    neg = replace(params_star, q0=-params_star.q0, q1=-params_star.q1, q2=-params_star.q2)
    rep = validate(neg)
    assert not rep.condition_i.passed and rep.condition_i.witness == rep.lambda0
    assert rep.condition_i.detail.endswith("need Q = +sqrt(f) > 0")
    assert rep.q_at_lambda0 == -validate(params_star).q_at_lambda0
    assert rep.condition_star.detail == "not evaluated: needs condition (i)"
    assert not rep.passed


def test_validate_fails_lambda0_in_i4_left_of_b_over_a():
    # a double root at -0.5, in I2: (i) and (*) pass, and it is not > b/a
    rep = validate(params_for_q0(SearchConfig(lambda0=-0.5), 1.0))
    assert rep.condition_i.passed and rep.condition_star.passed
    assert not rep.lambda0_in_i4.passed and rep.lambda0_in_i4.witness == -0.5
    assert rep.lambda0_in_i4.detail.startswith("double root left of b/a")
    assert not rep.passed


def test_validate_rejects_nonpositive_ab():
    with pytest.raises(InvalidParameterError):
        validate(SurfaceParams(1, 0, 1, -1.0, 1.0))


@pytest.mark.parametrize("params", [(math.nan, 0, 1, 1, 1), (1, math.inf, 1, 1, 1), (1, 0, 1, 1, -math.inf)])
def test_validate_and_singular_locus_reject_non_finite_params(params):
    for check in (validate, singular_locus):
        with pytest.raises(InvalidParameterError, match="finite"):
            check(SurfaceParams(*params))


def test_lambda0_hits_target(params_star):
    lam0 = lambda0(params_star)
    assert abs(lam0 - 2.0) < 1e-8
    d = discriminant_poly(params_star)
    assert abs(evaluate(d, lam0)) < 1e-9
    assert abs(evaluate(poly_derivative(d), lam0)) < 1e-9
    assert f_value(params_star, lam0) > 0.0
    assert lam0 > params_star.b / params_star.a


def test_lambda0_requires_condition_i():
    with pytest.raises(PreconditionError):
        lambda0(SurfaceParams(0, 0, 1, 1, 1))


def test_intervals_unit_case(params_star):
    part = intervals(params_star)
    assert part.i1 == (-math.inf, -1.0)
    assert part.i2 == (-1.0, 0.0)
    assert part.i3 == (0.0, 1.0)
    assert part.i4minus == (1.0, part.lambda0)
    assert part.i4plus[0] == part.lambda0 and math.isinf(part.i4plus[1])
    assert not (-1.0 <= part.lambda0 <= 0.0)


def test_f_sign_pattern(params_star):
    part = intervals(params_star)
    samples = {
        "neg": [-5.0, 0.5 * part.i3[1]],
        "pos": [-0.5, 0.5 * (part.i4minus[0] + part.lambda0)],
    }
    for lam in samples["neg"]:
        assert f_value(params_star, lam) < 0.0
    for lam in samples["pos"]:
        assert f_value(params_star, lam) > 0.0


def test_singular_locus_params_star(params_star):
    pts = singular_locus(params_star)
    assert len(pts) == 3
    assert pts[0].location == "Pinf" and pts[0].kind is SingularKind.ELLIPTIC_E7
    assert pts[1].location == "PinfBar" and pts[1].kind is SingularKind.ELLIPTIC_E7
    assert pts[2].kind is SingularKind.ODP
    assert abs(pts[2].lam - 2.0) < 1e-6


def test_singular_locus_triple_root_is_not_odp():
    pts = singular_locus(TRIPLE_ROOT_PARAMS)
    axis = [p for p in pts if p.lam is not None]
    assert len(axis) == 1
    assert axis[0].kind is SingularKind.NON_ODP
    assert axis[0].multiplicity == 3
    # a triple root is a hard admissibility failure, not a diagnostic branch
    assert not validate(TRIPLE_ROOT_PARAMS).passed


def test_singular_locus_lists_an_odp_only_where_validate_finds_a_double_root():
    # the README set rounded to 8 digits: the double root of Q^2 - f split
    # into 2 +- 1.26e-4 i, so the axis carries no singular point
    p = SurfaceParams(0.65, -0.3546344, 0.55875855, 1.0, 1.0)
    assert not validate(p).condition_i.passed
    assert [pt.location for pt in singular_locus(p)] == ["Pinf", "PinfBar"]


def test_no_complex_multiple_roots_for_params_star(params_star):
    clusters = root_clusters(discriminant_poly(params_star), CLUSTER_TOL)
    nonreal = [c for c in clusters if abs(c.value.imag) > CLUSTER_TOL * (1.0 + abs(c.value))]
    assert all(c.multiplicity < 2 for c in nonreal)
    assert all(p.lam is None or abs(p.lam - 2.0) < 1e-6 for p in singular_locus(params_star))


def _params_with_roots(roots, q0: float, sign_q2: float, sign_q1: float) -> SurfaceParams | None:
    """(q0, q1, q2, a, b) with Q^2 - f = q0^2 prod(lam - root), or None when
    that choice of signs has no real solution with a, b > 0.

    Matching the coefficients of Q^2 - f = q0^2 (lam^4 + e3 lam^3 + ...):
    q2^2 = q0^2 e0, a = 2 q0 q1 - q0^2 e3, b = q0^2 e1 - 2 q1 q2, and
    q1^2 - 2 (q0 + q2) q1 + 2 q0 q2 + q0^2 (e3 + e1 - e2) = 0.
    """
    k = q0 * q0
    e0, e1, e2, e3, _ = poly_from_roots(roots)
    if e0 < 0.0:
        return None
    q2 = sign_q2 * q0 * math.sqrt(e0)
    h = q0 * q0 + q2 * q2 - k * (e3 + e1 - e2)
    if h < 0.0:
        return None
    q1 = q0 + q2 + sign_q1 * math.sqrt(h)
    a = 2.0 * q0 * q1 - k * e3
    b = k * e1 - 2.0 * q1 * q2
    if not (a > 0.0 and b > 0.0):
        return None
    return SurfaceParams(q0, q1, q2, a, b)


def _constructed_quartics(rng, structure: str, n: int):
    """n parameter sets whose quartic Q^2 - f has the given root structure,
    with every two distinct roots u, v at least 0.1 (1 + max |u|, |v|)
    apart; yields the parameters and the expected (kind, multiplicity,
    lam) of each axis point."""
    mults = {"2,1,1": (2, 1, 1), "2,c,c": (2, 1, 1), "2,2": (2, 2), "3,1": (3, 1), "4": (4,)}[structure]
    made = 0
    while made < n:
        xs = rng.uniform(-3.0, 3.0, size=3)
        if structure == "2,c,c":
            feats = [complex(xs[0]), complex(xs[1], abs(xs[2])), complex(xs[1], -abs(xs[2]))]
        else:
            feats = [complex(x) for x in xs[: len(mults)]]
        if any(
            abs(u - v) < 0.1 * (1.0 + max(abs(u), abs(v))) for i, u in enumerate(feats) for v in feats[i + 1 :]
        ):
            continue
        roots = [z for z, m in zip(feats, mults) for _ in range(m)]
        p = _params_with_roots(roots, rng.uniform(0.2, 3.0), rng.choice([-1.0, 1.0]), rng.choice([-1.0, 1.0]))
        if p is None:
            continue
        made += 1
        axis = sorted(z.real for z, m in zip(feats, mults) if m > 1)
        kind = SingularKind.ODP if mults[0] == 2 else SingularKind.NON_ODP
        yield p, [(kind, mults[0], lam) for lam in axis]


@pytest.mark.parametrize("structure", ["2,1,1", "2,c,c", "2,2", "3,1", "4"])
def test_singular_locus_on_constructed_quartics(structure):
    rng = np.random.default_rng(17)
    for p, expected in _constructed_quartics(rng, structure, 60):
        pts = singular_locus(p)
        assert [pt.kind for pt in pts[:2]] == [SingularKind.ELLIPTIC_E7] * 2
        got = pts[2:]
        assert [(pt.kind, pt.multiplicity) for pt in got] == [e[:2] for e in expected], p
        assert all(abs(pt.lam - e[2]) <= 1e-6 for pt, e in zip(got, expected)), p


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@given(
    a=_log_uniform(0.1, 10.0),
    b=_log_uniform(0.1, 10.0),
    gap=_log_uniform(0.02, 20.0),
    q0_min=st.floats(0.01, 5.0),
)
def test_singular_locus_node_is_lambda0_on_the_admissible_region(a, b, gap, q0_min):
    target = SearchConfig(a=a, b=b, lambda0=b / a + gap, q0_min=q0_min, q0_max=50.0 * q0_min)
    try:
        params = find_valid_params(target)
    except NotFoundError:
        reject()
    lam0 = validate(params).lambda0
    assert singular_locus(params) == [
        SingularPoint("Pinf", SingularKind.ELLIPTIC_E7),
        SingularPoint("PinfBar", SingularKind.ELLIPTIC_E7),
        SingularPoint(f"A(lam={lam0:.12g})", SingularKind.ODP, lam=lam0, multiplicity=2),
    ]


def test_find_valid_params_deterministic(params_star):
    again = find_valid_params(SearchConfig())
    assert again == params_star
    assert validate(again) == validate(params_star)
    assert validate(again).passed


def test_q0_sweep_is_numpy_linspace_to_the_bit():
    # the search sweeps q0 over linspace's points without numpy: the same
    # floats, the last one q0_max itself, on the default target and on
    # seeded ranges with one step and with an empty width among them
    rng = np.random.default_rng(61)
    configs = [SearchConfig()]
    for k in range(3000):
        lo = float(rng.uniform(0.0, 5.0) * 10.0 ** rng.uniform(-3.0, 3.0))
        hi = lo if k % 7 == 0 else lo + float(rng.uniform(0.0, 50.0) * 10.0 ** rng.uniform(-3.0, 3.0))
        steps = 1 if k % 5 == 0 else int(rng.integers(2, 400))
        configs.append(SearchConfig(q0_min=lo, q0_max=hi, q0_steps=steps))
    assert any(c.q0_steps == 1 for c in configs) and any(c.q0_min == c.q0_max for c in configs)
    for c in configs:
        expected = np.linspace(c.q0_min, c.q0_max, c.q0_steps).tolist()
        assert list(map(repr, q0_sweep(c))) == list(map(repr, expected)), c


def test_find_valid_params_empty_range():
    with pytest.raises(NotFoundError):
        find_valid_params(SearchConfig(q0_steps=0))


def test_find_valid_params_bad_target():
    with pytest.raises(NotFoundError):
        find_valid_params(SearchConfig(lambda0=0.5))  # not right of b/a = 1


def test_grid_positivity_invariant(params_star):
    lam0 = lambda0(params_star)
    grid = np.linspace(-10.0, lam0 + 10.0, 100_000)
    q = (params_star.q0 * grid + params_star.q1) * grid + params_star.q2
    f = grid * (grid + 1.0) * (params_star.a * grid - params_star.b)
    disc = q * q - f
    scale = 1.0 + np.abs(grid) ** 4
    assert np.all(disc >= -1e-9 * scale)
    low = grid[disc < 1e-4 * scale]
    assert np.all(np.abs(low - lam0) < 0.1)


def _search_targets(n: int, seed: int) -> list[SearchConfig]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a, b = np.exp(rng.uniform(math.log(0.25), math.log(4.0), 2))
        out.append(SearchConfig(a=float(a), b=float(b), lambda0=float(b / a + rng.uniform(0.25, 6.25))))
    return out


def test_exact_admissibility_agrees_with_grid_oracle():
    verdicts = []
    for search in _search_targets(20, 11):
        for q0 in np.linspace(0.05, 5.0, 25):
            p = params_for_q0(search, float(q0))
            cert = dense_grid_certificate(p, search.lambda0)
            verdicts.append(validate(p).passed)
            assert verdicts[-1] == (cert["condition_i"] and cert["condition_star"]), p
    assert any(verdicts) and not all(verdicts)


def test_validate_passes_iff_lambda0_returns(params_draws):
    found = list(params_draws) + [find_valid_params(s) for s in _search_targets(5, 3)]
    for p in found:
        for eps in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
            for sign in (1.0, -1.0):
                moved = replace(p, q2=p.q2 * (1.0 + sign * eps))
                if validate(moved).passed:
                    assert lambda0(moved) == validate(moved).lambda0
                else:
                    with pytest.raises(PreconditionError):
                        lambda0(moved)
                    with pytest.raises(PreconditionError):
                        intervals(moved)


def test_reference_draws_keep_q0(params_draws):
    assert [p.q0 for p in params_draws] == [0.6500000000000001, 0.9414141414141415, 0.4]


def test_condition_star_needs_the_sign_of_q_not_only_its_roots():
    # Q < 0 on all of I2, and its one root right of -1 lies in I3
    p = params_for_q0(SearchConfig(), 0.25)
    rep = validate(p)
    assert rep.condition_i.passed
    assert not rep.condition_star.passed and rep.condition_star.witness == -1.0
    with pytest.raises(PreconditionError, match=r"condition \(\*\)"):
        lambda0(p)


def test_two_double_roots_fail_condition_i():
    # Q^2 - f = (lam - 4 - sqrt 7)^2 (lam - 4 + sqrt 7)^2 / 36: two real double roots
    p = SurfaceParams(1.0 / 6.0, 5.0 / 3.0, -1.5, 1.0, 1.0)
    assert len([pt for pt in singular_locus(p) if pt.kind is SingularKind.ODP]) == 2
    rep = validate(p)
    assert not rep.condition_i.passed
    assert min(abs(rep.condition_i.witness - (4.0 + s * math.sqrt(7.0))) for s in (1.0, -1.0)) < 1e-6
