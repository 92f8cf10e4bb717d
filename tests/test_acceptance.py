"""Acceptance gate: the criteria the whole build is judged by.

Every test prints one PASS/FAIL line (run with -s to see them on success)
and asserts at the stated tolerance.  Nothing here is calibrated after the
fact; all tolerances are pinned.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from oracles import (
    Bfun,
    analysis_of,
    central_difference,
    cover_residual,
    critical_points,
    dense_grid_certificate,
    endpoint_limit,
    expand_from_roots,
    expand_two_double_roots,
    h_handle,
    k_profile,
    psi_by_grid,
    quartic_double_double,
    series_presentation,
    verify_touching,
)
from touching_conics.analysis import (
    PSI,
    h0_pairing,
    verify_h_tables,
)
from touching_conics.classifier import EXPECTED_SURVIVORS, Hypothesis, Verdict, eliminate
from touching_conics.conics import (
    ConicType,
    Plane,
    min_real_form,
    orbit_conic,
)
from touching_conics.poly import two_double_roots_criterion
from touching_conics.resolution import (
    HKind,
    all_resolutions,
)
from touching_conics.surface import (
    SearchConfig,
    disc_value,
    f_value,
    find_valid_params,
    intervals,
    q_value,
    validate,
)


def _gate(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# -------------------------------------------------------------------- 1


def test_acceptance_1_parameter_admissibility():
    t0 = time.perf_counter()
    params = find_valid_params(SearchConfig(a=1.0, b=1.0, lambda0=2.0))
    rep = validate(params)
    cert = dense_grid_certificate(params, rep.lambda0, n=100_001)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.passed
        and cert["condition_i"]
        and cert["condition_star"]
        and cert["equality_only_near_root"]
        and elapsed < 10.0
    )
    _gate(1, f"parameter admissibility ({elapsed:.2f}s)", ok)


# -------------------------------------------------------------------- 2


def test_acceptance_2_double_root_criterion():
    rng = np.random.default_rng(2024)
    disagreements = 0
    for k in range(500):
        if k % 2 == 0:
            alpha = rng.uniform(-3.0, 3.0)
            beta = alpha + rng.uniform(0.25, 3.0) * rng.choice([-1.0, 1.0])
            coeffs = expand_two_double_roots(alpha, beta)
        else:
            u = rng.uniform(-2.0, 2.0)
            v = u * u / 4.0 + rng.uniform(0.3, 2.0)
            coeffs = expand_from_roots(list(np.roots([1.0, u, v])) * 2)
        a4, a3, a2, a1, _ = coeffs
        mine = two_double_roots_criterion(a1, a2, a3, a4)
        if mine != quartic_double_double(coeffs):
            disagreements += 1
    for _ in range(500):
        roots = rng.uniform(-3.0, 3.0, size=4)
        while np.min(np.diff(np.sort(roots))) < 0.25:
            roots = rng.uniform(-3.0, 3.0, size=4)
        coeffs = expand_from_roots(list(roots))
        a4, a3, a2, a1, _ = coeffs
        mine = two_double_roots_criterion(a1, a2, a3, a4)
        if mine != quartic_double_double(coeffs):
            disagreements += 1
    _gate(2, f"double-root criterion ({disagreements} disagreements)", disagreements == 0)


# -------------------------------------------------------------------- 3 and 4


def _interval_samples(lo: float, hi: float, n: int = 8) -> list[float]:
    if math.isinf(lo):
        lo = hi - 4.0
    if math.isinf(hi):
        hi = lo + 4.0
    step = (hi - lo) / (n + 1)
    return [lo + step * (k + 1) for k in range(n)]


def test_acceptance_3_tangency_certification(params_star):
    part = intervals(params_star)
    thetas = [2.0 * math.pi * k / 24 for k in range(24)]
    ok = True
    checked = 0
    for family, spans in (
        (ConicType.GENERIC, (part.i2, part.i4minus, part.i4plus)),
        (ConicType.SPECIAL, (part.i1, part.i3)),
    ):
        for span in spans:
            for lam in _interval_samples(*span):
                q = q_value(params_star, lam)
                f = f_value(params_star, lam)
                d = disc_value(params_star, lam)
                for theta in thetas:
                    if family is ConicType.GENERIC:
                        conic = Plane(params_star, lam).generic(theta)
                        top = max(2.0 * d, math.sqrt(f), q)
                        expected_det = -2.0 * d * d
                    else:
                        conic = Plane(params_star, lam).special(theta)
                        s = math.sqrt(d)
                        top = max(s, 0.5 * Bfun(params_star, lam), 0.5)
                        expected_det = -(q + s) / 8.0
                    det_raw = conic.det() * top**3
                    ok &= abs(det_raw - expected_det) < 1e-9 * abs(expected_det)
                    rep = verify_touching(conic, params_star, lam)
                    ok &= rep.kind is family
                    ok &= Plane(params_star, lam).conic_type(conic) is family
                    for br in rep.branches:
                        ok &= br.residual < 1e-8
                        mults = sorted(m for _, m in br.contacts)
                        ok &= mults == ([2, 2] if family is ConicType.GENERIC else [1, 1, 2])
                    checked += 1
    _gate(3, f"tangency certification ({checked} conics)", ok)


def test_acceptance_4_no_real_point_certificates(params_star):
    part = intervals(params_star)
    thetas = [2.0 * math.pi * k / 6 for k in range(6)]
    ok = True
    for family, spans in (
        ("generic", (part.i2, part.i4minus, part.i4plus)),
        ("special", (part.i1, part.i3)),
    ):
        for span in spans:
            for lam in _interval_samples(*span):
                for theta in thetas:
                    conic = (
                        Plane(params_star, lam).generic(theta)
                        if family == "generic"
                        else Plane(params_star, lam).special(theta)
                    )
                    ok &= min_real_form(conic) > 0.0
    for alpha in (-1.0, -0.1, -1e-3):
        ok &= min_real_form(orbit_conic(alpha)) > 0.0
    for alpha in (1e-3, 0.1, 1.0):
        ok &= min_real_form(orbit_conic(alpha)) <= 0.0
    _gate(4, "no-real-point certificates", ok)


# -------------------------------------------------------------------- 5


def test_acceptance_5_h_tables(params_draws):
    t0 = time.perf_counter()
    ok = True
    failures = []
    for params in params_draws:
        rep = verify_h_tables(analysis_of(params))
        ok &= rep.passed
        failures.extend(r for r in rep.rows if not r.passed)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _gate(5, f"h tables on 3 parameter sets ({elapsed:.1f}s, {len(failures)} failing rows)", ok)


# -------------------------------------------------------------------- 6


def _reverify_reason(params, trace) -> bool:
    reason = trace.reasons[0]
    if reason.code in ("A", "B"):
        if "h2" in reason.description:
            h = h_handle(HKind.H2, trace.choice, params)
        elif "h1" in reason.description:
            h = h_handle(HKind.H1, trace.choice, params)
        else:
            h = h_handle(HKind.H3, trace.choice, params)
        return abs(central_difference(h, reason.witness, 1e-6)) < 1e-4
    # C: recompute the two limits fresh and confirm the mismatch
    crossing = -1.0 if "lambda = -1" in reason.description else 0.0
    pair_choice = trace.choice
    h2 = h_handle(HKind.H2, pair_choice, params)
    if trace.hypothesis is Hypothesis.PLUS_OVER_I1:
        inner_kind = HKind.H1 if crossing == -1.0 else HKind.H3
    else:
        inner_kind = HKind.H3 if crossing == -1.0 else HKind.H1
    other = h_handle(inner_kind, trace.choice, params)
    if crossing == -1.0:
        lim_other = endpoint_limit(other, -1.0, "left")
        lim_h2 = endpoint_limit(h2, -1.0, "right")
        return not lim_other.reciprocal_matches(lim_h2)
    lim_h2 = endpoint_limit(h2, 0.0, "left")
    lim_other = endpoint_limit(other, 0.0, "right")
    return not lim_h2.reciprocal_matches(lim_other)


def test_acceptance_6_resolution_elimination(params_draws):
    ok = True
    for params in params_draws:
        out = eliminate(analysis_of(params))
        ok &= set(out.survivors) == set(EXPECTED_SURVIVORS)
        eliminated = [t for t in out.traces if t.verdict is Verdict.ELIMINATED]
        ok &= len(eliminated) == 46
        ok &= all(t.reasons for t in eliminated)
        ok &= all(_reverify_reason(params, t) for t in eliminated)
    _gate(6, "22 of 24 resolutions eliminated, witnesses verified", ok)


# -------------------------------------------------------------------- 7


def test_acceptance_7_degeneration_locus_and_pairing(params_star):
    rep = critical_points(h_handle(HKind.H0, all_resolutions()[0], params_star), (-1.0, 0.0))
    ok = rep.count == 1
    crit = rep.points[0].location
    h = h_handle(HKind.H0, all_resolutions()[0], params_star)
    lams = [lam for lam in np.linspace(-0.95, -0.05, 12) if abs(lam - crit) > 0.02][:10]
    ok &= len(lams) == 10
    for lam in lams:
        mu = h0_pairing(analysis_of(params_star), float(lam))
        ok &= abs(h(mu) - h(float(lam))) < 1e-8
        ok &= (lam - crit) * (mu - crit) < 0.0
    _gate(7, "unique degeneration on I2 and equal-radius pairing", ok)


# -------------------------------------------------------------------- 8


def test_acceptance_8_psi_profile():
    rep = PSI
    ok = (
        rep.monotone
        and rep.k_at_zero == 0.0
        and k_profile(1e6) > 1.0 - 1e-5
        and abs(rep.boundary_derivative) > 0.0
        and rep.sup_below_one
    )
    # the exact claims agree with what a 1000-point grid reads on every verdict
    grid = psi_by_grid(1000)
    ok &= all(getattr(grid, name) == getattr(rep, name) for name in ("monotone", "sup_below_one", "limit_ok", "passed"))
    _gate(8, "radial profile of the line correspondence", ok)


# -------------------------------------------------------------------- 9


def test_acceptance_9_series_consistency(params_star):
    lam, theta = -2.0, 0.4
    pres = series_presentation(params_star, lam, theta, order=4)
    ok = True
    for phase in (0.0, 1.0, 2.5, 4.0):
        x1 = 1e-2 * cmath.exp(1j * phase)
        ok &= cover_residual(pres, params_star, x1) < 1e-8
    b = Bfun(params_star, lam)
    f = f_value(params_star, lam)
    rot = cmath.exp(-1j * theta)
    for got, want in (
        (pres.x2[1], -b * rot),
        (pres.xi[1], -2j * b * rot),
        (pres.eta[3], 1j * f / (2.0 * b * rot)),
    ):
        ok &= abs(got - want) <= 1e-12 * abs(want)
    _gate(9, "series consistency at order 4", ok)
