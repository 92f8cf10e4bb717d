"""Resolution choices, radius functions, exceptional-curve intersections,
and the local series expansions."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from oracles import (
    Bfun,
    RealityError,
    TruncatedSeries,
    cover_residual,
    h2_signed,
    h_function,
    orbit_intersections,
    restricted,
    series_presentation,
    special_intersections,
)
from touching_conics.errors import DomainError
from touching_conics.resolution import (
    Edge,
    HKind,
    LinearForm,
    ResolutionChoice,
    all_resolutions,
)
from touching_conics.surface import f_value, q_value, sqrt_disc


CH = ResolutionChoice(LinearForm.X0, LinearForm.X1, LinearForm.X0_PLUS_X1)
CH_X1 = ResolutionChoice(LinearForm.X1, LinearForm.X0, LinearForm.X0_PLUS_X1)


def test_all_resolutions_count_and_membership():
    rs = all_resolutions()
    assert len(rs) == 24
    assert len(set(rs)) == 24
    assert ResolutionChoice(LinearForm.X1, LinearForm.X0_PLUS_X1, LinearForm.X0) in rs
    for ch in rs:
        assert len(set(ch.forms())) == 3


def test_resolution_choice_rejects_repeats():
    with pytest.raises(DomainError):
        ResolutionChoice(LinearForm.X0, LinearForm.X0, LinearForm.X1)


def test_linear_form_zeros(params_star):
    assert LinearForm.X0.zero is Edge.ZERO
    assert LinearForm.X1.zero is None
    assert LinearForm.X0_PLUS_X1.zero is Edge.MINUS_ONE
    assert LinearForm.AX0_MINUS_BX1.zero is Edge.B_OVER_A
    # each zero is a root of the restricted value
    at = {Edge.MINUS_ONE: -1.0, Edge.ZERO: 0.0, Edge.B_OVER_A: params_star.b / params_star.a}
    for form in (LinearForm.X0, LinearForm.X0_PLUS_X1, LinearForm.AX0_MINUS_BX1):
        assert restricted(form, params_star, at[form.zero]) == 0.0


def test_B_definition_identities(params_star):
    for lam in (-1.5, -4.0, 0.3, 0.8):
        b = Bfun(params_star, lam)
        s = sqrt_disc(params_star, lam)
        q = q_value(params_star, lam)
        f = f_value(params_star, lam)
        assert b > 0.0
        assert abs(2.0 * b * b - (s - q)) < 1e-12 * (1.0 + s + abs(q))
        assert abs(4.0 * b**4 + 4.0 * q * b * b + f) < 1e-12 * (1.0 + abs(f))


def test_B_domain_error(params_star):
    with pytest.raises(DomainError):
        Bfun(params_star, -0.5)


def test_B_positive_on_negative_intervals(params_star):
    for lam in np.linspace(-5.0, -1.05, 20):
        assert Bfun(params_star, lam) > 0.0
    for lam in np.linspace(0.05, 0.95, 20):
        assert Bfun(params_star, lam) > 0.0


def test_h2_closed_form(params_star):
    lam = -0.5
    h2 = h_function(HKind.H2, CH, params_star, lam)
    a, b = params_star.a, params_star.b
    assert abs(h2 * h2 - (lam + 1.0) * (a * lam - b) / lam) < 1e-12


def test_h1_closed_form(params_star):
    lam = -2.0
    h1 = h_function(HKind.H1, CH_X1, params_star, lam)
    s = sqrt_disc(params_star, lam)
    q = q_value(params_star, lam)
    assert abs(h1 * h1 - 2.0 * (s - q)) < 1e-12 * (1.0 + s)


def test_h1_vanishes_entering_the_cubic_root(params_star):
    # h1 with first form X1 tends to 0 at lam = -1
    assert h_function(HKind.H1, CH_X1, params_star, -1.0 - 1e-9) < 1e-4


def test_h_function_domain_errors(params_star):
    with pytest.raises(DomainError):
        h_function(HKind.H0, CH, params_star, -2.0)
    with pytest.raises(DomainError):
        h_function(HKind.H1, CH, params_star, -0.5)
    with pytest.raises(DomainError):
        h_function(HKind.H2, CH, params_star, 0.5)
    with pytest.raises(DomainError):
        h_function(HKind.H3, CH, params_star, 1.5)


def test_h2_ignores_third_form(params_star):
    lam = -0.5
    completions = [
        ResolutionChoice(LinearForm.X0, LinearForm.X1, LinearForm.X0_PLUS_X1),
        ResolutionChoice(LinearForm.X0, LinearForm.X1, LinearForm.AX0_MINUS_BX1),
    ]
    vals = {h_function(HKind.H2, ch, params_star, lam) for ch in completions}
    assert len(vals) == 1


def test_h2_signed_vs_radius(params_star):
    lam = -0.5
    assert abs(abs(h2_signed(CH, params_star, lam)) - h_function(HKind.H2, CH, params_star, lam)) < 1e-14


def test_special_intersections_moduli(params_star):
    lam, theta = -2.0, 0.4
    u, w = special_intersections(CH, params_star, lam, theta)
    assert abs(abs(u) - h_function(HKind.H1, CH, params_star, lam)) < 1e-12
    assert abs(abs(w) - h_function(HKind.H3, CH, params_star, lam)) < 1e-12


def test_special_intersections_wind_once(params_star):
    lam = -2.0
    n = 24
    us = [special_intersections(CH, params_star, lam, 2.0 * math.pi * k / n)[0] for k in range(n + 1)]
    total = 0.0
    for k in range(n):
        total += cmath.phase(us[k + 1] / us[k])
    assert abs(abs(total) - 2.0 * math.pi) < 1e-9


def test_special_intersections_shape(params_star):
    # the plus component meets only the first curve, the minus component only
    # the third: the op returns exactly one coordinate for each
    out = special_intersections(CH, params_star, -2.0, 0.0)
    assert isinstance(out, tuple) and len(out) == 2


def test_orbit_intersections_radius(params_star):
    lam = -0.5
    q = q_value(params_star, lam)
    sf = math.sqrt(f_value(params_star, lam))
    h2 = h_function(HKind.H2, CH, params_star, lam)
    rng = np.random.default_rng(13)
    for alpha in rng.uniform(-q - sf, -q + sf, size=10):
        vp, vm = orbit_intersections(CH, params_star, lam, float(alpha))
        assert abs(abs(vp) - h2) < 1e-12
        assert abs(abs(vm) - h2) < 1e-12


def test_orbit_intersections_window_edges(params_star):
    lam = -0.5
    q = q_value(params_star, lam)
    sf = math.sqrt(f_value(params_star, lam))
    # at the window edge the radicand only vanishes to rounding, so its
    # square root carries sqrt(eps) noise
    vp, vm = orbit_intersections(CH, params_star, lam, -q + sf)
    assert abs(vp - vm) < 1e-7
    assert abs(vp.real) < 1e-7 * (1.0 + abs(vp))  # purely imaginary direction
    vp, vm = orbit_intersections(CH, params_star, lam, -q)
    assert abs(vp.imag) < 1e-12  # real direction
    with pytest.raises(RealityError):
        orbit_intersections(CH, params_star, lam, -q + sf + 0.1)


def test_reciprocity_between_h1_and_h3(params_star):
    lam = -2.0
    f = f_value(params_star, lam)
    prod = 1.0
    for form in LinearForm:
        prod *= restricted(form, params_star, lam)
    for ch in all_resolutions()[:8]:
        h3 = h_function(HKind.H3, ch, params_star, lam)
        missing = ch.missing_form()
        comp = ResolutionChoice(missing, ch.ell1, ch.ell2)
        h1 = h_function(HKind.H1, comp, params_star, lam)
        assert abs(h3 * h1 - (-f) / abs(prod)) < 1e-12 * (1.0 + abs(f))


def test_series_leading_coefficients(params_star):
    lam, theta = -2.0, 0.4
    pres = series_presentation(params_star, lam, theta, order=4)
    b = Bfun(params_star, lam)
    f = f_value(params_star, lam)
    rot = cmath.exp(-1j * theta)
    assert abs(pres.x2[0]) < 1e-14
    assert abs(pres.x2[1] - (-b * rot)) < 1e-12 * (1.0 + b)
    assert abs(pres.xi[1] - (-2j * b * rot)) < 1e-12 * (1.0 + b)
    assert abs(pres.eta[1]) < 1e-12
    assert abs(pres.eta[2]) < 1e-12
    expected_eta3 = 1j * cmath.exp(1j * theta) * f / (2.0 * b)
    assert abs(pres.eta[3] - expected_eta3) < 1e-12 * (1.0 + abs(expected_eta3))


def test_series_x2_second_coefficient(params_star):
    lam, theta = -1.5, 1.1
    pres = series_presentation(params_star, lam, theta, order=4)
    s = sqrt_disc(params_star, lam)
    q = q_value(params_star, lam)
    assert abs(pres.x2[2] - (-(s + q) / 2.0)) < 1e-12 * (1.0 + s)
    b = Bfun(params_star, lam)
    expected3 = (s + q) / 2.0 * b * cmath.exp(1j * theta)
    assert abs(pres.x2[3] - expected3) < 1e-12 * (1.0 + abs(expected3))


def test_series_product_matches_cover(params_star):
    # xi * eta must equal f * x1^4 up to the truncation order
    lam, theta = -2.0, 0.9
    order = 5
    pres = series_presentation(params_star, lam, theta, order=order)
    xi = TruncatedSeries.of(pres.xi, order)
    eta = TruncatedSeries.of(pres.eta, order)
    prod = xi * eta
    f = f_value(params_star, lam)
    expected = [0.0, 0.0, 0.0, 0.0, f, 0.0]
    for got, want in zip(prod.coeffs, expected):
        assert abs(got - want) < 1e-10 * (1.0 + abs(f))


def test_series_residual_small(params_star):
    pres = series_presentation(params_star, -2.0, 0.4, order=4)
    assert cover_residual(pres, params_star, 1e-2) < 1e-8


def test_series_domain_errors(params_star):
    with pytest.raises(DomainError):
        series_presentation(params_star, -0.5, 0.0, order=4)  # f > 0
    with pytest.raises(DomainError):
        series_presentation(params_star, -2.0, 0.0, order=7)


def test_truncated_series_reciprocal_and_sqrt():
    s = TruncatedSeries.of([2.0, 1.0, -0.5], 4)
    one = s * s.reciprocal()
    assert abs(one.coeffs[0] - 1.0) < 1e-14
    assert all(abs(c) < 1e-14 for c in one.coeffs[1:])
    r = TruncatedSeries.of([4.0, 1.0, 0.3], 4)
    root = r.sqrt(branch=2.0)
    back = root * root
    for got, want in zip(back.coeffs, r.coeffs):
        assert abs(got - want) < 1e-13
