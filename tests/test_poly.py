"""Polynomial arithmetic, the root-clustering oracle, and the two-double-roots test."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    central_difference,
    expand_from_roots,
    expand_two_double_roots,
    poly_from_roots,
    real_roots_with_multiplicity,
    root_clusters,
)
from touching_conics.errors import DomainError, InputError
from touching_conics.poly import (
    RealPolynomial,
    companion_roots,
    derivative,
    evaluate,
    two_double_roots_criterion,
)


def test_evaluate_cubic():
    p = RealPolynomial((0.0, -1.0, 0.0, 1.0))  # x^3 - x
    assert evaluate(p, 2.0) == 6.0


def test_evaluate_zero_polynomial():
    z = RealPolynomial((0.0,))
    for x in (-3.0, 0.0, 17.5):
        assert evaluate(z, x) == 0.0


def test_evaluate_known_root():
    p = RealPolynomial((4.0, -12.0, 13.0, -6.0, 1.0))  # (x-1)^2 (x-2)^2
    assert evaluate(p, 1.0) == 0.0


def test_derivative_cubic():
    p = RealPolynomial((0.0, -1.0, 0.0, 1.0))
    assert derivative(p).coefficients == (-1.0, 0.0, 3.0)


def test_derivative_constant_is_zero():
    assert derivative(RealPolynomial((5.0,))).is_zero


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(3)
    p = RealPolynomial(tuple(rng.normal(size=6)))
    dp = derivative(p)
    p3 = derivative(derivative(dp))
    for x in np.linspace(-2.0, 2.0, 21):
        for h in (1e-3, 1e-4):
            approx = central_difference(lambda t: evaluate(p, t), x, h)
            bound = (abs(evaluate(p3, x)) / 6.0 + 1.0) * h * h * 10.0
            assert abs(approx - evaluate(dp, x)) < bound


def test_real_roots_simple():
    p = RealPolynomial((-1.0, 0.0, 1.0))
    roots = real_roots_with_multiplicity(p)
    assert [(round(c.value.real, 9), c.multiplicity) for c in roots] == [(-1.0, 1), (1.0, 1)]


def test_real_roots_double():
    p = RealPolynomial((4.0, -4.0, 1.0))  # (x-2)^2
    (cluster,) = real_roots_with_multiplicity(p)
    assert cluster.multiplicity == 2
    assert abs(cluster.value - 2.0) < 1e-6


def test_real_roots_planted_double_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = rng.uniform(-3.0, 3.0)
        u = rng.uniform(-2.0, 2.0)
        v = u * u / 4.0 + rng.uniform(0.5, 2.0)  # complex conjugate factor
        p = RealPolynomial(tuple(expand_from_roots([r, r, *np.roots([1.0, u, v])])))
        real = [c for c in real_roots_with_multiplicity(p) if c.multiplicity == 2]
        assert len(real) == 1
        assert abs(real[0].value - r) < 1e-6


def test_real_roots_rejects_constants():
    with pytest.raises(InputError):
        real_roots_with_multiplicity(RealPolynomial((3.0,)))


def test_multiplicity_sum_equals_degree():
    p = RealPolynomial(tuple(expand_from_roots([1.0, 1.0, -2.0, 0.5])))
    clusters = root_clusters(p.coefficients, 1e-7)
    assert sum(c.multiplicity for c in clusters) == 4


@pytest.mark.parametrize("coeffs", [(1.0, 1.0, 1e-320), (1.0, float("inf"), 1.0), (1e300, 1.0, 1e-300)])
def test_companion_roots_refuses_a_monic_form_that_is_not_finite(coeffs):
    # dividing by the leading coefficient overflows, or a coefficient already has
    with pytest.raises(DomainError, match="finite"):
        companion_roots(coeffs)


def test_two_double_roots_examples():
    assert two_double_roots_criterion(0.0, -2.0, 0.0, 1.0)        # (x-1)^2 (x+1)^2
    assert two_double_roots_criterion(-6.0, 13.0, -12.0, 4.0)     # (x-1)^2 (x-2)^2
    assert not two_double_roots_criterion(0.0, 0.0, 0.0, 1.0)     # x^4 + 1


def test_two_double_roots_randomized_planted():
    rng = np.random.default_rng(23)
    for _ in range(200):
        alpha = rng.uniform(-3.0, 3.0)
        beta = alpha + rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        a4, a3, a2, a1, _ = expand_two_double_roots(alpha, beta)
        assert two_double_roots_criterion(a1, a2, a3, a4)


def test_two_double_roots_randomized_simple():
    rng = np.random.default_rng(29)
    for _ in range(200):
        roots = rng.uniform(-3.0, 3.0, size=4)
        while np.min(np.diff(np.sort(roots))) < 0.1:
            roots = rng.uniform(-3.0, 3.0, size=4)
        a4, a3, a2, a1, _ = expand_from_roots(list(roots))
        assert not two_double_roots_criterion(a1, a2, a3, a4)


def test_two_double_roots_agrees_with_clustering():
    rng = np.random.default_rng(31)
    for k in range(100):
        if k % 2 == 0:
            alpha = rng.uniform(-2.0, 2.0)
            beta = alpha + rng.uniform(0.3, 2.0)
            coeffs = expand_two_double_roots(alpha, beta)
        else:
            u = rng.uniform(-1.0, 1.0)
            v = u * u / 4.0 + rng.uniform(0.3, 1.5)
            coeffs = expand_from_roots(list(np.roots([1.0, u, v])) * 2)
        clusters = root_clusters(coeffs, 1e-6)
        by_clusters = sorted(c.multiplicity for c in clusters) == [2, 2]
        a4, a3, a2, a1, _ = coeffs
        assert two_double_roots_criterion(a1, a2, a3, a4) == by_clusters == True


def test_complex_criterion_rejects_three_simple():
    coeffs = expand_from_roots([0.0, 1.0, 2.0, 3.0])
    a4, a3, a2, a1, _ = coeffs
    assert not two_double_roots_criterion(a1, a2, a3, a4)


def test_poly_from_roots_requires_conjugation_closure():
    with pytest.raises(InputError):
        poly_from_roots([1.0j, 2.0])
