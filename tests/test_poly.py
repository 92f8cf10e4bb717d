"""Polynomial arithmetic, the root-clustering oracle, and the two-double-roots test."""

from __future__ import annotations

import random

import numpy as np
import pytest

from oracles import (
    ReferencePolynomial,
    central_difference,
    expand_from_roots,
    expand_two_double_roots,
    poly_from_roots,
    real_roots_with_multiplicity,
    reference_companion_roots,
    reference_deflate,
    reference_deflate_composite,
    reference_derivative,
    root_clusters,
)
from touching_conics.errors import DomainError, InputError
from touching_conics.poly import (
    companion_roots,
    evaluate,
    poly_add,
    poly_deflate,
    poly_deflate_composite,
    poly_derivative,
    poly_mul,
    poly_scale,
    poly_sub,
    stacked_companion_roots,
    two_double_roots_criterion,
)


def test_evaluate_cubic():
    p = (0.0, -1.0, 0.0, 1.0)  # x^3 - x
    assert evaluate(p, 2.0) == 6.0


def test_evaluate_zero_polynomial():
    z = (0.0,)
    for x in (-3.0, 0.0, 17.5):
        assert evaluate(z, x) == 0.0


def test_evaluate_known_root():
    p = (4.0, -12.0, 13.0, -6.0, 1.0)  # (x-1)^2 (x-2)^2
    assert evaluate(p, 1.0) == 0.0


def test_derivative_cubic():
    assert poly_derivative((0.0, -1.0, 0.0, 1.0)) == (-1.0, 0.0, 3.0)


def test_derivative_constant_is_zero():
    assert poly_derivative((5.0,)) == (0.0,)


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(3)
    p = tuple(float(c) for c in rng.normal(size=6))
    dp = poly_derivative(p)
    p3 = poly_derivative(poly_derivative(dp))
    for x in np.linspace(-2.0, 2.0, 21):
        for h in (1e-3, 1e-4):
            approx = central_difference(lambda t: evaluate(p, t), x, h)
            bound = (abs(evaluate(p3, x)) / 6.0 + 1.0) * h * h * 10.0
            assert abs(approx - evaluate(dp, x)) < bound


def test_real_roots_simple():
    p = (-1.0, 0.0, 1.0)
    roots = real_roots_with_multiplicity(p)
    assert [(round(c.value.real, 9), c.multiplicity) for c in roots] == [(-1.0, 1), (1.0, 1)]


def test_real_roots_double():
    p = (4.0, -4.0, 1.0)  # (x-2)^2
    (cluster,) = real_roots_with_multiplicity(p)
    assert cluster.multiplicity == 2
    assert abs(cluster.value - 2.0) < 1e-6


def test_real_roots_planted_double_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = rng.uniform(-3.0, 3.0)
        u = rng.uniform(-2.0, 2.0)
        v = u * u / 4.0 + rng.uniform(0.5, 2.0)  # complex conjugate factor
        p = tuple(expand_from_roots([r, r, *np.roots([1.0, u, v])]))
        real = [c for c in real_roots_with_multiplicity(p) if c.multiplicity == 2]
        assert len(real) == 1
        assert abs(real[0].value - r) < 1e-6


def test_real_roots_rejects_constants():
    with pytest.raises(InputError):
        real_roots_with_multiplicity((3.0,))


def test_multiplicity_sum_equals_degree():
    p = tuple(expand_from_roots([1.0, 1.0, -2.0, 0.5]))
    clusters = root_clusters(p, 1e-7)
    assert sum(c.multiplicity for c in clusters) == 4


@pytest.mark.parametrize("coeffs", [(1.0, 1.0, 1e-320), (1.0, float("inf"), 1.0), (1e300, 1.0, 1e-300)])
def test_companion_roots_refuses_a_monic_form_that_is_not_finite(coeffs):
    # dividing by the leading coefficient overflows, or a coefficient already has
    with pytest.raises(DomainError, match="finite"):
        companion_roots(coeffs)


def _bits(values) -> list[str]:
    """Each number's exact bits, so that -0.0 differs from 0.0 and NaN
    equals NaN."""
    return [f"{complex(v).real.hex()} {complex(v).imag.hex()}" for v in values]


def _random_coefficients(rng: random.Random, size: int) -> list[float]:
    # signed zeros, trailing zeros, huge and tiny values, and now and then an
    # infinity, so that rounding, stripping and overflow all show
    pool = (0.0, -0.0, 1.0, -2.5, 1e-300, 1e300, float("inf"))
    return [rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-4.0, 4.0) * 10.0 ** rng.randint(-8, 8)
            for _ in range(size)]


def test_tuple_arithmetic_equals_the_dataclass_reference_bit_for_bit():
    # poly_add, poly_sub, poly_mul, poly_scale, poly_derivative, poly_deflate
    # and poly_deflate_composite make the float operations of the
    # frozen-dataclass arithmetic in its order
    rng = random.Random(7)
    for _ in range(3000):
        p = ReferencePolynomial(tuple(_random_coefficients(rng, rng.randint(1, 6))))
        q = ReferencePolynomial(tuple(_random_coefficients(rng, rng.randint(1, 6))))
        k = rng.choice((2.0, 3.0, 4.0, -1.0, 0.0, rng.uniform(-1e3, 1e3)))
        root = rng.uniform(-5.0, 5.0)
        pairs = [
            (poly_add(p.coefficients, q.coefficients), (p + q).coefficients),
            (poly_sub(p.coefficients, q.coefficients), (p - q).coefficients),
            (poly_mul(p.coefficients, q.coefficients), (p * q).coefficients),
            (poly_scale(p.coefficients, k), p.scale(k).coefficients),
            (poly_derivative(p.coefficients), reference_derivative(p).coefficients),
            (poly_deflate(p.coefficients, root), reference_deflate(p, root).coefficients),
            (poly_deflate_composite(p.coefficients, root), reference_deflate_composite(p, root).coefficients),
        ]
        for got, expected in pairs:
            assert _bits(got) == _bits(expected), (p, q, k, root)


@pytest.mark.parametrize(
    "roots", [[-4.8e-5, -0.82, 2.0, 3.0], [-1e-6, -0.82, 5 + 4j, 5 - 4j], [-2e-5, -0.5, 40.0, -7.0]]
)
def test_composite_deflation_keeps_the_roots_left(roots):
    # dividing out the second root leaves the others to a few ulps, the one
    # far smaller than it included; forward deflation alone, whose low
    # coefficients cancel, is 3e-13 to 1e-10 off the smallest
    mpmath = pytest.importorskip("mpmath")
    p = poly_from_roots(roots)
    with mpmath.workdps(80):
        exact = mpmath.polyroots(list(reversed(p)), maxsteps=200, extraprec=300)
        left = sorted(exact, key=lambda z: abs(z - roots[1]))[1:]
        got = companion_roots(poly_deflate_composite(p, roots[1]))
        for want in left:
            assert min(float(abs((z - want) / want)) for z in got) < 1e-14, (roots, want)


def test_stacked_roots_equal_one_eigenvalue_call_per_polynomial():
    # LAPACK factors each matrix of the stack on its own: degrees 0 to 8 mixed,
    # real and complex coefficients, trailing zeros, in one call and alone
    rng = random.Random(11)
    polys = []
    for _ in range(400):
        cs = [rng.uniform(-5.0, 5.0) * 10.0 ** rng.randint(-3, 3) for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.2:
            cs.append(0.0)
        if rng.random() < 0.1:
            cs = [complex(c, rng.uniform(-1.0, 1.0)) for c in cs]
        polys.append(tuple(cs))
    expected = [_bits(reference_companion_roots(p)) for p in polys]
    assert [_bits(roots) for roots in stacked_companion_roots(polys)] == expected
    assert [_bits(companion_roots(p)) for p in polys] == expected
    assert stacked_companion_roots([]) == []


def test_stacked_roots_raise_the_first_refusal_in_order():
    # every polynomial is checked before any is solved, in the order given
    good = (2.0, -3.0, 1.0)
    polys = [good, (1.0, 1.0, 1e-310), good, (1.0, 1.0, 1e-320)]
    with pytest.raises(DomainError) as first:
        companion_roots(polys[1])
    with pytest.raises(DomainError) as stacked:
        stacked_companion_roots(polys)
    assert str(stacked.value) == str(first.value)


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
