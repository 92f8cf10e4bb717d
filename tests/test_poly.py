"""Polynomial arithmetic, the root-clustering oracle, and the two-double-roots test."""

from __future__ import annotations

import cmath
import os
import random
import subprocess
import sys
from pathlib import Path

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
from touching_conics import poly
from touching_conics.errors import DomainError, InputError
from touching_conics.poly import (
    evaluate,
    poly_add,
    poly_deflate,
    poly_deflate_composite,
    poly_derivative,
    poly_mul,
    poly_scale,
    poly_sub,
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


@pytest.mark.parametrize(
    "coeffs", [(1.0, 1.0, 1e-320), (1.0, float("inf"), 1.0), (1e300, 1.0, 1e-300), (1.0, float("nan"), 2.0, 1.0)]
)
def test_companion_roots_refuses_a_monic_form_that_is_not_finite(coeffs):
    # dividing by the leading coefficient overflows, or a coefficient already
    # has: poly.roots refuses where the companion matrix could not be built,
    # with the eigenvalue path's message word for word
    with pytest.raises(DomainError, match="finite") as companion:
        reference_companion_roots(coeffs)
    with pytest.raises(DomainError) as closed_form:
        poly.roots(coeffs)
    assert str(closed_form.value) == str(companion.value)


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
        got = poly.roots(poly_deflate_composite(p, roots[1]))
        for want in left:
            assert min(float(abs((z - want) / want)) for z in got) < 1e-14, (roots, want)


EPS = 2.0**-52


def _planted(kind: str, rng: random.Random) -> tuple[float, ...]:
    """A polynomial of degree 1 to 3 of one kind: random coefficients, a
    near-double real root, a conjugate pair with a tiny imaginary part, a
    zero constant term, or planted roots with coefficients from 1e-150 to
    1e150."""
    if kind == "random":
        return tuple(rng.uniform(-4.0, 4.0) * 10.0 ** rng.randint(-3, 3) for _ in range(rng.randint(2, 4)))
    if kind == "near-double":
        r = rng.uniform(-3.0, 3.0)
        return poly_from_roots([r, r * (1.0 + 10.0 ** rng.uniform(-12.0, -4.0)), rng.uniform(-3.0, 3.0)])
    if kind == "tiny-imaginary":
        u, v = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-12.0, -2.0)
        return poly_from_roots([complex(u, v), complex(u, -v), rng.uniform(-3.0, 3.0)])
    if kind == "zero-constant":
        return (0.0,) + tuple(rng.uniform(-4.0, 4.0) for _ in range(rng.randint(1, 3)))
    size, lead = 10.0 ** rng.uniform(-40.0, 40.0), 10.0 ** rng.uniform(-30.0, 30.0)
    roots_ = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 4.0) * size for _ in range(rng.randint(1, 3))]
    return tuple(c * lead for c in poly_from_roots(roots_))


def _exact_roots(p, mpmath):
    """The 80-digit roots of the float polynomial, solved in the variable
    scaled by its root bound, so that the iteration starts at their size."""
    cs = [mpmath.mpf(c) for c in p]
    n = len(cs) - 1
    bound = max(abs(cs[i] / cs[n]) ** (mpmath.mpf(1) / (n - i)) for i in range(n) if cs[i]) if any(cs[:n]) else 1
    scaled = [cs[i] * bound**i for i in reversed(range(n + 1))]
    return [z * bound for z in mpmath.polyroots(scaled, maxsteps=400, extraprec=400)]


def _errors(got, exact, mpmath) -> list:
    """Each exact root with the error of the nearest root got, relative where
    the root is not zero, each root got matched once."""
    left = [mpmath.mpc(z) for z in got]
    out = []
    for w in exact:
        z = min(left, key=lambda g: abs(g - w))
        left.remove(z)
        out.append((w, abs(z - w) / abs(w) if w else abs(z)))
    return out


@pytest.mark.parametrize("kind", ["random", "near-double", "tiny-imaginary", "zero-constant", "wide"])
def test_roots_match_80_digit_roots_and_the_eigenvalue_oracle(kind):
    # backward stable: |p(z)| is within 2 eps of the size of its terms at
    # every root z; and each root is within twice the larger of the
    # eigenvalue oracle's error and the first-order bound eps S / |w p'(w)|,
    # S the size of p's terms, at the 80-digit root w: a near-double root or
    # a tiny imaginary part is only as exact as its conditioning allows
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(sum(map(ord, kind)))
    with mpmath.workdps(80):
        for _ in range(150):
            p = _planted(kind, rng)
            got = poly.roots(p)
            assert len(got) == len(p) - 1 and all(cmath.isfinite(z) for z in got), p
            for z in got:
                terms = [mpmath.mpf(c) * mpmath.mpc(z) ** i for i, c in enumerate(p)]
                assert abs(sum(terms)) <= 2 * EPS * sum(map(abs, terms)), (p, z)
            exact = _exact_roots(p, mpmath)
            reference = {complex(w): e for w, e in _errors(reference_companion_roots(p), exact, mpmath)}
            for w, error in _errors(got, exact, mpmath):
                slope = abs(sum(i * mpmath.mpf(c) * w ** (i - 1) for i, c in enumerate(p) if i))
                size = sum(abs(mpmath.mpf(c)) * abs(w) ** i for i, c in enumerate(p))
                conditioned = EPS * size / (abs(w) * slope) if w and slope else 0
                assert error <= 2 * max(reference[complex(w)], conditioned, EPS if w else 0), (p, w, error)
            if kind == "zero-constant":
                assert 0.0 in got


def test_roots_of_a_cubic_near_the_float_range_are_finite():
    # D' of the set (1, 0, 1, 1e300, 1): unscaled, the value of the cubic at
    # its inflection point overflows and Newton starts from NaN.  Its roots
    # are 7.5e299, -2/3 and about 5e-301; the terms at the largest and at
    # the smallest differ by more than the float range, so no one scale
    # holds both, and the scaled cubic reads the smallest as 0
    got = sorted(poly.roots((1.0, -2e300, -3e300, 4.0)))
    assert got == pytest.approx([-2.0 / 3.0, 0.0, 7.5e299], rel=1e-15, abs=1e-300)


def test_roots_below_degree_one_and_above_three():
    assert poly.roots((0.0,)) == [] and poly.roots((5.0,)) == []
    assert poly.roots((2.0, 4.0)) == [-0.5]
    # a quartic is refused, not solved as a cubic
    with pytest.raises(ValueError):
        poly.roots((1.0, 0.0, 0.0, 0.0, 1.0))


def test_report_path_imports_no_numpy(params_star):
    # the modules a report's validation and analysis run on solve every
    # root in closed form, and cli imports conics only in the conic
    # subcommands: importing them leaves numpy unloaded, and so does a
    # whole report run from the command line
    modules = ", ".join(f"touching_conics.{name}" for name in ("surface", "analysis", "resolution", "classifier", "cli"))
    code = f"import sys, {modules}; print('numpy' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "False\n"
    p = params_star
    argv = ["-X", "importtime", "-m", "touching_conics", "--params", f"{p.q0!r},{p.q1!r},{p.q2!r},{p.a!r},{p.b!r}", "report"]
    run = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert run.returncode == 0 and '"survivors"' in run.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines() if line.startswith("import time:")]
    assert "touching_conics.classifier" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


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
