"""Conic families: construction, reality, tangency certification, emptiness."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from oracles import (
    allclose_symmetric,
    conic_through_points,
    generic_positivity_bound,
    grid_minimum_on_slice,
    lapack_degenerate,
    linf_radii,
    polarized_gram,
    quartic_double_double,
    special_positivity_bound,
)
from touching_conics.conics import (
    REL_EPS,
    ConicCoeffs,
    ConicType,
    Plane,
    min_real_form,
    orbit_conic,
    real_slice_gram,
    verify_touching,
)
from touching_conics.errors import (
    DegenerateConicError,
    DegeneratePlaneError,
    DomainError,
    InputError,
    PreconditionError,
)
from touching_conics.poly import two_double_roots_criterion
from touching_conics.surface import disc_value, f_value, intervals, q_value, s_minus_q


def test_branch_factors_real_when_f_positive(params_star):
    gm, gp = Plane(params_star, -0.5).branch_factors
    assert abs(gm.imag) < 1e-14 and abs(gp.imag) < 1e-14
    assert gm.real > 0.0 and gp.real > 0.0  # Q > sqrt(f) there


def test_branch_factors_conjugate_when_f_negative(params_star):
    gm, gp = Plane(params_star, -2.0).branch_factors
    assert abs(gp - gm.conjugate()) < 1e-12


def test_branch_factors_product_identity(params_star):
    for lam in (-0.7, -3.0, 0.4, 1.8):
        gm, gp = Plane(params_star, lam).branch_factors
        d = disc_value(params_star, lam)
        assert abs(gm * gp - d) < 1e-12 * (1.0 + abs(d))


def test_branch_factors_degenerate_plane(params_star):
    with pytest.raises(DegeneratePlaneError):
        Plane(params_star, 2.0).branch_factors


def test_generic_conic_determinant_closed_form(params_star):
    lam, theta = -0.4, 0.9
    d = disc_value(params_star, lam)
    f = f_value(params_star, lam)
    q = q_value(params_star, lam)
    raw = np.array(
        [
            [2.0 * d, 0, 0],
            [0, math.sqrt(f) * cmath.exp(1j * theta), q],
            [0, q, math.sqrt(f) * cmath.exp(-1j * theta)],
        ],
        dtype=complex,
    )
    det = complex(np.linalg.det(raw))
    assert abs(det - (-2.0 * d * d)) < 1e-9 * abs(det)


def test_special_conic_determinant_closed_form(params_star):
    lam, theta = -1.7, 0.3
    s = math.sqrt(disc_value(params_star, lam))
    q = q_value(params_star, lam)
    bco = math.sqrt(0.5 * s_minus_q(params_star, lam))
    raw = np.array(
        [
            [s, 0.5 * bco * cmath.exp(1j * theta), 0.5 * bco * cmath.exp(-1j * theta)],
            [0.5 * bco * cmath.exp(1j * theta), 0, 0.5],
            [0.5 * bco * cmath.exp(-1j * theta), 0.5, 0],
        ],
        dtype=complex,
    )
    det = complex(np.linalg.det(raw))
    expected = -(q + s) / 8.0
    assert abs(det - expected) < 1e-9 * abs(expected)
    assert det.real < 0.0


def test_generic_conic_periodicity(params_star):
    c1 = Plane(params_star, -0.5).generic(0.3)
    c2 = Plane(params_star, -0.5).generic(0.3 + 2.0 * math.pi)
    assert np.abs(c1.m - c2.m).max() < 1e-12


def test_generic_conic_domain_errors(params_star):
    with pytest.raises(DomainError):
        Plane(params_star, -2.0).generic(0.0)  # f < 0
    with pytest.raises(DomainError):
        Plane(params_star, 2.0).generic(0.0)  # double-root plane


def test_special_conic_domain_error(params_star):
    with pytest.raises(DomainError):
        Plane(params_star, -0.5).special(0.0)  # f > 0


def test_special_conic_misses_quadratic_fixed_terms(params_star):
    c = Plane(params_star, -2.0).special(1.0)
    assert abs(c.m[1, 1]) == 0.0 and abs(c.m[2, 2]) == 0.0


def test_orbit_conic_rotation_invariance():
    c = orbit_conic(0.7)
    theta = 0.9
    d = np.diag([1.0, cmath.exp(1j * theta), cmath.exp(-1j * theta)])
    assert np.abs(d @ c.m @ d - c.m).max() < 1e-15


def test_orbit_conic_rejects_zero():
    with pytest.raises(DomainError):
        orbit_conic(0.0)


def test_reality_invariant_families(params_star):
    for theta in (0.0, math.pi / 3.0, 2.4):
        assert Plane(params_star, -0.5).generic(theta).is_real()
        assert Plane(params_star, -2.0).special(theta).is_real()
    assert orbit_conic(-1.0).is_real()


def test_verify_touching_generic_structure(params_star):
    part = intervals(params_star)
    lam = 0.5 * (part.i4minus[0] + part.lambda0)
    rep = verify_touching(Plane(params_star, lam).generic(0.0), params_star, lam)
    assert rep.kind is ConicType.GENERIC
    for br in rep.branches:
        mults = sorted(m for _, m in br.contacts)
        assert mults == [2, 2]
        assert br.residual < 1e-8
        h, d, c2, c3, c4 = br.restriction
        assert two_double_roots_criterion(c3 / c4, c2 / c4, d / c4, h / c4)


def test_verify_touching_special_structure(params_star):
    rep = verify_touching(Plane(params_star, -2.0).special(0.7), params_star, -2.0)
    assert rep.kind is ConicType.SPECIAL
    assert rep.pinf_contact == 2 and rep.pinfbar_contact == 2
    finite = [[(z, m) for z, m in br.contacts if not isinstance(z, str)] for br in rep.branches]
    assert all(len(f) == 1 and f[0][1] == 2 for f in finite)
    # the two double contacts form a conjugate pair of plane points; in chart
    # coordinates the real structure sends x1 on one branch to -1/(g x1bar)
    # on the other
    z1, z2 = complex(finite[0][0][0]), complex(finite[1][0][0])
    _, gp = Plane(params_star, -2.0).branch_factors
    assert abs(z2 - (-1.0 / (gp * z1.conjugate()))) < 1e-5


def test_verify_touching_special_near_double_root_contact(params_draws):
    # the contact at the fixed point is a double root of the branch quartic,
    # where p' almost vanishes: an unguarded Newton polish moves the other
    # double contact onto it
    params = params_draws[2]
    lam, theta = -5.75, 2.0 * math.pi * 248 / 256
    rep = verify_touching(Plane(params, lam).special(theta), params, lam)
    assert rep.kind is ConicType.SPECIAL
    for br in rep.branches:
        finite = [m for z, m in br.contacts if not isinstance(z, str)]
        assert finite == [2]


def test_verify_touching_agrees_with_root_pairing_oracle(params_draws):
    # generic conics over a plane sweep of I2 and I4, and the same conics
    # with the y1^2 coefficient moved by 0.1%, which splits every contact
    agree = {True: 0, False: 0}
    for p in params_draws:
        part = intervals(p)
        spans = [part.i2, part.i4minus, (part.lambda0, part.lambda0 + 5.0)]
        for lo, hi in spans:
            for lam in np.linspace(lo, hi, 8)[1:-1]:
                for theta in np.linspace(0.0, 2.0 * math.pi, 5)[:-1]:
                    conic = Plane(p, lam).generic(theta)
                    moved = conic.m.copy()
                    moved[0, 0] *= 1.001
                    for c in (conic, ConicCoeffs.from_matrix(moved)):
                        rep = verify_touching(c, p, lam)
                        for br in rep.branches:
                            oracle = quartic_double_double(br.restriction)
                            assert oracle == (rep.kind is ConicType.GENERIC), (lam, theta)
                            agree[oracle] += 1
    assert agree[True] and agree[False]


def test_verify_touching_orbit_containment_boundary(params_star):
    lam = -0.5
    q = q_value(params_star, lam)
    sf = math.sqrt(f_value(params_star, lam))
    for alpha in (-q + sf, -q - sf):
        rep = verify_touching(orbit_conic(alpha), params_star, lam)
        assert rep.kind is ConicType.CONTAINED_IN_B
    for alpha in (-q + sf + 0.05, -q - sf - 0.05, -q):
        rep = verify_touching(orbit_conic(alpha), params_star, lam)
        assert rep.kind is ConicType.ORBIT
        assert rep.pinf_contact == 4 and rep.pinfbar_contact == 4


def test_far_planes_certify_or_end_in_an_error(params_star):
    # far out sqrt|f| is small beside Q: the x1^2 coefficient of each branch
    # restriction cancels (to exactly 0 at 1e50); past 1e12 that is an error,
    # never a verdict read off rounding.  The special conic's rows differ in
    # scale by about sqrt|lam| there, yet it stays smooth
    families = ((1.0, Plane.generic, ConicType.GENERIC), (-1.0, Plane.special, ConicType.SPECIAL))
    for k in range(1, 75):
        for sign, make, kind in families:
            lam = sign * 10.0**k
            conic = make(Plane(params_star, lam), 0.3)
            if k <= 12:
                assert verify_touching(conic, params_star, lam).kind is kind, lam
            else:
                with pytest.raises(DomainError, match="lost precision"):
                    verify_touching(conic, params_star, lam)


def test_verify_touching_random_conic(params_star):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    conic = ConicCoeffs.from_matrix(conic_through_points(pts))
    assert verify_touching(conic, params_star, -0.5).kind is ConicType.NOT_TOUCHING


def test_verify_touching_degenerate_conic(params_star):
    line_pair = np.zeros((3, 3), dtype=complex)
    line_pair[0, 1] = line_pair[1, 0] = 0.5  # y1 * y2 = 0
    with pytest.raises(DegenerateConicError):
        verify_touching(ConicCoeffs.from_matrix(line_pair), params_star, -0.5)


def _accepted(m) -> bool:
    try:
        ConicCoeffs.from_matrix(m)
    except InputError:
        return False
    return True


def test_symmetry_check_matches_allclose_oracle():
    # one off-diagonal entry moved from its mirror by a multiple of the
    # tolerance atol + 1e-5 |m_ji|, atol = 1e-12 (1 + max |m|), over seven
    # decades of scale, with complex and with real entries
    rng = np.random.default_rng(23)
    verdicts = {True: 0, False: 0}
    for real in (False, True):
        for _ in range(40):
            a = rng.normal(size=(3, 3)) + (0.0 if real else 1j * rng.normal(size=(3, 3)))
            m = (a + a.T) * 10.0 ** rng.uniform(-3.0, 4.0)
            i, j = [(0, 1), (0, 2), (1, 2)][rng.integers(3)]
            if rng.random() < 0.3:
                m[j, i] = 0.0  # the absolute part of the tolerance alone
            tol = 1e-12 * (1.0 + np.abs(m).max()) + 1e-5 * abs(m[j, i])
            step = rng.choice([1.0, -1.0]) if real else cmath.exp(2j * math.pi * rng.random())
            for factor in (0.5, 0.99, 1.01, 2.0):
                moved = m.astype(complex)
                moved[i, j] = m[j, i] + factor * tol * step
                expected = allclose_symmetric(moved)
                assert _accepted(moved) == expected, (real, factor, moved)
                verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]
    for m in (
        [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 1j], [0.0, -1j, 1.0]],
        [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, math.inf, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ):
        assert not allclose_symmetric(m)
        with pytest.raises(InputError):
            ConicCoeffs.from_matrix(m)
    # moduli beyond the float range: numpy scaled these to a zero matrix,
    # and an infinite entry, symmetric as inf == inf, to NaN
    for m in (np.full((3, 3), 1.5e308 + 1.5e308j), np.diag([math.inf, 1.0, 1.0]), np.diag([1.0, -math.inf, 1.0])):
        with pytest.raises(InputError, match="exceed the float range"):
            ConicCoeffs.from_matrix(m)


def test_normalised_rows_round_as_numpy_division():
    # the rows of a conic are its matrix over the largest modulus, rounded as
    # numpy's m / top rounds them, to the bit and the sign of zero: the
    # exported matrix is written from the rows
    rng = np.random.default_rng(41)
    specials = [0.0, -0.0, 1.0, -1.0]
    entries = signed_zeros = 0
    for _ in range(400):
        parts = rng.normal(size=(2, 3, 3)) * 10.0 ** rng.uniform(-4.0, 4.0, size=(2, 3, 3))
        mask = rng.random(size=(2, 3, 3)) < 0.25
        parts[mask] = rng.choice(specials, size=int(mask.sum()))
        m = np.empty((3, 3), dtype=complex)
        for i in range(3):
            for j in range(i, 3):
                # complex(x, y) keeps a -0.0 real part, which x + 1j * y loses
                m[i, j] = m[j, i] = complex(parts[0, i, j], parts[1, i, j])
        signed_zeros += sum(math.copysign(1.0, z.real) < 0.0 and z.real == 0.0 for z in m.ravel().tolist())
        # the largest modulus as Python's abs finds it: numpy's abs of a
        # complex number can differ from it in the last bit
        top = max(abs(z) for z in m.ravel().tolist())
        expected = np.asarray(m, dtype=complex) / top
        rows = ConicCoeffs.from_matrix(m).rows
        for i in range(3):
            for j in range(3):
                z, w = rows[i][j], expected[i, j]
                assert (repr(z.real), repr(z.imag)) == (repr(float(w.real)), repr(float(w.imag))), (m, i, j)
                entries += 1
    assert entries > 3000 and signed_zeros > 100


def _raises_degenerate(conic, params, lam) -> bool:
    try:
        verify_touching(conic, params, lam)
    except DegenerateConicError:
        return True
    return False


def test_degeneracy_verdict_matches_lapack_oracle(params_draws):
    rng = np.random.default_rng(31)

    def sym(scale=1.0):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return scale * (a + a.T)

    def line_pair():
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        return np.outer(u, v) + np.outer(v, u)

    cases = []
    for p in params_draws:
        cases += [(p, -0.5, Plane(p, -0.5).generic(t)) for t in (0.0, 1.1, 4.0)]
        cases += [(p, -2.0, Plane(p, -2.0).special(t)) for t in (0.3, 2.5)]
        cases += [(p, -0.5, orbit_conic(a)) for a in (-0.7, 1.3)]
    p = params_draws[0]
    cases += [(p, -0.5, ConicCoeffs.from_matrix(sym())) for _ in range(30)]
    # a line pair moved off degeneracy by 1e-4 .. 1e-16: both verdicts
    for k in range(4, 17):
        cases.append((p, -0.5, ConicCoeffs.from_matrix(line_pair() + sym(10.0**-k))))
    verdicts = {True: 0, False: 0}
    for params, lam, conic in cases:
        expected = lapack_degenerate(conic.m, REL_EPS)
        assert _raises_degenerate(conic, params, lam) == expected, conic.m
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]
    pairs = [line_pair() for _ in range(10)]
    pairs.append(np.diag([1.0, 0.0, 0.0]))  # the double line y1^2
    pairs.append(np.diag([0.0, 1.0, -1.0]))  # (y2 - y3)(y2 + y3)
    for m in pairs:
        conic = ConicCoeffs.from_matrix(m)
        assert lapack_degenerate(conic.m, REL_EPS)
        with pytest.raises(DegenerateConicError):
            verify_touching(conic, p, -0.5)


def test_completeness_mixed_term_forces_double_line(params_star):
    # solving the two-branch tangency system with a y1*y2 term present always
    # collapses the conic to a double line
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = rng.normal() + 1j * rng.normal()
        c = rng.normal() + 1j * rng.normal()
        d = rng.normal() + 1j * rng.normal()
        a = b * b / (4.0 * c)
        e = 2.0 * c * d / b
        h = c * d * d / (b * b)
        m = np.array([[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, h]])
        top = np.abs(m).max()
        assert abs(np.linalg.det(m / top)) < 1e-10


def test_min_real_form_positive_generic(params_star):
    for theta in (0.0, 1.0, 2.0, 4.5):
        val = min_real_form(Plane(params_star, -0.5).generic(theta))
        assert val > 0.0
        assert val >= generic_positivity_bound(params_star, -0.5) - 1e-12


def test_min_real_form_positive_special(params_star):
    for theta in (0.0, 1.3, 3.9):
        val = min_real_form(Plane(params_star, -2.0).special(theta))
        assert val > 0.0
        assert val >= special_positivity_bound(params_star, -2.0) - 1e-12


def test_min_real_form_orbit_sign():
    assert min_real_form(orbit_conic(-1.0)) > 0.0
    assert min_real_form(orbit_conic(1.0)) <= 0.0


def test_min_real_form_matches_brute_grid(params_star):
    conic = Plane(params_star, -0.5).generic(0.8)
    eig = min_real_form(conic)
    # same rescaled matrix the production Gram path uses
    c = conic.reality_factor()
    m = conic.m * cmath.exp(0.5j * cmath.phase(c))
    brute = grid_minimum_on_slice(m)
    assert brute >= eig - 1e-9
    assert brute - eig < 5e-3  # the grid comes close to the true minimum


def test_real_slice_gram_matches_polarization(params_draws):
    # the closed form and the polarization sum the same products in another
    # order: entries of |m| <= 1 agree to a few ulps
    for p in params_draws:
        conics = [Plane(p, -0.5).generic(t) for t in (0.0, 1.1, 4.0)]
        conics += [Plane(p, -2.0).special(t) for t in (0.3, 2.5)] + [orbit_conic(-0.7), orbit_conic(1.3)]
        for conic in conics:
            m = conic.m * cmath.exp(0.5j * cmath.phase(conic.reality_factor()))
            assert np.abs(real_slice_gram(conic) - polarized_gram(m)).max() <= 8 * np.finfo(float).eps


def test_min_real_form_requires_reality():
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 0] = 1.0
    skew[1, 1] = 1.0j
    with pytest.raises(PreconditionError):
        min_real_form(ConicCoeffs.from_matrix(skew))


def test_linf_radii(params_star):
    part = intervals(params_star)
    lam = 0.5 * (part.i4minus[0] + part.lambda0)
    li = linf_radii(params_star, lam)
    assert abs(li.h0 * li.h0_inv - 1.0) < 1e-12
    gamma = q_value(params_star, lam) ** 2 / f_value(params_star, lam)
    assert abs(li.h0 - (math.sqrt(gamma) + math.sqrt(gamma - 1.0))) < 1e-10
    assert li.h0 > 1.0 > li.h0_inv > 0.0
    outer, inner = li.points(0.7)
    assert abs(abs(outer) - li.h0) < 1e-12
    assert abs(abs(inner) - li.h0_inv) < 1e-12


def test_linf_radii_blows_up_at_interval_ends(params_star):
    vals = [linf_radii(params_star, -1.0 + d).h0 for d in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < vals[1] < vals[2] and vals[-1] > 1e2
    with pytest.raises(DomainError):
        linf_radii(params_star, -2.0)


def test_family_sweep_reality_and_classification(params_star):
    part = intervals(params_star)
    thetas = [k * math.pi / 3.0 for k in range(6)]
    windows = {
        ConicType.GENERIC: [part.i2, (part.i4minus[0], part.lambda0 - 1e-3)],
        ConicType.SPECIAL: [(-4.0, -1.0), part.i3],
    }
    for kind, spans in windows.items():
        for lo, hi in spans:
            for lam in np.linspace(lo + (hi - lo) / 8.0, hi - (hi - lo) / 8.0, 4):
                for theta in thetas:
                    conic = (
                        Plane(params_star, lam).generic(theta)
                        if kind is ConicType.GENERIC
                        else Plane(params_star, lam).special(theta)
                    )
                    assert conic.is_real()
                    assert verify_touching(conic, params_star, lam).kind is kind
                    assert min_real_form(conic) > 0.0
