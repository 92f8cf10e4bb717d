"""Conic families: construction, reality, tangency certification, emptiness."""

from __future__ import annotations

import cmath
import importlib.util
import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from oracles import (
    allclose_symmetric,
    conic_through_points,
    from_matrix,
    generic_positivity_bound,
    grid_minimum_on_slice,
    lapack_degenerate,
    linf_radii,
    polarized_gram,
    quartic_double_double,
    special_positivity_bound,
    verify_touching,
    FILTER_RANGE,
    _AT,
    _TYPES,
    _U,
    _even_quartic_square,
    _quadratic_square,
    filter_decide,
    filter_lanes,
    filter_types,
    matrix,
)
from touching_conics.conics import (
    FAMILIES,
    REL_EPS,
    Contact,
    ConicCoeffs,
    ConicType,
    Plane,
    conic_contact,
    min_real_form,
    normalized,
    orbit_conic,
    real_slice_gram,
    restriction,
)
from touching_conics.errors import (
    DegenerateConicError,
    DegeneratePlaneError,
    DomainError,
    InputError,
    NotFoundError,
    PreconditionError,
)
from touching_conics.poly import square_root_roots, two_double_roots_criterion
from touching_conics.surface import (
    SearchConfig,
    SurfaceParams,
    disc_value,
    f_value,
    find_valid_params,
    intervals,
    q_value,
    s_minus_q,
)


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
    assert np.abs(matrix(c1) - matrix(c2)).max() < 1e-12


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
    assert abs(matrix(c)[1, 1]) == 0.0 and abs(matrix(c)[2, 2]) == 0.0


def test_orbit_conic_rotation_invariance():
    c = orbit_conic(0.7)
    theta = 0.9
    d = np.diag([1.0, cmath.exp(1j * theta), cmath.exp(-1j * theta)])
    assert np.abs(d @ matrix(c) @ d - matrix(c)).max() < 1e-15


def test_orbit_conic_rejects_zero():
    with pytest.raises(DomainError):
        orbit_conic(0.0)


def _invariant_to(conic: ConicCoeffs, tol: float) -> bool:
    """is_real's test at tol: the conjugated and swapped matrix is a
    unimodular multiple of the matrix, to tol of its largest entry."""
    mirror, _, c = conic._reality
    m = matrix(conic)
    return abs(abs(c) - 1.0) <= tol and np.abs(np.reshape(mirror, (3, 3)) - c * m).max() <= tol * np.abs(m).max()


def test_reality_invariant_families(params_star):
    # each family is invariant within 1e-9, a tenth of the REALITY_TOL that
    # is_real reads (the circle families exactly: see
    # test_family_members_are_exactly_real)
    conics = [orbit_conic(-1.0)]
    for theta in (0.0, math.pi / 3.0, 2.4):
        conics += [Plane(params_star, -0.5).generic(theta), Plane(params_star, -2.0).special(theta)]
    for conic in conics:
        assert conic.is_real() and _invariant_to(conic, 1e-9)


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
                    moved = matrix(conic)
                    moved[0, 0] *= 1.001
                    for c in (conic, from_matrix(moved)):
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
    conic = from_matrix(conic_through_points(pts))
    assert verify_touching(conic, params_star, -0.5).kind is ConicType.NOT_TOUCHING


def test_verify_touching_degenerate_conic(params_star):
    line_pair = np.zeros((3, 3), dtype=complex)
    line_pair[0, 1] = line_pair[1, 0] = 0.5  # y1 * y2 = 0
    with pytest.raises(DegenerateConicError):
        verify_touching(from_matrix(line_pair), params_star, -0.5)


def _accepted(m) -> bool:
    try:
        from_matrix(m)
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
            from_matrix(m)
    # moduli beyond the float range: numpy scaled these to a zero matrix,
    # and an infinite entry, symmetric as inf == inf, to NaN
    for m in (np.full((3, 3), 1.5e308 + 1.5e308j), np.diag([math.inf, 1.0, 1.0]), np.diag([1.0, -math.inf, 1.0])):
        with pytest.raises(InputError, match="exceed the float range"):
            from_matrix(m)


def test_normalised_rows_scale_each_part_by_the_reciprocal():
    # the rows of a conic are its matrix with each part times the reciprocal
    # of the largest modulus, to the bit and the sign of zero: the exported
    # matrix is written from the rows.  A positive real scale commutes with
    # conjugation, so the conjugate matrix gives the conjugate rows
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
        scale = 1.0 / max(abs(z) for z in m.ravel().tolist())
        expected_re, expected_im = m.real * scale, m.imag * scale
        rows = from_matrix(m).rows
        conj_rows = from_matrix(np.conj(m)).rows
        for i in range(3):
            for j in range(3):
                z, w = rows[i][j], conj_rows[i][j]
                assert (repr(z.real), repr(z.imag)) == (repr(float(expected_re[i, j])), repr(float(expected_im[i, j]))), (m, i, j)
                assert (repr(w.real), repr(w.imag)) == (repr(z.real), repr(-z.imag)), (m, i, j)
                entries += 1
    assert entries > 3000 and signed_zeros > 100


def _matrices(family: str, lanes: np.ndarray) -> np.ndarray:
    """The (3, 3, n) matrices of the family's lanes, zero elsewhere."""
    m = np.zeros((3, 3, lanes.shape[-1]), dtype=complex)
    for lane, i, j in zip(lanes, *_AT[family]):
        m[i, j] = m[j, i] = lane
    return m


def test_batched_members_equal_the_constructors_rows(params_draws):
    # the batch's lanes are the entries of Plane.generic / Plane.special /
    # orbit_conic to the bit and the sign of zero, and every other entry of
    # those rows is a literal zero
    rng = np.random.default_rng(47)
    angles = [2.0 * math.pi * k / 256 for k in range(256)] + list(rng.uniform(-10.0, 10.0, 64))
    entries = 0
    for p in params_draws:
        part = intervals(p)
        for lam in (-2.5, -0.5, 0.5 * part.i3[1], part.lambda0 + 1.0, 1e8, -1e8):
            plane = Plane(p, lam)
            circles = "generic" if plane.f > 0.0 else "special"
            sf = math.sqrt(abs(plane.f))
            alphas = [-plane.q - sf + 2.0 * sf * k / 256 for k in range(1, 256)] + list(rng.normal(size=16) * 10.0)
            for family, knobs in ((circles, angles), ("orbit", alphas)):
                m = _matrices(family, filter_lanes(plane, family, np.array(knobs)))
                lanes = {(i, j) for i, j in zip(*_AT[family])}
                for k, knob in enumerate(knobs):
                    rows = FAMILIES[family](plane, knob).rows
                    got = [[(repr(float(m[i, j, k].real)), repr(float(m[i, j, k].imag))) for j in range(3)] for i in range(3)]
                    assert got == [[(repr(z.real), repr(z.imag)) for z in row] for row in rows], (lam, family, knob)
                    for i in range(3):
                        for j in range(3):
                            assert (i, j) in lanes or (j, i) in lanes or rows[i][j] == 0, (lam, family, knob, i, j)
                    entries += 9
    assert entries > 30000


def test_family_members_are_exactly_real(params_draws):
    # each e^{-i t} entry is the conjugate of its e^{i t} entry and the
    # scale is a positive real, so conjugating a member and swapping y2 and
    # y3 gives back its matrix to the bit, with reality factor 1: on a plane
    # of each interval and two far planes, the rows of Plane.generic and
    # Plane.special and the matrices of the batch's lanes alike
    rng = np.random.default_rng(53)
    angles = [2.0 * math.pi * k / 256 for k in range(256)] + list(rng.uniform(-10.0, 10.0, 64))
    swap = [0, 2, 1]
    checks = 0
    for p in params_draws:
        part = intervals(p)
        spans = (part.i2, part.i3, part.i4minus)
        lams = [part.i1[1] - 1.5, part.lambda0 + 1.0, 1e4, -1e4] + [0.5 * (lo + hi) for lo, hi in spans]
        for lam in lams:
            plane = Plane(p, lam)
            family = "generic" if plane.f > 0.0 else "special"
            for theta in angles:
                conic = FAMILIES[family](plane, theta)
                m = matrix(conic)
                assert np.array_equal(np.conj(m)[swap][:, swap], m), (lam, family, theta)
                assert conic.reality_factor() == 1.0, (lam, family, theta)
            m = _matrices(family, filter_lanes(plane, family, np.array(angles)))
            assert np.array_equal(np.conj(m)[swap][:, swap], m), (lam, family)
            checks += 2 * len(angles) + 1
    assert checks > 6000


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
    cases += [(p, -0.5, from_matrix(sym())) for _ in range(30)]
    # a line pair moved off degeneracy by 1e-4 .. 1e-16: both verdicts
    for k in range(4, 17):
        cases.append((p, -0.5, from_matrix(line_pair() + sym(10.0**-k))))
    verdicts = {True: 0, False: 0}
    for params, lam, conic in cases:
        expected = lapack_degenerate(matrix(conic), REL_EPS)
        assert _raises_degenerate(conic, params, lam) == expected, matrix(conic)
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]
    pairs = [line_pair() for _ in range(10)]
    pairs.append(np.diag([1.0, 0.0, 0.0]))  # the double line y1^2
    pairs.append(np.diag([0.0, 1.0, -1.0]))  # (y2 - y3)(y2 + y3)
    for m in pairs:
        conic = from_matrix(m)
        assert lapack_degenerate(matrix(conic), REL_EPS)
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
    m = matrix(conic) * cmath.exp(0.5j * cmath.phase(c))
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
            m = matrix(conic) * cmath.exp(0.5j * cmath.phase(conic.reality_factor()))
            assert np.abs(np.array(real_slice_gram(conic)) - polarized_gram(m)).max() <= 8 * np.finfo(float).eps


def test_closed_forms_match_lapack(params_draws):
    # det by cofactors, and min_real_form in closed form on the families'
    # Grams and by Jacobi rotations on any other, against numpy's det and
    # eigvalsh: on members of each family across the intervals, and on real
    # conics built from random Grams, with double and near-double
    # eigenvalues among them, where Smith's trigonometric formula would read
    # up to 3e-8 off
    rng = np.random.default_rng(61)
    eps = np.finfo(float).eps
    conics = []
    for p in params_draws:
        part = intervals(p)
        for lo, hi in ((-6.0, -1.0), part.i2, part.i3, part.i4minus, (part.lambda0, part.lambda0 + 5.0)):
            for lam in rng.uniform(lo, hi, 6):
                plane = Plane(p, float(lam))
                make = plane.generic if plane.f > 0.0 else plane.special
                conics += [make(t) for t in rng.uniform(0.0, 7.0, 3)] + [orbit_conic(a) for a in rng.normal(size=2)]
    slice_map = np.array([[1, 0, 0], [0, 1, 1j], [0, 1, -1j]])
    back = np.linalg.inv(slice_map)
    for eigs in ([-1.0, 2.0, 2.0], [-1.0, -1.0, 2.0], [1e-3, 1.0, 1.0], [1.0, 1.0 + 1e-7, 3.0], None):
        for _ in range(100):
            rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            diag = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0) if eigs is None else eigs
            gram = rotation @ np.diag(diag) @ rotation.T
            # Re(P^T m P) = gram for the real-slice map P, times a phase
            conics.append(from_matrix(back.T @ gram @ back * cmath.exp(1j * rng.uniform(0.0, 6.0))))
    for conic in conics:
        assert abs(conic.det() - np.linalg.det(matrix(conic))) <= 16 * eps, conic.rows
        gram = np.array(real_slice_gram(conic))
        assert abs(min_real_form(conic) - np.linalg.eigvalsh(gram)[0]) <= 16 * eps * np.abs(gram).max(), conic.rows


def test_min_real_form_requires_reality():
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 0] = 1.0
    skew[1, 1] = 1.0j
    with pytest.raises(PreconditionError):
        min_real_form(from_matrix(skew))


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
                    assert conic.is_real() and _invariant_to(conic, 1e-9)
                    assert verify_touching(conic, params_star, lam).kind is kind
                    assert min_real_form(conic) > 0.0


# ---------------------------------------------------------------------------
# the filtered batch decision against the exact per-conic one, conic_contact:
# type for type, and on error the same class and text at the same conic

# the targets of the three reference draws
_DRAWS = (
    SearchConfig(),
    SearchConfig(a=2.0, b=1.0, lambda0=1.5, q0_min=0.1),
    SearchConfig(a=1.0, b=2.0, lambda0=4.0, q0_min=0.05),
)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _sweep_box(a: float, b: float, gap: float, q0_min: float) -> SearchConfig:
    """A target in the box of the benchmark's sweep: a, b log-uniform in
    [1/4, 4], lambda0 - b/a in [0.25, 6.25], q0_min in [0.05, 3]."""
    return SearchConfig(a=a, b=b, lambda0=b / a + gap, q0_min=q0_min)


def _outcome(call):
    """The value of call(), or the class and text of what it raised."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _one_by_one(plane: Plane, family: str, knobs):
    """Each member built and typed on its own, in knob order, up to the first
    that raises: the reference of Plane.conic_types."""
    kinds = []
    for knob in knobs:
        kind = _outcome(lambda: conic_contact(plane, FAMILIES[family](plane, knob).rows).kind)
        if isinstance(kind, tuple):
            return kind
        kinds.append(kind)
    return kinds


def _plane(params, where: str, u: float) -> float:
    part = intervals(params)
    spans = {
        "I1": (part.i2[0] - 5.0, part.i2[0]),
        "I2": part.i2,
        "I3": part.i3,
        "I4minus": part.i4minus,
        "I4plus": (part.lambda0, part.lambda0 + 5.0),
    }
    if where == "far":  # out past the lost-precision edge near 1e12, on both sides
        return math.copysign(10.0 ** (6.0 + 24.0 * abs(u)), u)
    if where == "lambda0":  # within 1e-5 of the double-root plane, and on it
        return part.lambda0 + 1e-5 * u
    lo, hi = spans[where]
    return lo + (0.5 + 0.5 * u) * (hi - lo)


@given(
    target=st.one_of(
        st.sampled_from(_DRAWS),
        st.builds(_sweep_box, _log_uniform(0.25, 4.0), _log_uniform(0.25, 4.0), st.floats(0.25, 6.25), st.floats(0.05, 3.0)),
    ),
    where=st.sampled_from(["I1", "I2", "I3", "I4minus", "I4plus", "far", "lambda0"]),
    u=st.floats(-1.0, 1.0),
    grid=st.integers(16, 48),
    alpha_zero_at=st.none() | st.integers(0, 48),
)
def test_batched_types_equal_the_per_conic_oracle(target, where, u, grid, alpha_zero_at):
    try:
        params = find_valid_params(target)
    except NotFoundError:
        reject()
    plane = Plane(params, _plane(params, where, u))
    angles = [2.0 * math.pi * k / grid for k in range(grid)]
    # orbit alphas across [-Q - sqrt|f|, -Q + sqrt|f|], both ends exactly
    # (ContainedInB where f > 0), and alpha = 0 where drawn
    sf = math.sqrt(abs(plane.f))
    alphas = [-plane.q - sf, -plane.q + sf] + [-plane.q - sf + 2.0 * sf * k / grid for k in range(1, grid)]
    if alpha_zero_at is not None:
        alphas.insert(min(alpha_zero_at, len(alphas)), 0.0)
    for family, knobs in (("generic", angles), ("special", angles), ("orbit", alphas)):
        expected = _one_by_one(plane, family, knobs)
        assert _outcome(lambda: plane.conic_types(family, knobs)) == expected, (plane.lam, family)


def test_batched_types_cover_every_outcome_of_the_sweeps(params_draws):
    # the property above reaches each type and each error of a sweep
    seen = set()
    for p in params_draws:
        part = intervals(p)
        for lam in (-2.5, -0.5, 0.5, 0.5 * (part.i4minus[0] + part.lambda0), part.lambda0 + 1.0, 1e13, -1e13):
            plane = Plane(p, lam)
            sf = math.sqrt(abs(plane.f))
            for family, knobs in (("generic", [0.0, 1.0]), ("special", [0.0, 1.0]), ("orbit", [-plane.q + sf, 0.7])):
                result = _outcome(lambda: plane.conic_types(family, knobs))
                seen.update(result if isinstance(result, list) else [(result[0], result[1].split(" at ")[0])])
    assert {ConicType.GENERIC, ConicType.SPECIAL, ConicType.ORBIT, ConicType.CONTAINED_IN_B} <= seen
    assert (DomainError, "lost precision") in seen


def _in_order(plane: Plane, conics):
    """Each conic typed on its own, in order, up to the first that raises."""
    kinds = []
    for conic in conics:
        kind = _outcome(lambda: conic_contact(plane, conic.rows).kind)
        if isinstance(kind, tuple):
            return kind
        kinds.append(kind)
    return kinds


def _shape(conic: ConicCoeffs) -> str | None:
    """The family shape of the conic's literal zeros, the orbit shape before
    the two it lies in, or None."""
    m = np.array(conic.rows)
    for shape in ("orbit", "generic", "special"):
        zero = np.ones((3, 3), dtype=bool)
        zero[_AT[shape]] = zero[_AT[shape][::-1]] = False
        if not m[zero].any():
            return shape
    return None


def _batch(plane: Plane, conics):
    """The types of the conics decided as one batch, as Plane.conic_types
    decides a family's members: the conics of each family shape by that
    shape's filter, then conic_contact, in order, on each conic a filter
    leaves open and each of no family's shape."""
    kinds = [None] * len(conics)
    for shape in _AT:
        at = [i for i, conic in enumerate(conics) if _shape(conic) == shape]
        if at:
            lanes = np.array([np.array(conics[i].rows)[_AT[shape]] for i in at]).T
            code, sure = filter_decide(plane, shape, lanes)
            for i, c, settled in zip(at, code, sure):
                kinds[i] = _TYPES[c] if settled else None
    return [plane.conic_type(conic) if kind is None else kind for kind, conic in zip(kinds, conics)]


def _cancelling(g: complex) -> ConicCoeffs:
    """A smooth conic whose restriction to the branch g cancels to an exact
    zero x1^2 coefficient, m00 = 2 g m12."""
    return from_matrix([[g, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])


def test_batch_raises_at_its_first_failing_conic(params_star):
    # the degenerate plane, alpha = 0 after and before a degenerate conic,
    # and a g- cancellation that ends its conic before its g+ check
    part = intervals(params_star)
    plane = Plane(params_star, part.lambda0)
    with pytest.raises(DegeneratePlaneError):
        plane.conic_types("orbit", [0.7, 1.2])
    with pytest.raises(DomainError, match="alpha = 0"):
        plane.conic_types("orbit", [0.0, 0.7])
    far = Plane(params_star, 1e15)
    expected = _one_by_one(far, "generic", [0.3, 0.4])
    assert expected[0] is DomainError and "branch g-" in expected[1]
    assert _outcome(lambda: far.conic_types("generic", [0.3, 0.4])) == expected


def test_batch_keeps_the_branch_order_of_each_conic(params_star):
    # one pass decides both branches of every conic; the batch still raises
    # what deciding the conics in order, g- before g+, raises first
    plane = Plane(params_star, -0.5)
    fails_on_plus, fails_on_minus = (_cancelling(g) for g in reversed(plane.branch_factors))
    for conics, branch in (([fails_on_plus, fails_on_minus], "g+"), ([fails_on_minus, fails_on_plus], "g-")):
        expected = _in_order(plane, conics)
        assert expected[0] is DomainError and f"branch {branch} restriction" in expected[1]
        assert _outcome(lambda: _batch(plane, conics)) == expected
    # within 2e-14 of lam = -1 the branch factors agree to 2e-7, so the
    # x1^2 coefficient of a g+ restriction cancels wherever the g- one does;
    # a conic that g- settles (f < 0: the restriction vanishes) or fails
    # (f > 0: it cancels) ends there, and its g+ arithmetic counts for nothing
    for lam in (-1.0 - 1e-14, -1.0 + 1e-14):
        near = Plane(params_star, lam)
        g_minus, g_plus = near.branch_factors
        assert abs(g_plus - g_minus) < 1e-6 * abs(g_minus)
        ends_on_minus = (
            from_matrix([[g_minus, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
            if near.f < 0.0
            else _cancelling(g_minus)
        )
        later = _cancelling(g_plus)
        for conics in ([ends_on_minus], [ends_on_minus, later], [later, ends_on_minus]):
            expected = _in_order(near, conics)
            assert _outcome(lambda: _batch(near, conics)) == expected, (lam, len(conics))
        if near.f < 0.0:
            assert _in_order(near, [ends_on_minus]) == [ConicType.CONTAINED_IN_B]
            rep = verify_touching(ends_on_minus, params_star, lam)
            assert rep.detail == "branch g- restriction vanishes identically" and len(rep.branches) == 0
            assert _in_order(near, [ends_on_minus, later])[1].startswith("lost precision")
        else:
            assert "branch g- restriction" in _in_order(near, [ends_on_minus])[1]


def _crossing(make, side, lo: float, hi: float) -> float:
    """The float x in [lo, hi] at which side(make(x)) changes, found by
    bisection to adjacent floats; side differs at lo and hi."""
    start = side(make(lo))
    assert side(make(hi)) != start
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if side(make(mid)) == start:
            lo = mid
        else:
            hi = mid


def _band(x: float) -> list[float]:
    """x, its neighbours 1 and 2 ulps away, and x moved by 1e-14, 1e-12 and
    1e-10 of itself, on both sides."""
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    near = [math.nextafter(below, -math.inf), below, x, above, math.nextafter(above, math.inf)]
    return sorted(near + [x + d * abs(x) for d in (-1e-10, -1e-12, -1e-14, 1e-14, 1e-12, 1e-10)])


def _moved(conic: ConicCoeffs, i: int, j: int, t: float) -> ConicCoeffs:
    """The conic with entry (i, j), and its mirror, moved by t of itself, or
    to t where it is zero."""
    m = np.array(conic.rows)
    m[i, j] = m[j, i] = m[i, j] * (1.0 + t) if m[i, j] != 0 else t
    return from_matrix(m)


def _kind(plane: Plane):
    """The outcome of conic_contact on the plane, as a function of a conic."""
    return lambda conic: _outcome(lambda: conic_contact(plane, conic.rows).kind)


def _raises(plane: Plane):
    """Whether conic_contact raises on the plane, as a function of a conic."""
    return lambda conic: isinstance(_kind(plane)(conic), tuple)


def _branch_square(plane: Plane, branch: int):
    """Whether conic_contact finds the restriction to the branch a square."""
    return lambda conic: conic_contact(plane, conic.rows).branches[branch][2] is not None


def test_batch_decides_each_threshold_band_as_the_exact_decision(params_star):
    # conics 1 ulp to 1e-10 on either side of each threshold that a family
    # shape's filter compares, each on a conic of that shape, found by
    # bisection on conic_contact's own outcome, decided as one batch: the
    # filter must leave every conic it cannot settle to conic_contact, which
    # gives each its verdict or error
    f_pos, f_neg = Plane(params_star, -0.5), Plane(params_star, -2.0)
    generic, special = f_pos.generic(0.4), f_neg.special(0.7)
    # complex entries, whose products numpy and Python round apart
    rng = np.random.default_rng(53)
    u, v, w, m12, m01, m02 = rng.normal(size=6) + 1j * rng.normal(size=6)
    # a line pair of each shape, opened by t in an entry that keeps the shape:
    # generic, m11 m22 = m12^2; special, m00 m12 = 2 m01 m02; orbit, m00 = 0
    line_pairs = [
        lambda t: from_matrix([[w, 0, 0], [0, u * u + t, u * v], [0, u * v, v * v]]),
        lambda t: from_matrix([[2 * m01 * m02 / m12 + t, m01, m02], [m01, 0, m12], [m02, m12, 0]]),
        lambda t: from_matrix([[t, 0, 0], [0, 0, 0.5], [0, 0.5, 0]]),
    ]
    # restrictions to g- whose x1^2 coefficient keeps four digits fewer than
    # its terms: m11 g^2 x1^4 + 2 g z 1e-4 x1^2 + 1, a square in x1^2
    g = f_neg.branch_factors[0]
    cancelled = [
        from_matrix([[2 * g * z * (1 + 1e-4), 0, 0], [0, (1e-4 * z) ** 2, z], [0, z, 1]])
        for z in rng.normal(size=4) + 1j * rng.normal(size=4)
    ]

    def opened(g, t):
        """Smooth conics of the generic and the special shape whose
        restrictions to g have m00 = 2 g m12 (1 + t)."""
        m00 = 2 * g * m12 * (1 + t)
        return from_matrix([[m00, 0, 0], [0, 1, m12], [0, m12, 1]]), from_matrix([[m00, m01, m02], [m01, 0, m12], [m02, m12, 0]])

    cases = [
        # the degeneracy ratio REL_EPS
        *((f_pos, make, _raises(f_pos), 0.0, 1e-6) for make in line_pairs),
        # CANCELLATION_FLOOR on g- and on g+: m00 = 2 g m12 (1 + t)
        *(
            (plane, lambda t, g=g, k=k: opened(g, t)[k], _raises(plane), 0.0, side * 1e-5)
            for plane in (f_pos, f_neg)
            for g in plane.branch_factors
            for k in (0, 1)
            for side in (-1.0, 1.0)
        ),
        # EQUALITY_REL in the quadratic test of a special conic's restrictions
        *((f_neg, lambda t: _moved(special, 0, 0, t), _kind(f_neg), 0.0, side * 1e-6) for side in (-1.0, 1.0)),
        # EQUALITY_REL in the quartic test of a generic conic's restrictions,
        # 4 a4 = a2^2
        *((f_pos, lambda t: _moved(generic, 0, 0, t), _kind(f_pos), 0.0, side * 1e-6) for side in (-1.0, 1.0)),
        # 4 a4 = a2^2 on restrictions whose x1^2 coefficient has cancelled
        *(
            (f_neg, lambda t, c=c: _moved(c, 1, 1, t), _branch_square(f_neg, 0), 0.0, side * 1e-6)
            for c in cancelled
            for side in (-1.0, 1.0)
        ),
        # ORBIT_CONTAINMENT_REL at both ends of the orbit family's span
        *(
            (f_pos, lambda t, end=end: orbit_conic(end + t), _kind(f_pos), 0.0, math.copysign(1e-6, end + f_pos.q))
            for end in (-f_pos.q - math.sqrt(f_pos.f), -f_pos.q + math.sqrt(f_pos.f))
        ),
    ]
    shapes = set()
    for plane, make, side, lo, hi in cases:
        conics = [make(t) for t in _band(_crossing(make, side, lo, hi))]
        assert len({side(conic) for conic in conics}) == 2
        shapes.update(_shape(conic) for conic in conics)
        before = plane.exact_conics
        assert _outcome(lambda: _batch(plane, conics)) == _in_order(plane, conics)
        for conic in conics:
            assert _outcome(lambda: _batch(plane, [conic])) == _in_order(plane, [conic])
        assert plane.exact_conics > before  # the filter left the band to conic_contact
        # where a filter settles a branch's square test on conic_contact's
        # own restriction, it settles it as square_root_roots does
        for conic in conics:
            for g in plane.branch_factors:
                norm = normalized(restriction(conic.rows, g))
                nonzero = [k for k, c in enumerate(norm) if c != 0]
                if _shape(conic) == "generic":
                    square, sure = _even_quartic_square(*np.array(norm)[[0, 2, 4], None], 0.0)
                elif _shape(conic) == "special":
                    square, sure = _quadratic_square(*np.array(norm)[[1, 2, 3], None], 0.0)
                else:
                    continue
                if sure[0]:
                    assert square[0] == (square_root_roots(norm[nonzero[0] : nonzero[-1] + 1]) is not None)
    assert shapes == {"generic", "special", "orbit"}
    # an orbit sweep's residual test, in plain floats, decides the bands at
    # both ends of the span alpha for alpha as conic_contact does, on 12
    # planes of each f > 0 interval: where |alpha| < 0.5, orbit_conic scales
    # by 2, and above, by 1 / |alpha|, after which the quotient of the scaled
    # entries is alpha only up to an ulp
    part = intervals(params_star)
    spans = (part.i2, part.i4minus, (part.lambda0, part.lambda0 + 30.0))
    for lam in (lo + (k + 0.5) / 12 * (hi - lo) for lo, hi in spans for k in range(12)):
        plane = Plane(params_star, lam)
        for end in (-plane.q - math.sqrt(plane.f), -plane.q + math.sqrt(plane.f)):
            crossing = _crossing(lambda t: orbit_conic(end + t), _kind(plane), 0.0, math.copysign(1e-6, end + plane.q))
            alphas = [end + t for t in _band(crossing)]
            expected = _one_by_one(plane, "orbit", alphas)
            assert set(expected) == {ConicType.ORBIT, ConicType.CONTAINED_IN_B}
            assert plane.conic_types("orbit", alphas) == expected, (lam, end)


def test_batch_leaves_a_row_norm_at_a_balancing_step_to_the_exact_decision(params_star):
    # a generic conic's first row is (m00, 0, 0); on I4minus its normalised
    # m00 falls from 1 toward 0, so some planes put that row's norm within 4 u
    # of 0.5, inside EXPONENT_BAND of the power of two where the balancing
    # exponent e // 2 of frexp steps from -1 to 0.  The two evaluations may
    # balance such a conic apart, so the filter leaves it to conic_contact; a
    # plane 1e-6 away it settles itself
    part = intervals(params_star)

    def m00(lam: float) -> float:
        return abs(Plane(params_star, lam).generic(0.4).rows[0][0])

    crossing = _crossing(lambda lam: lam, lambda lam: m00(lam) < 0.5, part.i4minus[0] + 1e-3, part.lambda0 - 1e-3)
    lams = [lam for lam in _band(crossing) if abs(m00(lam) - 0.5) <= 4 * _U]
    assert crossing in lams
    assert {math.frexp(m00(lam))[1] // 2 for lam in lams} == {-1, 0}
    for lam in lams:
        plane = Plane(params_star, lam)
        expected = conic_contact(plane, plane.generic(0.4).rows).kind
        assert expected is ConicType.GENERIC
        assert filter_types(plane, "generic", [0.4]) == [expected]
        assert plane.exact_conics == 1
    away = Plane(params_star, crossing + 1e-6)
    assert filter_types(away, "generic", [0.4]) == [ConicType.GENERIC] and away.exact_conics == 0


def test_numpy_stays_within_the_error_model_of_the_filter():
    # the filter's margins take numpy's power at the exponents it uses within
    # 8 u, its complex quotient within 16 u and its modulus within 4 u of the
    # exact value, on operands whose moduli lie in FILTER_RANGE (and powers
    # that stay normal floats); checked against 60-digit arithmetic.  A
    # faithful modulus is within 2 u, but numpy's vectorised one reads up to
    # 2.3 u off, and the margins are derived for 4 u
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    lo, hi = (math.log2(x) for x in FILTER_RANGE)
    mods = np.concatenate((FILTER_RANGE, [1.0], np.exp2(rng.uniform(lo, hi, 600))))
    phases = np.concatenate(([0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi, 1e-20], rng.uniform(-math.pi, math.pi, 598)))
    z = mods * np.exp(1j * phases)
    w = rng.permutation(mods) * np.exp(1j * rng.permutation(phases))

    def off(got, exact) -> float:
        """|got - exact| in units of u |exact|."""
        return float(abs(mpmath.mpmathify(got) - exact) / (abs(exact) * mpmath.mpf(_U)))

    with mpmath.workdps(60):
        for p in (0.5, 1.0 / 3.0, 0.25, 2, 3, 4, 6):
            powers = mods**p
            for x, got in zip(mods, powers):
                exact = mpmath.mpf(x) ** mpmath.mpf(p)
                if 2.0**-1022 <= exact <= sys.float_info.max:
                    assert off(got, exact) <= 8.0, (x, p)
        for a, b, got in zip(z, w, z / w):
            assert off(got, mpmath.mpc(a) / mpmath.mpc(b)) <= 16.0, (a, b)
        for a, got in zip(z, np.abs(z)):
            assert off(got, abs(mpmath.mpc(a))) <= 4.0, a


def test_single_conic_decision_equals_the_per_conic_oracle(params_draws):
    # conic_type, verify_touching's records and a batch of one give the
    # type, detail and fixed-point contacts of conic_contact, and the records
    # built from its restrictions; on random, perturbed, orbit-shaped and
    # line-pair matrices too
    rng = np.random.default_rng(43)

    def sym(scale=1.0):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return scale * (a + a.T)

    p = params_draws[0]
    cases = []
    for params in params_draws:
        part = intervals(params)
        for lam in (-2.5, -0.5, 0.5 * part.i3[1], part.lambda0 + 1.0):
            plane = Plane(params, lam)
            make = plane.generic if plane.f > 0.0 else plane.special
            cases += [(plane, make(t)) for t in (0.0, 1.1, 4.0)]
            cases += [(plane, orbit_conic(a)) for a in (-plane.q, -0.7, 1.3)]
    plane = Plane(p, -0.5)
    for conic in [plane.generic(0.2), Plane(p, -2.0).special(0.2)]:
        for k in range(9):
            moved = matrix(conic)
            moved[k // 3, k % 3] += 1e-3
            moved[k % 3, k // 3] = moved[k // 3, k % 3]
            cases.append((plane, from_matrix(moved)))
    cases += [(plane, from_matrix(sym())) for _ in range(20)]
    # the y2^2 coefficient tiny beside the rest: the monic quartic of a
    # branch restriction overflows, and Python raises on its modulus, on a
    # float power or on a1 ** 3
    for m11, m01 in ((1.3e-309 + 1.3e-309j, 0.0), (2e-309 + 2e-309j, 0.0), (1e-300, 0.0), (1e-110, 0.5)):
        m = [[1.0, m01, 0.0], [m01, m11, 0.3], [0.0, 0.3, 1.0]]
        cases.append((plane, from_matrix(m)))
    # the x1^4 coefficient zero: a restriction of degree 2 or 3
    cases.append((plane, from_matrix([[1.0, 0.2, 0.1], [0.2, 0, 0.3], [0.1, 0.3, 1.0]])))
    errors = 0
    for plane, conic in cases:
        expected = _outcome(lambda: conic_contact(plane, conic.rows))
        raised = not isinstance(expected, Contact)
        assert _outcome(lambda: plane.conic_type(conic)) == (expected if raised else expected.kind), conic.rows
        assert _outcome(lambda: _batch(plane, [conic])) == (expected if raised else [expected.kind]), conic.rows
        rep = _outcome(lambda: verify_touching(conic, plane.params, plane.lam))
        if raised:
            assert rep == expected
            errors += 1
            continue
        assert (rep.kind, rep.detail, rep.pinf_contact, rep.pinfbar_contact) == expected[:4]
        if expected.branches is None:
            restrictions = [normalized(restriction(conic.rows, g)) for g in plane.branch_factors]
        else:
            restrictions = [branch[1] for branch in expected.branches]
        assert [br.restriction for br in rep.branches] == restrictions
    assert errors == 4


def test_the_filter_settles_every_conic_of_benchmark_like_planes(params_draws):
    # 16 planes per interval over the middle 90% of I1 to I4plus, the
    # unbounded I1 and I4plus cut 5 from their finite end, and on each the
    # sweeps of tangency --grid 256: the circle family at 256 angles and,
    # where f > 0, the orbit family at 255 alphas.  The filter settles them
    # all, so none reaches conic_contact: a filter too cautious for the
    # benchmark's planes shows here.  Plane.conic_types gives the same
    # types from one exact decision per circle family and none per orbit
    # member
    grid, planes = 256, 0
    angles = [2.0 * math.pi * k / grid for k in range(grid)]
    for p in params_draws:
        part = intervals(p)
        spans = ((part.i1[1] - 5.0, part.i1[1]), part.i2, part.i3, part.i4minus, (part.lambda0, part.lambda0 + 5.0))
        for lo, hi in spans:
            for k in range(16):
                lam = lo + (0.05 + 0.9 * (k + 0.5) / 16) * (hi - lo)
                plane, swept = Plane(p, lam), Plane(p, lam)
                if plane.f > 0.0:
                    sf = math.sqrt(plane.f)
                    alphas = [-plane.q - sf + 2.0 * sf * k / grid for k in range(1, grid)]
                    sweeps = (("generic", angles), ("orbit", alphas))
                    assert filter_types(plane, "generic", angles) == [ConicType.GENERIC] * grid
                    assert set(filter_types(plane, "orbit", alphas)) <= {ConicType.ORBIT, ConicType.CONTAINED_IN_B}
                else:
                    sweeps = (("special", angles),)
                    assert filter_types(plane, "special", angles) == [ConicType.SPECIAL] * grid
                assert plane.exact_conics == 0, plane.lam
                for family, knobs in sweeps:
                    assert swept.conic_types(family, knobs) == filter_types(plane, family, knobs), (lam, family)
                assert swept.exact_conics == 1, plane.lam
                planes += 1
    assert planes == 240


def _benchmark_planes() -> list[tuple[SurfaceParams, float]]:
    """The planes of perfbench's tangency workload at seeds 1 to 4."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [case.data for seed in (1, 2, 3, 4) for case in workloads.build_tangency(random.Random(seed)).cases]


def _floor_crossing(params, family: str, sign: float) -> float:
    """The plane, to adjacent floats, out past which the circle family's
    restrictions cancel below CANCELLATION_FLOOR (between 1e10 and 1e15
    for the reference draws)."""
    lost = lambda lam: isinstance(_outcome(lambda: Plane(params, lam).conic_types(family, [0.0])), tuple)
    return _crossing(lambda t: sign * t, lost, 1e10, 1e15)


def test_the_filter_types_every_member_as_its_family(params_draws):
    # the per-knob oracle against Plane.conic_types, type for type, and on
    # error the same class and text: on the 960 planes of the benchmark's
    # tangency workload, planes 1e-3 to 1e-6 from the ends -1, 0, b/a and
    # lambda0, and far planes about and at the adjacent floats of where
    # CANCELLATION_FLOOR starts to bind; every family on every plane, the
    # circle families at the 256 angles and the orbit family at 255 alphas
    # across [-Q - sqrt|f|, -Q + sqrt|f|]
    planes = _benchmark_planes()
    assert len(planes) == 960
    for p in params_draws:
        for end in (-1.0, 0.0, p.b / p.a, intervals(p).lambda0):
            planes += [(p, end + side * 10.0**-k) for k in (3, 4, 5, 6) for side in (-1.0, 1.0)]
        for family, sign in (("generic", 1.0), ("special", -1.0)):
            crossing = _floor_crossing(p, family, sign)
            planes += [(p, lam) for lam in _band(crossing)]
            planes += [(p, sign * 10.0 ** (11.0 + k / 8.0)) for k in range(25)]
    angles = [2.0 * math.pi * k / 256 for k in range(256)]
    seen = set()
    for p, lam in planes:
        sf = math.sqrt(abs(Plane(p, lam).f))
        q = Plane(p, lam).q
        alphas = [-q - sf + 2.0 * sf * k / 256 for k in range(1, 256)]
        for family, knobs in (("generic", angles), ("special", angles), ("orbit", alphas)):
            expected = _outcome(lambda: Plane(p, lam).conic_types(family, knobs))
            assert _outcome(lambda: filter_types(Plane(p, lam), family, knobs)) == expected, (lam, family)
            seen.update(expected if isinstance(expected, list) else [(expected[0], expected[1].split(" at")[0])])
    assert {ConicType.GENERIC, ConicType.SPECIAL, ConicType.ORBIT} <= seen
    assert {(DomainError, "lost precision"), (DomainError, "no generic family"), (DomainError, "no special family")} <= seen


def test_sweeps_emit_no_runtime_warning(params_draws):
    # in the filter, Smith's quotient computes both of its branches, one of
    # them dividing by a zero part, and conics that already failed are
    # computed on: none of it may warn, since the suite turns warnings into
    # errors; nor may Plane.conic_types on the same sweeps
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for p in params_draws:
            part = intervals(p)
            for lam in (-2.5, -0.5, 0.5, part.lambda0, part.lambda0 + 1e-7, 1e13, -1e13, 1e30):
                plane = Plane(p, lam)
                angles = [2.0 * math.pi * k / 256 for k in range(256)]
                for family, knobs in (("generic", angles), ("special", angles), ("orbit", [0.7, 0.0, -plane.q])):
                    _outcome(lambda: filter_types(plane, family, knobs))
                    _outcome(lambda: plane.conic_types(family, knobs))
    assert caught == []


def test_touching_identities_hold_symbolically():
    # each family's square test passes by an identity in Q, r = sqrt(f),
    # s = sqrt(Q^2 - f) and w = e^{i theta}, on both branches g = Q -+ r:
    # the discriminant of its branch restriction vanishes whatever theta
    sp = pytest.importorskip("sympy")
    q, r, s, b, w, x, alpha = sp.symbols("Q r s B w x alpha")
    f = r**2

    def restriction(m, g):
        """Ascending coefficients in x of the conic m at (y1, y2, y3) =
        (x, -g x^2, 1), its restriction to the branch y2 y3 = -g y1^2."""
        v = sp.Matrix([x, -g * x**2, 1])
        form = sp.expand((v.T * m * v)[0])
        assert sp.degree(form, x) <= 4
        return [form.coeff(x, k) for k in range(5)]

    # the restriction the decision computes, on any symmetric matrix
    e = sp.symbols("m00 m01 m02 m11 m12 m22")
    m = sp.Matrix([[e[0], e[1], e[2]], [e[1], e[3], e[4]], [e[2], e[4], e[5]]])
    g = sp.Symbol("g")
    coeffs = [e[5], 2 * e[2], e[0] - 2 * g * e[4], -2 * g * e[1], e[3] * g**2]
    assert [sp.expand(c - k) for c, k in zip(restriction(m, g), coeffs)] == [0] * 5

    for g in (q - r, q + r):
        # generic: r/w + 2 (D - g Q) x^2 + r w g^2 x^4, a quadratic in x^2
        # whose b^2 and 4ac are both 4 f g^2
        d = q**2 - f
        c0, c1, c2, c3, c4 = restriction(sp.Matrix([[2 * d, 0, 0], [0, r * w, q], [0, q, r / w]]), g)
        assert (c1, c3) == (0, 0)
        assert sp.expand(c2**2 - 4 * f * g**2) == 0 and sp.expand(4 * c4 * c0 - 4 * f * g**2) == 0
        # special, its exact zeros stripped: B/w + (s - g) x - g B w x^2 with
        # B^2 = (s - Q)/2, whose discriminant (s - g)^2 + 2 g (s - Q) is
        # s^2 - Q^2 + f = 0
        half = sp.Rational(1, 2)
        special = sp.Matrix([[s, b * w / 2, b / (2 * w)], [b * w / 2, 0, half], [b / (2 * w), half, 0]])
        c0, c1, c2, c3, c4 = restriction(special, g)
        assert (c0, c4) == (0, 0)
        disc = sp.expand(c2**2 - 4 * c3 * c1).subs(b**2, (s - q) / 2)
        assert sp.expand(disc - ((s - g) ** 2 + 2 * g * (s - q))) == 0
        assert sp.rem(sp.expand(disc), s**2 - (q**2 - f), s) == 0
        # orbit: y2 y3 = alpha y1^2 restricts to -(alpha + g) x^2
        orbit = sp.Matrix([[-alpha, 0, 0], [0, 0, half], [0, half, 0]])
        assert restriction(orbit, g) == [0, 0, -(alpha + g), 0, 0]
    # and on the plane curve (y2 y3 + g- y1^2)(y2 y3 + g+ y1^2) it leaves
    # the residual ((alpha + Q)^2 - f) y1^4, so the orbit conic lies on the
    # surface exactly where that vanishes
    y1 = sp.Symbol("y1")
    curve = (alpha * y1**2 + (q - r) * y1**2) * (alpha * y1**2 + (q + r) * y1**2)
    assert sp.expand(curve - ((alpha + q) ** 2 - f) * y1**4) == 0


    # Plane.conic_types types one member of a circle family for all: every
    # quantity conic_contact reads on a member is free of theta up to a
    # unimodular factor, i.e. it is w^j times an expression free of w, for
    # an integer j, so its modulus is free of theta.  The quantities: the
    # entries, whose largest modulus _conic scales by; the row norms, which
    # balance the matrix; |det| and its Hadamard bound; each branch
    # restriction's coefficients, its vanishing ones exactly 0 and the
    # moduli of the others; the x1^2 coefficient over m00, which
    # CANCELLATION_FLOOR reads; and every side of the square test, on the
    # monic quartic (generic) or the quadratic (special)
    def rotates(c) -> bool:
        """Whether c is w^j times an expression free of w."""
        num, den = sp.fraction(sp.cancel(sp.together(c)))
        return all(
            len({t.as_coeff_exponent(w)[1] for t in sp.Add.make_args(sp.expand(part))}) == 1 for part in (num, den)
        )

    def free(c) -> bool:
        """Whether c is free of w, with B^2 = (s - Q)/2 put in."""
        return w not in sp.expand(c).subs(b**2, (s - q) / 2).free_symbols

    def conj(c):
        """The complex conjugate, for real Q, r, s, B and |w| = 1."""
        return c.subs(w, 1 / w)

    members = {
        "generic": (sp.Matrix([[2 * (q**2 - f), 0, 0], [0, r * w, q], [0, q, r / w]]), (1, 3)),
        "special": (special, (0, 4)),
    }
    for family, (m, zeros) in members.items():
        assert all(rotates(z) for z in m)
        norms = [sum(z * conj(z) for z in m.row(i)) for i in range(3)]
        assert all(free(n) for n in norms), family
        det = sp.expand(m.det())
        assert free(det) and free(det * conj(det) / (norms[0] * norms[1] * norms[2])), family
        for g in (q - r, q + r):
            c = restriction(m, g)
            assert [c[k] for k in zeros] == [0, 0], family
            assert all(rotates(ck) for ck in c) and free(c[2] / m[0, 0]), family
            if family == "generic":
                a4, a2 = c[0] / c[4], c[2] / c[4]
                sides = (a4, a2, 4 * a4 - a2**2)
            else:
                sides = (c[2] ** 2, 4 * c[3] * c[1], c[2] ** 2 - 4 * c[3] * c[1])
            assert all(rotates(side) for side in sides), (family, g)
