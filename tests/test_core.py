import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pu6
from pu6.core import Q, QD, QDD, Q3T, Q4T, Q5T


# ---------------------------------------------------------------------------
# parametrisation
# ---------------------------------------------------------------------------

def test_params_from_frequencies_321():
    p = pu6.params_from_frequencies(pu6.frequency_triple(1, 2, 3))
    assert p == pu6.PUParams(14.0, 49.0, 36.0)


def test_params_from_frequencies_111():
    p = pu6.params_from_frequencies(pu6.frequency_triple(1, 1, 1))
    assert p == pu6.PUParams(3.0, 3.0, 1.0)


def test_params_from_frequencies_223():
    # squares (9, 4, 4): 9+4+4 = 17, 36+36+16 = 88, 9*4*4 = 144
    p = pu6.params_from_frequencies(pu6.frequency_triple(2, 2, 3))
    assert p == pu6.PUParams(17.0, 88.0, 144.0)


def test_frequencies_from_params_std(std_params):
    f = pu6.frequencies_from_params(std_params)
    np.testing.assert_allclose(f.omegas, (3.0, 2.0, 1.0), rtol=1e-12)
    assert f.degeneracy is pu6.Degeneracy.NON_DEGENERATE
    # residual of the cubic at the recovered squares
    for lam in f.squares:
        resid = lam ** 3 - 14.0 * lam ** 2 + 49.0 * lam - 36.0
        assert abs(resid) < 1e-9


def test_frequencies_fully_degenerate():
    f = pu6.frequencies_from_params(pu6.PUParams(3.0, 3.0, 1.0))
    np.testing.assert_allclose(f.omegas, (1.0, 1.0, 1.0), rtol=1e-12)
    assert f.degeneracy is pu6.Degeneracy.FULLY_DEGENERATE


@pytest.mark.parametrize("lam", [1e-3, 5e-3, 1e-2, 1.0, 1e2])
@pytest.mark.parametrize("ws", [(1.1, 1, 1), (1.01, 1, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1)])
def test_frequencies_from_params_keeps_class_at_any_scale(ws, lam):
    # the triple-root test is relative, so small frequencies are not called fully degenerate
    f = pu6.frequency_triple(*(lam * w for w in ws))
    p = pu6.params_from_frequencies(f)
    back = pu6.frequencies_from_params(p)
    assert back.degeneracy is f.degeneracy
    rt = pu6.params_from_frequencies(back)
    for a, b in zip((rt.alpha, rt.beta, rt.gamma), (p.alpha, p.beta, p.gamma)):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_frequencies_complex_regime():
    with pytest.raises(pu6.ComplexFrequencies):
        pu6.frequencies_from_params(pu6.PUParams(0.0, 0.0, 1.0))


@given(
    ws=st.lists(st.floats(min_value=0.2, max_value=4.0), min_size=3, max_size=3)
)
@settings(max_examples=60, deadline=None)
@example(ws=[4.0, 3.87890625, 3.875])  # two close pairs; a discriminant rule calls it a double root
def test_roundtrip_params_frequencies(ws):
    f = pu6.frequency_triple(*ws)
    p = pu6.params_from_frequencies(f)
    back = pu6.frequencies_from_params(p)
    rt = pu6.params_from_frequencies(back)
    for a, b in zip((rt.alpha, rt.beta, rt.gamma), (p.alpha, p.beta, p.gamma)):
        assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


@given(
    w=st.floats(min_value=0.5, max_value=2.0),
    log_gap=st.floats(min_value=-6.0, max_value=-1.0),
    ratio=st.floats(min_value=1.3, max_value=3.0),
    upper=st.booleans(),
    log_lam=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_close_pair_keeps_class_and_round_trips(w, log_gap, ratio, upper, log_lam):
    # one pair with relative square gap 1e-6..1e-1, the third frequency 1.3x or more away
    lam = 10.0 ** log_lam
    pair = (w, w * math.sqrt(1.0 + 10.0 ** log_gap))
    third = min(pair) / ratio if upper else max(pair) * ratio
    f = pu6.frequency_triple(*(lam * v for v in (*pair, third)))
    assert f.degeneracy is pu6.Degeneracy.NON_DEGENERATE
    p = pu6.params_from_frequencies(f)
    for q in (p, pu6.canonical_units(p)[1]):
        back = pu6.frequencies_from_params(q)
        assert back.degeneracy is f.degeneracy
        rt = pu6.params_from_frequencies(back)
        for a, b in zip((rt.alpha, rt.beta, rt.gamma), (q.alpha, q.beta, q.gamma)):
            assert abs(a - b) <= 1e-12 * abs(b)


def _classes(classify, *args):
    """(degeneracy, omegas) of ``classify(*args)`` without and with tol 1e-9, or the refusal."""
    out = []
    for kw in ({}, {"tol": 1e-9}):
        try:
            f = classify(*args, **kw)
            out.append((f.degeneracy, f.omegas))
        except pu6.ComplexFrequencies:
            out.append("ComplexFrequencies")
    return out


def test_tol_below_the_rounding_floor_changes_no_class():
    # g <= 1e-9 m puts g^2 |m - b| (pair) or g^3 (triple) below 64 eps S(m), so an unset
    # tol and tol 1e-9 give the same class: near-degenerate pairs and triples, relative
    # square gaps 1e-16..1e-4 of both signs, at frequency scales 1e-2..1e2
    rng = np.random.default_rng(29)
    seen = set()
    for n in range(1200):
        w, lam = rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(-2.0, 2.0)
        gaps = rng.choice([-1.0, 1.0], size=2) * 10.0 ** rng.uniform(-16.0, -4.0, size=2)
        sq = [w * w, w * w * (1.0 + gaps[0])]
        sq.append(w * w * (1.0 + gaps[1]) if n % 2 else w * w * rng.choice([1 / 3.0, 3.0]))
        s1, s2, s3 = (lam * lam * v for v in sq)
        a = _classes(pu6.frequency_triple, *np.sqrt([s1, s2, s3]))
        p = pu6.PUParams(s1 + s2 + s3, s1 * s2 + s1 * s3 + s2 * s3, s1 * s2 * s3)
        b = _classes(pu6.frequencies_from_params, p)
        assert a[0] == a[1] and b[0] == b[1]
        seen.update(r if isinstance(r, str) else r[0] for r in a + b)
    assert seen == {*pu6.Degeneracy, "ComplexFrequencies"}


def test_pair_table():
    # squares (9, 4, 1); columns (1,2), (1,3), (2,3)
    m, s, r, den = pu6.frequency_triple(3, 2, 1).pairs
    assert m.tolist() == [36.0, 9.0, 4.0]
    assert s.tolist() == [13.0, 10.0, 5.0]
    assert r.tolist() == [1.0, 4.0, 9.0]
    assert den.tolist() == [48.0, -30.0, 80.0]
    # a degenerate triple gets a zero denominator, not an error
    assert pu6.frequency_triple(2, 2, 1).pairs[3].tolist() == [18.0, 0.0, 0.0]


def test_frequency_triple_sorted_and_positive():
    f = pu6.frequency_triple(1, 3, 2)
    assert f.omegas == (3.0, 2.0, 1.0)
    with pytest.raises(pu6.ComplexFrequencies):
        pu6.frequency_triple(1.0, -2.0, 3.0)


# ---------------------------------------------------------------------------
# flow operator
# ---------------------------------------------------------------------------

def test_flow_operator_last_row(std_params):
    F = pu6.flow_operator(std_params)
    np.testing.assert_array_equal(F[5], [-36.0, 0.0, -49.0, 0.0, -14.0, 0.0])


def test_flow_operator_shift_structure(std_params):
    F = pu6.flow_operator(std_params)
    out = F @ np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert out[0] == 1.0 and out[5] == 0.0


def test_flow_matches_cosine_trajectory(std_params):
    # q(t) = cos(3 t): state and its time derivative satisfy ds/dt = F s
    F = pu6.flow_operator(std_params)
    for t in np.linspace(0.0, 10.0, 37):
        c, s = np.cos(3 * t), np.sin(3 * t)
        state = np.array([c, -3 * s, -9 * c, 27 * s, 81 * c, -243 * s])
        deriv = np.array([-3 * s, -9 * c, 27 * s, 81 * c, -243 * s, -729 * c])
        np.testing.assert_allclose(F @ state, deriv, atol=1e-9)


# ---------------------------------------------------------------------------
# Hamiltonian forms
# ---------------------------------------------------------------------------

def _h1_polynomial(s, al, be, ga):
    return (
        0.5 * s[Q3T] ** 2
        - 0.5 * al * s[QDD] ** 2
        + 0.5 * be * s[QD] ** 2
        + 0.5 * ga * s[Q] ** 2
        + al * s[QD] * s[Q3T]
        - s[Q4T] * s[QDD]
        + s[QD] * s[Q5T]
    )


def _h2_polynomial(s, al, be, ga):
    return 0.5 * (al * s[Q3T] + be * s[QD] + s[Q5T]) ** 2 + 0.5 * ga * (
        be * s[Q] ** 2
        + 2 * al * s[Q] * s[QDD]
        - al * s[QD] ** 2
        + 2 * s[Q] * s[Q4T]
        + s[QDD] ** 2
        - 2 * s[QD] * s[Q3T]
    )


def _h3_polynomial(s, al, be, ga):
    return 0.5 * be * (al * s[Q3T] + be * s[QD] + s[Q5T]) ** 2 + 0.5 * ga * (
        (ga - 2 * al * be) * s[QD] ** 2
        + (al * s[QDD] + be * s[Q]) ** 2
        - ga * s[Q] * (al * s[Q] + 2 * s[QDD])
        - 2 * s[QD] * ((al ** 2 + be) * s[Q3T] + al * s[Q5T])
        + 2 * s[Q4T] * (al * s[QDD] + be * s[Q])
        - 2 * s[Q3T] * (al * s[Q3T] + s[Q5T])
        + s[Q4T] ** 2
    )


def test_hamiltonian_values_at_unit_position(std_params):
    e0 = np.eye(6)[0]
    assert pu6.hamiltonian_form(1, std_params)(e0) == pytest.approx(18.0)
    assert pu6.hamiltonian_form(2, std_params)(e0) == pytest.approx(882.0)


def test_hamiltonian_h3_at_unit_velocity(std_params):
    e1 = np.eye(6)[1]
    # independent scalar evaluation: 0.5*49^3 + 18*(36 - 2*14*49)
    assert pu6.hamiltonian_form(3, std_params)(e1) == pytest.approx(34776.5)


def test_hamiltonian_forms_match_polynomials(std_params, rng):
    al, be, ga = std_params.alpha, std_params.beta, std_params.gamma
    polys = {1: _h1_polynomial, 2: _h2_polynomial, 3: _h3_polynomial}
    for n, poly in polys.items():
        h = pu6.hamiltonian_form(n, std_params)
        for _ in range(50):
            s = rng.uniform(-2, 2, size=6)
            assert h(s) == pytest.approx(poly(s, al, be, ga), rel=1e-12, abs=1e-9)


def test_form_symmetrized():
    m = np.arange(36, dtype=float).reshape(6, 6)
    q = pu6.QuadraticForm(m)
    np.testing.assert_array_equal(q.matrix, q.matrix.T)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
@settings(max_examples=36, deadline=None)
def test_form_symmetrization_preserves_values(i, j):
    m = np.zeros((6, 6))
    m[i, j] = 2.0
    q = pu6.QuadraticForm(m)
    s = np.arange(1.0, 7.0)
    assert q(s) == pytest.approx(s[i] * s[j])


# ---------------------------------------------------------------------------
# Poisson tensors
# ---------------------------------------------------------------------------

def test_j1_entries(std_params):
    J = pu6.poisson_tensor(1, std_params).matrix
    assert J[QDD, Q3T] == 1.0
    assert J[QDD, Q5T] == -14.0
    assert J[Q, Q5T] == 1.0
    assert J[QD, Q4T] == -1.0
    assert J[Q4T, Q5T] == 14.0 ** 2 - 49.0


def test_j2_determinant(std_params):
    J = pu6.poisson_tensor(2, std_params).matrix
    assert np.linalg.det(J) == pytest.approx(36.0 ** -4, rel=1e-10)
    assert np.linalg.det(J) == pytest.approx(5.9537418076513e-07, rel=1e-9)


def test_j3_abbreviation_entry(std_params):
    # delta2 = alpha^4 - 3 alpha^2 beta + 2 alpha gamma + beta^2
    d2 = 14.0 ** 4 - 3 * 14.0 ** 2 * 49.0 + 2 * 14.0 * 36.0 + 49.0 ** 2
    assert d2 == 13013.0
    J = pu6.poisson_tensor(3, std_params).matrix
    assert J[Q4T, Q5T] == pytest.approx(13013.0 / 1296.0, rel=1e-14)


def test_antisymmetry_exact(std_params):
    for k in (1, 2, 3):
        J = pu6.poisson_tensor(k, std_params).matrix
        np.testing.assert_array_equal(J, -J.T)


def test_gamma_zero_rejected():
    p = pu6.PUParams(3.0, 3.0, 0.0)
    pu6.poisson_tensor(1, p)  # J1 has no 1/gamma
    for k in (2, 3):
        with pytest.raises(pu6.GammaZero):
            pu6.poisson_tensor(k, p)


def test_determinants_random_sets(param_sets):
    for p in param_sets:
        for k, expected in ((1, 1.0), (2, p.gamma ** -4), (3, p.gamma ** -8)):
            d = np.linalg.det(pu6.poisson_tensor(k, p).matrix)
            assert abs(d - expected) <= 1e-10 * abs(expected)


# ---------------------------------------------------------------------------
# flow equality and the Poisson field condition
# ---------------------------------------------------------------------------

def test_flow_equality(std_params, param_sets):
    for p in [std_params] + param_sets:
        F = pu6.flow_operator(p)
        for k in (1, 2, 3):
            JA = pu6.poisson_tensor(k, p).matrix @ pu6.hamiltonian_form(k, p).matrix
            assert np.abs(JA - F).max() < 1e-9


def test_poisson_field_condition(std_params, param_sets):
    for p in [std_params] + param_sets:
        F = pu6.flow_operator(p)
        for k in (1, 2, 3):
            J = pu6.poisson_tensor(k, p).matrix
            assert np.abs(F @ J + J @ F.T).max() < 1e-9


# ---------------------------------------------------------------------------
# gradient and brackets
# ---------------------------------------------------------------------------

def test_gradient_h1_unit_position(std_params):
    h = pu6.hamiltonian_form(1, std_params)
    g = h.gradient(np.eye(6)[0])
    np.testing.assert_allclose(g, [36.0, 0, 0, 0, 0, 0], atol=1e-14)


def test_gradient_zero(std_params):
    h = pu6.hamiltonian_form(2, std_params)
    np.testing.assert_array_equal(h.gradient(np.zeros(6)), np.zeros(6))


def test_gradient_finite_differences(std_params, rng):
    hs = [pu6.hamiltonian_form(k, std_params) for k in (1, 2, 3)]
    step = 1e-5
    for _ in range(100):
        s = rng.uniform(-1, 1, size=6)
        h = hs[rng.integers(0, 3)]
        fd = np.array(
            [
                (h(s + step * e) - h(s - step * e)) / (2 * step)
                for e in np.eye(6)
            ]
        )
        np.testing.assert_allclose(h.gradient(s), fd, atol=1e-6)


def test_bracket_involution_base(std_params):
    hs = [pu6.hamiltonian_form(k, std_params) for k in (1, 2, 3)]
    for k in (1, 2, 3):
        J = pu6.poisson_tensor(k, std_params)
        for a in hs:
            for b in hs:
                br = pu6.poisson_bracket(a, b, J).matrix
                scale = np.abs(a.matrix).max() * np.abs(b.matrix).max()
                assert np.abs(br).max() < 1e-9 * max(1.0, scale)


def test_bracket_self_zero(std_params):
    h1 = pu6.hamiltonian_form(1, std_params)
    j1 = pu6.poisson_tensor(1, std_params)
    assert np.abs(pu6.poisson_bracket(h1, h1, j1).matrix).max() < 1e-12


def test_bracket_value_against_direct_contraction(std_params, rng):
    j1 = pu6.poisson_tensor(1, std_params)
    for _ in range(20):
        fa = pu6.QuadraticForm(rng.normal(size=(6, 6)))
        fb = pu6.QuadraticForm(rng.normal(size=(6, 6)))
        br = pu6.poisson_bracket(fa, fb, j1)
        s = rng.uniform(-1, 1, size=6)
        direct = fa.gradient(s) @ j1.matrix @ fb.gradient(s)
        assert br(s) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_bracket_antisymmetric_in_arguments(std_params, rng):
    j2 = pu6.poisson_tensor(2, std_params)
    fa = pu6.QuadraticForm(rng.normal(size=(6, 6)))
    fb = pu6.QuadraticForm(rng.normal(size=(6, 6)))
    lhs = pu6.poisson_bracket(fa, fb, j2).matrix
    rhs = pu6.poisson_bracket(fb, fa, j2).matrix
    np.testing.assert_allclose(lhs, -rhs, atol=1e-12)


def test_bracket_of_position_and_velocity_squares(std_params):
    # {q, qdot} vanishes for J1, so this bracket is the zero form;
    # {q, q5t} = 1 makes the companion pair a nonzero bracket.
    f_q = pu6.QuadraticForm(np.diag([1.0, 0, 0, 0, 0, 0]))
    f_qd = pu6.QuadraticForm(np.diag([0, 1.0, 0, 0, 0, 0]))
    f_q5 = pu6.QuadraticForm(np.diag([0, 0, 0, 0, 0, 1.0]))
    j1 = pu6.poisson_tensor(1, std_params)
    assert np.abs(pu6.poisson_bracket(f_q, f_qd, j1).matrix).max() == 0.0
    br = pu6.poisson_bracket(f_q, f_q5, j1)
    s = np.array([2.0, 0, 0, 0, 0, 3.0])
    assert br(s) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# canonical picture
# ---------------------------------------------------------------------------

def test_ostrogradsky_unit_position(std_params):
    c = pu6.ostrogradsky_map(np.eye(6)[0], std_params)
    assert (c.q1, c.q2, c.q3, c.pi1, c.pi2, c.pi3) == (1, 0, 0, 0, 0, 0)
    assert pu6.canonical_hamiltonian(c, std_params) == pytest.approx(18.0)


def test_ostrogradsky_unit_velocity(std_params):
    c = pu6.ostrogradsky_map(np.eye(6)[1], std_params)
    assert c.pi1 == pytest.approx(49.0)
    assert c.q2 == 1.0
    assert pu6.canonical_hamiltonian(c, std_params) == pytest.approx(24.5)  # beta/2


def test_ostrogradsky_energy_identity(std_params, rng):
    h1 = pu6.hamiltonian_form(1, std_params)
    for _ in range(100):
        s = rng.uniform(-3, 3, size=6)
        c = pu6.ostrogradsky_map(s, std_params)
        val = pu6.canonical_hamiltonian(c, std_params)
        assert abs(val - h1(s)) <= 1e-10 * max(1.0, abs(h1(s)))


def test_stacked_ostrogradsky_matches_scalar_routines(std_params, rng):
    states = rng.uniform(-3, 3, size=(50, 6))
    canonical = pu6.core._ostrogradsky(states, std_params)
    energies = pu6.core._canonical_energy(canonical, std_params)
    for s, row, energy in zip(states, canonical, energies):
        c = pu6.ostrogradsky_map(s, std_params)
        np.testing.assert_array_equal(row, [c.q1, c.q2, c.q3, c.pi1, c.pi2, c.pi3])
        assert energy == pu6.canonical_hamiltonian(c, std_params)


def test_model_matrices_cache(std_params):
    from pu6.core import _model_matrices

    js, hs, F = _model_matrices(std_params)
    assert _model_matrices(std_params)[1] is hs
    assert _model_matrices.cache_info().maxsize is not None
    for m in (*js, *hs, F):
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    for k in (1, 2, 3):  # bit for bit
        assert hs[k - 1].tobytes() == pu6.hamiltonian_form(k, std_params).matrix.tobytes()
        assert js[k - 1].tobytes() == pu6.poisson_tensor(k, std_params).matrix.tobytes()
    assert F.tobytes() == pu6.flow_operator(std_params).tobytes()
    other = _model_matrices(pu6.PUParams(6.0, 11.0, 6.0))
    for a, b in zip((*js, *hs, F), (*other[0], *other[1], other[2])):
        assert not np.array_equal(a, b)
    assert _model_matrices(pu6.PUParams(1.0, 2.0, 0.0))[0] == ()


# ---------------------------------------------------------------------------
# time-reversal parity
# ---------------------------------------------------------------------------

_ODD = np.add.outer(np.arange(6), np.arange(6)) % 2 == 1  # entries with i + j odd
_PARITY_MODELS = {
    "321": pu6.params_from_frequencies(pu6.frequency_triple(3.0, 2.0, 1.0)),
    "100x321": pu6.params_from_frequencies(pu6.frequency_triple(300.0, 200.0, 100.0)),
    "221": pu6.params_from_frequencies(pu6.frequency_triple(2.0, 2.0, 1.0)),
    "non_oscillatory": pu6.PUParams(1.0, -5.0, 1.0),
    "gamma0": pu6.PUParams(3.0, 3.0, 0.0),  # H1..H3 only, J2 and J3 do not exist
}


@pytest.mark.parametrize("p", _PARITY_MODELS.values(), ids=_PARITY_MODELS.keys())
def test_time_reversal_parity_is_exact(p):
    """T = diag(1,-1,1,-1,1,-1) fixes every H_k and flips every J_k, with exact zeros."""
    for k in (1, 2, 3):
        assert np.all(pu6.hamiltonian_form(k, p).matrix[_ODD] == 0.0)
    for k in (1, 2, 3) if p.gamma != 0.0 else (1,):
        j = pu6.poisson_tensor(k, p).matrix
        assert np.all(j[~_ODD] == 0.0) and np.any(j[_ODD] != 0.0)


def _positive_weights(p):
    """(c4, c5, c6) with every block prefactor 1, for distinct real frequencies; else none."""
    try:
        f = pu6.frequencies_from_params(p)
    except pu6.ComplexFrequencies:
        return np.empty((0, 3))
    if f.is_degenerate():
        return np.empty((0, 3))
    m, _, _, den = f.pairs
    return np.linalg.solve(np.vander(m, 3, increasing=True), den)[None, :]


@pytest.mark.parametrize("p", _PARITY_MODELS.values(), ids=_PARITY_MODELS.keys())
def test_eigenvalue_split_matches_full_spectrum(p, rng):
    """The two 3x3 parity blocks give the 6x6 lambda_min to 1e-14 ||A||, and the same verdict."""
    hs = [pu6.hamiltonian_form(k, p).matrix for k in (1, 2, 3)]
    scales = [np.abs(h).max() for h in hs]
    weights = rng.standard_normal((300, 3)) / scales  # each H_k's share of similar size
    weights = np.vstack([weights, _positive_weights(p), np.eye(3)])
    a = pu6.hierarchy._weighted_sum(weights.T, hs)
    lam, positive = pu6.positivity.eigenvalue_split(weights.T, p)
    full = np.linalg.eigvalsh(a)
    norm = np.abs(full).max(axis=-1)
    assert lam.shape == positive.shape == (len(weights),)
    assert np.all(np.abs(lam - full[:, 0]) <= 1e-14 * norm)
    np.testing.assert_array_equal(positive, full[:, 0] > 1e-10 * norm)
    stacked = pu6.positivity.eigenvalue_split(weights[:300].T.reshape(3, 3, 100), p)  # any shape
    np.testing.assert_array_equal(stacked[0], lam[:300].reshape(3, 100))


def test_eigenvalue_split_positive_forms_are_found(std_params):
    lam, positive = pu6.positivity.eigenvalue_split(_positive_weights(std_params).T, std_params)
    assert positive.tolist() == [True] and lam[0] > 0.0
