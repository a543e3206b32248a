import dataclasses
import math

import numpy as np
import pytest

import pu6

# frozen parameter points with real branches (found by scanning the radicands)
TA1_FREQS = (1.2, 0.37, 0.06)
TB1_PARAMS = pu6.PUParams(1.0, -5.0, 1.0)
TB1_CHOICES = {"tau2_branch": -1, "g3_branch": +1}
TC1_FREQS = (1.67, 1.07, 0.22)
TC1_POSITIVE_FREQS = (1.6, 1.0, 0.4)  # positive-definite with kappa2 = 2


def _params(ws):
    return pu6.params_from_frequencies(pu6.frequency_triple(*ws))


# ---------------------------------------------------------------------------
# Ta2
# ---------------------------------------------------------------------------

def test_ta2_default_projection(std_params):
    rep = pu6.build_representation("Ta2", std_params)
    np.testing.assert_allclose(rep.projection.matrix[0], [4, 0, 5, 0, 1, 0])
    np.testing.assert_allclose(rep.projection.matrix[1], [9, 0, 10, 0, 1, 0])
    np.testing.assert_allclose(rep.projection.matrix[2], [36, 0, 13, 0, 1, 0])
    np.testing.assert_allclose(rep.params3d.b, [9.0, 4.0, 1.0])
    assert rep.params3d.g == (0.0, 0.0, 0.0)


def test_ta2_projection_of_unit_position(std_params):
    rep = pu6.build_representation("Ta2", std_params)
    pos, vel = pu6.project_state(rep, std_params, np.eye(6)[0])
    np.testing.assert_allclose(pos, [4.0, 9.0, 36.0])
    np.testing.assert_allclose(vel, np.zeros(3), atol=1e-14)


def test_project_zero_state(std_params):
    rep = pu6.build_representation("Ta2", std_params)
    pos, vel = pu6.project_state(rep, std_params, np.zeros(6))
    assert not pos.any() and not vel.any()


def test_ta2_velocity_is_shifted_position(std_params):
    # T has only even columns, so T F picks the odd slots: projecting the
    # state shifted by one derivative gives the velocities
    rep = pu6.build_representation("Ta2", std_params)
    s = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    _, vel = pu6.project_state(rep, std_params, s)
    shifted = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    pos, _ = pu6.project_state(rep, std_params, shifted)
    np.testing.assert_allclose(vel, pos)


def test_ta2_pattern_and_positivity(std_params):
    rep = pu6.build_representation("Ta2", std_params)
    report = pu6.equivalence_check(rep, std_params)
    assert report.pattern == ("PU", "PU", "PU")
    v = pu6.representation_positivity(pu6.transformed_coefficients(rep, std_params), std_params)
    assert v.positive
    assert all(w > 0 for w in v.prefactors)


def test_ta2_invalid_permutation(std_params):
    with pytest.raises(pu6.InvalidPermutation):
        pu6.build_representation(
            "Ta2", std_params, {"perms": ((2, 3, 1), (1, 3, 1), (1, 2, 3))}
        )
    with pytest.raises(pu6.InvalidPermutation):
        # all rows own the same frequency
        pu6.build_representation(
            "Ta2", std_params, {"perms": ((2, 3, 1), (3, 2, 1), (2, 3, 1))}
        )


def test_ta2_zero_kinetic(std_params):
    with pytest.raises(pu6.ZeroKinetic):
        pu6.build_representation("Ta2", std_params, {"a": (0.0, 1.0, 1.0)})


def test_ta2_degenerate_refused():
    with pytest.raises(pu6.DegenerateFrequencies):
        pu6.build_representation("Ta2", _params((2, 2, 1)))


def test_ta2_transformed_coefficients(std_params):
    rep = pu6.build_representation("Ta2", std_params)
    c4, c5, c6 = pu6.transformed_coefficients(rep, std_params)
    al, be, ga = std_params.alpha, std_params.beta, std_params.gamma
    assert c4 == pytest.approx(98.0, rel=1e-9)  # w1^4 + w2^4 + w3^4
    assert c6 == pytest.approx(al / ga, rel=1e-9)
    # middle weight: -(1/gamma) sum own^4 (pair sum) = 3 - alpha beta / gamma
    assert c5 == pytest.approx(3.0 - al * be / ga, rel=1e-9)


def test_transformed_coefficients_refuse_energy_outside_the_span(std_params):
    """A pulled-back energy that is no combination of H1..H3 raises instead of projecting."""
    rep = pu6.build_representation("Ta2", std_params)
    b = rep.params3d.b
    bad = dataclasses.replace(
        rep, params3d=dataclasses.replace(rep.params3d, b=(b[0] * 1.01, b[1], b[2]))
    )
    with pytest.raises(pu6.EquivalenceFailure) as exc:
        pu6.transformed_coefficients(bad, std_params)
    assert exc.value.residual > 1e-3


@pytest.mark.parametrize("broken, message", [
    ("relabel", r"pattern \('PU', 'PU', 'PU'\) does not match the declared .* for Tb1"),
    ("projection", "equation 0: .* is neither oscillator-equivalent nor trivially vanishing"),
])
def test_equivalence_check_refuses_a_broken_representation(std_params, broken, message):
    """A Ta2 relabelled Tb1, or one projection entry scaled by 1.01, fails its check."""
    rep = pu6.build_representation("Ta2", std_params)
    if broken == "relabel":
        bad = dataclasses.replace(rep, kind="Tb1")
    else:
        m = rep.projection.matrix.copy()
        m[0, 0] *= 1.01
        bad = dataclasses.replace(rep, projection=pu6.StateProjection(m))
    with pytest.raises(pu6.EquivalenceFailure, match=message):
        pu6.equivalence_check(bad, std_params)


def test_ta2_decoupled_residual(std_params):
    rep = pu6.build_representation("Ta2", std_params)
    # x oscillates at b_x = 9: q(t) = cos(3t) projects onto the x equation
    t = 0.37
    c, s = np.cos(3 * t), np.sin(3 * t)
    state = np.array([c, -3 * s, -9 * c, 27 * s, 81 * c, -243 * s])
    pos, _ = pu6.project_state(rep, std_params, state)
    F = pu6.flow_operator(std_params)
    acc = rep.projection.matrix @ (F @ (F @ state))
    res = pu6.second_order_residual(rep, *pos, *acc)
    assert np.abs(res).max() < 1e-8


def test_second_order_residual_zero_inputs(std_params):
    rep = pu6.build_representation("Ta2", std_params)
    np.testing.assert_array_equal(
        pu6.second_order_residual(rep, 0, 0, 0, 0, 0, 0), np.zeros(3)
    )


# ---------------------------------------------------------------------------
# Ta1
# ---------------------------------------------------------------------------

def test_ta1_complex_branch_at_std(std_params):
    assert pu6.ta1_radicand(std_params) < 0
    with pytest.raises(pu6.ComplexBranch):
        pu6.build_representation("Ta1", std_params)


def test_ta1_radicand_beyond_float_range_is_a_complex_branch(std_params, monkeypatch):
    far = pu6.params_from_frequencies(pu6.frequency_triple(3e30, 2e30, 1e30))
    assert pu6.ta1_radicand(far) == -math.inf
    monkeypatch.setattr(pu6.representations, "ta1_radicand", lambda p: math.nan)
    with pytest.raises(pu6.ComplexBranch, match="got nan"):
        pu6.build_representation("Ta1", std_params)


def test_ta1_real_branch_pattern():
    p = _params(TA1_FREQS)
    assert pu6.ta1_radicand(p) > 0
    for branch in (+1, -1):
        rep = pu6.build_representation("Ta1", p, {"branch": branch})
        assert pu6.equivalence_check(rep, p).pattern == ("PU", "PU", "PU")


def test_ta1_transformed_coefficients_closed_form():
    p = _params(TA1_FREQS)
    al, be, ga = p.alpha, p.beta, p.gamma
    c = pu6.transformed_coefficients(pu6.build_representation("Ta1", p, {"branch": +1}), p)
    expected = (
        1.0 - 2.0 * al + 3.0 * al * al,
        3.0 + (be - 3.0 * al * be) / ga,
        (3.0 * al - 1.0) / ga,
    )
    np.testing.assert_allclose(c, expected, rtol=1e-8)


# ---------------------------------------------------------------------------
# Tb1
# ---------------------------------------------------------------------------

def test_tb1_complex_branch_at_std(std_params):
    # 1 + 8 alpha (gamma - alpha beta) = -72799 < 0 at (14, 49, 36)
    with pytest.raises(pu6.ComplexBranch):
        pu6.build_representation("Tb1", std_params)


def test_tb1_real_branch_pattern():
    rep = pu6.build_representation("Tb1", TB1_PARAMS, TB1_CHOICES)
    assert rep.auxiliary["tau2"] == pytest.approx(-3.0)
    assert pu6.equivalence_check(rep, TB1_PARAMS).pattern == ("PU", "PU", "trivial")


def test_tb1_transformed_coefficients_closed_form():
    rep = pu6.build_representation("Tb1", TB1_PARAMS, TB1_CHOICES)
    tau2 = rep.auxiliary["tau2"]
    al, be, ga = TB1_PARAMS.alpha, TB1_PARAMS.beta, TB1_PARAMS.gamma
    c = pu6.transformed_coefficients(rep, TB1_PARAMS)
    expected = (2 * al * al + tau2 * tau2, 2 * (1 - al * be / ga), 2 * al / ga)
    np.testing.assert_allclose(c, expected, rtol=1e-9)


def test_tb1_never_positive():
    for g3_branch in (+1, -1):
        rep = pu6.build_representation(
            "Tb1", TB1_PARAMS, {"tau2_branch": -1, "g3_branch": g3_branch}
        )
        v = pu6.representation_positivity(pu6.transformed_coefficients(rep, TB1_PARAMS), TB1_PARAMS)
        assert not v.positive
        assert v.min_eigenvalue < 0


def _loop_weight_vectors(r):
    """The per-term loop that _substitution replaced, kept as its reference."""
    a, b, g = r.params3d.a, r.params3d.b, r.params3d.g
    rows = [r.projection.matrix[i, 0::2] for i in range(3)]
    G = np.array([[0.0, g[0], g[1]], [g[0], 0.0, g[2]], [g[1], g[2], 0.0]])
    W = np.zeros((3, 4))
    for i in range(3):
        W[i, 1:] += a[i] * rows[i]  # a_i x_i'' shifts each derivative up by two
        W[i, :3] += b[i] * rows[i]
        for j in range(3):
            if j != i:
                W[i, :3] += G[i, j] * rows[j]
    return W


@pytest.mark.parametrize("kind, p, choices", [
    ("Ta2", _params((3.0, 2.0, 1.0)), {}),
    ("Ta1", _params(TA1_FREQS), {"branch": +1}),
    ("Tb1", TB1_PARAMS, TB1_CHOICES),
    ("Tc1", _params(TC1_FREQS), {"mu0": 1.0, "nu0": 1.0, "tau0": 1.0}),
])
def test_weight_vectors_match_loop_reference(kind, p, choices):
    from pu6.representations import _substitution

    rep = pu6.build_representation(kind, p, choices)
    terms = _substitution(rep, np.abs)
    W = _substitution(rep, np.asarray)
    assert np.all(np.abs(W) <= terms)
    # four terms at most per entry, each order rounding within a few eps of their sizes
    assert np.all(np.abs(W - _loop_weight_vectors(rep)) <= 8 * np.finfo(float).eps * terms)


def test_tb1_trivial_row_is_matrix_identity():
    rep = pu6.build_representation("Tb1", TB1_PARAMS, TB1_CHOICES)
    from pu6.representations import _substitution

    W = _substitution(rep, np.asarray)
    assert np.abs(W[2]).max() < 1e-12 * max(1.0, np.abs(W).max())


# ---------------------------------------------------------------------------
# Tc1
# ---------------------------------------------------------------------------

def test_tc1_pattern_unit_choices():
    p = _params(TC1_FREQS)
    for branch in (+1, -1):
        rep = pu6.build_representation(
            "Tc1", p, {"mu0": 1.0, "nu0": 1.0, "tau0": 1.0, "branch": branch}
        )
        assert pu6.equivalence_check(rep, p).pattern == ("PU", "trivial", "trivial")
        assert rep.auxiliary["kappa2"] == pytest.approx(3.0)


def test_tc1_transformed_coefficients_closed_form():
    p = _params(TC1_FREQS)
    al, be, ga = p.alpha, p.beta, p.gamma
    mu0 = 1.0
    rep = pu6.build_representation("Tc1", p, {"mu0": mu0, "nu0": 1.0, "tau0": 1.0})
    k2 = rep.auxiliary["kappa2"]
    c = pu6.transformed_coefficients(rep, p)
    expected = (
        al * al - be + mu0 + al * (k2 - be * mu0) / ga,
        1.0 - be * (al * ga + k2 - be * mu0) / ga ** 2,
        (al * ga + k2 - be * mu0) / ga ** 2,
    )
    np.testing.assert_allclose(c, expected, rtol=1e-8)


def test_tc1_positive_instance():
    # kappa2 = 2 via (mu0, nu0, tau0) = (1, 1/sqrt2, 1/sqrt2)
    p = _params(TC1_POSITIVE_FREQS)
    s2 = 1.0 / np.sqrt(2.0)
    choices = {"mu0": 1.0, "nu0": s2, "tau0": s2}
    rep = pu6.build_representation("Tc1", p, choices)
    assert rep.auxiliary["kappa2"] == pytest.approx(2.0)
    v = pu6.representation_positivity(pu6.transformed_coefficients(rep, p), p)
    assert v.positive


def test_tc1_complex_branch(std_params):
    assert pu6.tc1_radicand(std_params, 1.0, 1.0, 1.0) < 0
    with pytest.raises(pu6.ComplexBranch):
        pu6.build_representation("Tc1", std_params, {"mu0": 1.0, "nu0": 1.0, "tau0": 1.0})


def test_tc1_zero_denominators(std_params):
    with pytest.raises(pu6.ZeroDenominator):
        pu6.build_representation("Tc1", std_params, {"mu0": 0.0})
    with pytest.raises(pu6.GammaZero):
        pu6.build_representation("Tc1", pu6.PUParams(3.0, 3.0, 0.0), {})


# ---------------------------------------------------------------------------
# generic contracts
# ---------------------------------------------------------------------------

def _instances():
    yield "Ta2", pu6.params_from_frequencies(pu6.frequency_triple(3, 2, 1)), {}
    yield "Ta1", _params(TA1_FREQS), {"branch": +1}
    yield "Tb1", TB1_PARAMS, TB1_CHOICES
    yield "Tc1", _params(TC1_FREQS), {"mu0": 1.0, "nu0": 1.0, "tau0": 1.0}


def test_projection_odd_columns_vanish():
    for kind, p, choices in _instances():
        rep = pu6.build_representation(kind, p, choices)
        assert not rep.projection.matrix[:, 1::2].any()


def test_hamiltonian_consistency_routes():
    rng = np.random.default_rng(7)
    for kind, p, choices in _instances():
        rep = pu6.build_representation(kind, p, choices)
        c4, c5, c6 = pu6.transformed_coefficients(rep, p)
        hs = [pu6.hamiltonian_form(k, p) for k in (1, 2, 3)]
        h3d = pu6.legendre_hamiltonian(rep)
        S = pu6.phase_space_map(rep, p)
        for _ in range(100):
            s = rng.uniform(-1, 1, size=6)
            via_combo = c4 * hs[0](s) + c5 * hs[1](s) + c6 * hs[2](s)
            via_legendre = h3d(S @ s)
            assert abs(via_combo - via_legendre) <= 1e-7 * max(1.0, abs(via_legendre))


def test_hamiltonian_consistency_across_parameter_draws():
    # ten draws per kind, skipping draws where the branch is complex
    rng = np.random.default_rng(11)

    def draws():
        # Ta2 anywhere non-degenerate
        for _ in range(10):
            w = np.sort(rng.uniform(0.4, 2.5, size=3))[::-1]
            if w[0] ** 2 - w[1] ** 2 > 0.05 and w[1] ** 2 - w[2] ** 2 > 0.05:
                yield "Ta2", pu6.params_from_frequencies(pu6.frequency_triple(*w)), {}
        # Ta1 near its low-frequency pocket
        for _ in range(40):
            w1 = rng.uniform(0.9, 1.4)
            w2 = rng.uniform(0.15, 0.5)
            w3 = rng.uniform(0.02, 0.12)
            p = pu6.params_from_frequencies(pu6.frequency_triple(w1, w2, w3))
            yield "Ta1", p, {"branch": rng.choice([-1, 1])}
        # Tb1 in the non-oscillatory box
        for _ in range(40):
            p = pu6.PUParams(rng.uniform(0.3, 2.5), rng.uniform(-8.0, -1.6),
                             rng.uniform(0.1, 3.0))
            yield "Tb1", p, {"tau2_branch": int(rng.choice([-1, 1])),
                             "g3_branch": int(rng.choice([-1, 1]))}
        # Tc1 near its pocket
        for _ in range(40):
            w1 = rng.uniform(1.4, 2.0)
            w2 = rng.uniform(0.9, 1.3)
            w3 = rng.uniform(0.15, 0.5)
            f = pu6.frequency_triple(w1, w2, w3)
            if f.is_degenerate():
                continue
            yield "Tc1", pu6.params_from_frequencies(f), {"mu0": 1.0, "nu0": 1.0, "tau0": 1.0}

    built = {k: 0 for k in pu6.KINDS}
    for kind, p, choices in draws():
        if built[kind] >= 10:
            continue
        try:
            rep = pu6.build_representation(kind, p, choices)
        except (pu6.ComplexBranch, pu6.ZeroDenominator, pu6.DegenerateFrequencies):
            continue
        built[kind] += 1
        c4, c5, c6 = pu6.transformed_coefficients(rep, p)
        hs = [pu6.hamiltonian_form(k, p) for k in (1, 2, 3)]
        h3d = pu6.legendre_hamiltonian(rep)
        S = pu6.phase_space_map(rep, p)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=6)
            via_combo = c4 * hs[0](s) + c5 * hs[1](s) + c6 * hs[2](s)
            via_legendre = h3d(S @ s)
            assert abs(via_combo - via_legendre) <= 1e-7 * max(1.0, abs(via_legendre))
    # every kind must contribute real draws
    assert built["Ta2"] >= 5 and built["Tb1"] >= 5
    assert built["Ta1"] >= 2 and built["Tc1"] >= 2, built


def test_equivalence_with_trajectory():
    p = pu6.params_from_frequencies(pu6.frequency_triple(3, 2, 1))
    rep = pu6.build_representation("Ta2", p)
    sol = pu6.solve_exact(pu6.frequency_triple(3, 2, 1), [1.0, 0.5, -2.0, 1.0, 3.0, -1.0])
    traj = pu6.exact_trajectory(sol, 20.0, 0.01)
    report = pu6.equivalence_check(rep, p, trajectory=traj)
    assert report.pattern == ("PU", "PU", "PU")
    assert max(report.trajectory_residuals) < 1e-7 * max(1.0, np.abs(traj.states).max())


def test_legendre_hamiltonian_decoupled(std_params):
    rep = pu6.build_representation("Ta2", std_params)
    h = pu6.legendre_hamiltonian(rep)
    z = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])  # (x,y,z,px,py,pz)
    assert h(z) == pytest.approx(0.5 * 3 + 0.5 * (9 + 4 + 1))


def test_legendre_kinetic_only():
    rep = pu6.Representation(
        kind="Ta2",
        params3d=pu6.Rep3DParams(a=(2.0, 1.0, 1.0), b=(0.0, 0.0, 0.0), g=(0.0, 0.0, 0.0)),
        projection=pu6.StateProjection.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    )
    h = pu6.legendre_hamiltonian(rep)
    z = np.array([5.0, -3.0, 2.0, 2.0, 0.0, 0.0])
    assert h(z) == pytest.approx(2.0 ** 2 / (2 * 2.0))


def test_legendre_zero_kinetic():
    rep = pu6.Representation(
        kind="Ta2",
        params3d=pu6.Rep3DParams(a=(0.0, 1.0, 1.0), b=(1.0, 1.0, 1.0), g=(0.0, 0.0, 0.0)),
        projection=pu6.StateProjection.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    )
    with pytest.raises(pu6.ZeroKinetic):
        pu6.legendre_hamiltonian(rep)


def test_representation_json_roundtrip():
    for kind, p, choices in _instances():
        rep = pu6.build_representation(kind, p, choices)
        d = rep.to_json_dict()
        assert d["kind"] == kind
        assert len(d["projection_rows"]) == 3
        import json

        json.dumps(d)  # serialisable
