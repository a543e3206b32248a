import io
import warnings

import numpy as np
import pytest

import pu6


def _cos3_state():
    # q(t) = cos(3 t) at t = 0
    return np.array([1.0, 0.0, -9.0, 0.0, 81.0, 0.0])


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

def test_solve_exact_single_mode(std_freqs):
    sol = pu6.solve_exact(std_freqs, _cos3_state())
    expected = np.zeros(6)
    expected[1] = 1.0  # cos(w1 t) is the second basis function
    np.testing.assert_allclose(sol.coefficients, expected, atol=1e-12)


def test_solve_exact_fully_degenerate_tcos():
    f = pu6.frequency_triple(1, 1, 1)
    # q(t) = t cos t: state (0, 1, 0, -3, 0, 5) at t = 0
    sol = pu6.solve_exact(f, [0.0, 1.0, 0.0, -3.0, 0.0, 5.0])
    expected = np.zeros(6)
    expected[3] = 1.0  # t cos is the fourth basis function
    np.testing.assert_allclose(sol.coefficients, expected, atol=1e-12)


def test_solve_exact_zero_state(std_freqs):
    sol = pu6.solve_exact(std_freqs, np.zeros(6))
    np.testing.assert_array_equal(sol.coefficients, np.zeros(6))
    assert not np.abs(sol.states(np.linspace(0, 5, 11))).any()


def test_exact_reproduces_initial(std_freqs, rng):
    for _ in range(10):
        s0 = rng.uniform(-2, 2, size=6)
        sol = pu6.solve_exact(std_freqs, s0)
        np.testing.assert_allclose(sol.state(0.0), s0, atol=1e-9)


def test_exact_flow_residual_all_classes(rng):
    times = np.linspace(0.0, 12.0, 1000)
    triples = [pu6.frequency_triple(*ws) for ws in ((3, 2, 1), (2, 2, 1), (1, 1, 1), (1.7, 0.9, 0.4))]
    # the lower pair w2 = w3 from the roots of the cubic: (2, 1, 1) and 100 (2, 1, 1)
    for lam in (1.0, 100.0):
        f = pu6.frequencies_from_params(pu6.PUParams(6.0 * lam ** 2, 9.0 * lam ** 4, 4.0 * lam ** 6))
        assert f.degeneracy is pu6.Degeneracy.PARTIALLY_DEGENERATE
        assert f.omegas[0] > f.omegas[1] == f.omegas[2]
        triples.append(f)
    for f in triples:
        sol = pu6.solve_exact(f, rng.uniform(-1, 1, size=6))
        assert sol.flow_residual(times) < 1e-8


def test_divergent_mode_detection():
    f = pu6.frequency_triple(2, 2, 1)
    pure_osc = pu6.solve_exact(f, np.array([1.0, 0.0, -4.0, 0.0, 16.0, 0.0]))  # cos(2t)
    assert not pu6.divergent_mode_present(pure_osc)
    rng = np.random.default_rng(3)
    generic = pu6.solve_exact(f, rng.uniform(-1, 1, size=6))
    assert pu6.divergent_mode_present(generic)


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------

def test_rk4_matches_exact(std_params, std_freqs):
    sol = pu6.solve_exact(std_freqs, _cos3_state())
    traj = pu6.integrate_rk4(std_params, _cos3_state(), t_end=20.0, dt=1e-3)
    err = np.abs(traj.states - sol.states(traj.times)).max()
    assert err < 1e-6


def test_rk4_fourth_order_convergence(std_params, std_freqs):
    s0 = np.array([1.0, -0.5, 2.0, 0.3, -4.0, 1.1])
    sol = pu6.solve_exact(std_freqs, s0)
    errs = []
    for dt in (2e-3, 1e-3):
        traj = pu6.integrate_rk4(std_params, s0, t_end=20.0, dt=dt)
        errs.append(np.abs(traj.states - sol.states(traj.times)).max())
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0, ratio


def test_rk4_partially_degenerate_envelope():
    # t sin(2t) mode: linear envelope growth, exact oracle at t = 10
    f = pu6.frequency_triple(2, 2, 1)
    p = pu6.params_from_frequencies(f)
    # q = t sin(2t): derivatives at 0: (0, 0, 4, 0, -32, 0) -> check: d/dt(t sin 2t) = sin2t + 2t cos2t -> 0
    s0 = np.array([0.0, 0.0, 4.0, 0.0, -32.0, 0.0])
    sol = pu6.solve_exact(f, s0)
    assert pu6.divergent_mode_present(sol)
    traj = pu6.integrate_rk4(p, s0, t_end=10.0, dt=1e-3)
    exact_end = sol.state(10.0)
    rel = np.abs(traj.states[-1] - exact_end).max() / np.abs(exact_end).max()
    assert rel < 1e-5


def test_rk4_rejects_bad_steps(std_params):
    with pytest.raises(ValueError):
        pu6.integrate_rk4(std_params, np.zeros(6), t_end=1.0, dt=0.0)


def test_rk4_overflow_reported():
    p = pu6.PUParams(0.0, 0.0, -1.0)  # q'''''' = q: exponential growth
    with pytest.raises(pu6.NonFinite):
        pu6.integrate_rk4(p, np.ones(6) * 1e305, t_end=25.0, dt=0.1)


def _stage_loop_rk4(p, initial, t_end, dt):
    """The four-stage loop that the linear increment replaced, kept as its reference."""
    F = pu6.flow_operator(p)
    n_steps = int(round(t_end / dt))
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, 6))
    s = np.array(initial, dtype=float)
    times[0] = 0.0
    states[0] = s
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = F @ s
            k2 = F @ (s + 0.5 * dt * k1)
            k3 = F @ (s + 0.5 * dt * k2)
            k4 = F @ (s + dt * k3)
            s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(s)):
                raise pu6.NonFinite(
                    f"state overflowed at t={times[k] + dt:.6g} (divergent degenerate mode)"
                )
            times[k + 1] = (k + 1) * dt
            states[k + 1] = s
    return times, states


def _seeded_separated_triple(seed):
    rng = np.random.default_rng(seed)
    w3 = rng.uniform(0.5, 1.0)
    w2 = w3 * rng.uniform(1.3, 1.8)
    return (w2 * rng.uniform(1.3, 1.8), w2, w3)


@pytest.mark.parametrize(
    "omegas, t_end",
    [((3, 2, 1), 20.0), (_seeded_separated_triple(71), 10.0), (_seeded_separated_triple(72), 10.0),
     ((2, 2, 1), 10.0), ((2, 2, 2), 10.0)],
)
def test_linear_rk4_matches_stage_loop_reference(omegas, t_end):
    p = pu6.params_from_frequencies(pu6.frequency_triple(*omegas))
    s0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=6)
    traj = pu6.integrate_rk4(p, s0, t_end=t_end, dt=1e-3)
    times, states = _stage_loop_rk4(p, s0, t_end, 1e-3)
    assert traj.method == "rk4"
    np.testing.assert_array_equal(traj.times, times)
    assert np.abs(traj.states - states).max() <= 1e-12 * np.abs(states).max()


@pytest.mark.parametrize(
    "initial, t_end",
    [(np.ones(6) * 1e305, 25.0), ([1e305, 0.0, 0.0, 0.0, 0.0, 0.0], 30.0),
     (np.ones(6) * 1e300, 100.0), (np.ones(6), 800.0)],
)
def test_linear_rk4_overflow_step_matches_reference(initial, t_end):
    p = pu6.PUParams(0.0, 0.0, -1.0)  # q'''''' = q: exponential growth
    with pytest.raises(pu6.NonFinite) as expected:
        _stage_loop_rk4(p, initial, t_end, 0.1)
    with pytest.raises(pu6.NonFinite) as got:
        pu6.integrate_rk4(p, initial, t_end=t_end, dt=0.1)
    assert str(got.value) == str(expected.value)


_BLOCK = pu6.dynamics._RK4_BLOCK


@pytest.mark.parametrize("n_steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 40000])
def test_linear_rk4_block_edges_match_stage_loop_reference(n_steps):
    # the linear flow is filled a block of states at a time: runs that end
    # just before, at and after a block edge, and a long run of many blocks
    p = pu6.params_from_frequencies(pu6.frequency_triple(3.0, 2.0, 1.0))
    s0 = np.random.default_rng(11).uniform(-1.0, 1.0, size=6)
    traj = pu6.integrate_rk4(p, s0, t_end=n_steps * 1e-3, dt=1e-3)
    times, states = _stage_loop_rk4(p, s0, n_steps * 1e-3, 1e-3)
    assert traj.states.shape == (n_steps + 1, 6)
    np.testing.assert_array_equal(traj.times, times)
    assert np.abs(traj.states - states).max() <= 1e-12 * np.abs(states).max()


def test_linear_rk4_overflow_of_an_opposed_pair_matches_reference():
    # an opposed pair of 1e300 under exponential growth at a coarse step;
    # the four-stage loop overflows at t=37.06
    p = pu6.PUParams(0.0, 0.0, -1.0)
    initial = [1e300, -1e300, 0.0, 0.0, 0.0, 0.0]
    t_end = 4706 * 0.17
    with pytest.raises(pu6.NonFinite) as expected:
        _stage_loop_rk4(p, initial, t_end, 0.17)
    with pytest.raises(pu6.NonFinite) as got:
        pu6.integrate_rk4(p, initial, t_end=t_end, dt=0.17)
    assert "t=37.06 " in str(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("n_steps, last", [(50, 2.854e-160), (150, 2.326e121)])
def test_linear_rk4_large_step_stays_finite_without_warnings(n_steps, last):
    # at dt = 10 the state grows about 630-fold per step, so the powers of
    # the step overflow after about 110 steps, long before a state of 1e-300
    # does: they are built silently and left unused
    p = pu6.PUParams(0.0, 0.0, -1.0)
    s0 = np.ones(6) * 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = pu6.integrate_rk4(p, s0, t_end=n_steps * 10.0, dt=10.0)
    _, states = _stage_loop_rk4(p, s0, n_steps * 10.0, 10.0)
    assert np.all(np.isfinite(traj.states))
    assert np.abs(traj.states - states).max() <= 1e-12 * np.abs(states).max()
    assert np.abs(traj.states[-1]).max() == pytest.approx(last, rel=1e-3)


@pytest.mark.parametrize("params", [(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)])
def test_linear_rk4_fixed_point_at_the_top_of_the_range_stays_put(params):
    # at gamma = 0, q = const is a solution: a state of 1e308 > 2^1023 scales
    # to |u| < 2, and every step returns it unchanged
    p = pu6.PUParams(*params)
    s0 = [1e308, 0.0, 0.0, 0.0, 0.0, 0.0]
    traj = pu6.integrate_rk4(p, s0, t_end=10.0, dt=0.1)
    _, states = _stage_loop_rk4(p, s0, 10.0, 0.1)
    np.testing.assert_array_equal(traj.states, states)
    assert np.all(traj.states == np.array(s0))


def test_linear_rk4_slow_growth_overflows_at_the_reference_step():
    # q'''''' = 1e-6 q grows at rate 0.1, so its state spends about 7 time
    # units between 2^1023 and the largest double; the four-stage loop
    # overflows at t=28.9
    p = pu6.PUParams(0.0, 0.0, -1e-6)
    initial = 1e307 * 0.1 ** np.arange(6)  # the growing eigenvector
    with pytest.raises(pu6.NonFinite) as expected:
        _stage_loop_rk4(p, initial, 40.0, 0.1)
    with pytest.raises(pu6.NonFinite) as got:
        pu6.integrate_rk4(p, initial, t_end=40.0, dt=0.1)
    assert "t=28.9 " in str(expected.value)
    assert str(got.value) == str(expected.value)


def test_linear_rk4_large_secular_state_stays_finite():
    # from q = 1e304 the fully degenerate flow grows to 1.2e307 by t=100;
    # the state times the powers of a block would overflow on the way,
    # unless the state is scaled first
    p = pu6.params_from_frequencies(pu6.frequency_triple(1.0, 1.0, 1.0))
    s0 = [1e304, 0.0, 0.0, 0.0, 0.0, 0.0]
    traj = pu6.integrate_rk4(p, s0, t_end=100.0, dt=0.5)
    _, states = _stage_loop_rk4(p, s0, 100.0, 0.5)
    assert np.abs(states).max() > 1e307
    assert np.abs(traj.states - states).max() <= 1e-11 * np.abs(states).max()


@pytest.mark.parametrize(
    "initial, step", [(1e304 * np.ones(6), "t=67 "), ([1e304, -1e304, 0.0, 0.0, 0.0, 0.0], "t=134.5 ")]
)
def test_linear_rk4_secular_overflow_matches_reference(initial, step):
    # large secular states: products with 6Q/dt, about six times the loop's
    # stages, would overflow first (at t=51 and t=100)
    p = pu6.params_from_frequencies(pu6.frequency_triple(1.0, 1.0, 1.0))
    with pytest.raises(pu6.NonFinite) as expected:
        _stage_loop_rk4(p, initial, 150.0, 0.5)
    with pytest.raises(pu6.NonFinite) as got:
        pu6.integrate_rk4(p, initial, t_end=150.0, dt=0.5)
    assert step in str(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "omegas, dt", [((1.0, 1.0, 1.0), 0.5), ((2.0, 2.0, 2.0), 0.2), ((2.0, 2.0, 2.0), 0.05)]
)
def test_linear_rk4_secular_coarse_step_deviation_is_bounded(omegas, dt):
    # a fully degenerate flow grows like t^2, which amplifies the rounding of
    # the powers of the step; blocks end where the powers outgrow i D_1, and
    # the states stay within 1e-7 of max|s| of the four-stage loop (measured:
    # 2.5e-8, 2.7e-8 and 9e-10; 2.2e-6, 9.1e-7 and 1.1e-9 with full blocks)
    p = pu6.params_from_frequencies(pu6.frequency_triple(*omegas))
    s0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=6)
    traj = pu6.integrate_rk4(p, s0, t_end=5000 * dt, dt=dt)
    _, states = _stage_loop_rk4(p, s0, 5000 * dt, dt)
    assert np.abs(traj.states - states).max() <= 1e-7 * np.abs(states).max()


@pytest.mark.parametrize(
    "t_end, dt",
    [(1.0, np.inf), (1e-4, 1e-3), (np.nan, 1e-3), (np.inf, 1e-3), (1.0, np.nan), (1.0, 0.3),
     (1.0, 0.0), (-1.0, 1e-3)],
)
def test_trajectories_refuse_bad_step_counts(std_params, std_freqs, t_end, dt):
    # finite, positive dt and t_end, and a whole number of steps, at least one
    with pytest.raises(ValueError, match="^needs "):
        pu6.integrate_rk4(std_params, _cos3_state(), t_end=t_end, dt=dt)
    with pytest.raises(ValueError, match="^needs "):
        pu6.exact_trajectory(pu6.solve_exact(std_freqs, _cos3_state()), t_end, dt)


def test_step_count_accepts_a_whole_number_of_steps():
    assert pu6.dynamics.step_count(20.0, 1e-3) == 20000
    assert pu6.dynamics.step_count(1e-3, 1e-3) == 1
    assert pu6.dynamics.step_count(4706 * 0.17, 0.17) == 4706


def test_rk4_convergence_study():
    # the study of scripts/rk4_convergence.py: error ratios near 16 under step
    # halving, and the H1..H3 drift at roundoff level once truncation is small
    f = pu6.frequency_triple(3.0, 2.0, 1.0)
    p = pu6.params_from_frequencies(f)
    s0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=6)
    sol = pu6.solve_exact(f, s0)
    forms = [pu6.hamiltonian_form(k, p) for k in (1, 2, 3)]
    errs, drifts = [], []
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        traj = pu6.integrate_rk4(p, s0, 20.0, dt)
        errs.append(np.abs(traj.states - sol.states(traj.times)).max())
        drifts.append(pu6.conservation_drift(traj, forms).max())
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((15.0 <= ratios) & (ratios <= 17.0)), ratios
    # at dt = 4e-3 the H1 drift is RK4's own truncation (1.2e-11), not roundoff
    assert drifts[0] <= 2e-11 and max(drifts[1:]) <= 1e-11, drifts


def test_trajectory_validation():
    with pytest.raises(ValueError):
        pu6.Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 6)), method="rk4")


# ---------------------------------------------------------------------------
# conservation drift
# ---------------------------------------------------------------------------

def test_drift_exact_trajectory(std_params, std_freqs, rng):
    sol = pu6.solve_exact(std_freqs, rng.uniform(-1, 1, size=6))
    traj = pu6.exact_trajectory(sol, 20.0, 0.01)
    forms = [pu6.hamiltonian_n_recursive(n, std_params) for n in range(1, 6)]
    drift = pu6.conservation_drift(traj, forms)
    assert drift.max() < 1e-9


def test_drift_rk4_long_run(std_params, std_freqs):
    traj = pu6.integrate_rk4(std_params, _cos3_state(), t_end=50.0, dt=1e-3)
    forms = [pu6.hamiltonian_form(k, std_params) for k in (1, 2, 3)]
    drift = pu6.conservation_drift(traj, forms)
    assert drift.max() < 1e-8


def test_drift_non_conserved_form(std_params, std_freqs):
    sol = pu6.solve_exact(std_freqs, _cos3_state())
    traj = pu6.exact_trajectory(sol, 10.0, 0.01)
    half_q_squared = pu6.QuadraticForm(np.diag([1.0, 0, 0, 0, 0, 0]))
    drift = pu6.conservation_drift(traj, [half_q_squared])
    assert drift[0] > 0.5  # position oscillates, order-one drift


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------

def test_interaction_spec_rejects_low_degree():
    with pytest.raises(ValueError):
        pu6.InteractionSpec(coefficients=(0.0, 0.0, 1.0))


def test_interaction_jacobian_quartic_position(std_params):
    w = pu6.InteractionSpec.quartic(lam=1.0, variable=0)
    s = np.array([1.0, 0, 0, 0, 0, 0])
    jac = pu6.interaction_field_jacobian(std_params, w, s)
    F = pu6.flow_operator(std_params)
    assert jac[5, 0] == pytest.approx(-36.0 - 3.0)  # -gamma - W''(1)
    diff = jac - F
    diff[5, 0] = 0.0
    assert not diff.any()


def test_interaction_jacobian_velocity_slot(std_params):
    w = pu6.InteractionSpec.quartic(lam=1.0, variable=1)
    s = np.array([0.0, 2.0, 0, 0, 0, 0])
    jac = pu6.interaction_field_jacobian(std_params, w, s)
    F = pu6.flow_operator(std_params)
    assert jac[5, 1] - F[5, 1] == pytest.approx(-12.0)  # -W''(2) = -3*4


def test_lie_residual_j1_zero_for_position_potential(std_params, rng):
    w = pu6.InteractionSpec.quartic(lam=1.0, variable=0)
    j1 = pu6.poisson_tensor(1, std_params)
    for _ in range(100):
        s = rng.uniform(-1, 1, size=6)
        jac = pu6.interaction_field_jacobian(std_params, w, s)
        res = pu6.lie_derivative_residual(jac, j1)
        assert np.abs(res).max() < 1e-12


def test_lie_residual_j2_pattern(std_params):
    # perturbation -3 at Jacobian slot (6,1) propagates to +/- 3/gamma = 1/12
    # at bracket slots (6,4) and (4,6)
    w = pu6.InteractionSpec.quartic(lam=1.0, variable=0)
    s = np.array([1.0, 0, 0, 0, 0, 0])
    jac = pu6.interaction_field_jacobian(std_params, w, s)
    res = pu6.lie_derivative_residual(jac, pu6.poisson_tensor(2, std_params))
    assert res[5, 3] == pytest.approx(1.0 / 12.0)
    assert res[3, 5] == pytest.approx(-1.0 / 12.0)
    mask = np.ones((6, 6), bool)
    mask[5, 3] = mask[3, 5] = False
    assert np.abs(res[mask]).max() < 1e-12


def test_lie_residual_j3_nonzero(std_params):
    w = pu6.InteractionSpec.quartic(lam=1.0, variable=0)
    s = np.array([1.0, 0, 0, 0, 0, 0])
    jac = pu6.interaction_field_jacobian(std_params, w, s)
    res = pu6.lie_derivative_residual(jac, pu6.poisson_tensor(3, std_params))
    assert np.abs(res).max() > 1e-6


def test_lie_residual_j2_j3_nonzero_random(std_params, rng):
    w = pu6.InteractionSpec.quartic(lam=1.0, variable=0)
    j2 = pu6.poisson_tensor(2, std_params)
    j3 = pu6.poisson_tensor(3, std_params)
    tested = 0
    while tested < 100:
        s = rng.uniform(-1, 1, size=6)
        if abs(w.w2(s[0])) < 1e-6:
            continue
        tested += 1
        jac = pu6.interaction_field_jacobian(std_params, w, s)
        floor = 1e-6 * abs(w.w2(s[0])) / abs(std_params.gamma)
        assert np.abs(pu6.lie_derivative_residual(jac, j2)).max() > floor
        assert np.abs(pu6.lie_derivative_residual(jac, j3)).max() > floor


def test_lie_residual_higher_slots_nonzero_everywhere(std_params, rng):
    tensors = [pu6.poisson_tensor(k, std_params) for k in (1, 2, 3)]
    for slot in range(1, 6):
        w = pu6.InteractionSpec.quartic(lam=1.0, variable=slot)
        tested = 0
        while tested < 20:
            s = rng.uniform(-1, 1, size=6)
            if abs(w.w2(s[slot])) < 1e-6:
                continue
            tested += 1
            jac = pu6.interaction_field_jacobian(std_params, w, s)
            for j in tensors:
                res = pu6.lie_derivative_residual(jac, j)
                floor = 1e-6 * abs(w.w2(s[slot])) / abs(std_params.gamma)
                assert np.abs(res).max() > floor, (slot, j.tag)


def test_rk4_with_interaction_deterministic(std_params):
    w = pu6.InteractionSpec.quartic(lam=0.3, variable=0)
    t1 = pu6.integrate_rk4(std_params, _cos3_state(), 2.0, 1e-3, w)
    t2 = pu6.integrate_rk4(std_params, _cos3_state(), 2.0, 1e-3, w)
    np.testing.assert_array_equal(t1.states, t2.states)
    # the interacting flow differs from the linear one
    lin = pu6.integrate_rk4(std_params, _cos3_state(), 2.0, 1e-3)
    assert np.abs(t1.states[-1] - lin.states[-1]).max() > 1e-6


def test_trajectory_csv_format(std_params, std_freqs, tmp_path):
    sol = pu6.solve_exact(std_freqs, _cos3_state())
    traj = pu6.exact_trajectory(sol, 1.0, 0.5)
    path = tmp_path / "t.csv"
    with open(path, "w") as fh:
        pu6.trajectory_csv(traj, pu6.dynamics.trajectory_hamiltonians(traj, std_params)[0], fh)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,q,qdot,qddot,q3t,q4t,q5t,H1,H2,H3"
    assert len(lines) == 4  # header + 3 samples
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, rel=1e-12)
    assert float(first[7]) == pytest.approx(180.0, rel=1e-12)  # H1 of the cos3 state


def _per_cell_trajectory_csv(traj, p) -> str:
    """The per-cell f-string writer that trajectory_csv replaced, kept as its byte reference."""
    forms = [pu6.hamiltonian_form(k, p) for k in (1, 2, 3)]
    hvals = [0.5 * np.einsum("ti,ij,tj->t", traj.states, h.matrix, traj.states) for h in forms]
    lines = ["t,q,qdot,qddot,q3t,q4t,q5t,H1,H2,H3"]
    for i, t in enumerate(traj.times):
        cells = [f"{t:.17g}"] + [f"{v:.17g}" for v in traj.states[i]]
        cells += [f"{h[i]:.17g}" for h in hvals]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_trajectory_csv_matches_per_cell_reference(std_params, std_freqs, method):
    # 3001 rows span several write blocks; the zero initial slots exercise "0"
    if method == "rk4":
        traj = pu6.integrate_rk4(std_params, _cos3_state(), t_end=3.0, dt=1e-3)
    else:
        traj = pu6.exact_trajectory(pu6.solve_exact(std_freqs, _cos3_state()), 3.0, 1e-3)
    out = io.StringIO()
    hvals, drift = pu6.dynamics.trajectory_hamiltonians(traj, std_params)
    pu6.trajectory_csv(traj, hvals, out)
    assert out.getvalue() == _per_cell_trajectory_csv(traj, std_params)
    # the drift summary is conservation_drift's on H1..H3, bit for bit
    forms = [pu6.hamiltonian_form(n, std_params) for n in (1, 2, 3)]
    np.testing.assert_array_equal(drift, pu6.conservation_drift(traj, forms))
