import numpy as np
import pytest

import pu6
from pu6.symmetries import commutator, lie_generator, symmetry_action_on_form


def test_x4_is_half_identity(std_params):
    np.testing.assert_array_equal(lie_generator(4, std_params), 0.5 * np.eye(6))


def test_x1_is_flow(std_params):
    np.testing.assert_array_equal(lie_generator(1, std_params), pu6.flow_operator(std_params))


def test_x3_velocity_row(std_params):
    X3 = lie_generator(3, std_params)
    assert X3[1, 0] == -36.0  # coefficient of q in the qdot component
    np.testing.assert_array_equal(X3[1, 1:], np.zeros(5))


def test_commutator_with_identity_multiple(std_params):
    X4 = lie_generator(4, std_params)
    for i in range(1, 7):
        assert np.abs(commutator(X4, lie_generator(i, std_params))).max() == 0.0


def test_commutator_self(std_params):
    F = pu6.flow_operator(std_params)
    assert np.abs(commutator(F, F)).max() == 0.0


def test_all_commutators_vanish(std_params, param_sets):
    for p in [std_params] + param_sets:
        xs = [lie_generator(i, p) for i in range(1, 7)]
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.abs(commutator(xs[i], xs[j])).max() < 1e-9


def test_generators_commute_with_flow(std_params, param_sets):
    for p in [std_params] + param_sets:
        F = pu6.flow_operator(p)
        for i in range(1, 7):
            assert np.abs(commutator(lie_generator(i, p), F)).max() < 1e-9


def test_action_ladder(std_params):
    h1 = pu6.hamiltonian_form(1, std_params)
    h2 = pu6.hamiltonian_form(2, std_params)
    h3 = pu6.hamiltonian_form(3, std_params)
    X5 = lie_generator(5, std_params)
    X6 = lie_generator(6, std_params)
    scale = np.abs(h2.matrix).max()
    assert np.abs(symmetry_action_on_form(X5, h1).matrix - h2.matrix).max() < 1e-9 * scale
    scale = np.abs(h3.matrix).max()
    assert np.abs(symmetry_action_on_form(X5, h2).matrix - h3.matrix).max() < 1e-9 * scale
    assert np.abs(symmetry_action_on_form(X6, h1).matrix - h3.matrix).max() < 1e-9 * scale


def test_action_annihilators_and_euler(std_params, param_sets):
    for p in [std_params] + param_sets:
        hs = [pu6.hamiltonian_form(k, p) for k in (1, 2, 3)]
        xs = [lie_generator(i, p) for i in range(1, 7)]
        for h in hs:
            scale = max(1.0, np.abs(h.matrix).max())
            for i in (0, 1, 2):
                assert np.abs(symmetry_action_on_form(xs[i], h).matrix).max() < 1e-9 * scale
            acted = symmetry_action_on_form(xs[3], h).matrix
            assert np.abs(acted - h.matrix).max() < 1e-9 * scale


def test_action_value_is_directional_derivative(std_params, rng):
    # X(H)(s) must equal (X s) . grad H (s) pointwise
    for i in range(1, 7):
        X = lie_generator(i, std_params)
        h = pu6.hamiltonian_form(2, std_params)
        acted = symmetry_action_on_form(X, h)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=6)
            expected = (X @ s) @ h.gradient(s)
            assert acted(s) == pytest.approx(expected, rel=1e-12, abs=1e-8)
