import numpy as np
import pytest

import pu6
from conftest import random_param_sets


def _ladder(p):
    """The ladder matrix M, whose rows are the coefficients of H2, H3, H4 over (H1, H2, H3)."""
    return np.array([pu6.hierarchy_coefficients(n, p) for n in (2, 3, 4)])


def test_ladder_matrix_rows(std_params):
    m = _ladder(std_params)
    np.testing.assert_array_equal(m[0], [0, 1, 0])
    np.testing.assert_array_equal(m[1], [0, 0, 1])
    np.testing.assert_array_equal(m[2], [1296.0, -504.0, 49.0])


def test_ladder_diagonalisation(std_params):
    # the eigenvalues of M are the pair products w_j^2 w_k^2 of squared frequencies
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(_ladder(std_params)).real),
                               [4.0, 9.0, 36.0], rtol=1e-12)


def test_ladder_coefficients_match_recursion_degenerate():
    # the ladder route works in every degeneracy class, unlike the closed form
    p = pu6.params_from_frequencies(pu6.frequency_triple(2, 2, 1))
    hs = [pu6.hamiltonian_form(k, p).matrix for k in (1, 2, 3)]
    for n in range(1, 8):
        k = pu6.hierarchy_coefficients(n, p)
        ladder = sum(w * h for w, h in zip(k, hs))
        rec = pu6.hamiltonian_n_recursive(n, p).matrix
        assert np.abs(ladder - rec).max() < 1e-10 * np.abs(rec).max()


def test_first_power_reproduces_ladder(std_params):
    np.testing.assert_allclose(pu6.hierarchy_coefficients(2, std_params), [0, 1, 0])


def test_closed_form_base_cases(std_params):
    for n in (1, 2, 3):
        closed = pu6.hamiltonian_n_closed(n, std_params).matrix
        direct = pu6.hamiltonian_form(n, std_params).matrix
        assert np.abs(closed - direct).max() < 1e-9 * max(1.0, np.abs(direct).max())


def test_closed_form_degenerate_refused():
    p = pu6.params_from_frequencies(pu6.frequency_triple(2, 2, 1))
    with pytest.raises(pu6.DegenerateFrequencies):
        pu6.hamiltonian_n_closed(4, p)


def test_recursion_base_cases(std_params):
    for n in (1, 2, 3):
        rec = pu6.hamiltonian_n_recursive(n, std_params).matrix
        direct = pu6.hamiltonian_form(n, std_params).matrix
        assert np.abs(rec - direct).max() < 1e-8 * max(1.0, np.abs(direct).max())


def test_recursion_gamma_zero():
    with pytest.raises(pu6.GammaZero):
        pu6.hamiltonian_n_recursive(2, pu6.PUParams(3.0, 3.0, 0.0))


def test_recursion_chain_is_flow(std_params):
    F = pu6.flow_operator(std_params)
    for n in (1, 2, 3):
        J = pu6.poisson_tensor(n, std_params).matrix
        A = pu6.hamiltonian_n_recursive(n, std_params).matrix
        assert np.abs(J @ A - F).max() < 1e-8


def test_two_recursion_tensor_routes_agree(std_params):
    # J3^-1 J2 A2 must equal J2^-1 J1 A2 (both advance the index by one)
    j1 = pu6.poisson_tensor(1, std_params).matrix
    j2 = pu6.poisson_tensor(2, std_params).matrix
    j3 = pu6.poisson_tensor(3, std_params).matrix
    a2 = pu6.hamiltonian_form(2, std_params).matrix
    r1 = np.linalg.solve(j2, j1 @ a2)
    r2 = np.linalg.solve(j3, j2 @ a2)
    assert np.abs(r1 - r2).max() < 1e-7 * max(1.0, np.abs(r1).max())


def test_route_agreement_to_n10(std_params, rng):
    sets = [std_params] + random_param_sets(rng, 10)
    for p in sets:
        f = pu6.frequencies_from_params(p)
        for n in range(1, 11):
            closed = pu6.hamiltonian_n_closed(n, p).matrix
            rec = pu6.hamiltonian_n_recursive(n, p).matrix
            blocks = pu6.hamiltonian_n_blocks(n, f).matrix
            scale = max(1.0, np.abs(closed).max())
            assert np.abs(closed - rec).max() < 1e-7 * scale
            assert np.abs(closed - blocks).max() < 1e-7 * scale


def test_hierarchy_conserved(std_params):
    F = pu6.flow_operator(std_params)
    for n in range(1, 11):
        A = pu6.hamiltonian_n_recursive(n, std_params).matrix
        sym = A @ F + F.T @ A  # d/dt H_n = 1/2 s^T (A F + F^T A) s
        assert np.abs(sym).max() < 1e-8 * max(1.0, np.abs(A @ F).max())


def test_ladder_action_defines_h4(std_params):
    # the two generator actions and the tensor recursion must agree on H4
    from pu6.symmetries import lie_generator, symmetry_action_on_form

    h3 = pu6.hamiltonian_form(3, std_params)
    h2 = pu6.hamiltonian_form(2, std_params)
    h4 = pu6.hamiltonian_n_recursive(4, std_params).matrix
    via_x5 = symmetry_action_on_form(lie_generator(5, std_params), h3).matrix
    via_x6 = symmetry_action_on_form(lie_generator(6, std_params), h2).matrix
    scale = max(1.0, np.abs(h4).max())
    assert np.abs(via_x5 - h4).max() < 1e-8 * scale
    assert np.abs(via_x6 - h4).max() < 1e-8 * scale


def test_hierarchy_involution(std_params):
    forms = [pu6.hamiltonian_n_recursive(n, std_params) for n in range(1, 6)]
    tensors = [pu6.poisson_tensor(k, std_params) for k in (1, 2, 3)]
    for j in tensors:
        for a in forms:
            for b in forms:
                br = pu6.poisson_bracket(a, b, j).matrix
                scale = max(1.0, np.abs(a.matrix).max() * np.abs(b.matrix).max())
                assert np.abs(br).max() < 1e-9 * scale


# ---------------------------------------------------------------------------
# combined flows and duality
# ---------------------------------------------------------------------------

def test_combined_flow_base_pairs(std_params):
    F = pu6.flow_operator(std_params)
    c = pu6.CombinationCoeffs(1, 0, 0, 1, 0, 0)
    assert np.abs(pu6.combined_flow(c, std_params) - F).max() < 1e-9
    c = pu6.CombinationCoeffs(0, 1, 0, 0, 1, 0)
    assert np.abs(pu6.combined_flow(c, std_params) - F).max() < 1e-9


def test_dual_of_pure_h1(std_params):
    c = pu6.coeffs_dual(1.0, 0.0, 0.0, std_params)
    np.testing.assert_allclose(c.poisson_weights, (1.0, 0.0, 0.0), atol=1e-14)


def test_dual_of_pure_h3(std_params):
    c = pu6.coeffs_dual(0.0, 0.0, 1.0, std_params)
    np.testing.assert_allclose(c.poisson_weights, (0.0, 0.0, 1.0), atol=1e-12)


def test_dual_ones_recovers_flow(std_params):
    c = pu6.coeffs_dual(1.0, 1.0, 1.0, std_params)
    F = pu6.flow_operator(std_params)
    assert np.abs(pu6.combined_flow(c, std_params) - F).max() < 1e-8
    np.testing.assert_allclose(
        pu6.flow_expansion_coefficients(c, std_params), [1.0, 0.0, 0.0], atol=1e-10
    )


def test_dual_singular_combination(std_params):
    # c4 = -w1^2 w2^2 s, c5 = s zeroes the (1,2) denominator factor
    s = 0.7
    with pytest.raises(pu6.SingularCombination, match=r"factors \[") as err:
        pu6.coeffs_dual(-36.0 * s, s, 0.0, std_params)
    # the message lists the three factors, so the degenerate mode pair can be read off
    _, _, factors = pu6.hierarchy._dual_weights(np.array([[-36.0 * s, s, 0.0]]), std_params)
    assert str(factors[0]) in str(err.value)


def test_dual_solve_gets_a_stack_of_right_hand_sides(std_params, rng, monkeypatch):
    # NumPy 1.x reads a (3, 1) b against (n, 3, 3) systems as n vectors and fails;
    # a b carrying the batch axis means the same to NumPy 1.x and 2.x
    solve = np.linalg.solve

    def strict_solve(a, b):
        assert np.ndim(b) == np.ndim(a) and np.shape(b)[:-1] == np.shape(a)[:-1]
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", strict_solve)
    for n in (0, 1, 5):
        tensor, regular, _ = pu6.hierarchy._dual_weights(rng.normal(size=(n, 3)), std_params)
        assert tensor.shape == (int(regular.sum()), 3)
    pu6.coeffs_dual(1.0, 2.0, 3.0, std_params)


@pytest.mark.parametrize("params", [(14.0, 49.0, 36.0), (1.0, -5.0, 1.0)])
def test_stacked_duality_cores_match_scalar_routines(params, rng):
    p = pu6.PUParams(*params)
    ham = rng.normal(size=(40, 3))
    ham[[3, 17]] = (-36.0 * 0.7, 0.7, 0.0)  # singular at (3, 2, 1), see above
    tensor, regular, _ = pu6.hierarchy._dual_weights(ham, p)
    duals = []
    for row in ham:
        try:
            duals.append(pu6.coeffs_dual(*row, p))
        except pu6.SingularCombination:
            duals.append(None)
    assert regular.tolist() == [c is not None for c in duals]
    assert regular[[3, 17]].tolist() == [params != (14.0, 49.0, 36.0)] * 2
    kept = [c for c in duals if c is not None]
    np.testing.assert_array_equal(tensor, [c.poisson_weights for c in kept])
    stacked = pu6.CombinationCoeffs(*tensor.T, *ham[regular].T)
    flows = pu6.combined_flow(stacked, p)
    e = pu6.flow_expansion_coefficients(stacked, p)
    np.testing.assert_array_equal(flows, [pu6.combined_flow(c, p) for c in kept])
    np.testing.assert_array_equal(e, [pu6.flow_expansion_coefficients(c, p) for c in kept])


def test_dual_random_draws_recover_flow(std_params, rng):
    F = pu6.flow_operator(std_params)
    done = 0
    while done < 50:
        c4, c5, c6 = rng.normal(size=3)
        try:
            c = pu6.coeffs_dual(c4, c5, c6, std_params)
        except pu6.SingularCombination:
            continue
        done += 1
        assert np.abs(pu6.combined_flow(c, std_params) - F).max() < 1e-8 * max(
            1.0, np.abs(F).max()
        )


def test_dual_formulas_match_linear_solve(rng):
    # the closed-form dual weights must agree with solving the flow equations,
    # in the oscillatory and the non-oscillatory regime alike
    for p in [pu6.PUParams(14.0, 49.0, 36.0), pu6.PUParams(1.0, -5.0, 1.0),
              pu6.PUParams(2.3, 0.7, 0.11)]:
        F = pu6.flow_operator(p)
        hs = [pu6.hamiltonian_form(k, p).matrix for k in (1, 2, 3)]
        js = [pu6.poisson_tensor(k, p).matrix for k in (1, 2, 3)]
        for _ in range(10):
            c4, c5, c6 = rng.normal(size=3)
            try:
                c = pu6.coeffs_dual(c4, c5, c6, p)
            except pu6.SingularCombination:
                continue
            abar = c4 * hs[0] + c5 * hs[1] + c6 * hs[2]
            cols = np.stack([(j @ abar).ravel() for j in js], axis=1)
            sol, *_ = np.linalg.lstsq(cols, F.ravel(), rcond=None)
            np.testing.assert_allclose(
                c.poisson_weights, sol, rtol=1e-7, atol=1e-9 * max(1.0, np.abs(sol).max())
            )


def test_coeffs_from_tensor_inverts_dual(std_params, rng):
    for _ in range(10):
        c4, c5, c6 = rng.normal(size=3)
        try:
            c = pu6.coeffs_dual(c4, c5, c6, std_params)
        except pu6.SingularCombination:
            continue
        back = pu6.coeffs_from_tensor(*c.poisson_weights, std_params)
        np.testing.assert_allclose(
            back.hamiltonian_weights, (c4, c5, c6), rtol=1e-7, atol=1e-9
        )
