"""The positivity layer's float arithmetic against the 50-digit reference model.

At omegas (3, 2, 1) on the corners of the README scan grid, c1 = 1 and
(c2, c3) in {-30, 0} x {0, 150}.  Each bound is stated with the test; the
measured errors sit well inside them.
"""
import numpy as np
import pytest
from mpmath import mpf

import pu6
from reference50 import Reference50

EPS = np.finfo(float).eps
F3 = pu6.frequency_triple(3.0, 2.0, 1.0)
P3 = pu6.params_from_frequencies(F3)
REF = Reference50(P3.alpha, P3.beta, P3.gamma)
CORNERS = [(1.0, c2, c3) for c2 in (-30.0, 0.0) for c3 in (0.0, 150.0)]


def _err(got, want) -> np.ndarray:
    """|got - want| per entry, exactly (want at 50 digits), as floats."""
    return np.array([float(abs(mpf(float(g)) - w)) for g, w in zip(got, want)])


def test_reference_model_holds_its_own_identities():
    # 50-digit self-checks: the squares are (9, 4, 1), the closed-form weights
    # give the closed-form prefactors, and Jbar Hbar is the flow F
    assert [float(x) for x in REF.squares] == [9.0, 4.0, 1.0]
    for c in CORNERS:
        w = REF.dual_weights(*c)
        for a, b in zip(REF.prefactors(*w), REF.tensor_prefactors(*c)):
            assert abs(a - b) < mpf(10) ** -40 * abs(b)
        d = REF.combined_flow(c, w) - REF.F
        assert max(abs(d[i, j]) for i in range(6) for j in range(6)) < mpf(10) ** -40


def test_float_model_matrices_match_reference():
    # F, H1..H3 and X1..X6 are exact at integer (alpha, beta, gamma); J2 and J3 round once
    js, hs, F = pu6.core._model_matrices(P3)
    xs = [pu6.symmetries.lie_generator(i, P3) for i in range(1, 7)]
    for got, want in [(F, REF.F), *zip(hs, REF.H), *zip(js, REF.J), *zip(xs, REF.X)]:
        assert np.all(_err(got.ravel(), sum(want.tolist(), [])) <= EPS * np.abs(got.ravel()))


def test_derived_forms_match_reference_at_a_non_integer_model():
    # H2 = X5(H1) and H3 = X6(H1) round in their products: within 2 eps max|H_k| of the
    # printed polynomial entries at 50 digits (measured: 0, 0.36 eps and 0.46 eps)
    p = pu6.params_from_frequencies(pu6.frequency_triple(3.534, 2.101, 1.109))
    _, hs, _ = pu6.core._model_matrices(p)
    for got, want in zip(hs, Reference50(p.alpha, p.beta, p.gamma).H):
        assert np.all(_err(got.ravel(), sum(want.tolist(), [])) <= 2 * EPS * np.abs(got).max())


@pytest.mark.parametrize("c", CORNERS)
def test_tensor_weight_polynomials_match_reference(c):
    # bound: 2 eps (|c3| + |c2| m + |c1| m^2) per pair (measured: 0, the m are integers)
    m = F3.pairs[0]
    bound = 2 * EPS * (abs(c[2]) + abs(c[1]) * m + abs(c[0]) * m * m)
    assert np.all(_err(pu6.tensor_weight_polynomials(*c, F3), REF.polynomials(*c)) <= bound)


@pytest.mark.parametrize("c", CORNERS)
def test_coeffs_from_tensor_matches_reference(c):
    # bound: 1e-12 max|c_k| against V^-1 (m^2 / P(m)) (measured: at most 1.2e-13)
    want = REF.dual_weights(*c)
    got = pu6.coeffs_from_tensor(*c, P3).hamiltonian_weights
    assert np.all(_err(got, want) <= 1e-12 * max(abs(float(x)) for x in want))


@pytest.mark.parametrize("c", CORNERS)
def test_hbar_prefactors_match_reference(c):
    w = pu6.coeffs_from_tensor(*c, P3).hamiltonian_weights
    got = pu6.hbar_prefactors(*w, F3)
    # at the float weights: 2 eps (|c4| + |c5| m + |c6| m^2) / |den| (measured: 0.36 eps)
    m, _, _, den = F3.pairs
    scale = (abs(w[0]) + abs(w[1]) * m + abs(w[2]) * m * m) / np.abs(den)
    assert np.all(_err(got, REF.prefactors(*w)) <= 2 * EPS * scale)
    # through the duality, against m^2 / (P(m) den): 1e-12 max|prefactor| (measured: 2.6e-13)
    closed = REF.tensor_prefactors(*c)
    assert np.all(_err(got, closed) <= 1e-12 * max(abs(float(x)) for x in closed))


def test_eigenvalue_split_matches_reference():
    # at the float weights: |lambda_min - reference| <= 1e-15 ||A|| (measured: at most
    # 0.1 eps ||A||), one stacked call for the four corners, and the reference's verdict
    weights = np.array([pu6.coeffs_from_tensor(*c, P3).hamiltonian_weights for c in CORNERS])
    lam, positive = pu6.positivity.eigenvalue_split(weights.T, P3)
    for w, got, verdict in zip(weights, lam, positive):
        even, odd, norm = REF.block_lambda_min(*w)
        want = min(even, odd)
        assert _err([got], [want])[0] <= 1e-15 * float(norm)
        assert bool(verdict) == (want > mpf("1e-10") * norm)
    assert positive.tolist() == [False, True, False, False]
