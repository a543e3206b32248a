"""Exact certificates: identities the float code relies on, proved over symbols.

sympy is a test-only dependency; the module is skipped without it.
"""
import numpy as np
import pytest

import pu6
from pu6.core import Degeneracy, FrequencyTriple
from pu6.hierarchy import _duality_matrices

sp = pytest.importorskip("sympy")
from pu6.verification import _ACTION_TABLE  # noqa: E402
from reference50 import flow_entries, generator_entries, hamiltonian_entries, tensor_entries  # noqa: E402


def test_closed_form_weights_solve_the_duality_table():
    """(c4, c5, c6) = V^-1 (m^2 / P(m)) gives T(c4, c5, c6) (c1, c2, c3) = (1, 0, 0) exactly.

    Over symbolic squared frequencies a > b > c, with pair products m_j
    (ab, ac, bc), V's rows (1, m_j, m_j^2) and P(m) = c3 + c2 m + c1 m^2.
    T is built by ``hierarchy._duality_matrices`` itself, from the model
    coefficients alpha = a + b + c, beta = ab + ac + bc, gamma = abc.  T is
    linear in the weights, so T(V^-1 g) = sum_j g_j T(u_j), u_j column j of
    V^-1 (the Lagrange coefficients at m_j).  The proof checks that each
    T(u_j) is the rank-one k_j (m_j^2, m_j, 1), whose product with
    (c1, c2, c3) is k_j P(m_j), and that sum_j m_j^2 k_j = (1, 0, 0): so with
    g_j = m_j^2 / P(m_j) the sum is (1, 0, 0) for every tensor weight where
    no P(m_j) vanishes.  This is the identity behind ``region_scan``'s
    closed-form weights.
    """
    a, b, c = sp.symbols("a b c", positive=True)
    p = pu6.PUParams(a + b + c, a * b + a * c + b * c, a * b * c)
    m = (a * b, a * c, b * c)
    total = np.zeros(3, dtype=object)
    for j in range(3):
        mj, mk, ml = m[j], m[j - 1], m[j - 2]
        u = np.array([mk * ml, -(mk + ml), 1], dtype=object) / ((mj - mk) * (mj - ml))
        t = _duality_matrices(u, p)
        k = t[:, 2]
        assert all(sp.cancel(x) == 0 for x in (t - np.outer(k, (mj * mj, mj, 1))).ravel()), j
        total = total + mj * mj * k
    assert [sp.cancel(x) for x in total] == [1, 0, 0]


def test_hbar_parity_blocks_are_congruences_of_the_prefactors():
    """Hbar's odd block is 2 U diag(d) U^T and its even block 2 U diag(d r) U^T, exactly.

    Over symbolic squared frequencies a > b > c and weights c4, c5, c6:
    Hbar = c4 H1 + c5 H2 + c6 H3 on the entries of ``hamiltonian_entries``
    (checked against ``core``'s float matrices in test_reference50.py), U
    the 3x3 matrix whose column for each pair is (m, s, 1), d the
    ``hbar_prefactors`` and r each pair's remaining square, all read from
    the pair table ``FrequencyTriple.pairs``.  The odd slots are (1, 3, 5)
    and the even ones (0, 2, 4), so by Sylvester's law of inertia Hbar is
    positive-definite exactly when every prefactor is.
    """
    a, b, c = sp.symbols("a b c", positive=True)
    ham = sp.symbols("c4 c5 c6")
    f = FrequencyTriple((sp.sqrt(a), sp.sqrt(b), sp.sqrt(c)), Degeneracy.NON_DEGENERATE)
    m, s, r, _ = f.pairs
    d = [sp.nsimplify(x, rational=True) for x in pu6.hbar_prefactors(*ham, f)]  # den's 2.0 is 2
    U = sp.Matrix([list(m), list(s), [1, 1, 1]])
    hbar = sp.zeros(6, 6)
    for w, entries in zip(ham, hamiltonian_entries(a + b + c, a * b + a * c + b * c, a * b * c)):
        h = sp.zeros(6, 6)
        for (i, j), v in entries.items():
            h[i, j] = h[j, i] = v
        hbar += w * h
    for slots, weights in (((1, 3, 5), d), ((0, 2, 4), [x * y for x, y in zip(d, r)])):
        block = hbar.extract(list(slots), list(slots))
        gap = block - 2 * U * sp.diag(*weights) * U.T
        assert all(sp.cancel(x) == 0 for x in gap), slots


def test_ta1_radicand_is_the_fully_coupled_family_polynomial():
    """``ta1_radicand``'s overflow-safe grouping expands to the family's radicand polynomial."""
    al, be, ga = sp.symbols("alpha beta gamma")
    radicand = (2 * al ** 3 * (9 * be + 4) - al ** 2 * (3 * be * (9 * be + 10) + 18 * ga + 8)
                + 2 * al * (be * (9 * be + 27 * ga + 8) + 12 * ga + 2) - 3 * al ** 4
                - 3 * (be + 3 * ga) ** 2 - 4 * be - 8 * ga - 1)
    assert sp.expand(pu6.ta1_radicand(pu6.PUParams(al, be, ga)) - radicand) == 0


def _matrix(entries: dict, mirror: int = 0) -> "sp.Matrix":
    """The 6x6 matrix of ``entries``, each also set at (j, i) times ``mirror`` when that is non-zero."""
    m = sp.zeros(6, 6)
    for (i, j), v in entries.items():
        m[i, j] = v
        if mirror:
            m[j, i] = mirror * v
    return m


def test_poisson_tensors_give_the_flow_with_their_determinants():
    """J_k H_k = F and det J_k = gamma^(4 - 4k), that is 1, gamma^-4, gamma^-8, exactly.

    Over symbolic (alpha, beta, gamma), on the entries of ``tensor_entries``,
    ``hamiltonian_entries`` and ``flow_entries`` (``test_reference50.py``
    checks them against ``core``'s float matrices).  ``verify``'s
    flow_equality and poisson_determinants checks test these identities in
    floating point.
    """
    al, be, ga = sp.symbols("alpha beta gamma")
    F = _matrix(flow_entries(al, be, ga))
    tensors = tensor_entries(al, be, ga)
    for k, ((j, scale), h) in enumerate(zip(tensors, hamiltonian_entries(al, be, ga)), 1):
        M = _matrix(j, -1)  # scale J_k, a polynomial matrix; scale = gamma^(k - 1)
        assert (M * _matrix(h, 1) - scale * F).expand() == sp.zeros(6, 6), k
        assert sp.expand(M.det(method="berkowitz") - scale ** 6 * ga ** (4 - 4 * k)) == 0, k


def _symmetry_gaps(generators, hamiltonians) -> list:
    """The identities of the Abelian algebra and of ``_ACTION_TABLE`` that do not hold exactly.

    [X_i, X_j] = 0 for every pair, and X_i(H_n) = H_m (H_0 the zero form),
    with X(H) the form matrix X^T A + A X of ``symmetries._action_matrix``
    (its symmetrisation leaves that sum unchanged for a symmetric A).
    """
    X = [_matrix(x) / scale for x, scale in generators]
    H = [sp.zeros(6, 6)] + [_matrix(h, 1) for h in hamiltonians]
    gaps = [f"[X{i + 1}, X{j + 1}]" for i in range(6) for j in range(i + 1, 6)
            if (X[i] * X[j] - X[j] * X[i]).expand() != sp.zeros(6, 6)]
    for i, n, m in _ACTION_TABLE.T.tolist():
        if (X[i - 1].T * H[n] + H[n] * X[i - 1] - H[m]).expand() != sp.zeros(6, 6):
            gaps.append(f"X{i}(H{n})")
    return gaps


def test_symmetry_algebra_and_action_table_hold_exactly():
    """The generators commute, and X_i maps H_n to the H_m of the paper's action table, exactly.

    Over symbolic (alpha, beta, gamma), on the entries of ``generator_entries``
    and ``hamiltonian_entries`` (``test_reference50.py`` checks both against
    the float matrices); ``verify``'s abelian_algebra and action_table checks
    test these identities in floating point.  A copy with one entry of X6
    moved fails both tables.
    """
    al, be, ga = sp.symbols("alpha beta gamma")
    hamiltonians = hamiltonian_entries(al, be, ga)
    generators = generator_entries(al, be, ga)
    assert _symmetry_gaps(generators, hamiltonians) == []
    x6, scale = generators[5]
    moved = (*generators[:5], ({**x6, (4, 0): x6[(4, 0)] + ga}, scale))
    gaps = _symmetry_gaps(moved, hamiltonians)
    assert "[X1, X6]" in gaps and "X6(H1)" in gaps, gaps
