"""Exact certificates: identities the float code relies on, proved over symbols.

sympy is a test-only dependency; the module is skipped without it.
"""
import numpy as np
import pytest

import pu6
from pu6.core import Degeneracy, FrequencyTriple
from pu6.hierarchy import _duality_matrices

sp = pytest.importorskip("sympy")
from reference50 import hamiltonian_entries  # noqa: E402  mpmath comes with sympy


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
