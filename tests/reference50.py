"""A 50-digit reference model of the sixth-order PU oscillator, for tests only.

Everything here is recomputed with mpmath at ``mp.dps = 50`` from
(alpha, beta, gamma), independently of pu6's float arithmetic:

* F, J1..J3 and H1..H3, entry by entry from the formulas of ``pu6.core``,
  and the generators X1..X6 from those of ``pu6.symmetries``;
* the squared frequencies (the roots of x^3 - alpha x^2 + beta x - gamma)
  and the pair table m, s, r, den in ``pu6.core.PAIRS`` order;
* for tensor weights (c1, c2, c3): P(m) = c3 + c2 m + c1 m^2, the block
  prefactors m^2 / (P(m) den) and the Hamiltonian weights (c4, c5, c6) =
  V^-1 (m^2 / P(m)), V the Vandermonde matrix with rows (1, m, m^2);
* for Hamiltonian weights (c4, c5, c6): the prefactors (c4 + c5 m + c6 m^2)
  / den and lambda_min of each parity block of Hbar = c4 H1 + c5 H2 + c6 H3.

Inputs are floats or mpf; floats enter exactly.  The module lives under
``tests/`` so that the library itself does not depend on mpmath.
"""
from __future__ import annotations

from mpmath import mp, mpf

mp.dps = 50

PAIRS = ((1, 2), (1, 3), (2, 3))
EVEN, ODD = (0, 2, 4), (1, 3, 5)  # state slots even and odd under time reversal


def _symmetric(entries: dict) -> mp.matrix:
    a = mp.matrix(6, 6)
    for (i, j), v in entries.items():
        a[i, j] = a[j, i] = v
    return a


def _general(entries: dict, scale) -> mp.matrix:
    a = mp.matrix(6, 6)
    for (i, j), v in entries.items():
        a[i, j] = mpf(v) / scale
    return a


def _antisymmetric(entries: dict, scale) -> mp.matrix:
    a = mp.matrix(6, 6)
    for (i, j), v in entries.items():
        a[i, j], a[j, i] = v / scale, -v / scale
    return a


def hamiltonian_entries(al, be, ga) -> tuple:
    """The upper-triangle entries {(i, j): value} of H1..H3, for any number type or symbol."""
    return (
        {(0, 0): ga, (1, 1): be, (2, 2): -al, (3, 3): 1, (1, 3): al, (2, 4): -1, (1, 5): 1},
        {(0, 0): ga * be, (1, 1): be * be - ga * al, (2, 2): ga, (3, 3): al * al, (5, 5): 1,
         (0, 2): ga * al, (0, 4): ga, (1, 3): al * be - ga, (1, 5): be, (3, 5): al},
        {(0, 0): ga * be * be - ga * ga * al, (1, 1): be ** 3 + ga * ga - 2 * al * be * ga,
         (2, 2): ga * al * al, (3, 3): be * al * al - 2 * ga * al, (4, 4): ga, (5, 5): be,
         (0, 2): ga * al * be - ga * ga, (0, 4): ga * be, (1, 3): al * be * be - ga * (al * al + be),
         (1, 5): be * be - ga * al, (2, 4): ga * al, (3, 5): al * be - ga},
    )


def flow_entries(al, be, ga) -> dict:
    """The non-zero entries {(i, j): value} of the companion matrix F."""
    return {**{(i, i + 1): 1 for i in range(5)}, (5, 0): -ga, (5, 2): -be, (5, 4): -al}


def tensor_entries(al, be, ga) -> tuple:
    """(upper-triangle entries, scale) of J1..J3, each J_k the antisymmetric entries / scale.

    For any number type or symbol; the scales are 1, gamma and gamma^2.
    """
    ab = al * al - be
    d1 = al ** 3 - 2 * al * be + ga
    d2 = al ** 4 - 3 * al * al * be + 2 * al * ga + be * be
    return (
        ({(0, 5): 1, (1, 4): -1, (2, 3): 1, (2, 5): -al, (3, 4): al, (4, 5): ab}, 1),
        ({(0, 3): -1, (0, 5): al, (1, 2): 1, (1, 4): -al, (2, 3): al, (2, 5): -ab, (3, 4): ab,
          (4, 5): d1}, ga),
        ({(0, 1): 1, (0, 3): -al, (0, 5): ab, (1, 2): al, (1, 4): -ab, (2, 3): ab, (2, 5): -d1,
          (3, 4): d1, (4, 5): d2}, ga * ga),
    )


def generator_entries(al, be, ga) -> tuple:
    """(entries, scale) of the Lie generators X1..X6, each X_i its entries {(i, j): value} / scale.

    For any number type or symbol; X1 is the flow F and X4 half the identity.
    """
    b2 = be * be - al * ga
    ab = al * be - ga
    return (
        (flow_entries(al, be, ga), 1),
        ({(0, 1): al, (0, 3): 1, (1, 2): al, (1, 4): 1, (2, 3): al, (2, 5): 1,
          (3, 0): -ga, (3, 2): -be, (4, 1): -ga, (4, 3): -be, (5, 2): -ga, (5, 4): -be}, 1),
        ({(0, 1): be, (0, 3): al, (0, 5): 1, **{(r, r - 1): -ga for r in range(1, 6)}}, 1),
        ({(r, r): 1 for r in range(6)}, 2),
        ({(0, 0): be, (0, 2): al, (0, 4): 1, (1, 1): be, (1, 3): al, (1, 5): 1,
          (2, 0): -ga, (3, 1): -ga, (4, 2): -ga, (5, 3): -ga}, 2),
        ({(0, 0): b2, (0, 2): ab, (0, 4): be, (1, 1): b2, (1, 3): ab, (1, 5): be,
          (2, 0): -ga * be, (2, 2): -ga * al, (2, 4): -ga, (3, 1): -ga * be, (3, 3): -ga * al,
          (3, 5): -ga, (4, 0): ga * ga, (5, 1): ga * ga}, 2),
    )


class Reference50:
    """The model (alpha, beta, gamma) at 50 digits."""

    def __init__(self, alpha, beta, gamma):
        al, be, ga = mpf(alpha), mpf(beta), mpf(gamma)
        self.F = mp.matrix(6, 6)
        for (i, j), v in flow_entries(al, be, ga).items():
            self.F[i, j] = v
        self.H = tuple(_symmetric(h) for h in hamiltonian_entries(al, be, ga))
        self.J = tuple(_antisymmetric(j, scale) for j, scale in tensor_entries(al, be, ga))
        self.X = tuple(_general(x, scale) for x, scale in generator_entries(al, be, ga))
        roots = mp.polyroots([1, -al, be, -ga], extraprec=200)
        sq = sorted((mp.re(x) for x in roots), reverse=True)  # real for an oscillatory model
        self.squares = tuple(sq)
        # the pair table: one (m, s, r, den) per pair, r the remaining square
        self.pairs = tuple(
            (sq[j - 1] * sq[k - 1], sq[j - 1] + sq[k - 1], sq[5 - j - k],
             2 * (sq[j - 1] - sq[5 - j - k]) * (sq[k - 1] - sq[5 - j - k]))
            for j, k in PAIRS
        )

    def polynomials(self, c1, c2, c3) -> list:
        """P(m) = c3 + c2 m + c1 m^2 at the three pair products."""
        return [mpf(c3) + mpf(c2) * m + mpf(c1) * m * m for m, _, _, _ in self.pairs]

    def tensor_prefactors(self, c1, c2, c3) -> list:
        """The block prefactors m^2 / (P(m) den) of the Hamiltonian dual to (c1, c2, c3)."""
        return [m * m / (P * den) for P, (m, _, _, den) in
                zip(self.polynomials(c1, c2, c3), self.pairs)]

    def dual_weights(self, c1, c2, c3) -> list:
        """(c4, c5, c6) = V^-1 (m^2 / P(m)), V with rows (1, m, m^2)."""
        V = mp.matrix([[1, m, m * m] for m, _, _, _ in self.pairs])
        rhs = mp.matrix([m * m / P for P, (m, _, _, _) in
                         zip(self.polynomials(c1, c2, c3), self.pairs)])
        return list(mp.lu_solve(V, rhs))

    def prefactors(self, c4, c5, c6) -> list:
        """(c4 + c5 m + c6 m^2) / den, the block weights of Hbar."""
        return [(mpf(c4) + mpf(c5) * m + mpf(c6) * m * m) / den for m, _, _, den in self.pairs]

    def hbar(self, c4, c5, c6) -> mp.matrix:
        return mpf(c4) * self.H[0] + mpf(c5) * self.H[1] + mpf(c6) * self.H[2]

    def combined_flow(self, tensor, ham) -> mp.matrix:
        """Jbar Hbar for tensor weights (c1, c2, c3) and Hamiltonian weights (c4, c5, c6)."""
        c1, c2, c3 = (mpf(c) for c in tensor)
        return (c1 * self.J[0] + c2 * self.J[1] + c3 * self.J[2]) * self.hbar(*ham)

    def block_lambda_min(self, c4, c5, c6) -> tuple:
        """(lambda_min of the even block, of the odd block, max |eigenvalue| of Hbar)."""
        a = self.hbar(c4, c5, c6)
        spectra = [mp.eigsy(mp.matrix([[a[i, j] for j in idx] for i in idx]), eigvals_only=True)
                   for idx in (EVEN, ODD)]
        return (min(spectra[0]), min(spectra[1]), max(abs(x) for s in spectra for x in s))
