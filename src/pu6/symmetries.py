"""The six Lie symmetry generators and their action on quadratic Hamiltonians.

All six generators have coefficient functions linear in the state, so each is
stored as a plain 6x6 matrix X acting by s -> X s.  The algebra is Abelian,
X1 is the dynamical flow itself, X4 is half the identity (Euler scaling), and
X5, X6 ladder the Hamiltonians up the conserved hierarchy.
"""
from __future__ import annotations

import numpy as np

from .core import DIM, PUParams, QuadraticForm, flow_operator


def lie_generator(i: int, p: PUParams) -> np.ndarray:
    """Generator X_i (i = 1..6) as a 6x6 matrix."""
    al, be, ga = p.alpha, p.beta, p.gamma
    X = np.zeros((DIM, DIM))
    if i == 1:
        return flow_operator(p)
    if i == 2:
        X[0, 1] = al
        X[0, 3] = 1.0
        X[1, 2] = al
        X[1, 4] = 1.0
        X[2, 3] = al
        X[2, 5] = 1.0
        X[3, 0] = -ga
        X[3, 2] = -be
        X[4, 1] = -ga
        X[4, 3] = -be
        X[5, 2] = -ga
        X[5, 4] = -be
        return X
    if i == 3:
        X[0, 1] = be
        X[0, 3] = al
        X[0, 5] = 1.0
        for r in range(1, DIM):
            X[r, r - 1] = -ga
        return X
    if i == 4:
        return 0.5 * np.eye(DIM)
    if i == 5:
        X[0, 0] = be
        X[0, 2] = al
        X[0, 4] = 1.0
        X[1, 1] = be
        X[1, 3] = al
        X[1, 5] = 1.0
        X[2, 0] = -ga
        X[3, 1] = -ga
        X[4, 2] = -ga
        X[5, 3] = -ga
        return 0.5 * X
    if i == 6:
        X[0, 0] = be * be - al * ga
        X[0, 2] = al * be - ga
        X[0, 4] = be
        X[1, 1] = be * be - al * ga
        X[1, 3] = al * be - ga
        X[1, 5] = be
        X[2, 0] = -ga * be
        X[2, 2] = -ga * al
        X[2, 4] = -ga
        X[3, 1] = -ga * be
        X[3, 3] = -ga * al
        X[3, 5] = -ga
        X[4, 0] = ga * ga
        X[5, 1] = ga * ga
        return 0.5 * X
    raise ValueError(f"lie_generator is defined for i in 1..6, got {i}")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator [a, b] = a b - b a.

    For generators with linear coefficients X s, the vector-field bracket is
    the matrix commutator with the opposite sign; the Abelian checks only use
    that zero is zero, which is convention-independent.
    """
    return a @ b - b @ a


def symmetry_action_on_form(x: np.ndarray, h: QuadraticForm) -> QuadraticForm:
    """Directional derivative X(H)(s) = (X s) . grad H(s) as a quadratic form.

    With the 1/2 evaluation convention the form matrix is X^T A + A X; ``core``
    builds H2 = X5(H1) and H3 = X6(H1) in this orientation, which reproduces
    the printed forms, and every other table entry is a check, not a choice.
    """
    return QuadraticForm(_action_matrix(x, h.matrix))


def _action_matrix(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Symmetrised X^T A + A X for stacked (..., 6, 6) operands: the matrix of X(H)."""
    m = np.swapaxes(x, -1, -2) @ a + a @ x
    return 0.5 * (m + np.swapaxes(m, -1, -2))
