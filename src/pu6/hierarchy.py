"""The infinite family H_n of conserved Hamiltonians and combined flows.

Three independent routes produce the same H_n:

* ladder route: the first row of M^(n-1) applied to (H1, H2, H3), where M is
  ``_ladder_matrix``, the 3x3 matrix of the X5 action on the Hamiltonian triple;
* closed-form route: the eigen-decomposition of M read off the frequency
  pair table, k = sum over pairs of (2 m^(n-2) / den) (r^2 m, -r s, 1)
  (refused for degenerate frequencies, where a block denominator den is 0);
* recursion route: A_{n+1} = J2^{-1} J1 A_n, inverting one constant tensor.

Linear combinations Jbar = c1 J1 + c2 J2 + c3 J3 and Hbar = c4 H1 + c5 H2 +
c6 H3, each summed by ``_weighted_sum``, reproduce the original flow exactly
when the coefficient triples are dual to each other; both directions are provided.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DIM,
    FrequencyTriple,
    PUParams,
    QuadraticForm,
    _model_matrices,
    canonical_units,
    frequencies_from_params,
)
from .errors import SingularCombination


@dataclass(frozen=True)
class CombinationCoeffs:
    """Weights of a combined tensor (c1..c3) and combined Hamiltonian (c4..c6)."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float

    @property
    def poisson_weights(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)

    @property
    def hamiltonian_weights(self) -> tuple[float, float, float]:
        return (self.c4, self.c5, self.c6)


def _ladder_matrix(p: PUParams) -> np.ndarray:
    """M with X5 (H1, H2, H3) = M (H1, H2, H3); its eigenvalues are the pair products m."""
    return np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [p.gamma ** 2, -p.alpha * p.gamma, p.beta]])


def _require_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"the hierarchy starts at n = 1, got {n}")


def hierarchy_coefficients(n: int, p: PUParams) -> np.ndarray:
    """Weights (k1,k2,k3) with H_n = k1 H1 + k2 H2 + k3 H3, via the ladder matrix."""
    _require_order(n)
    return np.linalg.matrix_power(_ladder_matrix(p), n - 1)[0]


def _closed_coefficients(n, f: FrequencyTriple) -> np.ndarray:
    """Weights of (H1,H2,H3) in H_n: sum over pairs of (2 m^(n-2) / den) (r^2 m, -r s, 1).

    m, s, r and den come from ``FrequencyTriple.pairs``.  n = 1, 2, 3
    reproduce H1, H2, H3 identically (the weights equal the first row of
    M^(n-1)); negative powers at small n are harmless for positive frequencies.
    Stacked n gives stacked weights, with a trailing axis of 3.
    """
    m, s, r, den = f.pairs
    weights = 2.0 * m ** (np.asarray(n)[..., None] - 2) / den
    return weights @ np.array([r * r * m, -r * s, np.ones(3)]).T


def hamiltonian_n_closed(n: int, p: PUParams) -> QuadraticForm:
    """H_n from the closed-form frequency coefficients (non-degenerate only)."""
    _require_order(n)
    f = frequencies_from_params(p)
    f.require_distinct("the closed-form route")
    _, hs, _ = _model_matrices(p)
    return QuadraticForm(_weighted_sum(_closed_coefficients(n, f), hs))


def _recursion(n: int, p: PUParams) -> list[np.ndarray]:
    """A_1..A_n by iterating A_{k+1} = J2^{-1} J1 A_k from A_1: one inversion, n - 1 steps.

    Each step checks that J2 A_{k+1} = J1 A_k holds and that the
    pre-symmetrisation matrix is already symmetric, both within 1e-8 of their
    own scale; a violation would mean the recursion structure is broken, not
    just rounded.
    """
    p.require_gamma()
    (j1, j2, _), (A, _, _), _ = _model_matrices(p)
    j2inv = np.linalg.inv(j2)
    chain = [A]
    for _ in range(n - 1):
        nxt = j2inv @ (j1 @ A)
        scale = np.abs(nxt).max()
        asym = np.abs(nxt - nxt.T).max()
        if asym > 1e-8 * scale:
            raise ArithmeticError(
                f"recursion produced a non-symmetric form (asymmetry {asym:.3e}, scale {scale:.3e})"
            )
        nxt = 0.5 * (nxt + nxt.T)
        resid = np.abs(j2 @ nxt - j1 @ A).max()
        if resid > 1e-8 * np.abs(j1 @ A).max():
            raise ArithmeticError(f"recursion residual {resid:.3e} exceeds tolerance")
        A = nxt
        chain.append(A)
    return chain


def hamiltonian_n_recursive(n: int, p: PUParams) -> QuadraticForm:
    """H_n by iterating A_{k+1} = J2^{-1} J1 A_k from A_1, each step checked.

    The recursion runs on the canonical model of ``canonical_units`` and is
    mapped back exactly, A_n = rho^(4n+2) D^-1 A_hat_n D^-1, so its checks do
    not depend on the frequency scale.
    """
    _require_order(n)
    rho, pc = canonical_units(p)
    k = np.arange(DIM)
    return QuadraticForm(_recursion(n, pc)[-1] * rho ** (4 * n + 2 - np.add.outer(k, k)))


def _duality_matrices(ham: np.ndarray, p: PUParams) -> np.ndarray:
    """T(c4,c5,c6), (..., 3, 3), for Hamiltonian weights (..., 3): e = T(c4,c5,c6) (c1,c2,c3).

    T is the bilinear map behind the combined flow, e_i = sum_ab T[i,a,b] c_(1+a) c_(4+b):
    (e1, e2, e3) are the weights of Jbar grad(Hbar) over X1, X2, X3.
    """
    p.require_gamma()
    al, be, ga = p.alpha, p.beta, p.gamma
    table = np.array([
        [[1.0, 0.0, 0.0], [al / ga, 1.0, 0.0], [(al * al - be) / ga ** 2, al / ga, 1.0]],
        [[0.0, 0.0, -ga], [-1.0 / ga, 0.0, 0.0], [-al / ga ** 2, -1.0 / ga, 0.0]],
        [[0.0, 1.0, be], [0.0, 0.0, 1.0], [1.0 / ga ** 2, 0.0, 0.0]],
    ])
    return (table @ ham[..., None, :, None])[..., 0]


def _dual_weights(ham: np.ndarray, p: PUParams):
    """``coeffs_dual`` for weights (n, 3): regular rows' tensor weights, (n,) mask, (n, 3) factors."""
    factors = _pair_quadratic(*ham.T, np.linalg.eigvals(_ladder_matrix(p).T))  # m: pair products
    scale = np.maximum(np.abs(ham).max(axis=1), np.abs(factors).max(axis=1))
    ok = ~(np.abs(factors).min(axis=1) < 1e-12 * np.maximum(scale, 1e-300))
    e1 = np.broadcast_to([[1.0], [0.0], [0.0]], (int(ok.sum()), 3, 1))  # e1 per system
    return np.linalg.solve(_duality_matrices(ham[ok], p), e1)[..., 0], ok, factors


def coeffs_dual(c4: float, c5: float, c6: float, p: PUParams) -> CombinationCoeffs:
    """Tensor weights (c1,c2,c3) dual to given Hamiltonian weights (c4,c5,c6).

    The combined flow of the result equals the original flow F: the weights
    solve the 3x3 system T(c4,c5,c6) (c1,c2,c3) = (1,0,0) of the duality
    table.  Its determinant is proportional to the product of
    c6 m^2 + c5 m + c4 over the three pairwise products m of squared
    frequencies; a vanishing factor means the chosen Hamiltonian combination
    is degenerate for that mode pair.
    """
    tensor, ok, factors = _dual_weights(np.array([[c4, c5, c6]], dtype=float), p)
    if not ok[0]:
        msg = f"denominator factor vanishes for (c4,c5,c6)=({c4},{c5},{c6}): factors {factors[0]}"
        raise SingularCombination(msg)
    return CombinationCoeffs(*tensor[0], c4, c5, c6)


def _pair_quadratic(a0, a1, a2, m) -> np.ndarray:
    """(a0 + a1 m) + (a2 m) m at the 3 pair products m; stacked a_k (...,) give (..., 3)."""
    a0, a1, a2 = (np.asarray(a)[..., None] for a in (a0, a1, a2))
    return a0 + a1 * m + a2 * m * m


def _weighted_sum(weights, mats) -> np.ndarray:
    """((0 + w1 M1) + w2 M2) + w3 M3; stacked weights (...,) give (..., *M_k.shape)."""
    return sum(np.multiply.outer(w, m) for w, m in zip(weights, mats))


def _span_weights(cols: np.ndarray, target: np.ndarray):
    """Least-squares weights (..., 3) of ``target`` (36,) over stacked (..., 36, 3) ``cols``.

    One SVD also gives the largest residual entry and the solvable mask: full
    rank (s_min > 36 eps s_max, lstsq's default rcond) and a residual within
    1e-8 of max|target|.  A system with a non-finite entry enters the SVD as
    zeros, so it is rank 0 with NaN weights.
    """
    finite = np.isfinite(cols).all(axis=(-2, -1))
    u, s, vt = np.linalg.svd(np.where(finite[..., None, None], cols, 0.0), full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 for an all-zero system
        w = (np.swapaxes(vt, -1, -2) @ ((target @ u) / s)[..., None])[..., 0]
        resid = np.abs((cols @ w[..., None])[..., 0] - target).max(axis=-1)
    full_rank = s[..., -1] > DIM * DIM * np.finfo(float).eps * s[..., 0]
    return w, resid, full_rank & (resid <= 1e-8 * np.abs(target).max())


def _tensor_duality(tensor, p: PUParams):
    """``_span_weights`` of F over Jbar A1..A3 for scalar or stacked tensor weights (c1,c2,c3)."""
    p.require_gamma()
    js, hs, F = _model_matrices(p)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite system is rank 0
        jbar = _weighted_sum(tensor, js)
        cols = np.stack([(jbar @ h).reshape(jbar.shape[:-2] + (DIM * DIM,)) for h in hs], axis=-1)
    return _span_weights(cols, F.ravel())


def coeffs_from_tensor(c1: float, c2: float, c3: float, p: PUParams) -> CombinationCoeffs:
    """Hamiltonian weights (c4,c5,c6) dual to given tensor weights (c1,c2,c3).

    Least squares on Jbar (c4 A1 + c5 A2 + c6 A3) = F, one cell of the solve
    ``region_scan`` runs per block; raises when the tensor combination cannot
    reproduce the flow (rank deficient, or residual above 1e-8 of max|F|).
    """
    ham, resid, ok = _tensor_duality((c1, c2, c3), p)
    if not ok:
        raise SingularCombination(
            f"tensor weights ({c1},{c2},{c3}) cannot reproduce the flow (residual {resid:.3e})"
        )
    return CombinationCoeffs(c1, c2, c3, *ham)


def combined_form(c: CombinationCoeffs, p: PUParams) -> QuadraticForm:
    """The combined Hamiltonian c4 H1 + c5 H2 + c6 H3 as a form."""
    return QuadraticForm(_weighted_sum(c.hamiltonian_weights, _model_matrices(p)[1]))


def combined_flow(c: CombinationCoeffs, p: PUParams) -> np.ndarray:
    """Jbar Abar, the combined flow; a ``c`` of equal-length arrays gives one flow per row."""
    p.require_gamma()
    js, hs, _ = _model_matrices(p)
    return _weighted_sum(c.poisson_weights, js) @ _weighted_sum(c.hamiltonian_weights, hs)


def flow_expansion_coefficients(c: CombinationCoeffs, p: PUParams) -> np.ndarray:
    """Weights (e1,e2,e3) with Jbar grad(Hbar) = e1 X1 + e2 X2 + e3 X3.

    The combined flow reproduces the original one exactly when
    (e1, e2, e3) = (1, 0, 0).  A ``c`` whose six fields are equal-length
    arrays gives stacked weights, with a trailing axis of 3.
    """
    ham = np.stack(c.hamiltonian_weights, axis=-1)
    tensor = np.stack(c.poisson_weights, axis=-1)
    return (_duality_matrices(ham, p) @ tensor[..., None])[..., 0]
