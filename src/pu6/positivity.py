"""Positive building blocks, definiteness criteria and region scanning.

Every combined Hamiltonian expands over three rank-2 positive blocks B_jk
(one per unordered frequency pair).  The six linear functionals inside the
blocks form a basis of the dual state space for distinct frequencies, so the
block expansion is a diagonalisation in disguise: the combination is
positive-definite exactly when all three block prefactors are positive
(Sylvester's law), and the eigenvalue route, ``eigenvalue_split`` on the
Hamiltonian weights of one form or a whole scan block, is kept as an
independent oracle for that criterion rather than a fallback.

The blocks, the prefactors (c4 + c5 m + c6 m^2) / den, the tensor-weight
polynomials c3 + c2 m + c1 m^2 and the block route of H_n all read the pair
product m, pair sum s, remaining square r and block denominator den from
the one pair table ``FrequencyTriple.pairs``, in ``PAIRS`` order.
"""
from __future__ import annotations

import math
import mmap
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
from .errors import ConfigError, SingularCombination, config_value
from .hierarchy import CombinationCoeffs, _pair_quadratic, _require_order, _tensor_duality, _weighted_sum
from .hierarchy import coeffs_from_tensor  # noqa: F401  perfbench/tests checks its rebinding here

_EIG_REL_TOL = 1e-10  # eigenvalue rule: positive iff lambda_min > _EIG_REL_TOL * spectral norm
_PARITY = np.array([[0, 2, 4], [1, 3, 5]])  # even and odd slots under time reversal
_BLOCKS = DIM * _PARITY[:, :, None] + _PARITY[:, None, :]  # flat indices of the 2 parity blocks
_SCAN_BLOCK = 1024  # grid cells per region_scan block
_FAR_BAND = 0.03  # region_scan's closed-form weights need min|P_jk| >= _FAR_BAND * max|P_jk|
_BLOCK_MACHINERY = "positive-block machinery"  # what the distinct-frequency rule names


@dataclass(frozen=True)
class PositivityVerdict:
    positive: bool
    prefactors: Optional[tuple[float, float, float]]
    witness: Optional[np.ndarray]
    min_eigenvalue: Optional[float] = None


def _pair_column(j: int, k: int, f: FrequencyTriple) -> list[float]:
    """Column (m, s, r, den) of the pair table for the unordered pair {j, k}."""
    if j == k or not {j, k} <= {1, 2, 3}:
        raise ValueError(f"block indices must be two distinct labels from 1..3, got ({j},{k})")
    return f.pairs[:, PAIRS.index((min(j, k), max(j, k)))].tolist()


def positive_block(j: int, k: int, f: FrequencyTriple) -> QuadraticForm:
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
    return QuadraticForm(A)


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
    _require_order(n)
    f.require_distinct(_BLOCK_MACHINERY)
    blocks = [positive_block(j, k, f).matrix for j, k in PAIRS]
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
    f.require_distinct(_BLOCK_MACHINERY)
    m, _, _, den = f.pairs
    return _pair_quadratic(c4, c5, c6, m) / den


def tensor_weight_polynomials(c1, c2, c3, f: FrequencyTriple) -> np.ndarray:
    """P_jk = c3 + c2 m + c1 m^2 at the three pair products, in ``PAIRS`` order.

    The sign of the block prefactor equals sign(P_jk) / sign of the pair
    denominator, so for a descending triple positivity reads
    P_12 > 0, P_13 < 0, P_23 > 0: an upward parabola in m that dips negative
    exactly at the middle pair product.  No triple with c1, c2 or c3 zero can
    realise that sign pattern.  Stacked weights give stacked results, with a
    trailing axis of 3.
    """
    f.require_distinct(_BLOCK_MACHINERY)
    return _pair_quadratic(c3, c2, c1, f.pairs[0])


def _polynomial_vanishes(poly: np.ndarray):
    """Singularity rule: some |P_jk| is below 1e-14 of the largest, along the trailing axis."""
    a = np.abs(poly)
    return a.min(axis=-1) < 1e-14 * np.maximum(1e-300, a.max(axis=-1))


def eigenvalue_split(weights, p: PUParams):
    """(lambda_min, lambda_min > 1e-10 max|eigenvalue|) of Hbar = c4 H1 + c5 H2 + c6 H3.

    ``weights`` (c4, c5, c6) are scalars or stacked like ``hbar_prefactors``'.
    Time reversal T = diag(1, -1, 1, -1, 1, -1) fixes every H_k exactly (no
    builder writes an entry with i + j odd), so Hbar is block-diagonal over
    the even slots (0, 2, 4) and the odd slots (1, 3, 5): its spectrum is
    the union of the two 3x3 blocks'.  ``_weighted_sum`` sums the blocks
    taken from H1..H3 on each call, so they hold the bits of the 6x6 sum's
    entries; one ``eigvalsh`` judges the (..., 2, 3, 3) stack.
    """
    blocks = [h.take(_BLOCKS) for h in _model_matrices(p)[1]]
    vals = np.linalg.eigvalsh(_weighted_sum(weights, blocks))
    lam = vals.min(axis=(-2, -1))
    return lam, lam > _EIG_REL_TOL * np.abs(vals).max(axis=(-2, -1))


def positivity_verdict(c: CombinationCoeffs, f: FrequencyTriple) -> PositivityVerdict:
    """Prefactor criterion: positive iff all three block weights exceed zero.

    Exact by Sylvester's law away from the boundary; ``eigenvalue_verdict``
    is the independent eigenvalue oracle for the same question.
    """
    poly = tensor_weight_polynomials(*c.poisson_weights, f)
    if _polynomial_vanishes(poly):
        raise SingularCombination(
            f"tensor-weight polynomial vanishes for {c.poisson_weights}: {poly}")
    pref = hbar_prefactors(c.c4, c.c5, c.c6, f)
    return PositivityVerdict(positive=bool(np.all(pref > 0.0)), prefactors=tuple(pref), witness=None)


def eigenvalue_verdict(weights: tuple[float, float, float], p: PUParams) -> PositivityVerdict:
    """Eigenvalue-route verdict on Hbar = c4 H1 + c5 H2 + c6 H3 with ``weights`` (c4,c5,c6).

    The verdict is ``eigenvalue_split``'s; only when the smallest eigenvalue
    is not positive is Hbar built, and its eigenvector (from ``eigh``)
    returned as witness.  It attaches no prefactors: the verdict needs none.
    """
    lam, positive = eigenvalue_split(weights, p)
    witness = np.linalg.eigh(_weighted_sum(weights, _model_matrices(p)[1]))[1][:, 0] if lam <= 0.0 else None
    return PositivityVerdict(positive=bool(positive), prefactors=None, witness=witness,
                             min_eigenvalue=float(lam))


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


@dataclass
class RegionScanResult:
    """Per-cell columns in row-major axis1-outer order; singular cells hold NaN."""

    grid: GridSpec
    c_x: np.ndarray
    c_y: np.ndarray
    verdict: np.ndarray  # positive | not_positive | singular
    min_eigenvalue: np.ndarray
    prefactors: np.ndarray  # shape (cells, 3)
    methods_disagree: np.ndarray

    def positive_count(self) -> int:
        return int(np.count_nonzero(self.verdict == "positive"))

    def write_csv(self, stream) -> None:
        """Header plus one line per cell, 17 significant digits, one write per axis1 value.

        In the row-major layout each axis value is formatted once: the c_y
        strings once per grid, each c_x string into its row's format string.
        The grid rows are formatted in contiguous parts, one per usable CPU
        (see ``parallel.write_rows``), with the same bytes on any CPU count.
        """
        stream.write("c_x,c_y,verdict,min_eigenvalue,prefactor_1,prefactor_2,prefactor_3\n")
        n = self.grid.axis2.n
        ys = ["%.17g" % y for y in self.c_y[:n].tolist()]
        cols = (self.verdict, self.min_eigenvalue, *self.prefactors.T)

        def text(lo: int, hi: int) -> str:
            out = []
            for start in range(lo * n, hi * n, n):
                line = "%.17g,%%s,%%s,%%.17g,%%.17g,%%.17g,%%.17g\n" % self.c_x[start]
                rows = zip(ys, *(c[start:start + n].tolist() for c in cols))
                out.append("".join(line % row for row in rows))
            return "".join(out)

        from .parallel import write_rows  # imported here: verify and represent never load it
        write_rows(stream, self.verdict.size // n, text, lines=n)


def _axis_values(ax: AxisSpec) -> np.ndarray:
    if ax.n == 1:
        return np.array([0.5 * (ax.lo + ax.hi)])
    return np.linspace(ax.lo, ax.hi, ax.n)


def region_scan(grid: GridSpec, f: FrequencyTriple) -> RegionScanResult:
    """Evaluate both positivity routes on every grid cell.

    Each block of ``_SCAN_BLOCK`` row-major cells gets the tensor-weight
    polynomials, the Hamiltonian weights, the singularity mask, the
    prefactors and one ``eigenvalue_split`` on its non-singular cells.  A
    singular tensor combination is a cell status, not an abort.  The two
    routes may disagree only in the band where a prefactor crosses zero.

    The weights take one of two routes.  A cell far from that band, where
    min|P_jk| >= ``_FAR_BAND`` (0.03) max|P_jk| with max|P_jk| finite and
    non-zero, gets the closed form V^-1 (m^2 / P(m)): V has rows
    (1, m, m^2) over the pair products, is inverted once per grid, and
    ``_weighted_sum`` applies it elementwise.  Every other cell (near-band,
    rank-0, or with non-finite closed-form weights) gets the 36x3 least
    squares of ``coeffs_from_tensor`` (``hierarchy._tensor_duality``),
    stacked over those cells, so its weights, singular verdict and CSV row
    keep that solve's bits.  The benchmark's scan check recomputes cells
    with that least squares at a 1e-10 eigenvalue bound.  Over all cells of
    scan-grid seeds 101-120, those in [0.03, 0.1) sit within 0.157x that
    bound and 0.017x the prefactor bound; [0.01, 0.03) reaches 0.558x and
    [0.001, 0.01) 3.3x.  The cut leaves 5-10 % of those grids' cells, and a
    third of the README grid's, on the least squares.  It stays there because
    that reference shares its rounding: near the band both miss the 50-digit
    lambda_min by up to 10x the bound, the closed form by 0.094x at most.

    The blocks are split into contiguous parts, one per usable CPU, run side
    by side by ``parallel.run_parts``; the columns live in one anonymous
    shared mapping, the verdict as uint8 codes.  Most of a block is short
    numpy calls that hold the GIL, so threads would share one CPU; forked
    parts do not.  Blocks bound the temporaries (scan-grid's peak RSS:
    126.1 MB at 1024 cells, 131.4 MB at 4096).  Stacked LAPACK calls treat
    each matrix on its own and the closed form is elementwise, so every
    cell's bits, and the CSV, depend on neither the block size nor the part
    count.  An exception in a block propagates with its own type.
    """
    from .parallel import run_parts, usable_cpus

    f.require_distinct(_BLOCK_MACHINERY)
    p = params_from_frequencies(f)
    m = f.pairs[0]
    vinv_cols = np.linalg.inv(np.vander(m, 3, increasing=True)).T  # column j of V^-1 pairs with m_j
    count = grid.axis1.n * grid.axis2.n
    try:  # mmap reports a mapping too large for memory as an OSError
        xs, ys = _axis_values(grid.axis1), _axis_values(grid.axis2)
        c_x, c_y = np.repeat(xs, ys.size), np.tile(ys, xs.size)
        shared = mmap.mmap(-1, 34 * count)
    except (MemoryError, OSError):
        raise ConfigError(f"a scan grid of {count} cells does not fit in memory") from None
    floats = np.ndarray((4, count), np.float64, shared)  # min_eigenvalue, prefactors
    flags = np.ndarray((2, count), np.uint8, shared, 32 * count)  # verdict code, disagreement

    def fill_part(i: int) -> None:
        for start in range(cuts[i], cuts[i + 1], _SCAN_BLOCK):
            cells = slice(start, start + _SCAN_BLOCK)
            block = {grid.axis1.name: c_x[cells], grid.axis2.name: c_y[cells],
                     grid.fixed_name: grid.fixed_value}
            tensor = np.broadcast_arrays(*(block[n] for n in _AXIS_NAMES))
            poly = tensor_weight_polynomials(*tensor, f)
            size = np.abs(poly)
            big = size.max(axis=-1)
            far = (size.min(axis=-1) >= _FAR_BAND * big) & (0.0 < big) & (big < np.inf)
            ham = np.empty(poly.shape)
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite cell goes to the solve
                ham[far] = _weighted_sum((m * m / poly[far]).T, vinv_cols)
            far[far] = np.isfinite(ham[far]).all(axis=-1)
            ok = far.copy()
            ham[~far], _, ok[~far] = _tensor_duality([t[~far] for t in tensor], p)
            ok &= ~_polynomial_vanishes(poly)
            weights = ham[ok].T
            pref = hbar_prefactors(*weights, f)
            lam, by_eig = eigenvalue_split(weights, p)
            by_pref = np.all(pref > 0.0, axis=-1)
            # basic slices are views, so each masked write lands in the shared columns
            floats[:, cells], flags[:, cells] = np.nan, 0
            floats[0, cells][ok] = lam
            floats[1:, cells].T[ok] = pref
            flags[0, cells][ok] = np.where(by_pref, 1, 2)
            flags[1, cells][ok] = by_pref != by_eig

    blocks = -(-count // _SCAN_BLOCK)
    parts = usable_cpus(blocks)
    cuts = [_SCAN_BLOCK * (blocks * i // parts) for i in range(parts + 1)]
    run_parts(parts, fill_part)
    verdict = np.array(["singular", "positive", "not_positive"])[flags[0]]
    return RegionScanResult(grid, c_x, c_y, verdict, floats[0], floats[1:].T, flags[1].view(bool))
