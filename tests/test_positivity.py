import csv
import io
import os
import warnings

import numpy as np
import pytest

import pu6
from conftest import random_param_sets


def test_block_value_at_unit_position(std_freqs):
    b = pu6.positive_block(1, 2, std_freqs)
    assert b(np.eye(6)[0]) == pytest.approx(1296.0)


def test_block_zero_at_origin(std_freqs):
    for (j, k) in ((1, 2), (1, 3), (2, 3)):
        assert pu6.positive_block(j, k, std_freqs)(np.zeros(6)) == 0.0


def test_block_rank_and_psd(std_freqs):
    for (j, k) in ((1, 2), (1, 3), (2, 3)):
        ev = np.linalg.eigvalsh(pu6.positive_block(j, k, std_freqs).matrix)
        norm = np.abs(ev).max()
        assert ev.min() >= -1e-9 * norm
        assert np.abs(ev[:4]).max() < 1e-8 * norm  # exactly 4 zeros
        assert ev[4] > 1e-8 * norm and ev[5] > 1e-8 * norm  # 2 positives


def test_block_symmetry_scalars(std_freqs, std_params):
    from pu6.symmetries import lie_generator, symmetry_action_on_form

    for (j, k) in ((1, 2), (1, 3), (2, 3)):
        block = pu6.positive_block(j, k, std_freqs)
        scale = np.abs(block.matrix).max()
        for i in range(1, 7):
            predicted = pu6.block_symmetry_action(i, j, k, std_freqs)
            acted = symmetry_action_on_form(lie_generator(i, std_params), block)
            assert np.abs(acted.matrix - predicted * block.matrix).max() < 1e-9 * scale


def test_block_scalar_values(std_freqs):
    assert pu6.block_symmetry_action(5, 1, 2, std_freqs) == pytest.approx(36.0)
    assert pu6.block_symmetry_action(4, 1, 3, std_freqs) == 1.0
    assert pu6.block_symmetry_action(2, 2, 3, std_freqs) == 0.0
    assert pu6.block_symmetry_action(6, 1, 2, std_freqs) == pytest.approx(1296.0)


def test_blocks_route_matches_direct(std_freqs, std_params):
    for n in (1, 2, 3):
        via_blocks = pu6.hamiltonian_n_blocks(n, std_freqs).matrix
        direct = pu6.hamiltonian_form(n, std_params).matrix
        assert np.abs(via_blocks - direct).max() < 1e-8 * max(1.0, np.abs(direct).max())


def test_blocks_route_degenerate_refused():
    f = pu6.frequency_triple(2, 2, 1)
    with pytest.raises(pu6.DegenerateFrequencies):
        pu6.hamiltonian_n_blocks(1, f)


def test_block_sum_identity(std_freqs, std_params, rng):
    sets = [(std_params, std_freqs)]
    for p in random_param_sets(rng, 20):
        sets.append((p, pu6.frequencies_from_params(p)))
    for p, f in sets:
        al, be, ga = p.alpha, p.beta, p.gamma
        lhs = sum(pu6.positive_block(j, k, f).matrix for (j, k) in ((1, 2), (2, 3), (1, 3)))
        rhs = 2.0 * (
            (al * al - 2 * be) * pu6.hamiltonian_form(1, p).matrix
            + (3.0 - al * be / ga) * pu6.hamiltonian_form(2, p).matrix
            + (al / ga) * pu6.hamiltonian_form(3, p).matrix
        )
        assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(lhs).max()


def test_identity_combination_has_unit_prefactors(std_freqs, std_params):
    al, be, ga = std_params.alpha, std_params.beta, std_params.gamma
    pref = pu6.hbar_prefactors(
        2 * (al * al - 2 * be), 2 * (3 - al * be / ga), 2 * al / ga, std_freqs
    )
    np.testing.assert_allclose(pref, [1.0, 1.0, 1.0], rtol=1e-12)


def test_prefactors_linear_and_zero(std_freqs):
    np.testing.assert_array_equal(pu6.hbar_prefactors(0, 0, 0, std_freqs), np.zeros(3))


def test_prefactor_expansion_exactness(std_freqs, std_params, rng):
    blocks = [pu6.positive_block(j, k, std_freqs).matrix for (j, k) in ((1, 2), (1, 3), (2, 3))]
    hs = [pu6.hamiltonian_form(k, std_params).matrix for k in (1, 2, 3)]
    for _ in range(50):
        c4, c5, c6 = rng.normal(size=3)
        pref = pu6.hbar_prefactors(c4, c5, c6, std_freqs)
        lhs = sum(w * b for w, b in zip(pref, blocks))
        rhs = c4 * hs[0] + c5 * hs[1] + c6 * hs[2]
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1e-300, np.abs(rhs).max())


def test_pure_h1_prefactor_values(std_freqs):
    # weights of H1 over the blocks: 1/(2(wi^2-wj^2)(wi^2-wk^2)) per pair
    pref = pu6.hbar_prefactors(1.0, 0.0, 0.0, std_freqs)
    np.testing.assert_allclose(pref, [1.0 / 48.0, -1.0 / 30.0, 1.0 / 80.0], rtol=1e-12)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_verdict_positive_point(std_freqs, std_params):
    c = pu6.coeffs_from_tensor(1.0, -18.0, 80.0, std_params)
    assert pu6.positivity_verdict(c, std_freqs).positive
    assert pu6.eigenvalue_verdict(c.hamiltonian_weights, std_params).positive


def test_verdict_indefinite_point(std_freqs, std_params):
    # the middle-pair polynomial 150 - 20 m + m^2 at m = 9 is +51, so the
    # (1,3) block carries a negative weight: two negative directions
    c = pu6.coeffs_from_tensor(1.0, -20.0, 150.0, std_params)
    v_pref = pu6.positivity_verdict(c, std_freqs)
    v_eig = pu6.eigenvalue_verdict(c.hamiltonian_weights, std_params)
    assert not v_pref.positive
    assert not v_eig.positive
    assert v_eig.min_eigenvalue < -1.0
    assert v_eig.witness is not None
    assert pu6.combined_form(c, std_params)(v_eig.witness) <= 0.0


def test_verdict_single_nonzero_weight_never_positive(std_freqs, std_params):
    for weights in ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0), (-2.0, 0, 0)):
        try:
            c = pu6.coeffs_from_tensor(*weights, std_params)
        except pu6.SingularCombination:
            continue
        v = pu6.eigenvalue_verdict(c.hamiltonian_weights, std_params)
        assert not v.positive, weights


def test_verdict_methods_agree_at_random_points(std_freqs, std_params, rng):
    checked = 0
    while checked < 40:
        c1 = rng.uniform(-2, 2)
        c2 = rng.uniform(-40, 10)
        c3 = rng.uniform(-50, 200)
        try:
            c = pu6.coeffs_from_tensor(c1, c2, c3, std_params)
            v_pref = pu6.positivity_verdict(c, std_freqs)
        except pu6.SingularCombination:
            continue
        v_eig = pu6.eigenvalue_verdict(c.hamiltonian_weights, std_params)
        pref = np.asarray(v_pref.prefactors)
        if np.abs(pref).min() <= 1e-8 * np.abs(pref).max():
            continue  # boundary band
        checked += 1
        assert v_pref.positive == v_eig.positive


def test_sign_pattern_of_middle_pair(std_freqs):
    # sorted squares (9, 4, 1): pair products 36, 9, 4; positivity demands
    # the polynomial c3 + c2 m + c1 m^2 positive at 36 and 4, negative at 9
    poly = pu6.tensor_weight_polynomials(1.0, -18.0, 80.0, std_freqs)
    assert poly[0] > 0 and poly[1] < 0 and poly[2] > 0


def test_degenerate_frequencies_rejected():
    f = pu6.frequency_triple(2, 2, 1)
    c = pu6.CombinationCoeffs(1, 1, 1, 1, 1, 1)
    with pytest.raises(pu6.DegenerateFrequencies):
        pu6.positivity_verdict(c, f)


# ---------------------------------------------------------------------------
# region scan
# ---------------------------------------------------------------------------

def _grid(ax1, ax2, fixed_name, fixed_value, n1, n2):
    return pu6.GridSpec(
        axis1=pu6.AxisSpec(ax1[0], ax1[1], ax1[2], n1),
        axis2=pu6.AxisSpec(ax2[0], ax2[1], ax2[2], n2),
        fixed_name=fixed_name,
        fixed_value=fixed_value,
    )


def test_scan_single_cell(std_freqs):
    grid = _grid(("c2", -18, -18), ("c3", 80, 80), "c1", 1.0, 1, 1)
    assert pu6.region_scan(grid, std_freqs).verdict.tolist() == ["positive"]


def test_scan_positive_region_nonempty(std_freqs):
    grid = _grid(("c2", -30, -5), ("c3", 10, 150), "c1", 1.0, 30, 30)
    res = pu6.region_scan(grid, std_freqs)
    assert res.positive_count() > 0
    # every disagreement sits inside the prefactor boundary band
    pref = np.abs(res.prefactors[res.methods_disagree])
    assert np.all(pref.min(axis=-1) <= 1e-8 * pref.max(axis=-1))


def test_scan_zero_plane_has_no_positive_cells(std_freqs):
    grid = _grid(("c2", -30, 10), ("c3", -50, 150), "c1", 0.0, 15, 15)
    res = pu6.region_scan(grid, std_freqs)
    assert res.positive_count() == 0


def test_scan_csv_format(std_freqs):
    grid = _grid(("c2", -20, -10), ("c3", 60, 100), "c1", 1.0, 2, 2)
    res = pu6.region_scan(grid, std_freqs)
    buf = io.StringIO()
    res.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "c_x,c_y,verdict,min_eigenvalue,prefactor_1,prefactor_2,prefactor_3"
    assert len(lines) == 5  # header + 4 cells


def test_scan_deterministic(std_freqs):
    grid = _grid(("c2", -25, -10), ("c3", 40, 120), "c1", 1.0, 5, 5)
    out1, out2 = io.StringIO(), io.StringIO()
    pu6.region_scan(grid, std_freqs).write_csv(out1)
    pu6.region_scan(grid, std_freqs).write_csv(out2)
    assert out1.getvalue() == out2.getvalue()


def _reference_scan(grid, f):
    """Per-cell reference: the duality, then each positivity route on its own.

    Returns the result columns by name and, per cell, the spectral norm of
    its combined form (NaN for singular cells).
    """
    p = pu6.params_from_frequencies(f)
    nan3 = (np.nan, np.nan, np.nan)
    rows, norms = [], []
    axes = [
        np.linspace(ax.lo, ax.hi, ax.n) if ax.n > 1 else np.array([0.5 * (ax.lo + ax.hi)])
        for ax in (grid.axis1, grid.axis2)
    ]
    for x in axes[0]:
        for y in axes[1]:
            w = {grid.axis1.name: float(x), grid.axis2.name: float(y),
                 grid.fixed_name: grid.fixed_value}
            try:
                c = pu6.coeffs_from_tensor(w["c1"], w["c2"], w["c3"], p)
                by_pref = pu6.positivity_verdict(c, f)
            except pu6.SingularCombination:
                rows.append((x, y, "singular", np.nan, nan3, False))
                norms.append(np.nan)
                continue
            by_eig = pu6.eigenvalue_verdict(c.hamiltonian_weights, p)
            rows.append((
                x, y, "positive" if by_pref.positive else "not_positive",
                by_eig.min_eigenvalue, by_pref.prefactors, by_pref.positive != by_eig.positive,
            ))
            norms.append(np.abs(np.linalg.eigvalsh(pu6.combined_form(c, p).matrix)).max())
    names = ("c_x", "c_y", "verdict", "min_eigenvalue", "prefactors", "methods_disagree")
    return {name: np.array(col) for name, col in zip(names, zip(*rows))}, np.array(norms)


@pytest.mark.parametrize(
    "grid, singular",
    [
        (_grid(("c2", -30, -5), ("c3", 10, 150), "c1", 1.0, 30, 30), 0),  # straddles the boundary
        # P_13 vanishes on the line c3 = -9 c2
        (_grid(("c2", -50, 50), ("c3", -150, 150), "c1", 0.0, 40, 40), 14),
        (_grid(("c1", -1, 1), ("c2", -2, 2), "c3", 0.0, 3, 5), 1),  # rank 0 at (0, 0, 0)
        (_grid(("c3", 80, 80), ("c2", -18, -18), "c1", 1.0, 1, 1), 0),
        # P_13 = -2.7e-4 leaves every prefactor positive, but lambda_min is only 8.3e-11
        # of the spectral norm, under the eigenvalue rule's 1e-10: the routes disagree
        (_grid(("c2", -28.99997, -28.99997), ("c3", 179.99946, 179.99946), "c1", 1.0, 1, 1), 0),
    ],
)
def test_scan_matches_per_cell_reference(std_freqs, grid, singular):
    """Exact verdicts and singular set; numbers within 1e-11 of the per-cell lstsq reference.

    The scan solves the duality by a stacked SVD rather than the per-cell
    ``lstsq``, so its eigenvalues and prefactors differ in the last bits
    (at most about 1e-12 of the scale on the benchmark grids).
    """
    res = pu6.region_scan(grid, std_freqs)
    ref, norms = _reference_scan(grid, std_freqs)
    assert res.verdict.size == ref["verdict"].size == grid.axis1.n * grid.axis2.n
    assert np.count_nonzero(res.verdict == "singular") == singular
    for name in ("c_x", "c_y", "verdict", "methods_disagree"):
        np.testing.assert_array_equal(getattr(res, name), ref[name], err_msg=name)
    live = ref["verdict"] != "singular"
    assert np.isnan(res.min_eigenvalue[~live]).all() and np.isnan(res.prefactors[~live]).all()
    lam_err = np.abs(res.min_eigenvalue[live] - ref["min_eigenvalue"][live])
    assert np.all(lam_err <= 1e-11 * norms[live]), lam_err.max()
    pref_err = np.abs(res.prefactors[live] - ref["prefactors"][live]).max(axis=-1)
    assert np.all(pref_err <= 1e-11 * np.abs(ref["prefactors"][live]).max(axis=-1)), pref_err.max()


def test_scan_and_verdicts_share_one_eigenvalue_oracle(std_freqs, std_params, monkeypatch):
    """``eigenvalue_split`` judges each scan block's weights as one stack, and every single form.

    The grid holds positive, non-positive and four singular cells, where a
    tensor-weight polynomial vanishes exactly (P_13 at (-15, 54), (-20, 99)
    and (-25, 144), P_23 at (-25, 84)).  With 7-cell blocks, which straddle
    the 8-cell rows, the scan makes one call per block, in order, over that
    block's non-singular cells, with the verdicts and disagreements of the
    per-cell routes, which call it once per cell.  One usable CPU keeps every
    block in this process, where the calls are counted.
    """
    calls = []
    split = pu6.positivity.eigenvalue_split

    def counted(weights, p):
        calls.append(np.shape(weights))
        return split(weights, p)

    _force_cpus(monkeypatch, 1)
    monkeypatch.setattr(pu6.positivity, "eigenvalue_split", counted)
    monkeypatch.setattr(pu6.positivity, "_SCAN_BLOCK", 7)
    grid = _grid(("c2", -30, -5), ("c3", 54, 159), "c1", 1.0, 6, 8)
    res = pu6.region_scan(grid, std_freqs)
    live = res.verdict != "singular"
    assert np.count_nonzero(~live) == 4 and 0 < res.positive_count() < live.sum()
    assert calls == [(3, live[i:i + 7].sum()) for i in range(0, live.size, 7)]
    calls.clear()
    ref, _ = _reference_scan(grid, std_freqs)
    assert calls == [(3,)] * live.sum()
    np.testing.assert_array_equal(res.verdict, ref["verdict"])
    np.testing.assert_array_equal(res.methods_disagree, ref["methods_disagree"])
    calls.clear()
    pu6.representation_positivity((98.0, -16.0, 0.4), std_params)
    assert calls == [(3,)]


README_GRID = _grid(("c2", -30, 0), ("c3", 0, 150), "c1", 1.0, 200, 200)


def _force_cpus(monkeypatch, n):
    """Make the process see ``n`` usable CPUs, wherever the scan reads them from."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _counting_forks(monkeypatch) -> list:
    """Record the pid of the process that makes each fork."""
    forked = []
    fork = os.fork

    def counted():
        forked.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forked


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("cpus", [2, 4])
def test_scan_csv_does_not_depend_on_part_count(std_freqs, monkeypatch, cpus):
    """The README grid gives the same CSV bytes on 2 and 4 usable CPUs as on one.

    Its 40 blocks of 1024 cells run as one contiguous part per CPU: this
    process runs the first and forked children the others, so a part that
    wrote outside its own slices of the shared columns would show in the
    bytes.  A large product first starts BLAS's threads, if it has any, and
    no child is left when the scan returns.
    """
    assert _no_child_left()
    a = np.ones((400, 400))
    a @ a
    texts = []
    for n in (1, cpus):
        _force_cpus(monkeypatch, n)
        assert pu6.parallel.usable_cpus(40) == n and pu6.parallel.usable_cpus(3) == min(n, 3)
        with monkeypatch.context() as m:
            forked = _counting_forks(m)
            res = pu6.region_scan(README_GRID, std_freqs)
        assert forked == [os.getpid()] * (n - 1) and _no_child_left()
        _force_cpus(monkeypatch, 1)
        buf = io.StringIO()
        res.write_csv(buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]
    assert texts[0].count("\n") == 1 + README_GRID.axis1.n * README_GRID.axis2.n


class _RowFailure(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 4])
def test_scan_row_exception_propagates(std_freqs, monkeypatch, cpus):
    """An exception raised in the block holding row 150 leaves ``region_scan`` with its own type.

    Row 150 is cells 30000..30199, in block 29 of 40.  On four CPUs that
    block lies in part 2, which a forked child runs: the child fails, and
    this process runs part 2 again and raises there.  No child is left.
    """
    assert _no_child_left()
    _force_cpus(monkeypatch, cpus)
    polynomials = pu6.positivity.tensor_weight_polynomials
    row150 = np.linspace(README_GRID.axis1.lo, README_GRID.axis1.hi, README_GRID.axis1.n)[150]
    seen = []

    def failing(c1, c2, c3, f):  # axis1 is c2
        seen.append(os.getpid())
        if row150 in c2:
            raise _RowFailure("row 150")
        return polynomials(c1, c2, c3, f)

    monkeypatch.setattr(pu6.positivity, "tensor_weight_polynomials", failing)
    forked = _counting_forks(monkeypatch)
    with pytest.raises(_RowFailure, match="row 150"):
        pu6.region_scan(README_GRID, std_freqs)
    assert len(forked) == cpus - 1 and _no_child_left()
    # this process ran part 0 (10 blocks) and part 2 again up to block 29, or all 30 blocks
    assert len(seen) == (20 if cpus == 4 else 30)


def test_scan_threshold_cell_agrees_with_per_cell_solve():
    """A cell whose duality residual sits at the bound gets the per-cell weights and verdict.

    At (c1, c2, c3) = (1, -11.30269773347182, 28.643845596032875) the 36x3
    residual is about 1.60e-7 against the bound 1.617e-7; an ``lstsq`` of
    the same system gave 1.629e-7 and called the cell singular.  It is not:
    at 50 digits P_13 = c3 + c2 m13 + c1 m13^2 = +3.29e-5, so the middle
    prefactor is negative (about -6.9e4) and the form is not positive.
    """
    f = pu6.frequency_triple(2.130662573341623, 1.513206935793438, 0.9192824061847678)
    c2, c3 = -11.30269773347182, 28.643845596032875
    p = pu6.params_from_frequencies(f)
    c = pu6.coeffs_from_tensor(1.0, c2, c3, p)
    assert pu6.tensor_weight_polynomials(1.0, c2, c3, f)[1] > 0.0
    grid = _grid(("c2", c2, c2), ("c3", c3, c3), "c1", 1.0, 1, 1)
    res = pu6.region_scan(grid, f)
    assert res.verdict.tolist() == ["not_positive"]
    assert not pu6.positivity_verdict(c, f).positive
    pref = pu6.hbar_prefactors(*c.hamiltonian_weights, f)
    np.testing.assert_allclose(res.prefactors[0], pref, rtol=1e-12)
    assert pref[1] < 0.0 < min(pref[0], pref[2])
    lam = pu6.eigenvalue_verdict(c.hamiltonian_weights, p).min_eigenvalue
    assert res.min_eigenvalue[0] == pytest.approx(lam, rel=1e-12) and lam < 0.0


def test_scan_rank_zero_grid_raises_no_warning(std_freqs):
    grid = _grid(("c1", -1, 1), ("c2", -2, 2), "c3", 0.0, 3, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = pu6.region_scan(grid, std_freqs).verdict
    assert np.count_nonzero(verdict == "singular") == 1


def test_stacked_duality_matches_per_cell_solve(std_params, rng):
    """The stacked duality solve agrees with coeffs_from_tensor, singular set included."""
    w = rng.normal(size=(3, 200)) * [[1.0], [20.0], [100.0]]
    # c3 + c2 m + c1 m^2 vanishing at the pair products 36, 9, 4, and the rank-0 cell
    zeros = np.array([[0, 0, 1, 1, 1, 0], [1, 1, -45, -13, -40, 0], [-9, -4, 324, 36, 144, 0]])
    w[:, :6] = zeros
    w[:, 6:66] = np.tile(zeros, 10) * (1 + rng.normal(size=(3, 60)) * 10.0 ** rng.uniform(-9, -4, 60))
    ham, _, solved = pu6.hierarchy._tensor_duality(tuple(w), std_params)
    assert 20 <= (~solved).sum() <= 100
    for cell, h, ok in zip(w.T, ham, solved):
        try:
            ref = pu6.coeffs_from_tensor(*cell, std_params).hamiltonian_weights
        except pu6.SingularCombination:
            assert not ok, cell
            continue
        assert ok, cell
        assert np.abs(h - ref).max() <= 1e-11 * np.abs(ref).max(), (cell, h, ref)


def test_scan_csv_matches_csv_writer_reference(std_freqs):
    grid = _grid(("c2", -50, 50), ("c3", -150, 150), "c1", 0.0, 40, 40)  # has singular cells
    res = pu6.region_scan(grid, std_freqs)
    ref = io.StringIO()
    w = csv.writer(ref, lineterminator="\n")
    w.writerow(
        ["c_x", "c_y", "verdict", "min_eigenvalue", "prefactor_1", "prefactor_2", "prefactor_3"]
    )
    for x, y, verdict, lam, pref in zip(
        res.c_x, res.c_y, res.verdict, res.min_eigenvalue, res.prefactors
    ):
        w.writerow([f"{x:.17g}", f"{y:.17g}", verdict, f"{lam:.17g}"] + [f"{v:.17g}" for v in pref])
    out = io.StringIO()
    res.write_csv(out)
    assert out.getvalue() == ref.getvalue()


@pytest.mark.parametrize(
    "grid, singular, small_blocks",
    [
        (README_GRID, 0, (7,)),
        (_grid(("c2", -30, 0), ("c3", 80, 80), "c1", 1.0, 2500, 1), 0, (1, 7)),
        (_grid(("c2", -18, -18), ("c3", 0, 150), "c1", 1.0, 1, 2500), 0, (1, 7)),
        (_grid(("c2", -50, 50), ("c3", -150, 150), "c1", 0.0, 40, 40), 14, (1, 7)),
    ],
    ids=["readme-200x200", "column-2500x1", "row-1x2500", "c1-zero-40x40"],
)
def test_scan_csv_does_not_depend_on_block_size(std_freqs, monkeypatch, grid, singular, small_blocks):
    """The CSV bytes are those of the default 1024-cell blocks for any block size.

    Blocks of 7 cells (straddling rows), of 200, of the whole grid and of one
    cell more than the grid give the same bytes on a square grid, a single
    column, a single row and a grid with singular cells.  One-cell blocks run
    on the three smaller grids only: the same code path, where the README
    grid would be 40 000 blocks.
    """
    def csv_text():
        buf = io.StringIO()
        pu6.region_scan(grid, std_freqs).write_csv(buf)
        return buf.getvalue()

    default = csv_text()
    cells = grid.axis1.n * grid.axis2.n
    assert default.count("\n") == 1 + cells
    assert default.count(",singular,") == singular
    for block in (*small_blocks, 200, cells, cells + 1):
        monkeypatch.setattr(pu6.positivity, "_SCAN_BLOCK", block)
        assert csv_text() == default, block


def test_stacked_weights_match_scalar_calls(std_freqs, std_params, rng):
    w = rng.normal(size=(3, 7)) * [[1.0], [20.0], [100.0]]

    def dual_factors(c4, c5, c6, _):  # coeffs_dual's denominator factors, one row per cell
        return pu6.hierarchy._dual_weights(np.column_stack([c4, c5, c6]), std_params)[2]

    for fn in (pu6.hbar_prefactors, pu6.tensor_weight_polynomials, dual_factors):
        stacked = fn(*w, std_freqs)
        assert stacked.shape == (7, 3)
        for row, cell in zip(stacked, w.T):
            np.testing.assert_array_equal(row, np.squeeze(fn(*cell, std_freqs)))
    # the factors are the prefactors' numerators c4 + c5 m + c6 m^2, up to the order of m
    numerators = pu6.hbar_prefactors(*w, std_freqs) * std_freqs.pairs[3]
    factors = dual_factors(*w, std_freqs)
    np.testing.assert_allclose(np.sort(factors.real), np.sort(numerators), rtol=1e-12,
                               atol=1e-12 * np.abs(numerators).max())


def test_grid_spec_validation():
    with pytest.raises(pu6.ConfigError):
        pu6.GridSpec(
            axis1=pu6.AxisSpec("c1", 0, 1, 2),
            axis2=pu6.AxisSpec("c1", 0, 1, 2),
            fixed_name="c3",
            fixed_value=1.0,
        )
    c2 = pu6.AxisSpec("c2", 0, 1, 2)
    for axis, fixed in ((pu6.AxisSpec("c1", 0, 1, 0), 1.0), (pu6.AxisSpec("c1", 1, 0, 2), 1.0),
                        (pu6.AxisSpec("c1", 0, 1, 2), float("nan"))):
        with pytest.raises(pu6.ConfigError, match="bad axis|fixed weight must be finite"):
            pu6.GridSpec(axis1=axis, axis2=c2, fixed_name="c3", fixed_value=fixed)
