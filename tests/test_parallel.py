"""The split rule and the split CSV writer: the same bytes on any part count, no child left behind."""
import io
import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pu6
from pu6 import parallel
from test_positivity import _counting_forks, _force_cpus, _no_child_left

MIN = parallel.MIN_PART_LINES
_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _row_counts(unit: int):
    """Row counts just below, at and just above 1, 2 and 3 parts of ``unit`` rows."""
    return st.builds(lambda k, d: max(k * unit + d, 1), st.integers(1, 3), st.integers(-1, 1))


def _trajectory(rows: int, seed: int):
    """A trajectory of ``rows`` random rows, with inf, -inf and NaN among its H values."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(1e-3, 1.0, rows))
    states = rng.normal(size=(rows, 6)) * 10.0 ** rng.integers(-300, 300, (rows, 6))
    hvals = [rng.normal(size=rows) * 10.0 ** rng.integers(-20, 20, rows) for _ in range(3)]
    for h in hvals:
        h[rng.integers(0, rows, 3)] = rng.choice([np.inf, -np.inf, np.nan], 3)
    return pu6.Trajectory(times=times, states=states, method="rk4"), hvals


def _parts(items: int, cpus: int, least: int) -> int:
    return min(cpus, max(items // least, 1))


@_SETTINGS
@given(cpus=st.integers(1, 4), n=st.integers(0, 10**6), least=st.integers(1, 10**5))
def test_split_cuts_contiguous_parts_of_at_least_least(monkeypatch, cpus, n, least):
    """One part per usable CPU, each of at least ``least`` items, covering [0, n) in order."""
    _force_cpus(monkeypatch, cpus)
    cuts = parallel.split(n, least)
    assert cuts[0] == 0 and cuts[-1] == n and len(cuts) - 1 == _parts(n, cpus, least)
    assert len(cuts) == 2 or min(np.diff(cuts)) >= least


@_SETTINGS
@given(cpus=st.sampled_from([2, 3]), rows=_row_counts(MIN), seed=st.integers(0, 2**32 - 1))
def test_trajectory_csv_bytes_do_not_depend_on_part_count(monkeypatch, cpus, rows, seed):
    """Row counts below, at and above the threshold on 2 and 3 CPUs give the one-part bytes."""
    traj, hvals = _trajectory(rows, seed)
    with monkeypatch.context() as m:
        _force_cpus(m, 1)
        one = io.StringIO()
        pu6.trajectory_csv(traj, hvals, one)
    with monkeypatch.context() as m:
        _force_cpus(m, cpus)
        forked = _counting_forks(m)
        split = io.StringIO()
        pu6.trajectory_csv(traj, hvals, split)
    assert len(forked) == _parts(rows, cpus, MIN) - 1
    assert split.getvalue() == one.getvalue()
    assert one.getvalue().count("\n") == rows + 1


def _scan_result(n1: int, n2: int, seed: int) -> pu6.positivity.RegionScanResult:
    """Random scan columns with singular cells (NaN prefactors and eigenvalue)."""
    rng = np.random.default_rng(seed)
    grid = pu6.GridSpec(pu6.positivity.AxisSpec("c2", -30.0, 0.0, n1),
                        pu6.positivity.AxisSpec("c3", 0.0, 150.0, n2), "c1", 1.0)
    xs, ys = rng.normal(size=n1) * 1e3, rng.normal(size=n2) * 1e-3
    verdict = rng.choice(np.array(["positive", "not_positive", "singular"]), n1 * n2)
    lam = rng.normal(size=n1 * n2)
    pref = rng.normal(size=(n1 * n2, 3)) * 10.0 ** rng.integers(-200, 200, (n1 * n2, 3))
    lam[verdict == "singular"] = np.nan
    pref[verdict == "singular"] = np.nan
    return pu6.positivity.RegionScanResult(
        grid, np.repeat(xs, n2), np.tile(ys, n1), verdict, lam, pref, np.zeros(n1 * n2, dtype=bool))


@_SETTINGS
@given(cpus=st.sampled_from([2, 3]), min_lines=st.sampled_from([1, 40, MIN]),
       n2=st.integers(1, 50), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_scan_csv_bytes_do_not_depend_on_part_count(monkeypatch, cpus, min_lines, n2, data, seed):
    """Cells split into 1, 2 or 3 parts, mid-row too, singular cells included, give the one-part bytes."""
    n1 = data.draw(_row_counts(-(-min_lines // n2)), label="n1")
    res = _scan_result(n1, n2, seed)
    monkeypatch.setattr(parallel, "MIN_PART_LINES", min_lines)
    with monkeypatch.context() as m:
        _force_cpus(m, 1)
        one = io.StringIO()
        res.write_csv(one)
    with monkeypatch.context() as m:
        _force_cpus(m, cpus)
        forked = _counting_forks(m)
        split = io.StringIO()
        res.write_csv(split)
    assert len(forked) == _parts(n1 * n2, cpus, min_lines) - 1
    assert split.getvalue() == one.getvalue()
    assert one.getvalue().count(",singular,nan,nan,nan,nan\n") == np.count_nonzero(
        res.verdict == "singular")


@_SETTINGS
@given(cpus=st.sampled_from([1, 2, 3]), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_split_writer_on_stdout(monkeypatch, capfd, cpus, rows, seed):
    """Written to a block-buffered stdout, the parts land once each and in order.

    The header sits in stdout's buffer when the children fork; a child that
    flushed what it inherited would print it twice.
    """
    traj, hvals = _trajectory(rows, seed)
    reference = io.StringIO()
    pu6.trajectory_csv(traj, hvals, reference)
    monkeypatch.setattr(parallel, "MIN_PART_LINES", 4)
    _force_cpus(monkeypatch, cpus)
    capfd.readouterr()
    with open(os.dup(1), "w") as stdout:  # block-buffered, as stdout is on a pipe
        monkeypatch.setattr(sys, "stdout", stdout)
        pu6.trajectory_csv(traj, hvals, sys.stdout)
    assert capfd.readouterr().out == reference.getvalue()


class _PartFailure(Exception):
    pass


@pytest.mark.parametrize("failing", ["child", "parent", "both"])
def test_a_failing_part_leaves_no_child(monkeypatch, failing):
    """A part that fails only in its child is run again here and gives the bytes of a clean run.

    A part that fails here too, and a part 0 that fails here, raise their
    own exception.  No child stays.
    """
    assert _no_child_left()
    parent = os.getpid()
    _force_cpus(monkeypatch, 3)

    def text(lo, hi):
        here = os.getpid() == parent
        if {"child": not here, "parent": here, "both": lo >= 2 * MIN}[failing]:
            raise _PartFailure(f"rows {lo}..{hi}")
        return "".join("%d\n" % row for row in range(lo, hi))

    out = io.StringIO()
    if failing == "child":
        parallel.write_rows(out, 3 * MIN, text)
        assert out.getvalue() == "".join("%d\n" % lo for lo in range(3 * MIN))
    else:
        with pytest.raises(_PartFailure):
            parallel.write_rows(out, 3 * MIN, text)
    assert _no_child_left()


def test_one_part_without_fork(monkeypatch):
    """Where ``os.fork`` is missing, every block is written in-process."""
    monkeypatch.delattr(os, "fork")
    _force_cpus(monkeypatch, 4)
    out = io.StringIO()
    parallel.write_rows(out, 4 * MIN + 1, lambda lo, hi: "%d %d\n" % (lo, hi))
    starts = range(0, 4 * MIN + 1, parallel.BLOCK)
    assert out.getvalue() == "".join("%d %d\n" % (lo, min(lo + parallel.BLOCK, 4 * MIN + 1))
                                     for lo in starts)
