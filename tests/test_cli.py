import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pu6
from pu6 import cli

# every verify report lists these checks, in this order
VERIFY_CHECKS = (
    "poisson_antisymmetry", "poisson_determinants", "flow_equality", "poisson_field_condition",
    "involution_base", "abelian_algebra", "action_table", "flow_symmetries", "hierarchy_routes",
    "hierarchy_conservation", "hierarchy_involution", "block_identity", "block_psd_rank",
    "block_symmetry_scalars", "expansion_exactness", "dual_flow_recovery",
    "ostrogradsky_consistency", "frequency_roundtrip",
)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _model321():
    return {"model": {"omegas": [3, 2, 1]}}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_happy_path(tmp_path):
    cfg = _model321()
    cfg["simulate"] = {"dt": 1e-3, "t_end": 20.0, "initial": [1, 0, -9, 0, 81, 0]}
    code = cli.main(
        ["--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "run"), "simulate"]
    )
    assert code == 0
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["method"] == "rk4"
    for key in ("H1", "H2", "H3"):
        assert summary["max_drift"][key] < 1e-8
    assert summary["divergent_mode_present"] is False
    header = (tmp_path / "run.csv").read_text().split("\n", 1)[0]
    assert header == "t,q,qdot,qddot,q3t,q4t,q5t,H1,H2,H3"


def test_simulate_flags_divergent_mode(tmp_path):
    cfg = {"model": {"omegas": [2, 2, 1]}}
    # t sin(2t) initial data excites the linearly growing mode
    cfg["simulate"] = {"dt": 1e-3, "t_end": 2.0, "initial": [0, 0, 4, 0, -32, 0]}
    code = cli.main(
        ["--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "run"), "simulate"]
    )
    assert code == 0
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["divergent_mode_present"] is True


def test_simulate_malformed_config(tmp_path):
    cfg = {"model": {"omegas": [3, 2, 1], "alpha": 1.0, "beta": 2.0, "gamma": 3.0}}
    code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "simulate"])
    assert code == 2


def test_simulate_missing_model(tmp_path):
    code = cli.main(["--config", _write(tmp_path, "c.json", {"simulate": {}}), "simulate"])
    assert code == 2


def test_simulate_byte_identical(tmp_path):
    cfg = _model321()
    cfg["simulate"] = {"dt": 1e-2, "t_end": 2.0, "initial": [1, 0, -9, 0, 81, 0]}
    cfgp = _write(tmp_path, "c.json", cfg)
    blobs = []
    for name in ("a", "b"):
        assert cli.main(["--config", cfgp, "--out", str(tmp_path / name), "simulate"]) == 0
        blobs.append((tmp_path / f"{name}.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_exact_method(tmp_path):
    cfg = _model321()
    cfg["simulate"] = {"dt": 1e-2, "t_end": 5.0, "initial": [1, 0, -9, 0, 81, 0],
                       "method": "exact"}
    code = cli.main(
        ["--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "ex"), "simulate"]
    )
    assert code == 0
    summary = json.loads((tmp_path / "ex.json").read_text())
    assert summary["method"] == "exact"
    assert max(summary["max_drift"].values()) < 1e-9


def test_simulate_overflow_exit_code(tmp_path):
    cfg = {
        "model": {"alpha": 0.0, "beta": 0.0, "gamma": -1.0},
        "simulate": {"dt": 0.1, "t_end": 30.0, "initial": [1e305, 0, 0, 0, 0, 0]},
    }
    code = cli.main(
        ["--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "x"), "simulate"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "omegas, sim, message",
    [  # finite states whose H overflow, an exact solution that overflows itself,
       # and an unstable quartic interaction
        ([1, 1, 1], {"dt": 0.1, "t_end": 20.0, "initial": [1e300] * 6}, "H overflowed at t=0"),
        ([1, 1, 1], {"method": "exact", "dt": 0.5, "t_end": 1e5, "initial": [1e300] * 6},
         "state overflowed at t=15947.5"),
        ([3, 2, 1], {"dt": 0.01, "t_end": 5.0, "initial": [10, 0, 0, 0, 0, 0],
                     "interaction": {"kind": "quartic", "lam": -100}},
         "state overflowed at t=1.55 (interaction term)"),
    ],
)
def test_simulate_overflow_exits_3_before_writing(tmp_path, capsys, omegas, sim, message):
    cfg = {"model": {"omegas": omegas}, "simulate": sim}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out",
                         str(tmp_path / "run"), "simulate"])
    assert code == 3
    assert capsys.readouterr().err == f"integration overflow: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


def test_simulate_overflowing_drift_exits_3(tmp_path, capsys):
    # H1 = -7 qdd^2 - q4t qdd vanishes at (0, 0, a, 0, -7a, 0); one step later its rounding,
    # about 1e25 for a = 1e20, over the 1e-300 floor overflows, though every H is finite
    cfg = {"model": {"omegas": [3, 2, 1]},
           "simulate": {"dt": 1e-3, "t_end": 1.0, "initial": [0, 0, 1e20, 0, -7e20, 0]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out",
                         str(tmp_path / "run"), "simulate"])
    assert code == 3
    assert capsys.readouterr().err == "integration overflow: H drift overflowed at t=0.001\n"
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


@pytest.mark.parametrize(
    "sim, message",
    [({"dt": -0.1}, "simulate needs dt > 0 and t_end > 0, got dt=-0.1, t_end=20.0"),
     ({"dt": 0.3, "t_end": 1.0},
      "simulate needs t_end to be a whole, non-zero number of steps dt, got t_end/dt 3.33333"),
     ({"dt": 0.5, "t_end": 0.2},
      "simulate needs t_end to be a whole, non-zero number of steps dt, got t_end/dt 0.4"),
     ({"dt": 1e-300, "t_end": 1e300},
      "simulate needs t_end to be a whole, non-zero number of steps dt, got t_end/dt inf")],
)
def test_simulate_step_count_messages(tmp_path, capsys, sim, message):
    cfg = _model321()
    cfg["simulate"] = sim
    assert cli.main(["--config", _write(tmp_path, "c.json", cfg), "simulate"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_standard_model(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["--config", _write(tmp_path, "c.json", _model321()), "--out", str(out), "verify"])
    assert code == 0
    report = json.loads(out.read_text())
    assert tuple(c["name"] for c in report["checks"]) == VERIFY_CHECKS
    assert report["all_passed"] is True
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_degenerate_skips(tmp_path):
    out = tmp_path / "report.json"
    cfg = {"model": {"omegas": [2, 2, 1]}}
    code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "verify"])
    assert code == 0
    report = json.loads(out.read_text())
    assert tuple(c["name"] for c in report["checks"]) == VERIFY_CHECKS
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["hierarchy_routes"] == "pass"
    assert statuses["block_identity"] == "skip"
    assert all(s in ("pass", "skip") for s in statuses.values())


@pytest.mark.parametrize("omegas", [(4, 3.87890625, 3.875), (400, 387.890625, 387.5)])
def test_verify_passes_with_close_pairs(tmp_path, omegas):
    # gaps of 0.1% and 3%: three distinct frequencies, not a double root
    out = tmp_path / "report.json"
    cfg = {"model": {"omegas": list(omegas)}}
    code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "verify"])
    assert code == 0
    checks = json.loads(out.read_text())["checks"]
    assert tuple(c["name"] for c in checks) == VERIFY_CHECKS
    assert all(c["status"] == "pass" for c in checks)


def test_verify_gamma_zero_fails(tmp_path):
    out = tmp_path / "report.json"
    cfg = {"model": {"alpha": 3.0, "beta": 3.0, "gamma": 0.0}}
    code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "verify"])
    assert code == 1
    report = json.loads(out.read_text())
    assert tuple(c["name"] for c in report["checks"]) == VERIFY_CHECKS
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing
    assert any("GammaZero" in c["detail"] for c in failing)


def test_verify_reports_rejected_dual_draws(tmp_path, monkeypatch):
    def always_singular(ham, p):  # the stacked core behind coeffs_dual, rejecting every row
        return np.empty((0, 3)), np.zeros(len(ham), dtype=bool), np.zeros_like(ham)

    monkeypatch.setattr(pu6.hierarchy, "_dual_weights", always_singular)
    out = tmp_path / "report.json"
    code = cli.main(["--config", _write(tmp_path, "c.json", _model321()), "--out", str(out), "verify"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    dual = checks.pop("dual_flow_recovery")
    assert dual["status"] == "fail"
    assert np.isnan(dual["residual"])
    assert dual["detail"] == "20 of 20 draws rejected"
    assert {c["status"] for c in checks.values()} == {"pass"}


def test_verify_zero_model_fails_with_a_full_report(tmp_path):
    out = tmp_path / "report.json"
    cfg = _write(tmp_path, "c.json", {"model": {"alpha": 0, "beta": 0, "gamma": 0}})
    with np.errstate(all="raise"):  # a zero operand scale must not warn
        assert cli.main(["--config", cfg, "--out", str(out), "verify"]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert tuple(c["name"] for c in checks) == VERIFY_CHECKS
    assert {c["name"]: c["status"] for c in checks}["abelian_algebra"] == "fail"


def test_verify_reports_every_check_when_the_recursion_fails(tmp_path, monkeypatch):
    def broken(n, p):
        raise ArithmeticError("forced recursion failure")

    monkeypatch.setattr(pu6.hierarchy, "_recursion", broken)
    out = tmp_path / "report.json"
    cfg = _write(tmp_path, "c.json", _model321())
    assert cli.main(["--config", cfg, "--out", str(out), "verify"]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert tuple(c["name"] for c in checks) == VERIFY_CHECKS
    failing = {c["name"]: c["detail"] for c in checks if c["status"] == "fail"}
    hierarchy_checks = ("hierarchy_routes", "hierarchy_conservation", "hierarchy_involution")
    assert failing == dict.fromkeys(hierarchy_checks, "forced recursion failure")


def test_verify_solves_the_cubic_once(monkeypatch):
    calls = []

    def counted(solve):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)
        return wrapper

    for module in (pu6.verification, pu6.hierarchy):
        solve = module.frequencies_from_params
        monkeypatch.setattr(module, "frequencies_from_params", counted(solve))
    pu6.run_invariant_suite(pu6.PUParams(14.0, 49.0, 36.0))
    assert len(calls) == 1


def _largest_entry_scaled(routine, index):
    """``routine`` with the largest entry of its ``index``-th matrix scaled by 1 + 1e-8.

    A Poisson tensor gets the mirrored entry scaled too, so it stays antisymmetric.
    """
    def broken(i, p):
        out = routine(i, p)
        if i != index:
            return out
        m = np.array(getattr(out, "matrix", out))
        k = np.unravel_index(np.abs(m).argmax(), m.shape)
        m[k] *= 1.0 + 1e-8
        if isinstance(out, pu6.PoissonTensor):
            m[k[::-1]] *= 1.0 + 1e-8
            return pu6.PoissonTensor(m, out.tag)
        return m
    return broken


@pytest.mark.parametrize(
    "module, routine, index, failing",
    [
        (pu6.core, "poisson_tensor", 2, {"flow_equality", "poisson_field_condition"}),
        (pu6.symmetries, "lie_generator", 5, {"abelian_algebra", "flow_symmetries"}),
    ],
)
def test_verify_fails_on_a_slightly_broken_routine(monkeypatch, module, routine, index, failing):
    # the model-matrix cache would carry a broken J2 into other tests
    pu6.core._model_matrices.cache_clear()
    monkeypatch.setattr(module, routine, _largest_entry_scaled(getattr(module, routine), index))
    try:
        results = pu6.run_invariant_suite(pu6.PUParams(14.0, 49.0, 36.0))
    finally:
        pu6.core._model_matrices.cache_clear()
    assert failing <= {r.name for r in results if r.status == "fail"}


def test_verify_deterministic_with_seed(tmp_path):
    cfgp = _write(tmp_path, "c.json", _model321())
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli.main(["--config", cfgp, "--out", str(out), "--seed", "5", "verify"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _model321())
    first, second, fresh = (tmp_path / name for name in ("r1.json", "r2.json", "r3.json"))
    argv = ["--config", cfg, "--out", str(first), "verify", "--seed", "7", "--tol", "1e-9"]
    assert cli.main(argv) == 0
    assert cli.main(["--config", cfg, "--out", str(second), "verify"]) == 0
    src = os.path.dirname(os.path.dirname(pu6.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run(
        [sys.executable, "-m", "pu6.cli", "--config", cfg, "--out", str(fresh), "verify"],
        env=env, check=True,
    )
    assert second.read_bytes() == fresh.read_bytes()
    assert json.loads(first.read_text())["seed"] == 7
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", cfg, "verify", "--seed", "seven"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert cli.main(["--config", cfg, "--out", str(second), "verify"]) == 0
    assert second.read_bytes() == fresh.read_bytes()


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_cfg(n1=2, n2=2, fixed=("c1", 1.0)):
    cfg = _model321()
    cfg["scan"] = {
        "axis1": {"name": "c2", "min": -25, "max": -10, "n": n1},
        "axis2": {"name": "c3", "min": 40, "max": 120, "n": n2},
        "fixed": {"name": fixed[0], "value": fixed[1]},
    }
    return cfg


def test_scan_row_count(tmp_path):
    out = tmp_path / "region.csv"
    code = cli.main(["--config", _write(tmp_path, "c.json", _scan_cfg(2, 2)), "--out", str(out), "scan"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5  # header + 4 rows


def test_scan_byte_identical(tmp_path):
    cfgp = _write(tmp_path, "c.json", _scan_cfg(6, 6))
    blobs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["--config", cfgp, "--out", str(out), "scan"]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_scan_zero_plane(tmp_path):
    out = tmp_path / "region.csv"
    cfg = _scan_cfg(8, 8, fixed=("c1", 0.0))
    code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "scan"])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert all(row.split(",")[2] != "positive" for row in rows)


def test_scan_bad_grid(tmp_path):
    cfg = _model321()
    cfg["scan"] = {"axis1": {"name": "c2", "min": 0, "max": 1, "n": 2}}
    code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "scan"])
    assert code == 2


def test_scan_summary_counts_disagreements(tmp_path, capsys):
    cfg = _model321()
    cfg["scan"] = {
        "axis1": {"name": "c2", "min": -28.99997, "max": -28.99997, "n": 1},
        "axis2": {"name": "c3", "min": 179.99946, "max": 179.99946, "n": 1},
        "fixed": {"name": "c1", "value": 1.0},
    }
    out = tmp_path / "region.csv"
    assert cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "scan"]) == 0
    assert capsys.readouterr().err == "1 positive of 1 cells; 1 method disagreements\n"


@pytest.mark.parametrize(
    "old, new", [('"min": -25', '"min": -1e400'), ('"value": 1.0', '"value": NaN')]
)
def test_scan_non_finite_grid(tmp_path, old, new):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_scan_cfg()).replace(old, new))
    out = tmp_path / "region.csv"
    assert cli.main(["--config", str(path), "--out", str(out), "scan"]) == 2
    assert not out.exists()


def _overcommits_always() -> bool:
    """Linux set to grant any allocation: there a huge grid would not fail at once."""
    try:
        with open("/proc/sys/vm/overcommit_memory") as fh:
            return fh.read().strip() == "1"
    except OSError:
        return False


@pytest.mark.skipif(_overcommits_always(), reason="allocations are granted, not refused")
@pytest.mark.parametrize("n1, n2", [(10 ** 12, 1), (10 ** 6, 10 ** 6)])
def test_scan_grid_too_large_for_memory_exits_2(tmp_path, capsys, n1, n2):
    """A 10^12-cell grid is a config error that names its size, not a traceback.

    Its first column (8 TB) is refused at once, before anything is written.
    """
    out = tmp_path / "region.csv"
    cfg = _write(tmp_path, "c.json", _scan_cfg(n1, n2))
    assert cli.main(["--config", cfg, "--out", str(out), "scan"]) == 2 and not out.exists()
    assert capsys.readouterr().err == (
        "config error: a scan grid of 1000000000000 cells does not fit in memory\n")


@pytest.mark.parametrize("omegas", [[2, 2, 1], [200, 200, 100], [2, 1, 1], [1, 1, 1]])
def test_scan_degenerate_frequencies_exit_2(tmp_path, capsys, omegas):
    """A scan needs distinct frequencies: a degenerate model is a config error, not exit 1.

    It is refused before the scan runs and before the output file is opened.
    """
    cfg = _scan_cfg()
    cfg["model"]["omegas"] = omegas
    out = tmp_path / "region.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "scan"])
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: scan needs pairwise distinct frequencies, got (")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# represent
# ---------------------------------------------------------------------------

def test_represent_ta2(tmp_path):
    cfg = _model321()
    cfg["represent"] = {"kind": "Ta2"}
    out = tmp_path / "rep.json"
    code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "represent"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["equivalence_pattern"] == ["PU", "PU", "PU"]
    assert payload["positivity"]["positive"] is True


def test_represent_tb1_real_branch(tmp_path):
    cfg = {
        "model": {"alpha": 1.0, "beta": -5.0, "gamma": 1.0},
        "represent": {"kind": "Tb1", "free_choices": {"tau2_branch": -1, "g3_branch": 1}},
    }
    out = tmp_path / "rep.json"
    code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "represent"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["equivalence_pattern"] == ["PU", "PU", "trivial"]
    assert payload["positivity"]["positive"] is False


def test_represent_to_redirected_stdout(tmp_path):
    cfg = _model321()
    cfg["represent"] = {"kind": "Ta2"}
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "represent"])
    assert code == 0
    assert json.loads(captured.getvalue())["equivalence_pattern"] == ["PU", "PU", "PU"]


@pytest.mark.parametrize("omegas, tol, code", [
    ([3, 2.0001, 2], ["--tol", "1e-3"], 1),  # distinct at the default tol, degenerate at 1e-3
    ([3, 2.0001, 2], [], 0),
    ([3, 2.0001, 2], ["--tol", "1e-12"], 0),
    ([3, 2 + 1e-10, 2], ["--tol", "1e-12"], 1),  # within the rounding floor at any tol
])
def test_represent_ta2_honours_tol(tmp_path, capsys, omegas, tol, code):
    """represent Ta2 refuses a triple for want of distinct frequencies exactly when scan does."""
    cfg = _scan_cfg()
    cfg["model"] = {"omegas": omegas}
    cfg["represent"] = {"kind": "Ta2"}
    argv = ["--config", _write(tmp_path, "c.json", cfg), *tol]
    assert cli.main(argv + ["--out", str(tmp_path / "o.json"), "represent"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: the decoupled family needs pairwise distinct frequencies, got (")
        assert err.count("\n") == 1 and not (tmp_path / "o.json").exists()
    assert cli.main(argv + ["--out", str(tmp_path / "o.csv"), "scan"]) == (2 if code else 0)


def test_represent_complex_branch_exit_4(tmp_path):
    for kind in ("Ta1", "Tb1"):
        cfg = _model321()
        cfg["represent"] = {"kind": kind}
        code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "represent"])
        assert code == 4, kind


def _represent_at_scale(tmp_path, warn, kind, k):
    """``represent kind`` at omegas (3, 2, 1) 10^k under warning filter ``warn``: (code, out path)."""
    cfg = {"model": {"omegas": [3 * 10.0 ** k, 2 * 10.0 ** k, 10.0 ** k]}, "represent": {"kind": kind}}
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "represent"])
    return code, out


@pytest.mark.parametrize("warn", ["default", "error"])
@pytest.mark.parametrize("k", [-20, -15, 15, 20])
def test_represent_ta2_far_from_unit_scale_stays_positive(tmp_path, warn, k):
    code, out = _represent_at_scale(tmp_path, warn, "Ta2", k)
    assert code == 0
    assert json.loads(out.read_text())["positivity"]["positive"] is True


@pytest.mark.parametrize("warn", ["default", "error"])
@pytest.mark.parametrize(
    "kind, k, message",
    [("Ta2", k, "weights of Ta2 leave the float range at frequency scale rho = 2^")
     for k in (22, 25, -24, -25, -30, -40, -50)],
)
def test_represent_out_of_float_range_exits_1(tmp_path, capsys, warn, kind, k, message):
    """rho^14 or a mapped weight leaves the float range: no traceback, no JSON."""
    code, out = _represent_at_scale(tmp_path, warn, kind, k)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("k", range(-30, -25))
def test_represent_tb1_far_below_unit_scale_is_a_complex_branch(tmp_path, capsys, k):
    """Below k = -26 tau2^6 overflows, yet the radicand's sign is exact: exit 4, one line, no JSON."""
    code, out = _represent_at_scale(tmp_path, "error", "Tb1", k)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("complex branch: two-equation family needs -2 tau2^2 - 2 beta tau2^4")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize(
    "kind, message",
    [("Ta1", "fully coupled family needs a radicand >= 0, got -inf"),
     ("Tb1", "two-equation family needs 1 + 8 alpha (gamma - alpha beta) >= 0, got "),
     ("Tc1", "single-equation family has negative radicand -inf")],
)
@pytest.mark.parametrize("k", [30, 40])
def test_represent_far_above_unit_scale_is_a_complex_branch(tmp_path, capsys, kind, message, k):
    """No real branch at omegas (3, 2, 1) 10^k: exit 4, one line, no JSON, no warning.

    Ta1's radicand is led by -27 (alpha beta - gamma)^2 (-1.14e367 at 60
    digits for k = 30): it overflows to -inf, never to OverflowError.
    """
    code, out = _represent_at_scale(tmp_path, "error", kind, k)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"complex branch: {message}") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# malformed input and the exit table
# ---------------------------------------------------------------------------

# a 2x2 scan section whose axis1 count is filled in
_SCAN_N = (
    '"scan": {"axis1": {"name": "c2", "min": -25, "max": -10, "n": %s}, '
    '"axis2": {"name": "c3", "min": 40, "max": 120, "n": 2}, "fixed": {"name": "c1", "value": 1}}'
)


@pytest.mark.parametrize(
    "text, command",
    [
        ('{"model": {"omegas": [3, "two", 1]}}', "verify"),
        ('{"model": {"alpha": "x", "beta": 49, "gamma": 36}}', "verify"),
        ('{"model": {"alpha": NaN, "beta": 49, "gamma": 36}}', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, "represent": {"kind": "Tx9"}}', "represent"),
        ('[{"model": {"omegas": [3, 2, 1]}}]', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, "seed": "x"}', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, "seed": -1}', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, "verify": {"n_random": "x"}}', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, "verify": [20]}', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, "tol": "x"}', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, "tol": NaN}', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"dt": NaN}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"dt": -0.1}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"t_end": Infinity}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"dt": 0.3, "t_end": 1.0}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"dt": 0.5, "t_end": 0.2}}', "simulate"),
        ('{"model": {"omegas": [2, 2, 1]}, "tol": -1.0}', "verify"),
        ('{"model": {"omegas": [2, 2, 1]}, "tol": -1.0, %s}' % (_SCAN_N % 2), "scan"),
        ('{"model": {"omegas": [2, 2, 1]}, "tol": -1.0}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"initial": [1, 0, 0, 0, 0]}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"initial": [1, 0, "x", 0, 0, 0]}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"initial": [1, 0, NaN, 0, 0, 0]}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"interaction": [1]}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"interaction": {"variable": 0.5}}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"interaction": {"lam": NaN}}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"interaction": {"kind": "poly", '
         '"coefficients": [0, 0, 0, NaN]}}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"interaction": {"kind": "quartc"}}}',
         "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"interaction": {"kind": "banana", '
         '"coefficients": [0, 0, 0, 1]}}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"method": "euler"}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}, "simulate": {"method": "exact", '
         '"interaction": {"lam": 0.01}}}', "simulate"),
        ('{"model": {"omegas": [3, 2, 1]}}', "scan"),
        ('{"model": {"omegas": [3, 2, 1]}, %s}' % (_SCAN_N % 0), "scan"),
        ('{"model": {"omegas": [3, 2, 1]}, %s}' % (_SCAN_N % 2).replace('"min": -25', '"min": 25'),
         "scan"),
        ('{"model": {"omegas": [3, 2, 1]}, "represent": {"free_choices": [1, 2]}}', "represent"),
        ('{"model": {"omegas": [3, 2, 1]}, "represent": {"kind": "Ta2", "free_choices": {"a": "xyz"}}}',
         "represent"),
        ('{"model": {"omegas": [3, 2, 1]}, "represent": {"kind": "Ta2", "free_choices": {"a": [1, 2]}}}',
         "represent"),
        ('{"model": {"omegas": [3, 2, 1]}, "represent": {"kind": "Ta2", "free_choices": {"perms": [1, 2, 3]}}}',
         "represent"),
        ('{"model": {"omegas": [3, 2, 1]}, "represent": {"kind": "Tc1", "free_choices": {"mu0": "x"}}}',
         "represent"),
        ('{"model": {"omegas": [3, 2, 1]}, "represent": {"kind": "Ta1", "free_choices": {"branch": "up"}}}',
         "represent"),
        ('{"model": {"omegas": [3, 2, 1]}, "represent": {"kind": "Tb1", "free_choices": {"g3_branch": 0}}}',
         "represent"),
        ('{"model": {"omegas": [3, 2, 1]}, "seed": 1.5}', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, "seed": true}', "verify"),
        ('{"model": {"omegas": [3, 2, 1]}, %s}' % (_SCAN_N % 2.7), "scan"),
        ('{"model": {"omegas": [3, 2, 1]}, %s}' % (_SCAN_N % "true"), "scan"),
        ('{"model": {"omegas": [3, 2, 1]}, %s}' % (_SCAN_N % 2).replace("1}", "true}"), "scan"),
        ('{"model": {"omegas": [3, 2, 1]}, "verify": {"n_random": -5}}', "verify"),
        ('{"model": 5}', "verify"),
        ('{"model": {"omegas": [true, 2, 1]}}', "verify"),
    ],
)
def test_malformed_input_exit_2(tmp_path, capsys, text, command):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "o.json"), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_unknown_interaction_kind_is_named(tmp_path, capsys):
    cfg = _model321()
    cfg["simulate"] = {"interaction": {"kind": "banana", "coefficients": [0, 0, 0, 1]}}
    assert cli.main(["--config", _write(tmp_path, "c.json", cfg), "simulate"]) == 2
    assert capsys.readouterr().err == (
        "config error: simulate.interaction.kind must be quartic, got 'banana'\n")


@pytest.mark.parametrize("command", ["simulate", "verify", "scan", "represent"])
def test_output_into_a_missing_directory_exits_2(tmp_path, capsys, command):
    """An output that cannot be opened is exit 2 with one line naming it, never a traceback."""
    cfg = {**_model321(), "represent": {"kind": "Ta2"}, **json.loads("{%s}" % (_SCAN_N % 2))}
    out = tmp_path / "missing" / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), command])
    path = f"{out}.csv" if command == "simulate" else str(out)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"output error: cannot write {path}: No such file or directory\n"


def test_failed_csv_part_exits_2_naming_the_output(tmp_path, capsys, monkeypatch):
    def failed(self, stream):
        raise OSError("the process formatting rows 1..2 exited with 1")

    monkeypatch.setattr(pu6.positivity.RegionScanResult, "write_csv", failed)
    out = tmp_path / "region.csv"
    cfg = _write(tmp_path, "c.json", _scan_cfg())
    assert cli.main(["--config", cfg, "--out", str(out), "scan"]) == 2
    assert capsys.readouterr().err == (
        f"output error: cannot write {out}: the process formatting rows 1..2 exited with 1\n")


def _header_then(error):
    """A ``write_csv`` that writes the CSV header and then raises ``error``."""
    def failed(self, stream):
        stream.write("c_x,c_y\n")
        raise error
    return failed


@pytest.mark.parametrize("existed", [False, True])
def test_failed_output_removes_only_a_file_it_created(tmp_path, capsys, monkeypatch, existed):
    monkeypatch.setattr(pu6.positivity.RegionScanResult, "write_csv",
                        _header_then(OSError("disk gone")))
    out = tmp_path / "partial.csv"
    if existed:
        out.write_text("a user's file\n")
    cfg = _write(tmp_path, "c.json", _scan_cfg())
    assert cli.main(["--config", cfg, "--out", str(out), "scan"]) == 2
    assert capsys.readouterr().err == f"output error: cannot write {out}: disk gone\n"
    assert out.exists() == existed  # an existing path is truncated, as any run truncates it


def test_output_removed_after_any_error_in_the_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(pu6.positivity.RegionScanResult, "write_csv",
                        _header_then(RuntimeError("bug")))
    out = tmp_path / "partial.csv"
    with pytest.raises(RuntimeError, match="bug"):
        cli.main(["--config", _write(tmp_path, "c.json", _scan_cfg()), "--out", str(out), "scan"])
    assert not out.exists()


def test_output_onto_a_directory_keeps_it(tmp_path, capsys):
    out = tmp_path / "region"
    out.mkdir()
    cfg = _write(tmp_path, "c.json", _scan_cfg())
    assert cli.main(["--config", cfg, "--out", str(out), "scan"]) == 2
    assert capsys.readouterr().err == f"output error: cannot write {out}: Is a directory\n"
    assert out.is_dir()


@pytest.mark.parametrize("csv_existed", [False, True])
def test_simulate_json_failure_removes_a_csv_it_created(tmp_path, capsys, csv_existed):
    cfg = {**_model321(), "simulate": {"dt": 0.1, "t_end": 1.0}}
    base = tmp_path / "run"
    (tmp_path / "run.json").mkdir()  # the summary cannot be written
    if csv_existed:
        (tmp_path / "run.csv").write_text("a user's file\n")
    assert cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(base),
                     "simulate"]) == 2
    assert capsys.readouterr() == ("", f"output error: cannot write {base}.json: Is a directory\n")
    assert (tmp_path / "run.csv").exists() == csv_existed
    assert (tmp_path / "run.json").is_dir()


def test_simulate_csv_failure_writes_neither_file(tmp_path, capsys, monkeypatch):
    def failed(traj, hvals, stream):
        stream.write("t,q,qdot,qddot,q3t,q4t,q5t,H1,H2,H3\n")
        raise OSError("the process formatting rows 5..10 exited with 1")

    monkeypatch.setattr(pu6.dynamics, "trajectory_csv", failed)
    cfg = {**_model321(), "simulate": {"dt": 0.1, "t_end": 1.0}}
    base = tmp_path / "run"
    assert cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(base),
                     "simulate"]) == 2
    assert capsys.readouterr().err == (
        f"output error: cannot write {base}.csv: the process formatting rows 5..10 exited with 1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize(
    "model",
    [{"alpha": 1e300, "beta": 1e300, "gamma": 1e300}, {"alpha": 1e160, "beta": 1, "gamma": 1},
     {"alpha": 3, "beta": 2, "gamma": 1e-300}, {"omegas": [1e-80, 2e-81, 1e-81]}],
)
@pytest.mark.parametrize("command", ["simulate", "verify", "scan", "Ta1", "Ta2", "Tb1", "Tc1"])
def test_out_of_range_model_exit_2(tmp_path, capsys, model, command):
    # overflowing scales, a gamma whose det J3 = gamma^-8 overflows, and positive
    # frequencies whose gamma underflows to 0
    cfg = {"model": model, "represent": {"kind": command}, **json.loads("{%s}" % (_SCAN_N % 2))}
    argv = ["--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv + [command if command in cli._COMMANDS else "represent"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: model out of range: ") and err.count("\n") == 1


def test_negative_tol_flag_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "c.json", {"model": {"omegas": [2, 2, 1]}})
    assert cli.main(["--config", path, "--tol", "-1", "--out", str(tmp_path / "o.json"), "verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tol ") and err.count("\n") == 1


def test_integral_float_counts_are_accepted(tmp_path):
    cfg = _scan_cfg(2, 2)
    cfg["scan"]["axis1"]["n"] = 2.0
    cfg["seed"] = 3.0
    out = tmp_path / "region.csv"
    assert cli.main(["--config", _write(tmp_path, "c.json", cfg), "--out", str(out), "scan"]) == 0
    assert len(out.read_text().strip().split("\n")) == 5


def test_config_value_keeps_integers_exact():
    assert pu6.errors.config_value(2 ** 70 + 1, "seed", int) == 2 ** 70 + 1
    assert pu6.errors.config_value((1, "2.5"), "pair", shape=(2,)) == (1.0, 2.5)
    with pytest.raises(pu6.ConfigError, match=r"pair\[1\] must be a finite real >= 0"):
        pu6.errors.config_value((1, -2), "pair", shape=(2,), minimum=0)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exit_table_covers_every_error():
    special = {
        pu6.ConfigError: 2,
        pu6.ComplexFrequencies: 2,
        pu6.DegenerateFrequencies: 1,
        pu6.NonFinite: 3,
        pu6.ComplexBranch: 4,
    }
    errors = list(_subclasses(pu6.Pu6Error))
    assert set(special) <= set(errors)
    assert {code for _, code, _ in cli.EXIT_TABLE} == {1, 2, 3, 4}
    for error in errors:
        assert cli.exit_status(error)[0] == special.get(error, 1), error
    assert cli.exit_status(FileNotFoundError) == (2, "output error")
