import contextlib
import io
import json

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


def test_verify_reports_exhausted_dual_draws(tmp_path, monkeypatch):
    def always_singular(c4, c5, c6, p):
        raise pu6.SingularCombination("forced")

    monkeypatch.setattr(pu6.hierarchy, "coeffs_dual", always_singular)
    out = tmp_path / "report.json"
    code = cli.main(["--config", _write(tmp_path, "c.json", _model321()), "--out", str(out), "verify"])
    assert code == 1
    statuses = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert statuses.pop("dual_flow_recovery") == "fail"
    assert set(statuses.values()) == {"pass"}


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


def test_represent_complex_branch_exit_4(tmp_path):
    for kind in ("Ta1", "Tb1"):
        cfg = _model321()
        cfg["represent"] = {"kind": kind}
        code = cli.main(["--config", _write(tmp_path, "c.json", cfg), "represent"])
        assert code == 4, kind


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
