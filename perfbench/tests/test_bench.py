"""Tests of the benchmark's own parts: generator, correctness checks, spans.

Run with: python3 -m pytest perfbench/tests
"""
import json
import os
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import run
import spans
from pu6 import cli

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _configs(directory):
    return {name: Path(directory, name).read_text() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, name):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    wa, wb = gen.generate(name, 7, str(a)), gen.generate(name, 7, str(b))
    gen.generate(name, 8, str(c))
    assert _configs(a) == _configs(b)
    assert _configs(a) != _configs(c)
    assert [(x.kind, x.expected_exit, x.allowed_exits, x.work) for x in wa.calls] == [
        (x.kind, x.expected_exit, x.allowed_exits, x.work) for x in wb.calls
    ]


def test_model_suite_composition_is_seed_independent(tmp_path):
    def classes(seed):
        d = tmp_path / str(seed)
        d.mkdir()
        return sorted(x.input_class for x in gen.generate("model-suite", seed, str(d)).calls)

    assert classes(1) == classes(2)
    assert len(classes(3)) == 350


def _small_scan(tmp_path):
    w = gen.generate("scan-grid", 3, str(tmp_path))
    call = w.calls[0]
    meta = json.loads(json.dumps(call.meta))
    for axis in ("axis1", "axis2"):
        meta["scan"][axis]["n"] = 14
    cfg = {"model": {"omegas": meta["omegas"]}, "scan": meta["scan"]}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "small.csv"
    assert cli.main(["--config", str(path), "--out", str(out), "scan"]) == 0
    return out.read_text(), checks.ScanReference(meta, 3)


def test_scan_check_accepts_program_output(tmp_path):
    text, ref = _small_scan(tmp_path)
    problems, counts = checks.check_scan(text, ref)
    assert problems == []
    assert counts["positive"] > 0 and counts["not_positive"] > 0


def test_scan_check_flags_flipped_verdict(tmp_path):
    text, ref = _small_scan(tmp_path)
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if ",positive," in line)
    lines[row] = lines[row].replace(",positive,", ",not_positive,")
    problems, _ = checks.check_scan("\n".join(lines) + "\n", ref)
    assert any(f"cell {row - 1}" in p for p in problems)


def test_scan_check_flags_wrong_eigenvalue_and_coordinate(tmp_path):
    text, ref = _small_scan(tmp_path)
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-6) + 1e-6)
    lines[5] = ",".join(cells)
    cells = lines[9].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    lines[9] = ",".join(cells)
    problems, _ = checks.check_scan("\n".join(lines) + "\n", ref)
    assert any("cell 4: min eigenvalue" in p for p in problems)
    assert any("cell 8: coordinates" in p for p in problems)


@pytest.fixture(scope="module")
def linear_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("sim")
    call = gen.generate("simulate-linear", 5, str(d)).calls[0]
    assert cli.main(call.argv) == 0
    texts = [Path(call.out + ext).read_text() for ext in (".csv", ".json")]
    return call, texts, checks.reference_trajectory(call.meta)


def test_simulate_check_accepts_program_output(linear_run):
    call, (csv_text, json_text), ref = linear_run
    problems, err, rows = checks.check_simulate(csv_text, json_text, call.meta, ref)
    assert problems == [] and err < 1e-10 and rows == 20001


def test_simulate_check_flags_perturbed_row(linear_run):
    call, (csv_text, json_text), ref = linear_run
    lines = csv_text.splitlines()
    cells = lines[12345].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6 * float(np.abs(ref).max()))
    lines[12345] = ",".join(cells)
    problems, err, _ = checks.check_simulate("\n".join(lines) + "\n", json_text, call.meta, ref)
    assert any(p.startswith("row 12344:") for p in problems)
    assert err > checks.TRAJ_REL_TOL


def test_quartic_reference_matches_program(tmp_path):
    call = gen.generate("simulate-quartic", 5, str(tmp_path)).calls[0]
    assert cli.main(call.argv) == 0
    texts = [Path(call.out + ext).read_text() for ext in (".csv", ".json")]
    problems, err, _ = checks.check_simulate(*texts, call.meta, checks.reference_trajectory(call.meta))
    assert problems == [] and err < 1e-9


def _model_call(tmp_path, kind, input_class):
    w = gen.generate("model-suite", 2, str(tmp_path))
    call = next(c for c in w.calls if c.kind == kind and c.input_class == input_class)
    rc = cli.main(call.argv)
    return call, rc, Path(call.out).read_text() if Path(call.out).exists() else ""


def test_model_check_flags_unexpected_exit_code(tmp_path):
    call, rc, text = _model_call(tmp_path, "Ta2", "non_oscillatory")
    assert rc == 2 and checks.check_model_call(call, rc, text)[0] == []
    assert checks.check_model_call(call, 0, text)[0]
    assert checks.check_model_call(call, 1, text)[0]


def test_model_check_flags_represent_pattern(tmp_path):
    call, rc, text = _model_call(tmp_path, "Tc1", "Tc1_branch")
    assert rc == 0 and checks.check_model_call(call, rc, text)[0] == []
    payload = json.loads(text)
    payload["equivalence_pattern"] = ["PU", "PU", "trivial"]
    assert checks.check_model_call(call, rc, json.dumps(payload))[0]


def test_model_check_flags_verify_exit_inconsistent_with_report(tmp_path):
    call, rc, text = _model_call(tmp_path, "verify", "Ta1_branch")
    problems, statuses = checks.check_model_call(call, rc, text)
    assert problems == [] and sum(statuses.values()) > 0
    assert checks.check_model_call(call, 1 - rc, text)[0]


def test_client_checks_a_changed_output_again(tmp_path, monkeypatch):
    w = gen.generate("model-suite", 2, str(tmp_path))
    call = next(c for c in w.calls if c.kind == "Tc1" and c.input_class == "Tc1_branch")
    client = run.Client(w, 2)
    assert client.call(call).problems == []
    assert client.call(call).problems == []
    payload = json.loads(Path(call.out).read_text())
    payload["equivalence_pattern"] = ["PU", "PU", "trivial"]

    def tampered(argv):
        Path(call.out).write_text(json.dumps(payload))
        return 0

    monkeypatch.setattr(cli, "main", tampered)
    assert client.call(call).problems
    assert len(client.checked) == 2


def test_spans_self_time_and_entries():
    rec = spans.SpanRecorder()
    inner = rec.wrap(lambda: sum(range(10000)), "core")
    outer = rec.wrap(lambda: [inner() for _ in range(3)], "hierarchy.duality")
    rec.open_run()
    outer()
    rec.close_run()
    inner()  # not recorded: no run open
    s = rec.summary()
    assert s["core"]["calls"] == 3 and s["hierarchy.duality"]["calls"] == 1
    a = rec.arrays()
    total = a["end"][0] - a["start"][0]
    assert s["hierarchy.duality"]["self_s"] + s["core"]["self_s"] == pytest.approx(total)


def test_instrument_wraps_where_callers_look_up_and_restores():
    import pu6.hierarchy
    import pu6.positivity

    original = pu6.positivity.coeffs_from_tensor
    rec = spans.SpanRecorder()
    restore = spans.instrument(rec)
    try:
        assert pu6.positivity.coeffs_from_tensor is not original
        assert pu6.positivity.coeffs_from_tensor is pu6.hierarchy.coeffs_from_tensor
        assert cli._COMMANDS["scan"] is cli.cmd_scan
    finally:
        restore()
    assert pu6.positivity.coeffs_from_tensor is original


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_benchmark_json_names_match_the_runner():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == [w for w in gen.WORKLOADS if w != "simulate-quartic"]
