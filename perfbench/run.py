#!/usr/bin/env python3
"""pu6 benchmark: one workload, one closed-loop client, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 15 --trace 0

The client is this single process and thread: it calls ``pu6.cli.main``
in-process with the generated configs, one call after another, until the
calls have taken ``--seconds`` of wall time (traced runs finish the pass
they are in).  BLAS is pinned to one thread.  Every output is checked
before the next call.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced for a third of the time, then wraps pu6's public functions
(see spans.py) and prints the per-layer metrics, each per workload pass
(one scan, one simulation, or one round through the model-suite calls).

The last stdout line is the JSON result; the lines above it list every
metric with its unit and sample count, then the run record.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
SETUP_SAMPLES = 9
DEADLINE_S = 150.0  # no new call starts after this much wall time
RUNS_DIR = ROOT / ".perfbench_runs"

E2E_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "core.calls": "count", "core.self_s": "s",
    "hierarchy.duality_calls": "count", "hierarchy.duality_self_s": "s",
    "hierarchy.duality_singular": "count",
    "hierarchy.recursion_self_s": "s", "hierarchy.combine_self_s": "s",
    "positivity.oracle_calls": "count", "positivity.oracle_self_s": "s",
    "positivity.prefactor_calls": "count", "positivity.prefactor_self_s": "s",
    "positivity.scan_self_s": "s", "positivity.csv_self_s": "s", "positivity.csv_bytes": "B",
    "positivity.cells_positive": "count", "positivity.cells_not_positive": "count",
    "positivity.cells_singular": "count", "positivity.cells_error": "count",
    "positivity.disagreements": "count", "positivity.classified_ratio": "ratio",
    "dynamics.rk4_steps": "count", "dynamics.rk4_self_s": "s", "dynamics.field_calls": "count",
    "dynamics.csv_rows": "count", "dynamics.csv_self_s": "s", "dynamics.csv_bytes": "B",
    "dynamics.drift_self_s": "s", "dynamics.exact_self_s": "s",
    "dynamics.traj_max_rel_err": "ratio",
    "symmetries.calls": "count", "symmetries.self_s": "s",
    "verification.suite_calls": "count", "verification.suite_self_s": "s",
    "verification.checks_pass": "count", "verification.checks_fail": "count",
    "verification.checks_skip": "count",
    "representations.calls": "count", "representations.self_s": "s",
    "representations.complex_branch": "count", "representations.equivalence_failures": "count",
    "cli.calls": "count", "cli.self_s": "s", "cli.output_bytes": "B",
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "hpc.rk4_step_flop_computed": "flop", "hpc.rk4_step_bytes_computed": "B",
    "hpc.rk4_achieved_mflop_s": "Mflop/s",
    "hpc.cell_flop_computed": "flop", "hpc.cell_bytes_computed": "B",
    "hpc.cell_achieved_mflop_s": "Mflop/s",
}


class CallResult:
    """Timing, exit code and check outcome of one CLI call."""

    def __init__(self, call, seconds, rc, problems, out_bytes, info):
        self.call = call
        self.seconds = seconds
        self.rc = rc
        self.problems = problems
        self.out_bytes = out_bytes
        self.info = info  # per-workload check details
        self.pass_index = 0

    @property
    def as_expected(self) -> bool:
        return self.rc == self.call.expected_exit


class Client:
    """Closed-loop client calling pu6.cli.main over one generated workload."""

    def __init__(self, workload, seed):
        import checks

        self.workload = workload
        self.checks = checks
        self.recorder = None
        first = workload.calls[0]
        if workload.name == "scan-grid":
            self.ref = checks.ScanReference(first.meta, seed)
        elif workload.name.startswith("simulate"):
            self.ref = checks.reference_trajectory(first.meta)
        else:
            self.ref = None
        # (argv, exit code, outputs) -> check outcome; an output identical to
        # one already checked in full is not parsed again
        self.checked = {}

    def _outputs(self, call) -> list:
        if call.kind == "simulate":
            return [call.out + ".csv", call.out + ".json"]
        return [call.out]

    def call(self, call) -> CallResult:
        from pu6 import cli

        for path in self._outputs(call):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        rec = self.recorder
        tb = None
        t0 = time.perf_counter()
        if rec is not None:
            rec.open_run()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(call.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed call, not a harness crash
            rc, tb = None, f"{type(exc).__name__}: {exc}"
        finally:
            if rec is not None:
                rec.close_run()
        seconds = time.perf_counter() - t0
        texts = []
        for path in self._outputs(call):
            try:
                with open(path) as fh:
                    texts.append(fh.read())
            except FileNotFoundError:
                texts.append("")
        out_bytes = sum(len(t) for t in texts) + len(out.getvalue()) + len(err.getvalue())
        if tb is not None:
            return CallResult(call, seconds, None, [f"traceback: {tb}"], out_bytes, {})
        key = (tuple(call.argv), rc, tuple(texts), err.getvalue())
        if key not in self.checked:
            self.checked[key] = self._check(call, rc, texts, err.getvalue())
        problems, info = self.checked[key]
        return CallResult(call, seconds, rc, list(problems), out_bytes, dict(info))

    def _check(self, call, rc, texts, stderr) -> tuple:
        ck = self.checks
        if call.kind in ("scan", "simulate") and rc != 0:
            return [f"{call.kind} exited {rc}: {stderr.strip()[:200]}"], {}
        if call.kind == "scan":
            problems, counts = ck.check_scan(texts[0], self.ref)
            found = re.search(r"(\d+) method disagreements", stderr)
            counts["disagreements"] = int(found.group(1)) if found else 0
            if not found:
                problems.append("scan summary line missing from stderr")
            counts["csv_bytes"] = len(texts[0])
            return problems, counts
        if call.kind == "simulate":
            problems, err, rows = ck.check_simulate(texts[0], texts[1], call.meta, self.ref)
            return problems, {"traj_max_rel_err": err, "rows": rows, "csv_bytes": len(texts[0])}
        problems, statuses = ck.check_model_call(call, rc, texts[0])
        return problems, statuses

    def run(self, budget_s: float, whole_passes: bool, deadline: float) -> tuple:
        """Calls in workload order, repeated, until they took ``budget_s``.

        Returns (results, completed passes).  With ``whole_passes`` the
        budget is checked only between passes.
        """
        results, busy, passes = [], 0.0, 0
        calls = self.workload.calls
        while time.monotonic() < deadline:
            for call in calls:
                results.append(self.call(call))
                results[-1].pass_index = passes
                busy += results[-1].seconds
                if not whole_passes and (busy >= budget_s or time.monotonic() >= deadline):
                    return results, passes
            passes += 1
            if busy >= budget_s:
                break
        return results, passes


def tail(values: list) -> tuple:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    reported (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(config: str) -> list:
    """Set-up time of SETUP_SAMPLES fresh interpreters, in seconds."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), config],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def pass_tails(results) -> tuple:
    """Per-pass tails (see ``tail``) of the complete passes, and their percentile.

    An unfinished last pass is left out unless it is the only one.  A
    scan-grid or simulate pass is a single call, so there the tail is that
    call's time.
    """
    by_pass = {}
    for r in results:
        by_pass.setdefault(r.pass_index, []).append(r.seconds)
    passes = list(by_pass.values())
    complete = passes[:-1] if len(passes) > 1 and len(passes[-1]) < len(passes[0]) else passes
    tails = [tail(p) for p in complete]
    return [t[0] for t in tails], tails[0][1]


def end_to_end(workload, results, setup_samples) -> dict:
    secs = [r.seconds for r in results]
    tails, tail_pct = pass_tails(results)
    work = sum(r.call.work for r in results)
    return {
        "setup_s": (statistics.median(setup_samples), len(setup_samples), "median of fresh interpreters"),
        "work_per_s": (work / sum(secs), len(secs), f"{workload.work_unit} per second of call time"),
        "call_p50_ms": (1e3 * statistics.median(secs), len(secs), "median call"),
        "call_tail_ms": (1e3 * statistics.median(tails), len(secs),
                         f"median over {len(tails)} passes of the per-pass p{tail_pct:.2f}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "ru_maxrss"),
    }


def per_layer(workload, base, traced, passes, summary, counters) -> dict:
    import opcount

    def group(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "raised": {}})

    def per_pass(v):
        return v / passes

    out = {}
    for layer in ("core", "symmetries", "representations", "cli"):
        out[layer + ".calls"] = per_pass(group(layer)["calls"])
        out[layer + ".self_s"] = per_pass(group(layer)["self_s"])
    dual = group("hierarchy.duality")
    out["hierarchy.duality_calls"] = per_pass(dual["calls"])
    out["hierarchy.duality_self_s"] = per_pass(dual["self_s"])
    out["hierarchy.duality_singular"] = per_pass(dual["raised"].get("SingularCombination", 0))
    out["hierarchy.recursion_self_s"] = per_pass(group("hierarchy.recursion")["self_s"])
    out["hierarchy.combine_self_s"] = per_pass(group("hierarchy.combine")["self_s"])
    for part in ("oracle", "prefactor"):
        out[f"positivity.{part}_calls"] = per_pass(group(f"positivity.{part}")["calls"])
        out[f"positivity.{part}_self_s"] = per_pass(group(f"positivity.{part}")["self_s"])
    out["positivity.scan_self_s"] = per_pass(group("positivity.scan")["self_s"])
    out["positivity.csv_self_s"] = per_pass(group("positivity.csv")["self_s"])
    out["dynamics.rk4_self_s"] = per_pass(group("dynamics.rk4")["self_s"])
    out["dynamics.csv_self_s"] = per_pass(group("dynamics.csv")["self_s"])
    out["dynamics.drift_self_s"] = per_pass(group("dynamics.drift")["self_s"])
    out["dynamics.exact_self_s"] = per_pass(group("dynamics.exact")["self_s"])
    out["dynamics.field_calls"] = per_pass(counters.get("dynamics.field_calls", 0))
    suite = group("verification.suite")
    out["verification.suite_calls"] = per_pass(suite["calls"])
    out["verification.suite_self_s"] = per_pass(suite["self_s"])
    reps = group("representations")["raised"]
    out["representations.complex_branch"] = per_pass(reps.get("ComplexBranch", 0))
    out["representations.equivalence_failures"] = per_pass(reps.get("EquivalenceFailure", 0))

    def info_sum(key):
        return per_pass(sum(r.info.get(key, 0) for r in traced))

    scans = [r for r in traced if r.call.kind == "scan"]
    cells = sum(r.call.work for r in scans)
    for verdict in ("positive", "not_positive", "singular", "error"):
        out[f"positivity.cells_{verdict}"] = info_sum(verdict)
    out["positivity.disagreements"] = info_sum("disagreements")
    classified = sum(r.info.get("positive", 0) + r.info.get("not_positive", 0) for r in scans)
    out["positivity.classified_ratio"] = classified / cells if cells else 0.0
    sims = [r for r in traced if r.call.kind == "simulate"]
    out["positivity.csv_bytes"] = per_pass(sum(r.info.get("csv_bytes", 0) for r in scans))
    out["dynamics.csv_bytes"] = per_pass(sum(r.info.get("csv_bytes", 0) for r in sims))
    out["dynamics.csv_rows"] = info_sum("rows")
    out["dynamics.rk4_steps"] = per_pass(sum(max(r.info.get("rows", 0) - 1, 0) for r in sims))
    errs = [r.info["traj_max_rel_err"] for r in sims if "traj_max_rel_err" in r.info]
    out["dynamics.traj_max_rel_err"] = max(errs) if errs else 0.0
    for status in ("pass", "fail", "skip"):
        out[f"verification.checks_{status}"] = info_sum(status)
    out["cli.output_bytes"] = per_pass(sum(r.out_bytes for r in traced))
    everything = base + traced
    out["failed_frac"] = sum(not r.as_expected for r in everything) / len(everything)
    base_rate = sum(r.call.work for r in base) / sum(r.seconds for r in base)
    traced_rate = sum(r.call.work for r in traced) / sum(r.seconds for r in traced)
    out["trace.overhead_frac"] = 1.0 - traced_rate / base_rate

    interacting = workload.name == "simulate-quartic"
    step_flop, step_bytes = opcount.rk4_step(interacting)
    cell_flop, cell_bytes = opcount.scan_cell()
    out["hpc.rk4_step_flop_computed"] = step_flop
    out["hpc.rk4_step_bytes_computed"] = step_bytes
    steps, rk4_s = out["dynamics.rk4_steps"], out["dynamics.rk4_self_s"]
    out["hpc.rk4_achieved_mflop_s"] = step_flop * steps / rk4_s / 1e6 if rk4_s > 0 else 0.0
    out["hpc.cell_flop_computed"] = cell_flop
    out["hpc.cell_bytes_computed"] = cell_bytes
    base_scans = [r for r in base if r.call.kind == "scan"]
    scan_s = sum(r.seconds for r in base_scans)
    out["hpc.cell_achieved_mflop_s"] = (
        cell_flop * sum(r.call.work for r in base_scans) / scan_s / 1e6 if scan_s > 0 else 0.0
    )
    return out


def main(argv=None) -> int:
    import gen

    ap = argparse.ArgumentParser(description="pu6 benchmark: one workload, one result line")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import numpy as np
    import scipy

    import pu6

    if Path(pu6.__file__).resolve().parent != ROOT / "src" / "pu6":
        print(f"pu6 imported from {pu6.__file__}, not from this checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        workload = gen.generate(args.workload, args.seed, tmp)
        client = Client(workload, args.seed)
        deadline = started + DEADLINE_S
        if args.trace:
            import spans

            base, _ = client.run(args.seconds / 3.0, True, deadline)
            client.recorder = spans.SpanRecorder()
            restore = spans.instrument(client.recorder)
            try:
                traced, passes = client.run(2.0 * args.seconds / 3.0, True, deadline)
            finally:
                restore()
                client.recorder.close_run()
            results = base + traced
            layer = per_layer(workload, base, traced, max(passes, 1), client.recorder.summary(),
                              client.recorder.counters)
            metrics = {k: (layer[k], passes, "per pass") for k in LAYER_UNITS}
            units = LAYER_UNITS
        else:
            setup = measure_setup(workload.setup_config)
            results, passes = client.run(args.seconds, False, deadline)
            metrics = end_to_end(workload, results, setup)
            units = E2E_UNITS

    failed = [r for r in results if r.problems]
    for name, (value, samples, note) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]} (n={samples}, {note})")
    for r in failed[:5]:
        print(f"FAILED {r.call.kind} {r.call.argv[1]}: {r.problems[:3]}", file=sys.stderr)
    defects = sum(not r.as_expected for r in results)
    print(f"{workload.name} calls {len(results)}, failed checks {len(failed)}, "
          f"exit code differs from the paper's prediction {defects}")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "work_unit": workload.work_unit,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "commit": git_commit(),
        "client": "closed loop, 1 process, 1 thread, BLAS threads 1",
    }
    print("run_record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, (v, _, _) in metrics.items()},
    }
    RUNS_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(RUNS_DIR / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "result": result,
                   "calls": [[r.call.kind, r.rc, r.seconds] for r in results]}, fh, sort_keys=True)
    if args.trace:
        client.recorder.save(str(RUNS_DIR / f"{workload.name}-spans.npz"))  # latest traced run only
    print(json.dumps(result), flush=True)
    return 0


def _bootstrap() -> int:
    """Check the checkout, pin BLAS and put the program's source on the path."""
    if not (ROOT / "src" / "pu6" / "__init__.py").is_file():
        print(f"no pu6 source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    return 0


if __name__ == "__main__":
    code = _bootstrap()
    sys.exit(code if code else main())
