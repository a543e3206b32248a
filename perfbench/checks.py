"""Correctness checks for every CLI call the benchmark makes.

Each check returns a list of problems (empty when the output is right) and
never raises: a malformed output is a problem, not a crash of the harness.
The references are the benchmark's own: a duality ``lstsq`` and
``scipy.linalg.eigh`` on the core matrices for scan cells,
``scipy.linalg.expm`` for interaction-free trajectories and DOP853 for the
interacting ones.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from gen import SIM_DT, SIM_T_END
from pu6.core import (
    flow_operator,
    frequency_triple,
    hamiltonian_form,
    params_from_frequencies,
    poisson_tensor,
)

SCAN_HEADER = ["c_x", "c_y", "verdict", "min_eigenvalue", "prefactor_1", "prefactor_2", "prefactor_3"]
SIM_HEADER = "t,q,qdot,qddot,q3t,q4t,q5t,H1,H2,H3"
VERIFY_CHECKS = {
    "poisson_antisymmetry", "poisson_determinants", "flow_equality", "poisson_field_condition",
    "involution_base", "abelian_algebra", "action_table", "flow_symmetries", "hierarchy_routes",
    "hierarchy_conservation", "hierarchy_involution", "block_identity", "block_psd_rank",
    "block_symmetry_scalars", "expansion_exactness", "dual_flow_recovery",
    "ostrogradsky_consistency", "frequency_roundtrip",
}

FAMILY_PATTERNS = {
    "Ta1": ["PU", "PU", "PU"],
    "Ta2": ["PU", "PU", "PU"],
    "Tb1": ["PU", "PU", "trivial"],
    "Tc1": ["PU", "trivial", "trivial"],
}

SCAN_SAMPLE = 200  # cells recomputed by the reference per scan output
EIG_REL_TOL = 1e-10  # |min eigenvalue - reference| / spectral norm
PREFACTOR_REL_TOL = 1e-9  # |prefactor - reference| / largest reference prefactor
BAND_REL = 1e-6  # a cell is in the boundary band when min|prefactor| / max|prefactor| is below this
TRAJ_REL_TOL = 1e-8  # |state - reference| / max|reference state|
ENERGY_REL_TOL = 1e-10  # |H column - s^T A s / 2| / max|H column|


# ---------------------------------------------------------------------------
# scan-grid
# ---------------------------------------------------------------------------

def axis_values(ax: dict) -> np.ndarray:
    if ax["n"] == 1:
        return np.array([0.5 * (ax["min"] + ax["max"])])
    return np.linspace(ax["min"], ax["max"], ax["n"])


class ScanReference:
    """Reference verdicts for a seeded sample of the grid's cells."""

    def __init__(self, meta: dict, seed: int):
        scan = meta["scan"]
        self.x = axis_values(scan["axis1"])
        self.y = axis_values(scan["axis2"])
        n = self.x.size * self.y.size
        rng = np.random.default_rng([seed, 7])
        self.sample = np.sort(rng.choice(n, size=min(SCAN_SAMPLE, n), replace=False))
        f = frequency_triple(*meta["omegas"])
        p = params_from_frequencies(f)
        js = [poisson_tensor(k, p).matrix for k in (1, 2, 3)]
        hs = [hamiltonian_form(k, p).matrix for k in (1, 2, 3)]
        target = flow_operator(p).ravel()
        sq = f.squares
        names = (scan["axis1"]["name"], scan["axis2"]["name"], scan["fixed"]["name"])
        self.cells = {}
        for idx in self.sample:
            xv, yv = self.x[idx // self.y.size], self.y[idx % self.y.size]
            w = dict(zip(names, (xv, yv, scan["fixed"]["value"])))
            jbar = w["c1"] * js[0] + w["c2"] * js[1] + w["c3"] * js[2]
            cols = np.stack([(jbar @ h).ravel() for h in hs], axis=1)
            c456 = scipy.linalg.lstsq(cols, target)[0]
            a = sum(c * h for c, h in zip(c456, hs))
            ev = scipy.linalg.eigh(0.5 * (a + a.T), eigvals_only=True)
            pref = []
            for j, k in ((1, 2), (1, 3), (2, 3)):
                i = 6 - j - k
                m = sq[j - 1] * sq[k - 1]
                num = c456[0] + c456[1] * m + c456[2] * m * m
                pref.append(num / (2.0 * (sq[j - 1] - sq[i - 1]) * (sq[k - 1] - sq[i - 1])))
            pref = np.array(pref)
            self.cells[int(idx)] = (float(ev[0]), float(np.abs(ev).max()), pref)


def check_scan(text: str, ref: ScanReference) -> tuple:
    """(problems, verdict counts) for one scan CSV."""
    problems = []
    counts = {"positive": 0, "not_positive": 0, "singular": 0, "error": 0}
    rows = list(csv.reader(text.splitlines()))
    header, rows = (rows[0] if rows else None), rows[1:]
    if header != SCAN_HEADER:
        return [f"scan header {header!r}"], counts
    if len(rows) != ref.x.size * ref.y.size:
        return [f"scan has {len(rows)} rows, expected {ref.x.size * ref.y.size}"], counts
    try:
        for idx, row in enumerate(rows):
            cx, cy, verdict = float(row[0]), float(row[1]), row[2]
            if cx != ref.x[idx // ref.y.size] or cy != ref.y[idx % ref.y.size]:
                problems.append(f"cell {idx}: coordinates ({cx}, {cy}) off the grid")
            if verdict.startswith("error:"):
                counts["error"] += 1
                continue
            if verdict not in counts:
                problems.append(f"cell {idx}: unknown verdict {verdict!r}")
                continue
            counts[verdict] += 1
            if verdict == "singular":
                continue
            pref = np.array([float(v) for v in row[4:7]])
            if (verdict == "positive") != bool(np.all(pref > 0.0)):
                problems.append(f"cell {idx}: verdict {verdict} contradicts prefactors {pref}")
            if idx in ref.cells:
                lam_ref, norm, pref_ref = ref.cells[idx]
                if abs(float(row[3]) - lam_ref) > EIG_REL_TOL * norm:
                    problems.append(f"cell {idx}: min eigenvalue {row[3]} vs reference {lam_ref!r}")
                scale = np.abs(pref_ref).max()
                if np.abs(pref - pref_ref).max() > PREFACTOR_REL_TOL * scale:
                    problems.append(f"cell {idx}: prefactors {pref} vs reference {pref_ref}")
                in_band = np.abs(pref_ref).min() < BAND_REL * scale
                ref_positive = bool(np.all(pref_ref > 0.0)) and lam_ref > 1e-10 * norm
                if not in_band and (verdict == "positive") != ref_positive:
                    problems.append(f"cell {idx}: verdict {verdict} vs reference positive={ref_positive}")
    except (ValueError, IndexError) as exc:
        problems.append(f"malformed scan row: {exc}")
    if counts["positive"] == 0 or counts["not_positive"] == 0:
        problems.append(f"window misses the pocket or its complement: {counts}")
    return problems[:10], counts


# ---------------------------------------------------------------------------
# simulate-linear / simulate-quartic
# ---------------------------------------------------------------------------

def _times() -> np.ndarray:
    return np.arange(int(round(SIM_T_END / SIM_DT)) + 1) * SIM_DT


def reference_trajectory(meta: dict) -> np.ndarray:
    """States at every output time: expm without interaction, DOP853 with it."""
    F = flow_operator(params_from_frequencies(frequency_triple(*meta["omegas"])))
    s0 = np.array(meta["initial"], dtype=float)
    times = _times()
    if "lam" not in meta:
        # exact flow: expm at every 100th time, then 1..99 steps of expm(dt F)
        block = 100
        step = scipy.linalg.expm(SIM_DT * F)
        powers = [np.eye(6)]
        for _ in range(block - 1):
            powers.append(step @ powers[-1])
        anchors = [scipy.linalg.expm(t * F) @ s0 for t in times[::block]]
        states = np.einsum("kij,mj->mki", np.array(powers), np.array(anchors))
        return states.reshape(-1, 6)[: times.size]
    lam = meta["lam"]

    def field(_t, s):
        out = F @ s
        out[5] -= lam * s[0] ** 3
        return out

    sol = solve_ivp(field, (0.0, times[-1]), s0, method="DOP853", rtol=1e-12,
                    atol=1e-14 * np.abs(s0).max(), t_eval=times)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def check_simulate(csv_text: str, json_text: str, meta: dict, ref: np.ndarray) -> tuple:
    """(problems, max relative trajectory error, rows) for one simulate output."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != SIM_HEADER:
        return [f"trajectory header {lines[:1]!r}"], math.nan, 0
    try:
        body = csv_text[len(lines[0]) + 1:]
        data = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, 10)
        summary = json.loads(json_text)
    except ValueError as exc:
        return [f"malformed simulate output: {exc}"], math.nan, 0
    if data.shape != (ref.shape[0], 10):
        return [f"trajectory shape {data.shape}, expected ({ref.shape[0]}, 10)"], math.nan, 0
    problems = []
    if np.abs(data[:, 0] - _times()).max() > 1e-12:
        problems.append("time column is not k * dt")
    err = np.abs(data[:, 1:7] - ref).max(axis=1) / np.abs(ref).max()
    worst = float(err.max())
    if not worst <= TRAJ_REL_TOL:
        row = int(np.argmax(err))
        problems.append(f"row {row}: state differs from reference by {err[row]:.3e} (relative)")
    p = params_from_frequencies(frequency_triple(*meta["omegas"]))
    for k in (1, 2, 3):
        h = 0.5 * np.einsum("ti,ij,tj->t", data[:, 1:7], hamiltonian_form(k, p).matrix, data[:, 1:7])
        if np.abs(h - data[:, 6 + k]).max() > ENERGY_REL_TOL * np.abs(h).max():
            problems.append(f"H{k} column does not match the state")
    drift = summary.get("max_drift", {})
    if set(drift) != {"H1", "H2", "H3"} or not all(math.isfinite(v) for v in drift.values()):
        problems.append(f"summary drift {drift!r}")
    if summary.get("interacting") != ("lam" in meta):
        problems.append(f"summary interacting={summary.get('interacting')!r}")
    return problems, worst, data.shape[0]


# ---------------------------------------------------------------------------
# model-suite
# ---------------------------------------------------------------------------

def check_model_call(call, rc, out_text) -> tuple:
    """(problems, verify check-status counts) for one verify or represent call."""
    statuses = {"pass": 0, "fail": 0, "skip": 0}
    if rc not in call.allowed_exits:
        return [f"exit {rc} not allowed for {call.kind} on {call.input_class} {call.allowed_exits}"], statuses
    if call.kind == "verify":
        try:
            report = json.loads(out_text)
            for check in report["checks"]:
                statuses[check["status"]] += 1
            names = {check["name"] for check in report["checks"]}
        except (ValueError, TypeError, KeyError) as exc:
            return [f"malformed verify report: {exc!r}"], statuses
        problems = []
        # a hierarchy recursion error ends that section early, so a failing
        # report may lack its later hierarchy checks
        if not names <= VERIFY_CHECKS or (rc == 0 and names != VERIFY_CHECKS):
            problems.append(f"verify checks {sorted(names ^ VERIFY_CHECKS)} missing or unknown")
        if report.get("all_passed") != (rc == 0) or (statuses["fail"] > 0) != (rc == 1):
            problems.append(f"exit {rc} inconsistent with report ({statuses})")
        return problems, statuses
    if rc != 0:
        return [], statuses
    try:
        payload = json.loads(out_text)
        pattern = payload["equivalence_pattern"]
        kind = payload["representation"]["kind"]
        lam = payload["positivity"]["min_eigenvalue"]
    except (ValueError, TypeError, KeyError) as exc:
        return [f"malformed represent output: {exc!r}"], statuses
    problems = []
    if kind != call.kind or pattern != FAMILY_PATTERNS[call.kind]:
        problems.append(f"{call.kind}: got kind {kind} with pattern {pattern}")
    if not isinstance(lam, float) or not math.isfinite(lam):
        problems.append(f"{call.kind}: min eigenvalue {lam!r}")
    return problems, statuses
