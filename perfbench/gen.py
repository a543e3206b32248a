"""Seeded input generator for the four benchmark workloads.

One seed produces every workload's configs.  The program under test only
ever sees the JSON config files written here; what the benchmark needs to
check the outputs (expected exit codes, grids, initial states) stays in the
returned ``Call`` records.

Workloads:

* ``scan-grid``: one 200x200 (c2, c3) plane at c1 = 1 for a well-separated
  frequency triple; the window holds the positive pocket, non-positive cells
  and the band where a block prefactor changes sign.
* ``simulate-linear``: 20k RK4 steps of the interaction-free flow.
* ``simulate-quartic``: the same with a quartic interaction on q whose
  strength is bounded relative to the linear orbit, so the orbit stays finite.
  It is not one of BENCHMARK.json's workloads (four workloads at the run
  length that steady medians need on a shared 2-core host do not fit the time
  allowed for all runs); run it by hand with ``run.py --workload simulate-quartic`` to see
  whether a change for linear flows slows interacting ones.
* ``model-suite``: about 70 parameter sets across frequency scales 1e-2..1e2,
  degenerate and non-oscillatory sets and sets with real Ta1/Tb1/Tc1
  branches; each gets ``verify`` plus ``represent`` for all four families.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from pu6 import representations
from pu6.core import PUParams, flow_operator, frequency_triple, params_from_frequencies

# The index of a name seeds its generator, so the order is fixed.
WORKLOADS = ("scan-grid", "simulate-linear", "simulate-quartic", "model-suite")

GRID_N = 200
SIM_DT = 1e-3
SIM_T_END = 20.0
TC1_CHOICES = {"mu0": 1.0, "nu0": math.sqrt(0.5), "tau0": math.sqrt(0.5)}


@dataclass
class Call:
    """One CLI invocation and what the benchmark knows about its input class."""

    argv: list
    kind: str  # scan | simulate | verify | Ta1 | Ta2 | Tb1 | Tc1
    out: str
    input_class: str
    expected_exit: int  # what the paper predicts for this input class
    allowed_exits: tuple  # what the documented CLI contract permits
    work: int  # work units: grid cells, integration steps or 1 call
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    work_unit: str
    calls: list
    setup_config: str


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _separated_triple(rng: np.random.Generator, scale: float = 1.0) -> tuple:
    """Descending triple with squared frequencies at least a factor 1.69 apart."""
    w3 = rng.uniform(0.5, 1.0)
    w2 = w3 * rng.uniform(1.3, 1.8)
    w1 = w2 * rng.uniform(1.3, 1.8)
    return (scale * w1, scale * w2, scale * w3)


def _write(directory: str, name: str, cfg: dict) -> str:
    path = os.path.join(directory, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# scan-grid
# ---------------------------------------------------------------------------

def _scan(seed: int, directory: str) -> Workload:
    rng = _rng(seed, "scan-grid")
    omegas = _separated_triple(rng)
    a, b, c = (w * w for w in omegas)
    m12, m13, m23 = a * b, a * c, b * c  # pair products of squared frequencies, descending
    # with c1 = 1 the cell is positive iff c3 + c2 m + m^2 has one root in
    # (m23, m13) and one in (m13, m12): c2 = -(r1 + r2), c3 = r1 r2
    c2_lo = -(m12 + m13) * rng.uniform(1.05, 1.15)
    c2_hi = -(m13 + m23) * rng.uniform(0.85, 0.95)
    c3_lo = m13 * m23 * rng.uniform(0.5, 0.9)
    c3_hi = m12 * m13 * rng.uniform(1.05, 1.2)
    axes = {
        "axis1": {"name": "c2", "min": c2_lo, "max": c2_hi, "n": GRID_N},
        "axis2": {"name": "c3", "min": c3_lo, "max": c3_hi, "n": GRID_N},
        "fixed": {"name": "c1", "value": 1.0},
    }
    cfg = {"model": {"omegas": list(omegas)}, "scan": axes}
    path = _write(directory, "scan", cfg)
    out = os.path.join(directory, "scan.csv")
    call = Call(
        argv=["--config", path, "--out", out, "scan"],
        kind="scan", out=out, input_class="separated", expected_exit=0,
        allowed_exits=(0,), work=GRID_N * GRID_N,
        meta={"omegas": omegas, "scan": axes},
    )
    return Workload("scan-grid", seed, "cells", [call], path)


# ---------------------------------------------------------------------------
# simulate-linear / simulate-quartic
# ---------------------------------------------------------------------------

def _linear_q_max(omegas, s0) -> float:
    """max |q(t)| of the interaction-free orbit on a 0.01 grid, by expm."""
    F = flow_operator(params_from_frequencies(frequency_triple(*omegas)))
    step = expm(0.01 * F)
    s, q_max = np.array(s0, dtype=float), abs(s0[0])
    for _ in range(int(round(SIM_T_END / 0.01))):
        s = step @ s
        q_max = max(q_max, abs(s[0]))
    return q_max


def _simulate(seed: int, directory: str, interacting: bool) -> Workload:
    name = "simulate-quartic" if interacting else "simulate-linear"
    rng = _rng(seed, name)
    omegas = _separated_triple(rng)
    s0 = rng.normal(size=6)
    s0 = list(s0 / np.abs(s0).max())
    sec = {"dt": SIM_DT, "t_end": SIM_T_END, "initial": s0, "method": "rk4"}
    meta = {"omegas": omegas, "initial": s0}
    if interacting:
        # strength eps = lam * max|q|^2 of the linear orbit; |eps| <= 1e-2
        # keeps the orbit within a few percent of the linear one
        eps = rng.uniform(1e-3, 1e-2) * rng.choice([-1.0, 1.0])
        lam = float(eps / _linear_q_max(omegas, s0) ** 2)
        sec["interaction"] = {"kind": "quartic", "lam": lam, "variable": 0}
        meta["lam"] = lam
    cfg = {"model": {"omegas": list(omegas)}, "simulate": sec}
    path = _write(directory, "simulate", cfg)
    base = os.path.join(directory, "trajectory")
    call = Call(
        argv=["--config", path, "--out", base, "simulate"],
        kind="simulate", out=base, input_class="separated", expected_exit=0,
        allowed_exits=(0,), work=int(round(SIM_T_END / SIM_DT)), meta=meta,
    )
    return Workload(name, seed, "steps", [call], path)


# ---------------------------------------------------------------------------
# model-suite
# ---------------------------------------------------------------------------

def _real_branch(kind: str, p: PUParams, choices: dict) -> bool:
    if kind == "Ta1":
        return representations.ta1_radicand(p) > 0.0
    if kind == "Tc1":
        return representations.tc1_radicand(p, choices["mu0"], choices["nu0"], choices["tau0"]) > 0.0
    # Tb1 has no public radicand: the tau2 solve, then the g3 solve
    rad1 = 1.0 + 8.0 * p.alpha * (p.gamma - p.alpha * p.beta)
    if rad1 <= 0.0:
        return False
    tau2 = (1.0 + choices["tau2_branch"] * math.sqrt(rad1)) / (2.0 * p.alpha)
    return -2.0 * tau2 ** 2 - 2.0 * p.beta * tau2 ** 4 - tau2 ** 6 > 0.0


def branch_exists(kind: str, p: PUParams, choices: dict) -> Optional[bool]:
    """Whether family ``kind`` has a real branch at ``p``.

    None when the answer flips under a 1e-8 relative change of any model
    coefficient, i.e. a radicand sits too close to zero to call.
    """
    answers = {_real_branch(kind, p, choices)}
    for name in ("alpha", "beta", "gamma"):
        for factor in (1.0 - 1e-8, 1.0 + 1e-8):
            q = PUParams(**{**vars(p), name: getattr(p, name) * factor})
            answers.add(_real_branch(kind, q, choices))
    return answers.pop() if len(answers) == 1 else None


def _log_scale(rng, i: int, n: int) -> float:
    """Stratified log-uniform frequency scale over [1e-2, 1e2]."""
    return 10.0 ** (-2.0 + 4.0 * (i + rng.uniform()) / n)


def _nonoscillatory(rng, lam: float) -> PUParams:
    """(alpha, beta, gamma) whose cubic has a complex-conjugate root pair."""
    s = lam * lam
    r = s * rng.uniform(0.5, 2.0)
    a = s * rng.uniform(-1.0, 1.0)
    b = s * rng.uniform(0.3, 1.5)
    return PUParams(r + 2.0 * a, 2.0 * a * r + a * a + b * b, r * (a * a + b * b))


def _branch_candidate(kind: str, rng):
    """(params, model section, Tb1 choices) drawn where ``kind`` has real branches.

    Ta1 and Tc1 live in pockets of oscillatory frequency space, Tb1 needs
    beta < -sqrt(2); None for a degenerate draw.
    """
    if kind == "Tb1":
        p = PUParams(rng.uniform(0.2, 3.0), rng.uniform(-9.0, -1.5), rng.uniform(-3.0, 3.0))
        tb1 = {"tau2_branch": int(rng.choice([-1, 1])), "g3_branch": int(rng.choice([-1, 1]))}
        return p, {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma}, tb1
    if kind == "Ta1":
        w1 = rng.uniform(0.6, 2.0)
        w2 = rng.uniform(0.1, 0.7 * w1)
        om = (w1, w2, rng.uniform(0.02, 0.6 * w2))
    else:
        w1 = rng.uniform(1.0, 2.2)
        w2 = rng.uniform(0.5, 0.9 * w1)
        om = (w1, w2, rng.uniform(0.1, 0.8 * w2))
    f = frequency_triple(*om)
    if f.is_degenerate():
        return None
    return params_from_frequencies(f), {"omegas": list(om)}, None


def _model_sets(rng) -> list:
    """(input class, model section, Tb1 choices) for every parameter set."""
    sets = []
    n_osc = 40
    for i in range(n_osc):
        om = _separated_triple(rng, _log_scale(rng, i, n_osc))
        sets.append(("oscillatory", {"omegas": list(om)}, None))
    for i in range(8):
        lam = _log_scale(rng, i, 8)
        w = rng.uniform(0.5, 1.0) * lam
        om = [(w, w, w), (2.0 * w, w, w), (2.0 * w, 2.0 * w, w)][i % 3]
        sets.append(("degenerate", {"omegas": list(om)}, None))
    for i in range(8):
        p = _nonoscillatory(rng, _log_scale(rng, i, 8))
        sets.append(("non_oscillatory", {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma}, None))
    # real branches, found by rejection on the radicands
    for kind, wanted in (("Ta1", 5), ("Tc1", 5), ("Tb1", 4)):
        found = 0
        for _ in range(200000):
            if found == wanted:
                break
            candidate = _branch_candidate(kind, rng)
            if candidate is None:
                continue
            p, model, tb1 = candidate
            if branch_exists(kind, p, tb1 or TC1_CHOICES) is True:
                found += 1
                sets.append((f"{kind}_branch", model, tb1))
        else:
            raise RuntimeError(f"no real {kind} branch found")
    return sets


def _model_params(model: dict) -> PUParams:
    if "omegas" in model:
        return params_from_frequencies(frequency_triple(*model["omegas"]))
    return PUParams(model["alpha"], model["beta"], model["gamma"])


def _model_suite(seed: int, directory: str) -> Workload:
    rng = _rng(seed, "model-suite")
    calls = []
    setup_config = None
    for i, (cls, model, tb1) in enumerate(_model_sets(rng)):
        p = _model_params(model)
        oscillatory = "omegas" in model  # the other sets have a complex or negative root
        degenerate = cls == "degenerate"
        cfg = {"model": model, "seed": int(rng.integers(2 ** 31)), "verify": {"n_random": 20}}
        path = _write(directory, f"set{i:03d}-verify", cfg)
        setup_config = setup_config or path
        out = os.path.join(directory, f"set{i:03d}-verify.out.json")
        calls.append(Call(
            argv=["--config", path, "--out", out, "verify"], kind="verify", out=out,
            input_class=cls, expected_exit=0, allowed_exits=(0, 1), work=1,
        ))
        for kind in ("Ta1", "Ta2", "Tb1", "Tc1"):
            choices = {
                "Ta1": {"branch": 1},
                "Ta2": {},
                "Tb1": tb1 or {"tau2_branch": 1, "g3_branch": 1},
                "Tc1": TC1_CHOICES,
            }[kind]
            if kind == "Ta2":
                if not oscillatory:
                    expected, allowed = 2, (2,)  # ComplexFrequencies: config error
                elif degenerate:
                    expected, allowed = 1, (1,)  # family refused: DegenerateFrequencies
                else:
                    expected, allowed = 0, (0, 1)
            else:
                exists = branch_exists(kind, p, choices)
                if exists is None:
                    expected, allowed = 0, (0, 1, 4)
                elif exists:
                    expected, allowed = 0, (0, 1)
                else:
                    expected, allowed = 4, (4,)
            rcfg = dict(cfg, represent={"kind": kind, "free_choices": choices})
            path = _write(directory, f"set{i:03d}-{kind}", rcfg)
            out = os.path.join(directory, f"set{i:03d}-{kind}.out.json")
            calls.append(Call(
                argv=["--config", path, "--out", out, "represent"], kind=kind, out=out,
                input_class=cls, expected_exit=expected, allowed_exits=allowed, work=1,
            ))
    order = rng.permutation(len(calls))
    return Workload("model-suite", seed, "calls", [calls[k] for k in order], setup_config)


def generate(name: str, seed: int, directory: str) -> Workload:
    """Write the configs of workload ``name`` for ``seed`` into ``directory``."""
    if name == "scan-grid":
        return _scan(seed, directory)
    if name == "simulate-linear":
        return _simulate(seed, directory, interacting=False)
    if name == "simulate-quartic":
        return _simulate(seed, directory, interacting=True)
    if name == "model-suite":
        return _model_suite(seed, directory)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
