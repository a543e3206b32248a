"""Command-line front end: simulate | verify | scan | represent.

Configuration comes from a JSON file plus flag overrides; every output is
deterministic for a fixed config and seed (CSV uses '.' decimals and 17
significant digits so doubles round-trip exactly).

Each subcommand imports the modules it runs when it runs, so a process
loads only its own subcommand's modules.

Exit codes: 0 success, 1 failed verification, 2 malformed configuration or
an output that cannot be written, 3 overflow during integration, 4 complex
representation branch.  Errors map to codes 1-4 through ``EXIT_TABLE``.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    PUParams,
    canonical_units,
    frequencies_from_params,
    frequency_triple,
    params_from_frequencies,
)
from .errors import (
    ComplexBranch,
    ComplexFrequencies,
    ConfigError,
    NonFinite,
    Pu6Error,
    config_object,
    config_value,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NONFINITE = 3
EXIT_COMPLEX_BRANCH = 4

# error type -> (exit code, stderr prefix); the first matching row wins, so
# subclasses come before Pu6Error
EXIT_TABLE = (
    ((ConfigError, ComplexFrequencies), EXIT_CONFIG, "config error"),
    (OSError, EXIT_CONFIG, "output error"),  # from ``_output``, which names the path
    (NonFinite, EXIT_NONFINITE, "integration overflow"),
    (ComplexBranch, EXIT_COMPLEX_BRANCH, "complex branch"),
    (Pu6Error, EXIT_VERIFY_FAILED, "error"),
)


def exit_status(error: type) -> tuple[int, str]:
    """(exit code, stderr prefix) for a Pu6Error or OSError subclass, from EXIT_TABLE."""
    return next((code, prefix) for types, code, prefix in EXIT_TABLE if issubclass(error, types))


@dataclass
class RunConfig:
    params: PUParams
    omegas: Optional[tuple[float, float, float]]
    seed: int
    tol: Optional[float]  # relative degeneracy tolerance; None: the rounding floor alone
    sections: dict

    def section(self, name: str) -> dict:
        """The config object ``name``, empty when absent."""
        return config_object(self.sections.get(name, {}), name)

    @property
    def frequencies(self):
        if self.omegas is not None:
            return frequency_triple(*self.omegas, tol=self.tol)
        return frequencies_from_params(self.params, tol=self.tol)


def load_config(path: Optional[str], overrides: argparse.Namespace) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = config_object(raw, "config")
    model = config_object(raw.get("model", raw), "model")
    has_omegas = "omegas" in model
    has_params = all(k in model for k in ("alpha", "beta", "gamma"))
    if has_omegas and has_params:
        raise ConfigError("give either omegas or (alpha, beta, gamma), not both")
    if not has_omegas and not has_params:
        raise ConfigError("config must specify omegas or (alpha, beta, gamma)")
    if has_omegas:
        omegas = config_value(model["omegas"], "omegas", shape=(3,))
        params = params_from_frequencies(frequency_triple(*omegas))
    else:
        omegas = None
        params = PUParams(*(config_value(model[k], k) for k in ("alpha", "beta", "gamma")))
    # the one range rule: finite parameters, an exact map onto the canonical model (rho^6 and
    # rho^-6 normal floats) and, unless gamma is given as 0, a finite det J3 = gamma^-8 there
    finite = all(map(math.isfinite, (params.alpha, params.beta, params.gamma)))
    rho, canonical = canonical_units(params) if finite else (math.inf, params)
    if not 2.0 ** -170 <= rho <= 2.0 ** 170 or (
            (params.gamma or has_omegas) and not abs(canonical.gamma) >= 2.0 ** -127):
        raise ConfigError(f"model out of range: {params} needs a frequency scale rho within "
                          "2^-170..2^170 and |gamma| >= 2^-127 rho^6 unless gamma is given as 0")
    seed = overrides.seed if overrides.seed is not None else raw.get("seed", 0)
    tol = overrides.tol if overrides.tol is not None else raw.get("tol")
    return RunConfig(
        params=params,
        omegas=omegas,
        seed=config_value(seed, "seed", int, minimum=0),
        tol=None if tol is None else config_value(tol, "tol", minimum=0.0),
        sections=raw,
    )


class _OutputError(OSError):
    """An OSError raised by ``_output``, which already names its path."""


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The file at ``path``, or the sys.stdout current at call time when no path is given.

    An OSError from opening or writing the file is raised again as one that names ``path``.
    When the body raises, the file is removed if this call created it; a path that existed
    before (a user's file, a device such as /dev/full, a directory) is never removed.
    """
    if path is None:
        yield sys.stdout
        return
    created = False
    try:
        try:
            fh, created = open(path, "x"), True
        except FileExistsError:
            fh = open(path, "w")
        with fh:
            yield fh
    except BaseException as exc:
        if created:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError) and not isinstance(exc, _OutputError):
            raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _write_json(path: Optional[str], obj: dict) -> None:
    with _output(path) as stream:
        json.dump(obj, stream, indent=2, sort_keys=True)
        stream.write("\n")


def cmd_simulate(cfg: RunConfig, out: Optional[str]) -> int:
    from . import dynamics

    sec = cfg.section("simulate")
    dt = config_value(sec.get("dt", 1e-3), "simulate.dt")
    t_end = config_value(sec.get("t_end", 20.0), "simulate.t_end")
    try:
        dynamics.step_count(t_end, dt)
    except ValueError as exc:
        raise ConfigError(f"simulate {exc}") from exc
    initial = config_value(
        sec.get("initial", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)), "simulate.initial", shape=(6,)
    )
    method = sec.get("method", "rk4")
    if method not in ("rk4", "exact"):
        raise ConfigError(f"simulate.method must be rk4 or exact, got {method!r}")
    interaction = None
    if sec.get("interaction") is not None:
        isec = config_object(sec["interaction"], "simulate.interaction")
        kind = isec.get("kind", "quartic")
        if kind != "quartic":
            raise ConfigError(f"simulate.interaction.kind must be quartic, got {kind!r}")
        variable = config_value(isec.get("variable", 0), "simulate.interaction.variable", int)
        lam = config_value(isec.get("lam", 1.0), "simulate.interaction.lam")
        try:
            interaction = dynamics.InteractionSpec.quartic(lam=lam, variable=variable)
        except ValueError as exc:
            raise ConfigError(f"malformed interaction spec: {exc}") from exc

    p = cfg.params
    sol = divergent = None
    if interaction is None:
        with contextlib.suppress(Pu6Error):
            sol = dynamics.solve_exact(cfg.frequencies, initial)
            divergent = dynamics.divergent_mode_present(sol)

    if method == "exact":
        if sol is None:
            raise ConfigError("exact simulation needs an oscillatory, interaction-free model")
        traj = dynamics.exact_trajectory(sol, t_end, dt)
    else:
        traj = dynamics.integrate_rk4(p, initial, t_end, dt, interaction)

    hvals, drift = dynamics.trajectory_hamiltonians(traj, p)  # overflow exits before any file opens
    base = out or "trajectory"
    csv_path, json_path = base + ".csv", base + ".json"
    summary = {
        "method": traj.method,
        "dt": dt,
        "t_end": t_end,
        "max_drift": {"H1": drift[0], "H2": drift[1], "H3": drift[2]},
        "interacting": interaction is not None,
    }
    if divergent is not None:
        summary["divergent_mode_present"] = bool(divergent)
    with _output(csv_path) as fh:  # a JSON that cannot be written removes a new CSV too
        dynamics.trajectory_csv(traj, hvals, fh)
        fh.close()
        _write_json(json_path, summary)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: Optional[str]) -> int:
    from . import verification

    n_random = config_value(
        cfg.section("verify").get("n_random", 20), "verify.n_random", int, minimum=0
    )
    rng = np.random.default_rng(cfg.seed)
    results = verification.run_invariant_suite(
        cfg.params, rng=rng, n_random=n_random, tol=cfg.tol
    )
    report = {
        "params": {"alpha": cfg.params.alpha, "beta": cfg.params.beta, "gamma": cfg.params.gamma},
        "seed": cfg.seed,
        "checks": [
            {"name": r.name, "status": r.status, "residual": r.residual, "detail": r.detail}
            for r in results
        ],
        "all_passed": verification.suite_passed(results),
    }
    _write_json(out, report)
    if not report["all_passed"]:
        first = next(r for r in results if r.status == "fail")
        print(f"verification failed at: {first.name} ({first.detail})", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_scan(cfg: RunConfig, out: Optional[str]) -> int:
    from . import positivity

    sec = cfg.sections.get("scan")
    if sec is None:
        raise ConfigError("scan requires a 'scan' section with the grid spec")
    grid = positivity.GridSpec.from_json(sec)
    f = cfg.frequencies
    f.require_distinct("scan", ConfigError)  # before the scan runs and the output is opened
    result = positivity.region_scan(grid, f)
    with _output(out) as stream:
        result.write_csv(stream)
    print(
        f"{result.positive_count()} positive of {result.verdict.size} cells; "
        f"{np.count_nonzero(result.methods_disagree)} method disagreements",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_represent(cfg: RunConfig, out: Optional[str]) -> int:
    from . import representations

    sec = cfg.section("represent")
    kind = sec.get("kind", "Ta2")
    choices = sec.get("free_choices", {})
    p = cfg.params
    rep = representations.build_representation(kind, p, choices, cfg.tol)
    report = representations.equivalence_check(rep, p)
    c456 = representations.transformed_coefficients(rep, p)
    verdict = representations.representation_positivity(c456, p)
    payload = {
        "representation": rep.to_json_dict(),
        "equivalence_pattern": list(report.pattern),
        "structural_residuals": list(report.structural_residuals),
        "transformed_coefficients": {"c4": c456[0], "c5": c456[1], "c6": c456[2]},
        "positivity": {
            "positive": verdict.positive,
            "min_eigenvalue": verdict.min_eigenvalue,
            "prefactors": list(verdict.prefactors) if verdict.prefactors else None,
        },
    }
    _write_json(out, payload)
    return EXIT_OK


@functools.cache  # one shared parser per process: parse with it, never modify it
def build_parser() -> argparse.ArgumentParser:
    def add_common(parser, default=None):
        parser.add_argument("--config", default=default, help="JSON config file")
        parser.add_argument("--out", default=default, help="output path (base path for simulate)")
        parser.add_argument("--seed", type=int, default=default, help="seed for random draws")
        parser.add_argument(
            "--tol", type=float, default=default,
            help="relative degeneracy tolerance (unset: the rounding floor alone)",
        )

    ap = argparse.ArgumentParser(
        prog="pu6",
        description="sixth-order oscillator: simulation, invariant verification, "
        "positivity scans and 3D representations",
    )
    add_common(ap)
    # flags are also accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    add_common(common, default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("simulate", "verify", "scan", "represent"):
        sub.add_parser(name, parents=[common])
    return ap


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "represent": cmd_represent,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        return _COMMANDS[args.command](cfg, args.out)
    except (Pu6Error, OSError) as exc:
        code, prefix = exit_status(type(exc))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
