"""Start-up: which pu6 modules a fresh interpreter loads, and the lazy package exports.

The module sets are read in subprocesses, because this suite's conftest has
already imported pu6 into the test process.
"""
import json
import os
import subprocess
import sys

import pytest

import pu6

# the package's exports, one entry per defining module
EXPORTS = {
    "core": (
        "DIM", "CanonicalState", "Degeneracy", "FrequencyTriple", "PoissonTensor", "PUParams",
        "QuadraticForm", "as_state", "canonical_hamiltonian", "canonical_units", "flow_operator",
        "frequencies_from_params", "frequency_triple", "hamiltonian_form", "ostrogradsky_map",
        "params_from_frequencies", "poisson_bracket", "poisson_tensor",
    ),
    "dynamics": (
        "ExactSolution", "InteractionSpec", "Trajectory", "conservation_drift",
        "divergent_mode_present", "exact_trajectory", "integrate_rk4",
        "interaction_field_jacobian", "lie_derivative_residual", "solve_exact", "trajectory_csv",
    ),
    "errors": (
        "ComplexBranch", "ComplexFrequencies", "ConfigError", "DegenerateFrequencies",
        "EquivalenceFailure", "GammaZero", "InvalidPermutation", "NonFinite", "Pu6Error",
        "SingularCombination", "SingularModeMatrix", "ZeroDenominator", "ZeroKinetic",
    ),
    "hierarchy": (
        "CombinationCoeffs", "coeffs_dual", "coeffs_from_tensor", "combined_flow",
        "combined_form", "flow_expansion_coefficients", "hamiltonian_n_closed",
        "hamiltonian_n_recursive", "hierarchy_coefficients",
    ),
    "positivity": (
        "AxisSpec", "GridSpec", "PositivityVerdict", "RegionScanResult", "block_symmetry_action",
        "eigenvalue_verdict", "hamiltonian_n_blocks", "hbar_prefactors", "positive_block",
        "positivity_verdict", "region_scan", "tensor_weight_polynomials",
    ),
    "representations": (
        "KINDS", "EquivalenceReport", "Rep3DParams", "Representation", "StateProjection",
        "build_representation", "equivalence_check", "legendre_hamiltonian", "phase_space_map",
        "project_state", "representation_positivity", "second_order_residual", "ta1_radicand",
        "tc1_radicand", "transformed_coefficients",
    ),
    "verification": ("CheckResult", "run_invariant_suite", "suite_passed"),
}
ALL_EXPORTS = [name for names in EXPORTS.values() for name in names]

# prints the pu6 modules loaded at exit, as the last stderr line
_REPORT = ("import atexit, json, sys; atexit.register(lambda: print(json.dumps(sorted("
           "m for m in sys.modules if m.split('.')[0] == 'pu6')), file=sys.stderr)); ")

TINY = {
    "model": {"omegas": [3, 2, 1]},
    "simulate": {"dt": 0.1, "t_end": 1.0},
    "verify": {"n_random": 2},
    "represent": {"kind": "Ta2"},
    "scan": {"axis1": {"name": "c2", "min": -30, "max": 0, "n": 3},
             "axis2": {"name": "c3", "min": 0, "max": 150, "n": 3},
             "fixed": {"name": "c1", "value": 1.0}},
}


def _run(code: str, cwd=None) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(pu6.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=cwd, check=True,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)


def _loaded(code: str, cwd=None) -> set:
    return set(json.loads(_run(_REPORT + code, cwd).stderr.splitlines()[-1]))


def test_import_pu6_loads_only_the_package():
    assert _loaded("import pu6") == {"pu6"}


def test_import_cli_loads_core_and_errors_only():
    assert _loaded("import pu6.cli") == {"pu6", "pu6.cli", "pu6.core", "pu6.errors"}


# every subcommand builds H2 and H3 as the symmetry images X5(H1) and X6(H1), so
# each loads pu6.symmetries
@pytest.mark.parametrize("command, runs, absent", [
    ("verify", "verification", {"dynamics", "parallel", "fmt17"}),
    ("scan", "positivity", {"dynamics", "representations", "verification"}),
    ("simulate", "dynamics", {"positivity", "hierarchy", "representations", "verification"}),
    ("represent", "representations", {"dynamics", "verification", "fmt17"}),
])
def test_subcommand_loads_only_its_own_modules(tmp_path, command, runs, absent):
    (tmp_path / "c.json").write_text(json.dumps(TINY))
    argv = ["pu6", "--config", "c.json", "--out", "out", command]
    loaded = _loaded(f"import runpy; sys.argv = {argv!r}; "
                     "runpy.run_module('pu6.cli', run_name='__main__', alter_sys=True)", tmp_path)
    assert f"pu6.{runs}" in loaded
    assert not loaded & {f"pu6.{m}" for m in absent}


def test_exports_resolve_to_their_modules():
    assert sorted(pu6.__all__) == sorted(ALL_EXPORTS)
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(pu6, name) is getattr(getattr(pu6, module), name), name


def test_export_follows_a_patched_module_attribute(monkeypatch):
    monkeypatch.setattr(pu6.positivity, "region_scan", len)
    assert pu6.region_scan is len


def test_submodules_unknown_names_and_star_import():
    out = _run(
        "import sys, pu6\n"
        "print(sorted(m for m in sys.modules if m.startswith('pu6')))\n"
        "assert pu6.parallel.usable_cpus(1) == 1\n"
        "from pu6 import symmetries\n"
        "print(symmetries is pu6.symmetries, sorted(m for m in sys.modules if m.startswith('pu6')))\n"
        "for bad in ('nonexistent', 'PAIRS'):\n"
        "    try:\n"
        "        getattr(pu6, bad)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
        "ns = {}\n"
        "exec('from pu6 import *', ns)\n"
        "del ns['__builtins__']\n"
        "print(sorted(ns) == sorted(pu6.__all__), all(ns[k] is getattr(pu6, k) for k in ns))\n"
        "print(set(pu6.__all__) <= set(dir(pu6)))\n"
    ).stdout.splitlines()
    assert out == [
        "['pu6']",
        "True ['pu6', 'pu6.core', 'pu6.errors', 'pu6.parallel', 'pu6.symmetries']",
        "module 'pu6' has no attribute 'nonexistent'",
        "module 'pu6' has no attribute 'PAIRS'",
        "True True",
        "True",
    ]
