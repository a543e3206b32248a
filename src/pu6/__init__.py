"""Tri-Hamiltonian toolkit for the sixth-order Pais-Uhlenbeck oscillator.

``import pu6`` loads no submodule.  Each exported name below resolves on
access to ``pu6.<module>.<name>`` (looked up on every access, so a patched
module attribute is what ``pu6.<name>`` returns), and ``pu6.<submodule>``
imports that submodule, so a caller loads only the modules it uses.
"""
from importlib import import_module as _import_module

_EXPORTS = {
    "core": "DIM CanonicalState Degeneracy FrequencyTriple PoissonTensor PUParams QuadraticForm "
            "as_state canonical_hamiltonian canonical_units flow_operator frequencies_from_params "
            "frequency_triple hamiltonian_form ostrogradsky_map params_from_frequencies "
            "poisson_bracket poisson_tensor",
    "dynamics": "ExactSolution InteractionSpec Trajectory conservation_drift "
                "divergent_mode_present exact_trajectory integrate_rk4 "
                "interaction_field_jacobian lie_derivative_residual solve_exact trajectory_csv",
    "errors": "ComplexBranch ComplexFrequencies ConfigError DegenerateFrequencies "
              "EquivalenceFailure GammaZero InvalidPermutation NonFinite Pu6Error "
              "SingularCombination SingularModeMatrix ZeroDenominator ZeroKinetic",
    "hierarchy": "CombinationCoeffs coeffs_dual coeffs_from_tensor combined_flow combined_form "
                 "flow_expansion_coefficients hamiltonian_n_closed hamiltonian_n_recursive "
                 "hierarchy_coefficients",
    "positivity": "AxisSpec GridSpec PositivityVerdict RegionScanResult block_symmetry_action "
                  "eigenvalue_verdict hamiltonian_n_blocks hbar_prefactors positive_block "
                  "positivity_verdict region_scan tensor_weight_polynomials",
    "representations": "KINDS EquivalenceReport Rep3DParams Representation StateProjection "
                       "build_representation equivalence_check legendre_hamiltonian "
                       "phase_space_map project_state representation_positivity "
                       "second_order_residual ta1_radicand tc1_radicand transformed_coefficients",
    "verification": "CheckResult run_invariant_suite suite_passed",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "parallel", "symmetries"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
