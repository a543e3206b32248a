"""Named machine-checkable invariants, shared by the CLI and the test suite.

Each check is one array identity over stacked operands: J1..J3, H1..H3,
X1..X6, the blocks B_jk and the recursion chain A1..A10 are built once as
(k, 6, 6) stacks and handed to the library routine the check certifies.
Every report lists the same 18 checks in the same order.  A check behind a
closed gate reports the gate's status and reason in place of a residual:
gamma = 0 fails everything built on the second and third tensors, a broken
recursion fails the three hierarchy checks, and the block checks and the
frequency round trip skip without three distinct real frequencies and
without real ones respectively.  ``hierarchy_routes`` compares the
recursion with the ladder route for every gamma != 0, and with the
closed-form and block routes too when the frequencies are real and distinct.

``core`` builds H2 and H3 as X5(H1) and X6(H1), so ``action_table``'s rows
X5(H1) = H2 and X6(H1) = H3 hold by construction, with residual 0; its
other 13 rows, ``flow_equality`` (J2 A2 = J3 A3 = F, the paper's J2 and J3),
``hierarchy_routes`` and ``block_identity`` still test H2 and H3.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core, hierarchy, positivity, symmetries
from .core import PAIRS, PUParams, frequencies_from_params
from .errors import ComplexFrequencies, GammaZero, fits_in_memory

_OPERANDS = "relative to operand scale"

# the paper's action table as rows (i, n, m): X_i(H_n) = H_m, with H_0 the zero form
_ACTION_TABLE = np.array(
    [(i, n, 0) for i in (1, 2, 3) for n in (1, 2, 3)]
    + [(4, n, n) for n in (1, 2, 3)]
    + [(5, 1, 2), (5, 2, 3), (6, 1, 3)]
).T


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    residual: float
    detail: str = ""


def _result(name, residual, tol, detail=""):
    status = "pass" if residual < tol else "fail"
    return CheckResult(name, status, float(residual), detail or f"tolerance {tol:g}")


def _rel(residual, *operands):
    """Largest ratio of a residual's largest entry to the product of the operands' largest entries.

    Every array reduces over its last two axes and the ratios broadcast over
    the stack axes in front, so one call covers a whole stack of identities.
    The identities are exact, so a residual is pure roundoff relative to the
    operand norms.
    """
    scale = 1.0
    for m in operands:
        scale = scale * np.abs(m).max(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero scale gives NaN, which fails
        return (np.abs(residual).max(axis=(-2, -1)) / scale).max(initial=0.0)


def run_invariant_suite(
    p: PUParams,
    rng: Optional[np.random.Generator] = None,
    n_random: int = 20,
    tol: Optional[float] = None,
) -> list[CheckResult]:
    """Run every named invariant at the given parameters.

    The random-draw checks (expansion exactness, dual flow recovery and
    Ostrogradsky consistency) draw from the supplied generator in that order
    and in the same sequence as one draw at a time, so a fixed seed
    reproduces the report bit for bit.  Dual flow recovery draws one batch
    of ``n_random`` Hamiltonian weights; a draw that ``coeffs_dual`` rejects
    fails the check, it is never redrawn.

    Every check runs on the unit-frequency model of ``core.canonical_units``:
    the time rescaling maps each identity and definiteness statement onto
    itself, so residuals are plain relative ones and mean the same at any
    frequency scale.  ``tol`` overrides the relative degeneracy tolerance
    of ``core.frequencies_from_params``.
    """
    rng = rng or np.random.default_rng(0)
    _, p = core.canonical_units(p)
    js, hs, F = core._model_matrices(p)
    H = np.stack(hs)
    X = np.stack([symmetries.lie_generator(i, p) for i in range(1, 7)])
    try:
        f = frequencies_from_params(p, tol=tol)
    except ComplexFrequencies:
        f = None
    distinct = f is not None and not f.is_degenerate()
    if distinct:
        B = np.stack([positivity.positive_block(j, k, f).matrix for j, k in PAIRS])
    J = A = no_tensors = no_chain = None
    try:
        p.require_gamma()  # js is empty at gamma = 0
        J = np.stack(js)
        A = np.stack(hierarchy._recursion(10, p))
    except GammaZero as exc:
        no_tensors = f"GammaZero: {exc}"
    except ArithmeticError as exc:  # the recursion's own structure checks
        no_chain = str(exc)

    # gates: None when open, else the (status, detail) every check behind them reports
    def needs_gamma(detail):
        return None if J is not None else ("fail", detail)

    def needs_chain(detail):
        return needs_gamma(detail) or (None if A is not None else ("fail", no_chain))

    needs_distinct = None if distinct else ("skip", "needs three distinct real frequencies")
    needs_real = None if f is not None else ("skip", "non-oscillatory parameter regime")

    def involution(forms, i, j):
        """Largest relative bracket {A_i, A_j} under J1..J3 over the index pairs (i, j) of forms."""
        a, b, js = forms[i], forms[j], J[:, None]
        return _rel(core._bracket_matrix(a, js, b), a, js, b)

    def poisson_determinants():
        expected = np.array([1.0, p.gamma ** -4.0, p.gamma ** -8.0])
        return (np.abs(np.linalg.det(J) - expected) / np.abs(expected)).max(), 1e-10

    def abelian_algebra():
        i, j = np.triu_indices(6, 1)
        x, y = X[i], X[j]
        return _rel(symmetries.commutator(x, y), x, y), 1e-9, _OPERANDS

    def action_table():
        gen, form, image = _ACTION_TABLE
        acted = symmetries._action_matrix(X[gen - 1], H[form - 1])
        images = np.concatenate([np.zeros((1,) + F.shape), H])[image]
        return np.abs(acted - images).max() / np.abs(H).max(), 1e-9, "relative to form scale"

    def hierarchy_routes():
        ladder = [hierarchy.hierarchy_coefficients(n, p) for n in range(1, 11)]
        routes = {"ladder": hierarchy._weighted_sum(np.transpose(ladder), H)}
        if distinct:
            n = np.arange(1, 11)
            routes["closed"] = hierarchy._weighted_sum(hierarchy._closed_coefficients(n, f).T, H)
            routes["block"] = hierarchy._weighted_sum(positivity._block_weights(n, f).T, B)
        resid = _rel(A - np.stack(list(routes.values())), A)
        return resid, 1e-7, f"n = 1..10, recursion vs {'/'.join(routes)}"

    def block_identity():
        al, be, ga = p.alpha, p.beta, p.gamma
        lhs = B.sum(axis=0)
        rhs = 2.0 * hierarchy._weighted_sum((al * al - 2.0 * be, 3.0 - al * be / ga, al / ga), H)
        return _rel(lhs - rhs, lhs), 1e-9

    def block_psd_rank():
        ev = np.linalg.eigvalsh(B)
        norm = np.abs(ev).max(axis=-1, keepdims=True)
        low_rank = np.any(ev[:, 4:] <= 1e-8 * norm)  # two positive eigenvalues expected
        return max((np.abs(ev[:, [0, 3]]) / norm).max(), float(low_rank)), 1e-8, "rank 2, PSD"

    def block_symmetry_scalars():
        scalars = np.array([
            [positivity.block_symmetry_action(i, j, k, f) for j, k in PAIRS] for i in range(1, 7)
        ])
        acted = symmetries._action_matrix(X[:, None], B)
        return _rel(acted - scalars[..., None, None] * B, B), 1e-9

    def expansion_exactness():
        c = rng.normal(size=(50, 3)).T  # the stream of 50 draws of three
        lhs = hierarchy._weighted_sum(positivity.hbar_prefactors(*c, f).T, B)
        rhs = hierarchy._weighted_sum(c, H)
        scale = np.maximum(1e-300, np.abs(rhs).max(axis=(-2, -1)))
        return (np.abs(lhs - rhs).max(axis=(-2, -1)) / scale).max(), 1e-8, "50 random draws"

    def dual_flow_recovery():
        # a singular draw has probability zero, so a rejected one means coeffs_dual
        # refuses regular input: it fails the check, with a NaN residual
        with fits_in_memory(f"a batch of {n_random} random draws", 8 * core.DIM ** 2 * n_random):
            ham = rng.normal(size=(n_random, 3))
            tensor, regular, _ = hierarchy._dual_weights(ham, p)
            if not regular.all():
                return float("nan"), 1e-8, f"{np.count_nonzero(~regular)} of {n_random} draws rejected"
            c = hierarchy.CombinationCoeffs(*tensor.T, *ham.T)
            flows = hierarchy.combined_flow(c, p)
            e = hierarchy.flow_expansion_coefficients(c, p) - (1.0, 0.0, 0.0)
        return max(_rel(flows - F, F), np.abs(e).max(initial=0.0)), 1e-8, f"{n_random} random draws"

    def ostrogradsky_consistency():
        s = rng.uniform(-1.0, 1.0, size=(100, 6))  # the stream of 100 draws of six
        canonical = core._canonical_energy(core._ostrogradsky(s, p), p)
        (energy,) = core._form_values(s, H[:1])
        resid = np.abs(canonical - energy) / np.maximum(1e-12, np.abs(energy))
        return resid.max(), 1e-10, "100 random states"

    def frequency_roundtrip():
        rt = core.params_from_frequencies(f)
        return max(abs(v - getattr(p, k)) / abs(getattr(p, k)) for k, v in vars(rt).items()), 1e-8

    no_j23 = "GammaZero: J2, J3 unavailable"
    checks = (
        ("poisson_antisymmetry", needs_gamma(no_tensors),
         lambda: (_rel(J + J.transpose(0, 2, 1)), 1e-14)),
        ("poisson_determinants", needs_gamma(no_tensors), poisson_determinants),
        ("flow_equality", needs_gamma(no_j23),
         lambda: (_rel(J @ H - F, J, H), 1e-9, _OPERANDS)),
        ("poisson_field_condition", needs_gamma(no_j23),
         lambda: (_rel(F @ J + J @ F.T, F, J), 1e-9, _OPERANDS)),
        ("involution_base", needs_gamma(no_j23),
         lambda: (involution(H, *np.indices((3, 3)).reshape(2, -1)), 1e-9, _OPERANDS)),
        ("abelian_algebra", None, abelian_algebra),
        ("action_table", None, action_table),
        ("flow_symmetries", None,
         lambda: (_rel(symmetries.commutator(X, F), X, F), 1e-9, _OPERANDS)),
        ("hierarchy_routes", needs_chain("GammaZero: recursion needs J2"), hierarchy_routes),
        ("hierarchy_conservation", needs_chain("GammaZero"),
         lambda: (_rel(A @ F + F.T @ A, A @ F), 1e-8, "symmetric part of A_n F")),
        ("hierarchy_involution", needs_chain("GammaZero"),
         lambda: (involution(A, *np.triu_indices(5)), 1e-9, "m, n <= 5, all tensors")),
        ("block_identity", needs_distinct, block_identity),
        ("block_psd_rank", needs_distinct, block_psd_rank),
        ("block_symmetry_scalars", needs_distinct, block_symmetry_scalars),
        ("expansion_exactness", needs_distinct, expansion_exactness),
        ("dual_flow_recovery", needs_gamma("GammaZero"), dual_flow_recovery),
        ("ostrogradsky_consistency", None, ostrogradsky_consistency),
        ("frequency_roundtrip", needs_real, frequency_roundtrip),
    )
    return [
        CheckResult(name, gate[0], float("nan"), gate[1]) if gate else _result(name, *check())
        for name, gate, check in checks
    ]


def suite_passed(results: list[CheckResult]) -> bool:
    return all(r.status != "fail" for r in results)
