"""Named machine-checkable invariants, shared by the CLI and the test suite.

Each check returns a residual and a pass/fail/skip status; skips carry the
reason (degenerate frequencies exclude the block checks, gamma = 0 excludes
everything built on the second and third tensors).  ``hierarchy_routes``
compares the recursion with the ladder route for every gamma != 0, and with
the closed-form and block routes too when the frequencies are real and
distinct.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core, hierarchy, positivity, symmetries
from .core import PUParams, frequencies_from_params
from .errors import ComplexFrequencies, DegenerateFrequencies, GammaZero, SingularCombination

# draws allowed per requested dual-recovery sample; a singular draw has
# probability zero, so running out means coeffs_dual rejects regular input
_DUAL_DRAWS_PER_SAMPLE = 10


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
    """Largest entry of ``residual`` over the product of the operands' largest entries.

    The identities are exact, so a residual is pure roundoff relative to the
    operand norms.
    """
    return np.abs(residual).max() / np.prod([np.abs(m).max() for m in operands])


def _skip(name, reason):
    return CheckResult(name, "skip", float("nan"), reason)


def _fail(name, reason):
    return CheckResult(name, "fail", float("nan"), reason)


def run_invariant_suite(
    p: PUParams,
    rng: Optional[np.random.Generator] = None,
    n_random: int = 20,
    tol: Optional[float] = None,
) -> list[CheckResult]:
    """Run every named invariant at the given parameters.

    Random-draw checks (flow equality across parameter sets, expansion
    exactness, dual flow recovery) use the supplied generator, so a fixed
    seed reproduces the report bit for bit.

    Every check runs on the unit-frequency model of ``core.canonical_units``:
    the time rescaling maps each identity and definiteness statement onto
    itself, so residuals are plain relative ones and mean the same at any
    frequency scale.  ``tol`` overrides the degeneracy-classification
    tolerance on the canonical squared frequencies.
    """
    rng = rng or np.random.default_rng(0)
    _, p = core.canonical_units(p)
    results: list[CheckResult] = []
    F = core.flow_operator(p)

    try:
        freqs = frequencies_from_params(p, tol=tol if tol is not None else 1e-9)
        degenerate = freqs.is_degenerate()
    except (ComplexFrequencies, GammaZero):
        freqs = None
        degenerate = False

    # --- tensors ---------------------------------------------------------
    try:
        js = [core.poisson_tensor(k, p) for k in (1, 2, 3)]
        asym = max(np.abs(j.matrix + j.matrix.T).max() for j in js)
        results.append(_result("poisson_antisymmetry", asym, 1e-14))
        dets = [np.linalg.det(j.matrix) for j in js]
        expected = [1.0, p.gamma ** -4.0, p.gamma ** -8.0]
        rel = max(abs(d - e) / abs(e) for d, e in zip(dets, expected))
        results.append(_result("poisson_determinants", rel, 1e-10))
    except GammaZero as exc:
        js = None
        results.append(_fail("poisson_antisymmetry", f"GammaZero: {exc}"))
        results.append(_fail("poisson_determinants", f"GammaZero: {exc}"))

    hs = [core.hamiltonian_form(k, p) for k in (1, 2, 3)]
    if js is not None:
        resid = max(_rel(j.matrix @ h.matrix - F, j.matrix, h.matrix) for j, h in zip(js, hs))
        results.append(_result("flow_equality", resid, 1e-9, "relative to operand scale"))
        resid = max(_rel(F @ j.matrix + j.matrix @ F.T, F, j.matrix) for j in js)
        results.append(_result("poisson_field_condition", resid, 1e-9, "relative to operand scale"))
        resid = max(
            _rel(core.poisson_bracket(a, b, jk).matrix, a.matrix, jk.matrix, b.matrix)
            for jk in js for a in hs for b in hs
        )
        results.append(_result("involution_base", resid, 1e-9, "relative to operand scale"))
    else:
        results.append(_fail("flow_equality", "GammaZero: J2, J3 unavailable"))
        results.append(_fail("poisson_field_condition", "GammaZero: J2, J3 unavailable"))
        results.append(_fail("involution_base", "GammaZero: J2, J3 unavailable"))

    # --- symmetries -------------------------------------------------------
    xs = [symmetries.lie_generator(i, p) for i in range(1, 7)]
    pairs = [(x, y) for i, x in enumerate(xs) for y in xs[i + 1:]]
    resid = max(_rel(symmetries.commutator(x, y), x, y) for x, y in pairs)
    results.append(_result("abelian_algebra", resid, 1e-9, "relative to operand scale"))

    scale = max(np.abs(h.matrix).max() for h in hs)
    resid = 0.0
    for h in hs:
        for i in (0, 1, 2):
            resid = max(resid, np.abs(symmetries.symmetry_action_on_form(xs[i], h).matrix).max())
        resid = max(resid, np.abs(symmetries.symmetry_action_on_form(xs[3], h).matrix - h.matrix).max())
    resid = max(resid, np.abs(symmetries.symmetry_action_on_form(xs[4], hs[0]).matrix - hs[1].matrix).max())
    resid = max(resid, np.abs(symmetries.symmetry_action_on_form(xs[4], hs[1]).matrix - hs[2].matrix).max())
    resid = max(resid, np.abs(symmetries.symmetry_action_on_form(xs[5], hs[0]).matrix - hs[2].matrix).max())
    results.append(_result("action_table", resid / scale, 1e-9, "relative to form scale"))

    resid = max(_rel(symmetries.commutator(x, F), x, F) for x in xs)
    results.append(_result("flow_symmetries", resid, 1e-9, "relative to operand scale"))

    # --- hierarchy routes --------------------------------------------------
    if js is None:
        results.append(_fail("hierarchy_routes", "GammaZero: recursion needs J2"))
        results.append(_fail("hierarchy_conservation", "GammaZero"))
        results.append(_fail("hierarchy_involution", "GammaZero"))
    else:
        try:
            recs = [core.QuadraticForm(a) for a in hierarchy._recursion(10, p)]
            routes = {"ladder": lambda n: hierarchy._weighted_sum(
                hierarchy.hierarchy_coefficients(n, p), [h.matrix for h in hs])}
            if freqs is not None and not degenerate:
                routes["closed"] = lambda n: hierarchy.hamiltonian_n_closed(n, p).matrix
                routes["block"] = lambda n: positivity.hamiltonian_n_blocks(n, freqs).matrix
            rel = max(
                _rel(rec.matrix - route(n), rec.matrix)
                for n, rec in enumerate(recs, start=1) for route in routes.values()
            )
            results.append(_result(
                "hierarchy_routes", rel, 1e-7, f"n = 1..10, recursion vs {'/'.join(routes)}"
            ))
            resid = max(_rel(r.matrix @ F + F.T @ r.matrix, r.matrix @ F) for r in recs)
            results.append(_result("hierarchy_conservation", resid, 1e-8, "symmetric part of A_n F"))
            resid = max(
                _rel(core.poisson_bracket(a, b, jk).matrix, a.matrix, jk.matrix, b.matrix)
                for jk in js for m, a in enumerate(recs[:5]) for b in recs[m:5]
            )
            results.append(_result("hierarchy_involution", resid, 1e-9, "m, n <= 5, all tensors"))
        except (ArithmeticError, DegenerateFrequencies) as exc:
            results.append(_fail("hierarchy_routes", str(exc)))

    # --- blocks and expansion ----------------------------------------------
    if freqs is None or degenerate:
        results.append(_skip("block_identity", "needs three distinct real frequencies"))
        results.append(_skip("block_psd_rank", "needs three distinct real frequencies"))
        results.append(_skip("block_symmetry_scalars", "needs three distinct real frequencies"))
        results.append(_skip("expansion_exactness", "needs three distinct real frequencies"))
    else:
        al, be, ga = p.alpha, p.beta, p.gamma
        blocks = {jk: positivity.positive_block(*jk, freqs) for jk in core.PAIRS}
        lhs = sum(b.form.matrix for b in blocks.values())
        rhs = 2.0 * (
            (al * al - 2.0 * be) * hs[0].matrix
            + (3.0 - al * be / ga) * hs[1].matrix
            + (al / ga) * hs[2].matrix
        )
        results.append(
            _result("block_identity", np.abs(lhs - rhs).max() / np.abs(lhs).max(), 1e-9)
        )
        worst = 0.0
        for b in blocks.values():
            ev = np.linalg.eigvalsh(b.form.matrix)
            norm = np.abs(ev).max()
            worst = max(worst, abs(ev[0]) / norm, abs(ev[3]) / norm)  # 4 zeros expected
            if ev[4] <= 1e-8 * norm or ev[5] <= 1e-8 * norm:
                worst = max(worst, 1.0)
        results.append(_result("block_psd_rank", worst, 1e-8, "rank 2, PSD"))
        worst = 0.0
        for (j, k), b in blocks.items():
            for i in range(1, 7):
                scalar = positivity.block_symmetry_action(i, j, k, freqs)
                acted = symmetries.symmetry_action_on_form(xs[i - 1], b.form).matrix
                worst = max(
                    worst,
                    np.abs(acted - scalar * b.form.matrix).max() / np.abs(b.form.matrix).max(),
                )
        results.append(_result("block_symmetry_scalars", worst, 1e-9))
        worst = 0.0
        for _ in range(50):
            c4, c5, c6 = rng.normal(size=3)
            pref = positivity.hbar_prefactors(c4, c5, c6, freqs)
            lhs = sum(w * b.form.matrix for w, b in zip(pref, blocks.values()))
            rhs = c4 * hs[0].matrix + c5 * hs[1].matrix + c6 * hs[2].matrix
            worst = max(worst, np.abs(lhs - rhs).max() / max(1e-300, np.abs(rhs).max()))
        results.append(_result("expansion_exactness", worst, 1e-8, "50 random draws"))

    # --- duality -----------------------------------------------------------
    if js is None:
        results.append(_fail("dual_flow_recovery", "GammaZero"))
    else:
        worst = 0.0
        count = 0
        max_draws = _DUAL_DRAWS_PER_SAMPLE * n_random
        for _ in range(max_draws):
            if count == n_random:
                break
            c4, c5, c6 = rng.normal(size=3)
            try:
                coeffs = hierarchy.coeffs_dual(c4, c5, c6, p)
            except SingularCombination:
                continue
            count += 1
            flow = hierarchy.combined_flow(coeffs, p)
            worst = max(worst, _rel(flow - F, F))
            e = hierarchy.flow_expansion_coefficients(coeffs, p)
            worst = max(worst, np.abs(e - np.array([1.0, 0.0, 0.0])).max())
        if count < n_random:
            results.append(_fail(
                "dual_flow_recovery",
                f"only {count} of {max_draws} draws were non-singular, {n_random} needed",
            ))
        else:
            results.append(_result("dual_flow_recovery", worst, 1e-8, f"{n_random} random draws"))

    # --- canonical picture ---------------------------------------------------
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(-1.0, 1.0, size=6)
        cs = core.ostrogradsky_map(s, p)
        worst = max(
            worst,
            abs(core.canonical_hamiltonian(cs, p) - hs[0](s)) / max(1e-12, abs(hs[0](s))),
        )
    results.append(_result("ostrogradsky_consistency", worst, 1e-10, "100 random states"))

    if freqs is not None:
        rt = core.params_from_frequencies(freqs)
        worst = max(_rel(getattr(rt, k) - getattr(p, k), getattr(p, k)) for k in vars(p))
        results.append(_result("frequency_roundtrip", worst, 1e-8))
    else:
        results.append(_skip("frequency_roundtrip", "non-oscillatory parameter regime"))

    return results


def suite_passed(results: list[CheckResult]) -> bool:
    return all(r.status != "fail" for r in results)
