"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Criterion 7c asserts positivity of the tensor-weight point
(1, -20, 150) at frequencies (3, 2, 1); the eigenvalue oracle proves that
point indefinite (two negative directions), so 7c fails and is expected to
fail - see the README.
"""
import numpy as np
import pytest

import pu6
from conftest import random_param_sets
from pu6.symmetries import commutator, lie_generator, symmetry_action_on_form

STD = pu6.PUParams(14.0, 49.0, 36.0)
STD_F = pu6.frequency_triple(3.0, 2.0, 1.0)


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")


def _param_sets(n=20):
    return [STD] + random_param_sets(np.random.default_rng(99), n)


def test_criterion_1_poisson_determinants():
    worst = 0.0
    for p in _param_sets(20):
        for k, expected in ((1, 1.0), (2, p.gamma ** -4), (3, p.gamma ** -8)):
            d = np.linalg.det(pu6.poisson_tensor(k, p).matrix)
            worst = max(worst, abs(d - expected) / abs(expected))
    ok = worst < 1e-10
    _report("1 determinants", ok, f"worst rel error {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_2_flow_equality():
    worst = 0.0
    for p in _param_sets(20):
        F = pu6.flow_operator(p)
        for k in (1, 2, 3):
            JA = pu6.poisson_tensor(k, p).matrix @ pu6.hamiltonian_form(k, p).matrix
            worst = max(worst, np.abs(JA - F).max())
    ok = worst < 1e-9
    _report("2 tri-Hamiltonian flow equality", ok, f"worst entry {worst:.3e} (tol 1e-9)")
    assert ok


def test_criterion_3_abelian_algebra():
    worst = 0.0
    for p in _param_sets(20):
        xs = [lie_generator(i, p) for i in range(1, 7)]
        for i in range(6):
            for j in range(i + 1, 6):
                worst = max(worst, np.abs(commutator(xs[i], xs[j])).max())
    ok = worst < 1e-9
    _report("3 Abelian algebra", ok, f"worst of 15 commutators {worst:.3e} (tol 1e-9)")
    assert ok


def test_criterion_4_action_table():
    worst = 0.0
    for p in _param_sets(20):
        hs = [pu6.hamiltonian_form(k, p) for k in (1, 2, 3)]
        xs = [lie_generator(i, p) for i in range(1, 7)]
        pairs = [
            (xs[4], hs[0], hs[1].matrix),
            (xs[4], hs[1], hs[2].matrix),
            (xs[5], hs[0], hs[2].matrix),
        ]
        for h in hs:
            scale = max(1.0, np.abs(h.matrix).max())
            for i in (0, 1, 2):
                worst = max(
                    worst, np.abs(symmetry_action_on_form(xs[i], h).matrix).max() / scale
                )
            worst = max(
                worst,
                np.abs(symmetry_action_on_form(xs[3], h).matrix - h.matrix).max() / scale,
            )
        for x, h, target in pairs:
            scale = max(1.0, np.abs(target).max())
            worst = max(
                worst, np.abs(symmetry_action_on_form(x, h).matrix - target).max() / scale
            )
    ok = worst < 1e-9
    _report("4 action table", ok, f"worst rel deviation {worst:.3e} (tol 1e-9)")
    assert ok


def test_criterion_5_hierarchy():
    rng = np.random.default_rng(5)
    route_worst, cons_worst, invol_worst = 0.0, 0.0, 0.0
    for p in [STD] + random_param_sets(rng, 10):
        F = pu6.flow_operator(p)
        f = pu6.frequencies_from_params(p)
        recs = []
        for n in range(1, 11):
            closed = pu6.hamiltonian_n_closed(n, p).matrix
            rec = pu6.hamiltonian_n_recursive(n, p).matrix
            blocks = pu6.hamiltonian_n_blocks(n, f).matrix
            scale = max(1.0, np.abs(closed).max())
            route_worst = max(route_worst, np.abs(closed - rec).max() / scale)
            route_worst = max(route_worst, np.abs(closed - blocks).max() / scale)
            recs.append(pu6.QuadraticForm(rec))
            sym = rec @ F + F.T @ rec
            cons_worst = max(cons_worst, np.abs(sym).max() / max(1.0, np.abs(rec @ F).max()))
        tensors = [pu6.poisson_tensor(k, p) for k in (1, 2, 3)]
        for j in tensors:
            for a in recs[:5]:
                for b in recs[:5]:
                    br = pu6.poisson_bracket(a, b, j).matrix
                    s = max(1.0, np.abs(a.matrix).max() * np.abs(b.matrix).max())
                    invol_worst = max(invol_worst, np.abs(br).max() / s)
    ok = route_worst < 1e-7 and cons_worst < 1e-8 and invol_worst < 1e-9
    _report(
        "5 hierarchy (routes, conservation, involution)",
        ok,
        f"routes {route_worst:.3e} (1e-7), conservation {cons_worst:.3e} (1e-8), "
        f"involution {invol_worst:.3e}",
    )
    assert ok


def test_criterion_6_block_identity():
    worst = 0.0
    for p in _param_sets(20):
        f = pu6.frequencies_from_params(p)
        al, be, ga = p.alpha, p.beta, p.gamma
        lhs = sum(
            pu6.positive_block(j, k, f).matrix for (j, k) in ((1, 2), (2, 3), (1, 3))
        )
        rhs = 2.0 * (
            (al * al - 2 * be) * pu6.hamiltonian_form(1, p).matrix
            + (3.0 - al * be / ga) * pu6.hamiltonian_form(2, p).matrix
            + (al / ga) * pu6.hamiltonian_form(3, p).matrix
        )
        worst = max(worst, np.abs(lhs - rhs).max() / np.abs(lhs).max())
    ok = worst < 1e-9
    _report("6 block identity", ok, f"worst rel deviation {worst:.3e} (tol 1e-9)")
    assert ok


def test_criterion_7a_grid_agreement():
    grid = pu6.GridSpec(
        axis1=pu6.AxisSpec("c2", -30.0, 0.0, 200),
        axis2=pu6.AxisSpec("c3", 0.0, 150.0, 200),
        fixed_name="c1",
        fixed_value=1.0,
    )
    res = pu6.region_scan(grid, STD_F)
    pref = np.abs(res.prefactors[res.methods_disagree])
    bad = int(np.count_nonzero(pref.min(axis=-1) > 1e-8 * pref.max(axis=-1)))
    ok = bad == 0
    _report(
        "7a prefactor/eigenvalue agreement on 200x200 grid",
        ok,
        f"{res.verdict.size} cells, {res.positive_count()} positive, "
        f"{len(pref)} boundary-band disagreements, {bad} genuine",
    )
    assert ok


def test_criterion_7b_zero_planes_empty():
    counts = []
    for fixed in ("c1", "c2", "c3"):
        axes = [n for n in ("c1", "c2", "c3") if n != fixed]
        grid = pu6.GridSpec(
            axis1=pu6.AxisSpec(axes[0], -50.0, 50.0, 40),
            axis2=pu6.AxisSpec(axes[1], -150.0, 150.0, 40),
            fixed_name=fixed,
            fixed_value=0.0,
        )
        counts.append(pu6.region_scan(grid, STD_F).positive_count())
    ok = all(c == 0 for c in counts)
    _report("7b zero planes contain no positive cell", ok, f"positive counts {counts}")
    assert ok


def test_criterion_7c_witness_point():
    # As stated, (c1, c2, c3) = (1, -20, 150) at frequencies (3, 2, 1) should
    # be positive.  The eigenvalue oracle refutes this: the middle-pair
    # polynomial 150 - 20*9 + 81 = 51 is positive where positivity needs it
    # negative, giving the (1,3) block a negative weight and the combined
    # Hamiltonian two negative eigenvalues.  Expected to FAIL; kept as stated.
    c = pu6.coeffs_from_tensor(1.0, -20.0, 150.0, STD)
    v_eig = pu6.eigenvalue_verdict(c.hamiltonian_weights, STD)
    v_pref = pu6.positivity_verdict(c, STD_F)
    ok = v_eig.positive and v_pref.positive
    _report(
        "7c witness point (1,-20,150) positive",
        ok,
        f"min eigenvalue {v_eig.min_eigenvalue:.6g}, prefactors {np.round(v_pref.prefactors, 6)}",
    )
    assert ok


def test_criterion_8_representations():
    rng = np.random.default_rng(8)
    checks = []

    # Ta2: pattern and positivity for positive kinetic coefficients
    rep = pu6.build_representation("Ta2", STD)
    checks.append(pu6.equivalence_check(rep, STD).pattern == ("PU", "PU", "PU"))
    for _ in range(5):
        a = tuple(rng.uniform(0.2, 3.0, size=3))
        rep_a = pu6.build_representation("Ta2", STD, {"a": a})
        v = pu6.representation_positivity(pu6.transformed_coefficients(rep_a, STD), STD)
        checks.append(v.positive)

    # Tb1: real-branch draws are (PU, PU, trivial) and never positive
    tb1_draws = 0
    while tb1_draws < 8:
        al = rng.uniform(0.3, 2.5)
        be = rng.uniform(-8.0, -1.6)
        ga = rng.uniform(-3.0, 3.0)
        if abs(ga) < 0.05:
            continue
        p = pu6.PUParams(al, be, ga)
        for tb in (+1, -1):
            for gb in (+1, -1):
                try:
                    rep = pu6.build_representation(
                        "Tb1", p, {"tau2_branch": tb, "g3_branch": gb}
                    )
                except (pu6.ComplexBranch, pu6.ZeroDenominator):
                    continue
                tb1_draws += 1
                checks.append(pu6.equivalence_check(rep, p).pattern == ("PU", "PU", "trivial"))
                v = pu6.representation_positivity(pu6.transformed_coefficients(rep, p), p)
                checks.append(not v.positive)

    # Tc1 pattern
    p_tc1 = pu6.params_from_frequencies(pu6.frequency_triple(1.67, 1.07, 0.22))
    rep = pu6.build_representation("Tc1", p_tc1, {"mu0": 1.0, "nu0": 1.0, "tau0": 1.0})
    checks.append(pu6.equivalence_check(rep, p_tc1).pattern == ("PU", "trivial", "trivial"))

    # two-route consistency, 100 random states per kind
    p_ta1 = pu6.params_from_frequencies(pu6.frequency_triple(1.2, 0.37, 0.06))
    instances = [
        ("Ta2", STD, {}),
        ("Ta1", p_ta1, {"branch": +1}),
        ("Tb1", pu6.PUParams(1.0, -5.0, 1.0), {"tau2_branch": -1, "g3_branch": +1}),
        ("Tc1", p_tc1, {"mu0": 1.0, "nu0": 1.0, "tau0": 1.0}),
    ]
    consistency_worst = 0.0
    for kind, p, choices in instances:
        rep = pu6.build_representation(kind, p, choices)
        c4, c5, c6 = pu6.transformed_coefficients(rep, p)
        hs = [pu6.hamiltonian_form(k, p) for k in (1, 2, 3)]
        h3d = pu6.legendre_hamiltonian(rep)
        S = pu6.phase_space_map(rep, p)
        for _ in range(100):
            s = rng.uniform(-1.0, 1.0, size=6)
            via_combo = c4 * hs[0](s) + c5 * hs[1](s) + c6 * hs[2](s)
            via_legendre = h3d(S @ s)
            consistency_worst = max(
                consistency_worst,
                abs(via_combo - via_legendre) / max(1.0, abs(via_legendre)),
            )
    checks.append(consistency_worst < 1e-7)
    ok = all(checks)
    _report(
        "8 representations",
        ok,
        f"{tb1_draws} real Tb1 branches all non-positive; "
        f"consistency worst {consistency_worst:.3e} (tol 1e-7)",
    )
    assert ok


def test_criterion_9_dynamics():
    s0 = np.array([1.0, 0.0, -9.0, 0.0, 81.0, 0.0])
    sol = pu6.solve_exact(STD_F, s0)
    traj = pu6.integrate_rk4(STD, s0, t_end=20.0, dt=1e-3)
    err_fine = np.abs(traj.states - sol.states(traj.times)).max()
    traj_coarse = pu6.integrate_rk4(STD, s0, t_end=20.0, dt=2e-3)
    err_coarse = np.abs(traj_coarse.states - sol.states(traj_coarse.times)).max()
    ratio = err_coarse / err_fine
    long_traj = pu6.integrate_rk4(STD, s0, t_end=50.0, dt=1e-3)
    drift = pu6.conservation_drift(
        long_traj, [pu6.hamiltonian_form(k, STD) for k in (1, 2, 3)]
    ).max()
    ok = err_fine < 1e-6 and 12.0 <= ratio <= 20.0 and drift < 1e-8
    _report(
        "9 dynamics",
        ok,
        f"max error {err_fine:.3e} (1e-6), convergence ratio {ratio:.2f} ([12,20]), "
        f"drift {drift:.3e} (1e-8)",
    )
    assert ok


def test_criterion_10_interaction():
    rng = np.random.default_rng(10)
    w = pu6.InteractionSpec.quartic(lam=1.0, variable=0)
    j1, j2, j3 = (pu6.poisson_tensor(k, STD) for k in (1, 2, 3))

    worst_j1 = 0.0
    for _ in range(100):
        s = rng.uniform(-1, 1, size=6)
        jac = pu6.interaction_field_jacobian(STD, w, s)
        worst_j1 = max(worst_j1, np.abs(pu6.lie_derivative_residual(jac, j1)).max())

    s = np.array([1.0, 0, 0, 0, 0, 0])
    jac = pu6.interaction_field_jacobian(STD, w, s)
    res2 = pu6.lie_derivative_residual(jac, j2)
    pattern_ok = (
        abs(res2[5, 3] - 1.0 / 12.0) < 1e-12
        and abs(res2[3, 5] + 1.0 / 12.0) < 1e-12
        and np.abs(pu6.lie_derivative_residual(jac, j3)).max() > 1e-6
    )

    higher_ok = True
    for slot in range(1, 6):
        ws = pu6.InteractionSpec.quartic(lam=1.0, variable=slot)
        tested = 0
        while tested < 10:
            s = rng.uniform(-1, 1, size=6)
            if abs(ws.w2(s[slot])) < 1e-6:
                continue
            tested += 1
            jac = pu6.interaction_field_jacobian(STD, ws, s)
            floor = 1e-6 * abs(ws.w2(s[slot])) / abs(STD.gamma)
            for j in (j1, j2, j3):
                if np.abs(pu6.lie_derivative_residual(jac, j)).max() <= floor:
                    higher_ok = False

    ok = worst_j1 < 1e-12 and pattern_ok and higher_ok
    _report(
        "10 interaction",
        ok,
        f"J1 residual {worst_j1:.3e} (1e-12), J2 pattern +/-1/12 {pattern_ok}, "
        f"higher slots non-bracket-preserving {higher_ok}",
    )
    assert ok
