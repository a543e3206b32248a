"""Frequency-scale invariance: the model at lambda * omega behaves as at omega.

The time rescaling t -> t / rho maps the model at any frequency scale onto a
unit-scale one, so every identity and every definiteness verdict must come
out the same for lambda from 1e-2 to 1e2.  The triples are seeded, not random.
"""
import json

import numpy as np
import pytest

import pu6
from pu6 import cli
from test_cli import VERIFY_CHECKS

SCALES = (1e-2, 1e-1, 1.0, 10.0, 100.0)


def _separated_triples(n, seed=20261018):
    """(3, 2, 1) and ``n`` descending triples with squares at least a factor 1.69 apart."""
    rng = np.random.default_rng(seed)
    out = [(3.0, 2.0, 1.0)]
    for _ in range(n):
        w3 = rng.uniform(0.5, 1.0)
        w2 = w3 * rng.uniform(1.3, 1.8)
        w1 = w2 * rng.uniform(1.3, 1.8)
        out.append((w1, w2, w3))
    return out


TRIPLES = _separated_triples(6)


def _run(tmp_path, command, omegas):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"omegas": list(omegas)}, "seed": 7,
                                "represent": {"kind": "Ta2"}}))
    out = tmp_path / f"{command}.json"
    code = cli.main(["--config", str(path), "--out", str(out), command])
    return code, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("omegas", TRIPLES)
def test_verify_statuses_scale_invariant(tmp_path, omegas):
    statuses = {}
    for lam in SCALES:
        code, report = _run(tmp_path, "verify", [lam * w for w in omegas])
        statuses[lam] = [(c["name"], c["status"]) for c in report["checks"]]
        assert tuple(name for name, _ in statuses[lam]) == VERIFY_CHECKS, lam
        assert code == 0 and ("fail" not in dict(statuses[lam]).values()), (lam, statuses[lam])
    for lam in SCALES:
        assert statuses[lam] == statuses[1.0], lam


@pytest.mark.parametrize("omegas", TRIPLES)
def test_represent_ta2_positive_at_every_scale(tmp_path, omegas):
    for lam in SCALES:
        code, payload = _run(tmp_path, "represent", [lam * w for w in omegas])
        assert code == 0, lam
        assert payload["equivalence_pattern"] == ["PU", "PU", "PU"], lam
        assert payload["positivity"]["positive"] is True, (lam, payload["positivity"])


@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("omegas", TRIPLES)
def test_units_map_rebuilds_model_exactly(omegas, lam):
    from pu6.core import _model_matrices

    p = pu6.params_from_frequencies(pu6.frequency_triple(*(lam * w for w in omegas)))
    rho, pc = pu6.canonical_units(p)
    assert rho == 2.0 ** round(np.log2(rho))
    d = rho ** np.arange(6)
    js, hs, F = _model_matrices(p)
    jc, hc, fc = _model_matrices(pc)
    assert np.array_equal(F, rho * d[:, None] * fc / d)  # F = rho D F_hat D^-1
    for k in (1, 2, 3):
        assert np.array_equal(d[:, None] * hs[k - 1] * d, rho ** (4 * k + 2) * hc[k - 1])
        assert np.array_equal(js[k - 1], rho ** -(4 * k + 1) * d[:, None] * jc[k - 1] * d)


@pytest.mark.parametrize("lam", SCALES)
def test_recursive_hierarchy_matches_closed_form_at_every_scale(lam):
    p = pu6.params_from_frequencies(pu6.frequency_triple(*(lam * w for w in (3.0, 2.0, 1.0))))
    closed = pu6.hamiltonian_n_closed(10, p).matrix
    recursive = pu6.hamiltonian_n_recursive(10, p).matrix
    assert np.abs(recursive - closed).max() <= 1e-12 * np.abs(closed).max()


def _readme_scan_at(k):
    """The README scan's exact image at rho = 2^k: omegas rho (3, 2, 1), c2 rho^4 and c3 rho^8."""
    rho = 2.0 ** k
    grid = pu6.GridSpec(pu6.AxisSpec("c2", -30.0 * rho ** 4, 0.0, 200),
                        pu6.AxisSpec("c3", 0.0, 150.0 * rho ** 8, 200), "c1", 1.0)
    f = pu6.frequency_triple(3.0 * rho, 2.0 * rho, rho)
    return pu6.region_scan(grid, f), f


def test_scan_far_cells_keep_their_verdict_under_exact_rescaling():
    """Every cell on the closed-form weight route has its rho = 1 verdict at rho = 2^-5..2^6.

    The map scales each tensor-weight polynomial P_jk by exactly rho^8, so the
    far cells (min|P_jk| >= 0.03 max|P_jk|, 67 % of the grid) are the same at
    every k, and V^-1 (m^2 / P(m)) rescales with them.  The least-squares
    route did not: at rho = 16 it called all of them singular.  The cells
    nearer the band still take the physical-scale least squares and stay out.
    """
    base, f = _readme_scan_at(0)
    size = np.abs(pu6.tensor_weight_polynomials(1.0, base.c_x, base.c_y, f))
    far = size.min(axis=-1) >= pu6.positivity._FAR_BAND * size.max(axis=-1)
    assert np.count_nonzero(far) == 26860
    assert {"positive", "not_positive"} == set(base.verdict[far])
    for k in range(-5, 7):
        res, _ = _readme_scan_at(k)
        np.testing.assert_array_equal(res.verdict[far], base.verdict[far], err_msg=f"rho = 2^{k}")
