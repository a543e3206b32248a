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
