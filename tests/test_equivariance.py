"""Exact frequency rescaling: the model at rho * omega, rho = 2^j, is the image of the one at omega.

The time rescaling t -> t / rho with s = D s_hat, D = diag(1, rho, ..., rho^5),
maps the model at omega onto the one at rho * omega.  With rho a power of two
every rescaled quantity is exact in floating point, so each image must give
the bits of its preimage, mapped: the forms H1..H3 (D A_k D = rho^(4k+2)
A_hat_k), the ``simulate`` trajectory (t times rho, slot i times rho^i, H_k
times rho^(4k+2)) and its drift, and the ``verify`` and ``represent``
decisions.  The models are seeded, and include one whose hand-typed H3 was
not its own image (``be ** 3`` rounds apart from the product it replaced).
"""
import json

import numpy as np
import pytest

import pu6
from pu6 import cli
from pu6.core import _model_matrices

JS = [j for j in range(-5, 7) if j]  # the images rho = 2^j of the model at j = 0


def _models(n, seed=20261022):
    """(3.534, 2.101, 1.109) and ``n`` seeded descending triples with squares 1.69 apart."""
    rng = np.random.default_rng(seed)
    out = [(3.534, 2.101, 1.109)]
    for _ in range(n):
        w3 = rng.uniform(0.5, 1.0)
        w2 = w3 * rng.uniform(1.3, 1.8)
        out.append((w2 * rng.uniform(1.3, 1.8), w2, w3))
    return out


MODELS = _models(2)


def _image(omegas, j):
    return [2.0 ** j * w for w in omegas]


def _params(omegas):
    return pu6.params_from_frequencies(pu6.frequency_triple(*omegas))


@pytest.mark.parametrize("omegas", MODELS)
def test_forms_are_exact_images(omegas):
    _, base, _ = _model_matrices(_params(omegas))
    for j in JS:
        rho = 2.0 ** j
        d = rho ** np.arange(6)
        _, hs, _ = _model_matrices(_params(_image(omegas, j)))
        for k in (1, 2, 3):
            mapped = d[:, None] * hs[k - 1] * d
            assert np.array_equal(mapped, rho ** (4 * k + 2) * base[k - 1]), (j, k)


def _main(tmp_path, cfg, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out), command]) == 0
    return out


@pytest.mark.parametrize("omegas", MODELS)
def test_simulate_is_an_exact_image(tmp_path, omegas):
    """200 RK4 steps at dt 0.01 * omega-scale: every CSV column and the drift map exactly."""
    s0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=6)
    runs = {}
    for j in [0, *JS]:
        rho = 2.0 ** j
        sim = {"dt": 0.01 / rho, "t_end": 2.0 / rho, "initial": list(s0 * rho ** np.arange(6))}
        out = _main(tmp_path, {"model": {"omegas": _image(omegas, j)}, "simulate": sim}, "simulate")
        data = np.loadtxt(f"{out}.csv", delimiter=",", skiprows=1)
        # columns t, q..q5t, H1..H3 back to the model at j = 0
        scale = np.r_[rho, rho ** -np.arange(6), rho ** -(4.0 * np.arange(1, 4) + 2)]
        runs[j] = data * scale, json.loads(out.with_suffix(".json").read_text())["max_drift"]
    for j in JS:
        assert np.array_equal(runs[j][0], runs[0][0]), j
        assert runs[j][1] == runs[0][1], j


@pytest.mark.parametrize("omegas", MODELS)
def test_verify_and_represent_decide_alike_on_every_image(tmp_path, omegas):
    decisions = {}
    for j in [0, *JS]:
        cfg = {"model": {"omegas": _image(omegas, j)}, "verify": {"n_random": 2},
               "represent": {"kind": "Ta2"}}
        report = json.loads(_main(tmp_path, cfg, "verify").read_text())
        rep = json.loads(_main(tmp_path, cfg, "represent").read_text())
        decisions[j] = ([(c["name"], c["status"]) for c in report["checks"]],
                        rep["equivalence_pattern"], rep["positivity"]["positive"])
    for j in JS:
        assert decisions[j] == decisions[0], j
