"""The invariant suite's random draws: stacked, yet the stream of one draw at a time."""
import numpy as np
import pytest

import pu6

# at (3, 2, 1) the suite runs on the model scaled by rho = 4, where w1^2 w2^2 = 36 / 4^4
_SINGULAR = (-36.0 / 4 ** 4, 1.0, 0.0)  # zeroes the (1,2) denominator factor of coeffs_dual


class _ScriptedRng:
    """A seeded generator whose normal triples at chosen stream positions are replaced."""

    def __init__(self, seed, rows):
        self.gen = np.random.default_rng(seed)
        self.rows = rows  # triple index in the normal stream -> replacement
        self.triples = 0

    def normal(self, size):
        out = self.gen.normal(size=size)
        for k, triple in enumerate(out.reshape(-1, 3), start=self.triples):
            triple[:] = self.rows.get(k, triple)
        self.triples += out.size // 3
        return out

    def uniform(self, low, high, size):
        return self.gen.uniform(low, high, size=size)


def _per_draw_reference(rng, p, n_random):
    """Advance ``rng`` one draw at a time as the suite does; returns the accepted dual draws."""
    _, canonical = pu6.canonical_units(p)
    rng.normal(size=(50, 3))  # expansion_exactness
    accepted = 0
    for _ in range(10 * n_random):  # dual_flow_recovery
        if accepted == n_random:
            break
        try:
            pu6.coeffs_dual(*rng.normal(size=3), canonical)
            accepted += 1
        except pu6.SingularCombination:
            pass
    rng.uniform(-1.0, 1.0, size=(100, 6))  # ostrogradsky_consistency
    return accepted


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("omegas", [(3, 2, 1), (300, 200, 100), (1.5, 0.7, 0.2)])
@pytest.mark.parametrize("n_random", [1, 20])
def test_suite_leaves_the_per_draw_stream(seed, omegas, n_random):
    p = pu6.params_from_frequencies(pu6.frequency_triple(*omegas))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    results = pu6.run_invariant_suite(p, rng=rng, n_random=n_random)
    assert _per_draw_reference(ref, p, n_random) == n_random
    assert rng.bit_generator.state == ref.bit_generator.state
    assert all(r.status == "pass" for r in results)


def test_a_rejected_draw_fails_the_check_without_a_redraw():
    p = pu6.PUParams(14.0, 49.0, 36.0)
    _, canonical = pu6.canonical_units(p)
    assert not pu6.hierarchy._dual_weights(np.array([_SINGULAR]), canonical)[1][0]
    # dual draws are triples 50..69: the first and last rows of the one batch are singular
    rng = _ScriptedRng(5, {50: _SINGULAR, 69: _SINGULAR})
    results = {r.name: r for r in pu6.run_invariant_suite(p, rng=rng)}
    assert rng.triples == 50 + 20
    ref = np.random.default_rng(5)
    ref.normal(size=(50 + 20, 3))
    ref.uniform(-1.0, 1.0, size=(100, 6))
    assert rng.gen.bit_generator.state == ref.bit_generator.state
    dual = results["dual_flow_recovery"]
    assert dual.status == "fail" and np.isnan(dual.residual)
    assert dual.detail == "2 of 20 draws rejected"
    assert {r.status for name, r in results.items() if name != "dual_flow_recovery"} == {"pass"}


def test_the_images_of_h1_are_exact_rows_of_the_action_table(param_sets):
    """H2 = X5(H1) and H3 = X6(H1) by construction: those rows have residual 0 as verify stacks them."""
    gen, form, image = pu6.verification._ACTION_TABLE
    rows = [i for i, row in enumerate(zip(gen, form, image)) if row in ((5, 1, 2), (6, 1, 3))]
    for p in param_sets:
        _, p = pu6.canonical_units(p)
        H = np.stack(pu6.core._model_matrices(p)[1])
        X = np.stack([pu6.symmetries.lie_generator(i, p) for i in range(1, 7)])
        acted = pu6.symmetries._action_matrix(X[gen - 1], H[form - 1])
        assert len(rows) == 2 and np.array_equal(acted[rows], H[[1, 2]])
