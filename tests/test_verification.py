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


def test_singular_rows_are_rejected_where_the_per_draw_loop_rejects_them():
    p = pu6.PUParams(14.0, 49.0, 36.0)
    _, canonical = pu6.canonical_units(p)
    assert not pu6.hierarchy._dual_weights(np.array([_SINGULAR]), canonical)[1][0]
    # dual draws start at triple 50: the first batch of 20 loses its first and last
    # rows, and the first row of the next batch of 2 is singular too
    rows = {50: _SINGULAR, 69: _SINGULAR, 70: _SINGULAR}
    rng, ref = _ScriptedRng(5, rows), _ScriptedRng(5, rows)
    results = {r.name: r for r in pu6.run_invariant_suite(p, rng=rng)}
    assert _per_draw_reference(ref, p, 20) == 20
    assert rng.triples == ref.triples == 50 + 23
    assert rng.gen.bit_generator.state == ref.gen.bit_generator.state
    assert results["dual_flow_recovery"].status == "pass"


def test_a_batch_is_capped_at_the_draw_budget():
    # only the first dual draw is regular: batches of 3, then 2, ..., and a last one of 1
    rows = dict.fromkeys(range(51, 80), _SINGULAR)
    rng, ref = _ScriptedRng(6, rows), _ScriptedRng(6, rows)
    p = pu6.PUParams(14.0, 49.0, 36.0)
    results = {r.name: r for r in pu6.run_invariant_suite(p, rng=rng, n_random=3)}
    assert _per_draw_reference(ref, p, 3) == 1
    assert rng.triples == ref.triples == 50 + 30
    assert rng.gen.bit_generator.state == ref.gen.bit_generator.state
    dual = results["dual_flow_recovery"]
    assert dual.status == "fail"
    assert dual.detail == "only 1 of 30 draws were non-singular, 3 needed"
