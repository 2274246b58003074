"""A fit record is a center on the criterion its stage was built with.

``evaluate_policy`` records every block it fits: the reward block at the
build's ``reward_coef`` and every continuation block at the recursion's
center.  A record holds its stage's geometry itself, not a copy and not a
dense Hessian, and the record is made without a second solve.
"""

import tracemalloc

import numpy as np
import pytest

from confgame import fixtures, game, ope, sieve, smd
from confgame.game import PolicyStack


def _evaluated(spec, n, seed=0, cross_fit=False):
    ds = game.simulate_dataset(spec, n=n, seed=seed)
    source = ope.SampleSource(ds, cross_fit=cross_fit)
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    pol = game.constant_policy_pair(spec, 0.8, 0.3, 0.6)
    return source, basis, pol, ope.evaluate_policy(source, pol, basis)


def test_a_memo_hit_evaluation_solves_only_the_recursion(monkeypatch):
    """On t2 with horizon 3 the recursion solves stages 0-4 of each side once:
    10 solves.  The 6 reward records and 40 block records solve nothing."""
    source, basis, pol, first = _evaluated(fixtures.t2_spec(horizon=3), 20_000)
    calls = []
    solve = smd.BlockGeometry.solve

    def counted(self, alphabar):
        calls.append(alphabar.shape)
        return solve(self, alphabar)

    monkeypatch.setattr(smd.BlockGeometry, "solve", counted)
    res = ope.evaluate_policy(source, pol, basis)
    assert len(calls) == 10
    assert len(res.fits) == 46
    assert res.j_alice == first.j_alice and res.j_bob == first.j_bob


@pytest.mark.parametrize("cross_fit", [False, True], ids=["plain", "cross-fit"])
@pytest.mark.parametrize("name", ["t1", "t2-h3"])
def test_records_are_recursion_centers_on_their_stage_geometry(name, cross_fit):
    spec = fixtures.get_fixture(name)
    source, basis, pol, res = _evaluated(spec, 5_000, seed=3, cross_fit=cross_fit)
    stats = ope.stage_statistics(source, basis)
    policies = PolicyStack.of([pol], spec.horizon, spec.n_states, spec.n_u)
    seen = 0
    for side in ("alice", "bob"):
        for stage in ope.chain_recursion(stats, policies, side):
            t, st = stage.t, stage.st
            records = []
            if stage.reward is not None:
                records.append((res.fits[(t, side, "reward")], st.geometry3, stage.reward[0]))
            if stage.coef is not None:
                for j in range(4):
                    records.append((res.fits[(t, side, f"block{j}")], st.geometry4, stage.coef[0, 0, j]))
            for fit, geometry, center in records:
                assert fit.geometry is geometry, (t, side)
                got = fit.coef.reshape(fit.geometry.hess.shape[:2])
                assert got.tobytes() == center.tobytes(), (t, side)
                seen += 1
    assert seen == len(res.fits)


def test_a_memo_hit_evaluation_holds_no_dense_hessian():
    """64 cells: a dense (cells·q)² Hessian per record took about 4.9 MB of
    peak; the records now take none."""
    spec = fixtures.random_valid_spec(3, n_states=64)
    source, basis, pol, _ = _evaluated(spec, 25_600)
    tracemalloc.start()
    try:
        res = ope.evaluate_policy(source, pol, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(res.j_total)
    assert peak < 1_000_000
