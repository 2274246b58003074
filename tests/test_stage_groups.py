"""Candidates that share a continuation share its fit.

At stage ``t`` a candidate's continuation fit depends only on what its policy
plays after ``t``, so :func:`~confgame.ope.chain_recursion` fits one row per
group of :attr:`~confgame.game.PolicyStack.stage_groups` and the learner
gathers the rows back per candidate at the first stage.  The rows fitted per
stage are the distinct continuations of the class; every candidate scores bit
for bit as it does alone, in a class of one, which is not grouped; and a pair
that appears twice adds no row and is learned as its first copy.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confgame import fixtures, game, learner, ope, oracle, sieve

NO_PREV = dict(alice_sees_prev=False, bob_sees_prev=False)


@lru_cache(maxsize=None)
def _case(name):
    """(engine, class) of a named case; each is built once per session."""
    spec, n, seed, kw = {
        "t2h3_512": (fixtures.t2_spec(horizon=3), 12_000, 11, {}),
        "t2h3_32": (fixtures.t2_spec(horizon=3), 20_000, 11, NO_PREV),
        "t2_512": (fixtures.t2_spec(), 8_000, 7, {}),
        "t1_32": (fixtures.t1_spec(), 2_000, 1, {}),
    }[name]
    ds = game.simulate_dataset(spec, n=n, seed=seed)
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    return learner.LearnerEngine(ds, basis), game.stationary_deterministic_pairs(spec, **kw)


def _rows_fitted(engine, pairs, side="alice"):
    """Continuation rows fitted at each stage that has a continuation."""
    policies = game.PolicyStack.of(pairs, *engine.grid)
    return {
        s.t: s.coef.shape[0] for s in ope.chain_recursion(engine.stats, policies, side) if s.coef is not None
    }


def _continuations(pairs, horizon):
    """Test-local count of the distinct continuations after every stage: the
    tables of every player acting after it, byte for byte."""
    tables = [[(p.alice if t % 2 == 0 else p.bob)[t // 2].tobytes() for t in range(2 * horizon)] for p in pairs]
    return {t: len({tuple(tab[t + 1 :]) for tab in tables}) for t in range(2 * horizon - 1)}


@pytest.mark.parametrize("case, rows", [
    ("t2h3_512", {4: 16, 3: 256, 2: 256, 1: 256, 0: 256}),
    ("t2h3_32", {4: 4, 3: 16, 2: 16, 1: 16, 0: 16}),
    ("t1_32", {0: 4}),
])
def test_one_row_is_fitted_per_distinct_continuation(case, rows):
    engine, pairs = _case(case)
    assert _rows_fitted(engine, pairs) == rows == _continuations(pairs, engine.horizon)
    assert _rows_fitted(engine, pairs, "bob") == rows
    policies = game.PolicyStack.of(pairs, *engine.grid)
    for t, (group, first) in enumerate(policies.stage_groups):
        assert np.array_equal(group[first], np.arange(len(first)))  # each group led by its first candidate
        assert np.all(np.diff(first) > 0)
        for later in range(t + 1, 2 * engine.horizon):  # a group plays alike after its stage
            mean = policies.actor_mean(later)
            assert np.array_equal(mean, mean[first][group])


# ---------------------------------------------------------------------------
# a grouped class scores as its candidates do alone
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _alone(case, i):
    engine, pairs = _case(case)
    return engine.score([pairs[i]])


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(["t2_512", "t2h3_512"]), picks=st.lists(st.integers(0, 511), min_size=1, max_size=24))
def test_a_grouped_class_scores_each_candidate_as_a_class_of_one(case, picks):
    engine, pairs = _case(case)
    cls = [pairs[i] for i in picks]  # repeats and any order
    scores = engine.score(cls)
    for k, i in enumerate(picks):
        alone = _alone(case, i)
        assert scores.value[k].tobytes() == alone.value[0].tobytes()
        assert scores.plug_in[k].tobytes() == alone.plug_in[0].tobytes()
        assert scores.chain_values.keys() == alone.chain_values.keys()
        for side, vals in alone.chain_values.items():
            assert scores.chain_values[side][k].tobytes() == vals[0].tobytes()
    assert _rows_fitted(engine, cls) == _continuations(cls, engine.horizon)


# ---------------------------------------------------------------------------
# a pair that appears twice
# ---------------------------------------------------------------------------


def _assert_same_record(pv, ref):
    assert (pv.value, pv.plug_in, pv.unbounded) == (ref.value, ref.plug_in, ref.unbounded)
    for side, vals in ref.chain_values.items():
        assert pv.chain_values[side].tobytes() == vals.tobytes()
    assert (pv.unbounded_direction is None) == (ref.unbounded_direction is None)
    for name in ("attaining_members", "region_sizes"):
        assert pv.diagnostics[name].keys() == ref.diagnostics[name].keys()
        for key, val in ref.diagnostics[name].items():
            assert np.asarray(pv.diagnostics[name][key]).tobytes() == np.asarray(val).tobytes(), (name, key)


@pytest.mark.parametrize("case", ["t2h3_512", "t2h3_32", "t1_32"])
@pytest.mark.parametrize("copy_first", [False, True])
def test_a_pair_that_appears_twice_is_learned_as_its_first_copy(case, copy_first):
    engine, pairs = _case(case)
    best, pv = learner.learn_policy_pair(None, pairs, engine.basis, engine.eta, engine=engine)
    at = next(i for i, p in enumerate(pairs) if p is best)
    copy = game.PolicyPair(alice=best.alice.copy(), bob=best.bob.copy(), init_bob=best.init_bob)
    twice = pairs[:at] + ([copy, best] if copy_first else [best, copy]) + pairs[at + 1 :]
    got, got_pv = learner.learn_policy_pair(None, twice, engine.basis, engine.eta, engine=engine)
    assert got is (copy if copy_first else best) and got_pv.policy is got
    _assert_same_record(got_pv, pv)
    assert _rows_fitted(engine, twice) == _rows_fitted(engine, pairs)  # the copy adds no row


# ---------------------------------------------------------------------------
# a class of one is not grouped
# ---------------------------------------------------------------------------


def test_a_class_of_one_is_not_grouped(monkeypatch):
    engine, pairs = _case("t1_32")
    spec, pair = fixtures.t1_spec(), pairs[5]
    exq = oracle.exact_q(spec, pair)
    true_blocks = oracle.exact_recursion_blocks(spec, pair, exq)
    want = engine.score([pair])

    def no_unique(*args, **kwargs):
        raise AssertionError("a class of one was grouped")

    monkeypatch.setattr(np, "unique", no_unique)
    policies = game.PolicyStack.of([pair], *engine.grid)
    assert all(rows.tolist() == first.tolist() == [0] for rows, first in policies.stage_groups)
    got = engine.score([pair])
    assert (got.value.tobytes(), got.plug_in.tobytes()) == (want.value.tobytes(), want.plug_in.tobytes())
    learner.pessimistic_value(engine, pair)
    learner.truth_covered(engine, spec, pair, exq, true_blocks)
    ope.evaluate_policy(engine.source, pair, engine.basis)
