"""Property tests over randomized valid specs, evaluated policies and datasets.

Population mode turns every sample average into an exact expectation, so the
off-policy recursion must reproduce the exact oracle, and the learner's
zero-radius plug-in value (its all-center chain, solved in closed form) must
reproduce the recursion.  Rescaling every reward rescales every estimated
value and leaves the learned pair alone, and any dataset survives the file
format byte for byte.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from confgame import fixtures, game, gameio, learner, ope, oracle, sieve

TOL = 1e-10
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def spec_and_policy(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_states = draw(st.sampled_from([1, 2, 3]))
    spec = fixtures.random_valid_spec(seed, n_states=n_states)
    prob = st.floats(min_value=0.0, max_value=1.0)
    alice = np.array(draw(st.lists(prob, min_size=2 * n_states, max_size=2 * n_states)))
    bob = np.array(draw(st.lists(prob, min_size=2 * n_states, max_size=2 * n_states)))
    policy = game.PolicyPair(
        alice=alice.reshape(spec.horizon, n_states, spec.n_u, 2),
        bob=bob.reshape(spec.horizon, n_states, 2),
        init_bob=draw(prob),
    )
    return spec, policy


@PROPERTY_SETTINGS
@given(spec_and_policy())
def test_population_recursion_matches_exact_q(case):
    spec, policy = case
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    source = ope.PopulationSource(spec)
    res = ope.evaluate_policy(source, policy, basis)
    exq = oracle.exact_q(spec, policy)
    assert abs(res.j_alice - exq.j_alice) <= TOL
    assert abs(res.j_bob - exq.j_bob) <= TOL
    for (t, side), rep in res.qhat.items():
        reached = ope.StageStats(source, t, basis).mass.reshape(spec.n_states, spec.n_u) > 0
        diff = np.abs(rep.stack() - exq.marginal[(t, side)].stack())
        assert diff[reached].max() <= TOL, (t, side)


@PROPERTY_SETTINGS
@given(spec_and_policy())
def test_zero_radius_plug_in_matches_recursion(case):
    spec, policy = case
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    source = ope.PopulationSource(spec)
    eta = learner.EtaConfig(c_eta=0.0)
    engine = learner.LearnerEngine(source, basis, eta)
    pv = learner.pessimistic_value(engine, policy)
    assert abs(pv.plug_in - ope.evaluate_policy(source, policy, basis).j_total) <= TOL


def _scaled_close(scaled, base, c):
    if base == -np.inf:
        return scaled == -np.inf
    return abs(scaled - c * base) <= TOL * c * max(1.0, abs(base))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_states=st.sampled_from([1, 2]),
    c=st.floats(min_value=0.01, max_value=100.0),
)
def test_reward_scale_equivariance(seed, n_states, c):
    spec = fixtures.random_valid_spec(seed, n_states=n_states)
    ds = game.simulate_dataset(spec, n=4_000, seed=seed)
    scaled = replace(ds, r_a=ds.r_a * c, r_b=ds.r_b * c)
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    pairs = game.stationary_deterministic_pairs(spec, alice_sees_prev=False, bob_sees_prev=False)

    policy = game.constant_policy_pair(spec, 0.7, 0.4, 0.5)
    base_ope, scaled_ope = (ope.evaluate_policy(d, policy, basis) for d in (ds, scaled))
    assert _scaled_close(scaled_ope.j_alice, base_ope.j_alice, c)
    assert _scaled_close(scaled_ope.j_bob, base_ope.j_bob, c)

    engines = {id(d): learner.LearnerEngine(d, basis) for d in (ds, scaled)}

    def score(d, pair):
        return learner.pessimistic_value(engines[id(d)], pair)

    values = []
    for pair in pairs:
        base_pv, scaled_pv = score(ds, pair), score(scaled, pair)
        assert _scaled_close(scaled_pv.value, base_pv.value, c)
        assert _scaled_close(scaled_pv.plug_in, base_pv.plug_in, c)
        values.append(base_pv.value)

    best, _ = learner.learn_policy_pair(ds, pairs, basis, engine=engines[id(ds)])
    best_scaled, _ = learner.learn_policy_pair(scaled, pairs, basis, engine=engines[id(scaled)])
    top, second = sorted(values, reverse=True)[:2]
    tie = not np.isfinite(top) or top - second <= TOL * max(1.0, abs(top))
    assert tie or best_scaled.encode() == best.encode()


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    horizon = draw(st.integers(min_value=1, max_value=3))
    n_states = draw(st.integers(min_value=1, max_value=4))
    n_u = draw(st.integers(min_value=1, max_value=3))

    def ints(size, shape):
        return draw(arrays(np.int64, shape, elements=st.integers(min_value=0, max_value=size - 1)))

    def rewards():
        finite = st.floats(allow_nan=False, allow_infinity=False)
        return draw(arrays(np.float64, (n, horizon), elements=finite))

    steps = (n, horizon)
    hidden = game.HiddenTrace(**{f: ints(4, steps) for f in ("v1", "v2", "v1_half", "v2_half")})
    return game.OfflineDataset(
        horizon=horizon,
        n_states=n_states,
        n_u=n_u,
        b_init=ints(2, (n,)),
        s=ints(n_states, steps),
        u=ints(n_u, steps),
        a=ints(2, steps),
        r_a=rewards(),
        s_half=ints(n_states, steps),
        u_half=ints(n_u, steps),
        b=ints(2, steps),
        r_b=rewards(),
        s_term=ints(n_states, (n,)),
        hidden=hidden,
    )


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_dataset_round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        gameio.write_dataset(ds, str(first))
        back = gameio.read_dataset(str(first), with_hidden=True)
        assert back == ds
        assert back.hidden == ds.hidden
        gameio.write_dataset(back, str(second))
        assert first.read_bytes() == second.read_bytes()
        hidden_a, hidden_b = (Path(gameio.hidden_path(str(p))) for p in (first, second))
        assert hidden_a.read_bytes() == hidden_b.read_bytes()
