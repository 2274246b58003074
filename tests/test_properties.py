"""Property tests over randomized valid specs and evaluated policies.

Population mode turns every sample average into an exact expectation, so the
off-policy recursion must reproduce the exact oracle, and the learner's
zero-radius plug-in value (its all-center chain, solved in closed form) must
reproduce the recursion.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from confgame import fixtures, game, learner, ope, oracle, sieve

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
    regions = learner.build_q_regions(source, policy, basis, eta, engine=engine)
    pv = learner.pessimistic_value(source, policy, regions)
    assert abs(pv.plug_in - ope.evaluate_policy(source, policy, basis).j_total) <= TOL
