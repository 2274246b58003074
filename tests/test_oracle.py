from dataclasses import replace

import numpy as np
import pytest

from confgame import fixtures, game, oracle
from confgame.errors import SingularSystem


def test_joint_law_mass_one(t1):
    law = oracle.exact_joint_law(t1)
    assert abs(law.total_mass() - 1.0) < 1e-12
    assert law.n_atoms > 1


def test_joint_law_single_atom_when_deterministic(t1):
    det = replace(
        t1,
        v1_law=np.zeros_like(t1.v1_law) + np.array([1.0, 0.0]),
        v2_law=np.zeros_like(t1.v2_law) + np.array([1.0, 0.0]),
        alice_act_base=np.ones_like(t1.alice_act_base),
        alice_act_iv=np.zeros_like(t1.alice_act_iv),
        bob_act_base=np.ones_like(t1.bob_act_base),
        bob_act_iv=np.zeros_like(t1.bob_act_iv),
    )
    behavior = game.BehaviorPolicyPair.from_spec(det, init_bob=1.0)
    law = oracle.exact_joint_law(det, behavior)
    assert law.n_atoms == 1 and abs(law.total_mass() - 1.0) < 1e-12


def test_joint_law_t2_marginal(t2):
    law = oracle.exact_joint_law(t2)
    assert abs(law.total_mass() - 1.0) < 1e-10
    assert np.allclose(law.marginal_init_state(), t2.init_state, atol=1e-12)


@pytest.mark.parametrize(
    "make",
    [
        fixtures.t1_spec,
        lambda: fixtures.t2_spec(horizon=1),
        lambda: fixtures.random_valid_spec(3, n_states=2),
        lambda: fixtures.random_valid_spec(5, n_states=3),
    ],
    ids=["t1", "t2-h1", "random-3", "random-5"],
)
def test_joint_law_matches_the_stage_laws(make):
    """Summing the enumerated paths per stage gives ``stage_laws``' law of
    (s, u, v1, v2, prev, act) at every stage.  A path reads (b_init, s_1,
    draws and action of stage 0, next state, draws and action of stage 1, ...)."""
    spec = make()
    law = oracle.exact_joint_law(spec)
    for t, want in enumerate(oracle.stage_laws(spec).with_action):
        got = np.zeros_like(want)
        for path, p in law.paths.items():
            prev = path[0] if t == 0 else path[2 * t][3]
            got[(path[1 + 2 * t], *path[2 + 2 * t][:3], prev, path[2 + 2 * t][3])] += p
        assert np.abs(got - want).max() < 1e-15, t


def test_true_coefficients_t1(t1):
    triple = oracle.true_coefficients(t1)["alice_reward"]
    assert np.allclose(
        [triple.theta_a[0, 0], triple.theta_z[0, 0], triple.theta_az[0, 0]],
        [1.2, 0.5, 0.25],
    )


def test_true_coefficients_zero_reward():
    spec = fixtures.t1_spec(reward_scale=0.0, noise=0.0)
    for block in oracle.true_coefficients(spec).values():
        assert np.all(block.stack() == 0.0)


def test_true_coefficients_state_only_table(t2):
    flat = replace(t2, alice_rew_act=np.broadcast_to(
        1.0 + 0.2 * np.arange(2), t2.alice_rew_act.shape).copy())
    triple = oracle.true_coefficients(flat)["alice_reward"]
    assert np.allclose(triple.theta_a, 1.0 + 0.2 * np.arange(2)[:, None])


def test_exact_policy_values_t1(t1):
    zero = fixtures.t1_spec(reward_scale=0.0, noise=0.0)
    pol = game.constant_policy_pair(zero, 1.0, 1.0, 1.0)
    assert oracle.exact_policy_value(zero, pol) == (0.0, 0.0)

    pol_on = game.constant_policy_pair(t1, 1.0, 0.5, 1.0)
    ja, _ = oracle.exact_policy_value(t1, pol_on)
    assert abs(ja - 1.95) < 1e-12

    pol_off = game.constant_policy_pair(t1, 0.0, 0.5, 0.5)
    ja0, _ = oracle.exact_policy_value(t1, pol_off)
    assert abs(ja0 - 0.25) < 1e-12


def test_optimal_pair_tie_break_and_dominance(t1):
    zero = fixtures.t1_spec(reward_scale=0.0, noise=0.0)
    pairs = game.stationary_deterministic_pairs(zero)
    best, j_star = oracle.exact_optimal_pair(zero, pairs)
    assert j_star == 0.0 and best.encode() == pairs[0].encode()

    pairs = game.stationary_deterministic_pairs(t1)
    best, j_star = oracle.exact_optimal_pair(t1, pairs)
    values = [sum(oracle.exact_policy_value(t1, p)) for p in pairs]
    assert abs(j_star - max(values)) < 1e-12


def test_optimal_pair_negative_action_effect(t1):
    spec = replace(
        t1,
        alice_rew_act=np.full_like(t1.alice_rew_act, -0.4),
        alice_rew_iv=np.zeros_like(t1.alice_rew_iv),
        alice_rew_inter=np.zeros_like(t1.alice_rew_inter),
        alice_rew_resid=np.zeros_like(t1.alice_rew_resid),
        bob_rew_act=np.zeros_like(t1.bob_rew_act),
        bob_rew_iv=np.zeros_like(t1.bob_rew_iv),
        bob_rew_inter=np.zeros_like(t1.bob_rew_inter),
        bob_rew_resid=np.zeros_like(t1.bob_rew_resid),
    )
    best, _ = oracle.exact_optimal_pair(spec, game.stationary_deterministic_pairs(spec))
    assert np.all(best.alice == 0.0)


def test_identification_recovers_truth_on_t1(t1):
    system = oracle.identification_system(t1, stage=0, s=0, u=0)
    assert np.allclose(system.solution, [1.2, 0.5, 0.25], atol=1e-10)
    assert abs(system.relevance - 0.075) < 1e-12
    assert abs(system.covariance_row_gap) < 1e-12


def test_identification_singular_without_relevance(t1):
    flat = replace(t1, alice_act_iv=np.zeros_like(t1.alice_act_iv))
    with pytest.raises(SingularSystem):
        oracle.identification_system(flat, stage=0)


def test_identification_matches_ols_without_confounding(t1):
    clean = replace(
        t1,
        alice_rew_act=np.full_like(t1.alice_rew_act, 1.2),
        alice_rew_resid=np.zeros_like(t1.alice_rew_resid),
    )
    system = oracle.identification_system(clean, stage=0)
    # saturated regression on exact cell means, zero intercept by design
    p, y = oracle._decision_moments(clean, game.BehaviorPolicyPair.from_spec(clean), 0, 0, 0)
    mu = np.zeros((2, 2))
    for prev in (0, 1):
        for act in (0, 1):
            w = p[:, :, prev, act]
            mu[prev, act] = (w * y[:, :, prev, act]).sum() / w.sum()
    ols = np.array(
        [mu[0, 1] - mu[0, 0], mu[1, 0] - mu[0, 0], mu[1, 1] - mu[1, 0] - mu[0, 1] + mu[0, 0]]
    )
    assert np.allclose(system.solution, ols, atol=1e-10)


def test_identification_beats_naive_regression_under_confounding(t1):
    """When the residual block co-moves with the action base rate, the
    saturated cell means are biased but the moment system stays exact."""
    u_, v1_, v2_, s_ = np.indices((1, 2, 2, 1), dtype=float)
    spec = replace(t1, alice_rew_resid=0.6 * (v1_ - 0.5))
    assert game.validate_spec(spec).ok
    system = oracle.identification_system(spec, stage=0)
    assert np.allclose(system.solution, [1.2, 0.5, 0.25], atol=1e-10)
    p, y = oracle._decision_moments(spec, game.BehaviorPolicyPair.from_spec(spec), 0, 0, 0)
    w = p[:, :, 0, 1]
    naive = float((w * y[:, :, 0, 1]).sum() / w.sum())  # E[R | act=1, iv=0]
    assert abs(naive - 1.2) > 0.05


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_moment_identities_on_random_valid_fixtures(seed):
    spec = fixtures.random_valid_spec(seed)
    assert game.validate_spec(spec).ok
    for stage in (0, 1):
        gaps = oracle.moment_identity_report(spec, stage=stage)
        for name, gap in gaps.items():
            assert abs(gap) < 1e-10, (stage, name, gap)


def test_negative_control_population_bias():
    spec = fixtures.negative_control_spec()
    system = oracle.identification_system(spec, stage=0)
    truth = oracle.true_coefficients(spec)["alice_reward"]
    bias = np.abs(
        system.solution
        - [truth.theta_a[0, 0], truth.theta_z[0, 0], truth.theta_az[0, 0]]
    ).max()
    assert bias >= 0.01


def test_exact_q_is_bilinear_in_the_actions(t2):
    pol = game.constant_policy_pair(t2, 0.3, 0.8, 0.5)
    exq = oracle.exact_q(t2, pol)
    for q in exq.full.values():
        fit = (
            q[..., 0, 0][..., None, None]
            + (q[..., 1, 0] - q[..., 0, 0])[..., None, None] * np.arange(2)[:, None]
            + (q[..., 0, 1] - q[..., 0, 0])[..., None, None] * np.arange(2)[None, :]
            + (q[..., 1, 1] - q[..., 1, 0] - q[..., 0, 1] + q[..., 0, 0])[..., None, None]
            * np.outer(np.arange(2), np.arange(2))
        )
        assert np.allclose(fit, q, atol=1e-12)


def test_optimal_value_dominates_class(t1):
    pairs = game.stationary_deterministic_pairs(t1)
    _, j_star = oracle.exact_optimal_pair(t1, pairs)
    for pair in pairs[::5]:
        assert j_star >= sum(oracle.exact_policy_value(t1, pair)) - 1e-12


# ---------------------------------------------------------------------------
# the batched backward pass against the per-candidate recursion
# ---------------------------------------------------------------------------


def loop_exact_q(spec, policy):
    """Reference: the backward recursion of one policy pair at a time, with
    its marginals and opening integration; returns (full, marginal, J_alice,
    J_bob)."""
    full = {}
    next_q = {"alice": None, "bob": None}
    for t in reversed(range(spec.n_stages)):
        h = t // 2
        rewards = {
            "alice": oracle._reward_table(spec, t) if t % 2 == 0 else 0.0,
            "bob": oracle._reward_table(spec, t) if t % 2 == 1 else 0.0,
        }
        kern = np.moveaxis(spec.trans[t], 3, 0)
        fresh = oracle._fresh(spec, t + 1) if t + 1 < spec.n_stages else None
        for side in ("alice", "bob"):
            if next_q[side] is None:
                cont = 0.0
            else:
                nq = next_q[side]
                if t % 2 == 0:
                    pi_b = policy.bob[h]
                    mixed = (
                        nq[..., 0] * (1.0 - pi_b[:, None, None, None, :])
                        + nq[..., 1] * pi_b[:, None, None, None, :]
                    )
                    avg = np.einsum("puvwa,puvw->pa", mixed, fresh)
                    cont = np.einsum("suvwabp,pa->suvwab", kern, avg)
                else:
                    pi_a = policy.alice[h + 1]
                    mixed = (
                        nq[:, :, :, :, 0, :] * (1.0 - pi_a[:, :, None, None, :])
                        + nq[:, :, :, :, 1, :] * pi_a[:, :, None, None, :]
                    )
                    avg = np.einsum("puvwb,puvw->pb", mixed, fresh)
                    cont = np.einsum("suvwabp,pb->suvwab", kern, avg)
            q = rewards[side] + cont
            if np.isscalar(q):
                q = np.zeros((spec.n_states, spec.n_u, spec.n_v1, spec.n_v2, 2, 2))
            full[(t, side)] = q
        next_q = {side: full[(t, side)] for side in ("alice", "bob")}
    marginal = {
        (t, side): oracle.StageRep.of_corners(
            np.einsum("suvwab,svw->suab", q, oracle._v_weights(spec, t)))
        for (t, side), q in full.items()
    }
    fresh0 = oracle._fresh(spec, 0)
    pi_a0 = policy.alice[0]
    b_dist = np.array([1.0 - policy.init_bob, policy.init_bob])
    j = []
    for side in ("alice", "bob"):
        q0 = full[(0, side)]
        mixed = (
            q0[..., 0, :] * (1.0 - pi_a0[:, :, None, None, :])
            + q0[..., 1, :] * pi_a0[:, :, None, None, :]
        )
        j.append(float(np.einsum("suvwb,suvw,s,b->", mixed, fresh0, spec.init_state, b_dist)))
    return full, marginal, j[0], j[1]


def loop_optimal_pair(spec, pairs):
    """Reference: the strict-``>`` argmax over one recursion per candidate."""
    best, best_val = None, -np.inf
    for pair in pairs:
        _, _, ja, jb = loop_exact_q(spec, pair)
        if ja + jb > best_val:
            best, best_val = pair, ja + jb
    return best, best_val


def _random_pairs(spec, seed, n=40):
    rng = np.random.default_rng(seed)
    h, ns, nu = spec.horizon, spec.n_states, spec.n_u
    pairs = [
        game.PolicyPair(rng.random((h, ns, nu, 2)), rng.random((h, ns, 2)), float(rng.random()))
        for _ in range(n)
    ]
    return pairs + [game.constant_policy_pair(spec, *c) for c in ((1.0, 0.5, 0.5), (0.0, 1.0, 0.0))]


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_batched_values_match_the_loop_bit_for_bit(name):
    spec = fixtures.get_fixture(name)
    pairs = _random_pairs(spec, seed=len(name))
    _, ja, jb = oracle._backward(spec, game.PolicyStack.of(pairs, spec.horizon, spec.n_states, spec.n_u))
    for i, pair in enumerate(pairs):
        _, _, ref_a, ref_b = loop_exact_q(spec, pair)
        assert (ja[i], jb[i]) == (ref_a, ref_b), (name, i)
        assert oracle.exact_policy_value(spec, pair) == (ref_a, ref_b)
    # the class's argmax is the loop's, value bits included
    best, j_star = oracle.exact_optimal_pair(spec, pairs)
    ref_best, ref_star = loop_optimal_pair(spec, pairs)
    assert best is ref_best and j_star == ref_star


@pytest.mark.parametrize("name, class_kw", [
    ("t1", {}),
    ("t2-h3", dict(alice_sees_prev=False, bob_sees_prev=False)),
    ("t2-h3", {}),
])
def test_optimal_pair_matches_the_loop_on_deterministic_classes(name, class_kw):
    spec = fixtures.get_fixture(name)
    pairs = game.stationary_deterministic_pairs(spec, **class_kw)
    best, j_star = oracle.exact_optimal_pair(spec, pairs)
    ref_best, ref_star = loop_optimal_pair(spec, pairs)
    assert best is ref_best
    assert np.float64(j_star).tobytes() == np.float64(ref_star).tobytes()


@pytest.mark.parametrize("name", ["t1", "t2", "t2-h3", "negative-control"])
def test_exact_q_tables_match_the_loop_bit_for_bit(name):
    spec = fixtures.get_fixture(name)
    for pair in _random_pairs(spec, seed=3, n=3):
        exq = oracle.exact_q(spec, pair)
        full, marginal, ja, jb = loop_exact_q(spec, pair)
        assert (exq.j_alice, exq.j_bob) == (ja, jb)
        assert exq.full.keys() == full.keys()
        for key, q in full.items():
            assert exq.full[key].shape == q.shape
            assert np.array_equal(exq.full[key], q), key
            assert np.array_equal(exq.marginal[key].stack(), marginal[key].stack()), key


def test_optimal_pair_rejects_a_wrong_grid_pair(t1, t2):
    from confgame.errors import EmptyClass, MalformedSpec

    pairs = game.stationary_deterministic_pairs(t1)
    wrong = game.constant_policy_pair(t2, 1.0, 0.5, 0.5)
    with pytest.raises(MalformedSpec, match=r"shapes alice \(2, 2, 1, 2\), bob \(2, 2, 2\); the game needs alice \(1, 1, 1, 2\)"):
        oracle.exact_optimal_pair(t1, pairs[:3] + [wrong] + pairs[3:])
    with pytest.raises(EmptyClass):
        oracle.exact_optimal_pair(t1, [])


def test_recursion_blocks_reject_a_pair_of_another_game(t1, t2):
    from confgame.errors import MalformedSpec

    exq = oracle.exact_q(t2, game.constant_policy_pair(t2, 1.0, 0.5, 0.5))
    wrong = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    message = r"^policy pair 0 has shapes alice \(1, 1, 1, 2\), bob \(1, 1, 2\); the game needs alice \(2, 2, 1, 2\)"
    for given in (exq, None):
        with pytest.raises(MalformedSpec, match=message):
            oracle.exact_recursion_blocks(t2, wrong, given)
    for contract in ("next_bob", None):
        with pytest.raises(MalformedSpec, match=message):
            oracle.exact_block_coefficients(t2, 0, exq.marginal[(1, "alice")].gamma, policy=wrong, contract=contract)
