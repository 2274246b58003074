"""The batched class scorer against a test-local copy of the loop it replaced.

The references below are the learner's scan as it was before the whole class
ran one recursion: per candidate and side, the chain recursion over (chain,)
arrays alone, the first-stage minima region by region, raising
:class:`Unbounded` on a flat direction, and the candidate's value,
plug-in and chain values.  On the full 512-candidate t2 (horizon 3) class, the
32-candidate t1 class and a t2 class on the tensor-polynomial basis,
:meth:`LearnerEngine.score`, :func:`pessimistic_value` and
:func:`learn_policy_pair` agree with them bit for bit.  Edge cases: ties keep
the earliest candidate, within a chunk and across chunks; a candidate whose
value weight loads on a flat direction scores ``-inf`` without stopping the
scan; chunking does not change results.

:func:`ref_learn` is the learner's scan as it was before its 1-chain bound
pruned it: every candidate scored with the full chains.  A run of the first
chains gives the first columns of the full chain values bit for bit, so that
bound is never below the full value.  The pruned :func:`learn_policy_pair`
returns the same pair and the same record bit for bit, on the t2 class at
several sample sizes, on the small classes with ``learner.PRUNE`` patched
small so that they prune too, at zero region radius (where the pessimistic
value is the plug-in and ties are common), on unbounded classes and under
rescaled rewards; its full-chain scorer sees no candidate twice, the winner
included.
"""

from dataclasses import replace

import numpy as np
import pytest

from confgame import fixtures, game, learner, ope, sieve, smd

# ---------------------------------------------------------------------------
# references: one candidate at a time
# ---------------------------------------------------------------------------


class Unbounded(Exception):
    """A reference minimum is unbounded below; ``direction`` is the weight's
    flat part."""

    def __init__(self, message, direction):
        super().__init__(message)
        self.direction = direction


def ref_continuation_centers(st, t, rep, policy):
    ones = np.ones((rep.shape[1], 2))
    idx_s, idx_u = np.divmod(np.arange(rep.shape[1]), st.n_u)
    if t % 2 == 0:
        fac = policy.bob[t // 2][idx_s]
        own, partner = ones, fac
    else:
        fac = policy.alice[t // 2 + 1][idx_s, idx_u]
        own, partner = fac, ones
    theta, gamma, omega, zeta = (rep[:, :, i, None] for i in range(4))
    g = np.empty((rep.shape[0], 4, rep.shape[1], 2))
    g[:, 0], g[:, 1], g[:, 2], g[:, 3] = zeta * ones, theta * own, gamma * partner, omega * fac
    alpha = np.einsum("cmna,kjna->kjcm", st.t_alpha, g)
    scale_sq = np.einsum("na,kjna->kj", st.scale_weights, g**2)
    return st.geometry4.solve(alpha), scale_sq


def ref_combine_blocks(t, reward_m, block_m, n_rows):
    kk = max([1] + [m.shape[0] for m in (reward_m, block_m) if m is not None])
    rep = np.zeros((kk, n_rows, 4))
    even = t % 2 == 0
    if reward_m is not None:
        r_act, r_iv, r_int = (reward_m[..., i] for i in range(3))
        rep[:, :, 0] += r_act if even else r_iv
        rep[:, :, 1] += r_iv if even else r_act
        rep[:, :, 2] += r_int
    if block_m is None:
        return rep
    b0, b1, b2, b3 = (block_m[:, j] for j in range(4))
    if even:
        rep[:, :, 0] += b0[..., 0] + b1[..., 0] + b1[..., 3] + b2[..., 0] + b3[..., 0] + b3[..., 3]
        rep[:, :, 1] += b0[..., 1] + b2[..., 1]
        rep[:, :, 2] += b0[..., 2] + b1[..., 1] + b1[..., 2] + b2[..., 2] + b3[..., 1] + b3[..., 2]
        rep[:, :, 3] += b0[..., 3] + b2[..., 3]
    else:
        rep[:, :, 1] += b0[..., 0] + b1[..., 0] + b2[..., 0] + b2[..., 3] + b3[..., 0] + b3[..., 3]
        rep[:, :, 0] += b0[..., 1] + b1[..., 1]
        rep[:, :, 2] += b0[..., 2] + b1[..., 2] + b2[..., 1] + b2[..., 2] + b3[..., 1] + b3[..., 2]
        rep[:, :, 3] += b0[..., 3] + b1[..., 3]
    return rep


def ref_rep(st, t, chains, reward, coef, radius):
    index, k = np.arange(chains), st.basis.k
    reward_m = block_m = None
    if reward is not None:
        reward_m = st.geometry3.members(*reward, index).reshape(chains, k, -1)
    if coef is not None:
        block_m = st.geometry4.members(coef, radius, index[:, None]).reshape(chains, 4, k, -1)
    return st.basis.tables(ref_combine_blocks(t, reward_m, block_m, k))


def ref_stage0(engine, policy, side):
    """First-stage (reward region, continuation centers, radii) of one side."""
    stats, chains, rep = engine.stats, engine.eta.k_members, None
    for t in reversed(range(len(stats))):
        st = stats[t]
        unit_reward, unit_next = engine.radius_units[t]
        reward = coef = radius = None
        if (t % 2 == 0) == (side == "alice"):
            reward = (st.reward_coef, unit_reward * st.reward_scale_sq)
        if t + 1 < len(stats):
            coef, scale_sq = ref_continuation_centers(st, t, rep, policy)
            radius = unit_next * scale_sq
        rep = ref_rep(st, t, chains, reward, coef, radius)
    return reward, coef, radius


def ref_min_linear(geo, weight, center, eta):
    step = np.einsum("cpq,cq->cp", geo.hpinv, weight)
    quad = float(np.einsum("cp,cpq,cq->", weight, geo.hpinv, weight))
    flat = weight - np.einsum("cpq,cq->cp", geo.hess, step)
    if np.abs(flat).max() > 1e-8 * max(1.0, float(np.abs(weight).max())):
        raise Unbounded("flat direction", direction=flat)
    eta = np.asarray(eta, dtype=float)
    return np.einsum("...cp,cp->...", center, weight) - np.sqrt(np.maximum(2.0 * eta * quad, 0.0))


def ref_score(engine, policy):
    """(value, plug-in, chain values, unbounded, flat direction) of one pair."""
    st = engine.stats[0]
    p1 = st.mass / st.mass.sum()
    pi_b = policy.init_bob
    pa = policy.alice[0].reshape(-1, 2)
    e_a = (1 - pi_b) * pa[:, 0] + pi_b * pa[:, 1]
    w_rep = p1[:, None] * np.stack([e_a, np.full_like(p1, pi_b), pi_b * pa[:, 1], np.ones_like(p1)], axis=1)
    post = np.stack([w_rep[:, 0], w_rep[:, 2], w_rep[:, 2], w_rep[:, 0]], axis=1)
    pull = st.basis.coefficient_weights
    w_blocks = [pull(w).reshape(st.geometry4.hess.shape[:2]) for w in (w_rep, post, w_rep, post)]
    w_reward = pull(w_rep[:, :3]).reshape(st.reward_coef.shape)
    total_min, total_plug, chain_values = 0.0, 0.0, {}
    unbounded, direction = False, None
    for side in ("alice", "bob"):
        reward, coef, etas = ref_stage0(engine, policy, side)
        try:
            if reward is not None:
                total_min += float(ref_min_linear(st.geometry3, w_reward, *reward))
                total_plug += float(np.einsum("cp,cp->", reward[0], w_reward))
            if coef is not None:
                vals = np.zeros(coef.shape[0])
                for j in range(4):
                    vals += ref_min_linear(st.geometry4, w_blocks[j], coef[:, j], etas[:, j])
                chain_values[side] = vals
                total_min += float(vals.min())
                total_plug += float(sum(np.einsum("cp,cp->", coef[0, j], w_blocks[j]) for j in range(4)))
        except Unbounded as exc:
            unbounded, direction = True, exc.direction
            total_min = -np.inf
    return total_min, total_plug, chain_values, unbounded, direction


def ref_learn(engine, pairs):
    """The unpruned scan: every candidate scored with the full chains,
    :data:`~confgame.learner.CHUNK` at a time; the first maximum in class
    order wins."""
    best, best_value = 0, -np.inf
    for start in range(0, len(pairs), learner.CHUNK):
        values = engine.score(pairs[start : start + learner.CHUNK]).value
        top = int(np.argmax(values))
        if values[top] > best_value:
            best, best_value = start + top, values[top]
    return pairs[best], learner.pessimistic_value(engine, pairs[best])


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _case(spec, n, seed, **class_kw):
    ds = game.simulate_dataset(spec, n=n, seed=seed)
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    return ds, basis, game.stationary_deterministic_pairs(spec, **class_kw)


@pytest.fixture(scope="module")
def t2h3_class():
    return _case(fixtures.t2_spec(horizon=3), 12_000, 11)


@pytest.fixture(scope="module")
def t1_class():
    return _case(fixtures.t1_spec(), 2_000, 3)


@pytest.fixture(scope="module")
def t2_poly_class():
    """t2 on the tensor-polynomial basis that spans its cells: one block."""
    spec = fixtures.t2_spec()
    spec = replace(spec, state_values=np.arange(spec.n_states, dtype=float)[:, None])
    ds = game.simulate_dataset(spec, n=8_000, seed=7)
    basis = sieve.build_basis(
        "tensor-polynomial", spec.n_states, spec.n_u, k=spec.n_states * spec.n_u,
        state_values=spec.state_values,
    )
    return ds, basis, game.stationary_deterministic_pairs(spec, alice_sees_prev=False, bob_sees_prev=False)


def _assert_matches_reference(engine, pairs):
    """Bit-identical scores; the reference stops a side at its first flat
    region, so for an unbounded candidate only the value and the chain values
    of the sides it finished compare."""
    scores = engine.score(pairs)
    for i, pair in enumerate(pairs):
        value, plug_in, chain_values, unbounded, _ = ref_score(engine, pair)
        assert scores.value[i] == value, i
        assert scores.record(i, pair).unbounded == unbounded
        if not unbounded:
            assert scores.plug_in[i] == plug_in, i
            assert scores.chain_values.keys() == chain_values.keys()
        for side, vals in chain_values.items():
            assert np.array_equal(scores.chain_values[side][i], vals), (i, side)
    return scores


@pytest.mark.parametrize("case, size", [("t2h3_class", 512), ("t1_class", 32), ("t2_poly_class", 32)])
def test_scan_matches_per_candidate_loop(case, size, request):
    ds, basis, pairs = request.getfixturevalue(case)
    engine = learner.LearnerEngine(ds, basis)
    scores = _assert_matches_reference(engine, pairs)
    assert len(pairs) == size
    assert np.array_equal(engine.score(pairs, 1).plug_in, scores.plug_in)
    best, pv = learner.learn_policy_pair(ds, pairs, basis, engine=engine)
    ref = [ref_score(engine, p)[0] for p in pairs]
    assert best is pairs[int(np.argmax(ref))]
    value, plug_in, chain_values, unbounded, _ = ref_score(engine, best)
    assert (pv.value, pv.plug_in, pv.unbounded) == (value, plug_in, unbounded)
    assert pv.value == scores.value[int(np.argmax(ref))]
    for side, vals in chain_values.items():
        assert np.array_equal(pv.chain_values[side], vals)


def test_equal_pairs_keep_the_first(t1_class, monkeypatch):
    """Also on the pruned path (``PRUNE`` and ``FIRST`` 1), where the twins tie in bound too."""
    ds, basis, pairs = t1_class
    engine = learner.LearnerEngine(ds, basis)
    best, _ = learner.learn_policy_pair(ds, pairs, basis, engine=engine)
    twin = game.PolicyPair(alice=best.alice.copy(), bob=best.bob.copy(), init_bob=best.init_bob)
    for prune, first in ((learner.PRUNE, learner.FIRST), (1, 1)):
        monkeypatch.setattr(learner, "PRUNE", prune)
        monkeypatch.setattr(learner, "FIRST", first)
        for cls in ([best, twin], [twin, best], [twin] + pairs):
            assert learner.learn_policy_pair(ds, cls, basis, engine=engine)[0] is cls[0]


def test_chunks_match_one_piece(t1_class, monkeypatch):
    ds, basis, pairs = t1_class
    engine = learner.LearnerEngine(ds, basis)
    whole = learner.learn_policy_pair(ds, pairs + pairs, basis, engine=engine)
    monkeypatch.setattr(learner, "CHUNK", 7)
    chunked = learner.learn_policy_pair(ds, pairs + pairs, basis, engine=engine)
    # the twin of the winner in the second half ties it and must not win
    assert chunked[0] is whole[0] and any(whole[0] is p for p in pairs)
    assert (chunked[1].value, chunked[1].plug_in) == (whole[1].value, whole[1].plug_in)
    for side, vals in whole[1].chain_values.items():
        assert np.array_equal(chunked[1].chain_values[side], vals)


def test_flat_direction_scores_minus_infinity(t1_class, monkeypatch):
    """A reward criterion blind to the instrument coefficient leaves every
    candidate that opens with bob's action 1 unbounded below.  The engine is
    built on a copy of the shared dataset, whose memo starts empty, so the
    patched statistics stay out of the dataset's memo.  With ``PRUNE`` at 4
    the pruned scan learns the same pairs, the first of the all-flat class
    included."""
    ds, basis, pairs = t1_class
    engine = learner.LearnerEngine(replace(ds), basis)
    plain = engine.score(pairs)
    st = engine.stats[0]
    hess = st.geometry3.hess.copy()
    hess[:, 1, :] = hess[:, :, 1] = 0.0
    st.geometry3 = smd.BlockGeometry(hess)
    opens_one = np.array([p.init_bob == 1.0 for p in pairs])
    assert 0 < opens_one.sum() < len(pairs)

    scores = _assert_matches_reference(engine, pairs)
    assert np.array_equal(np.isneginf(scores.value), opens_one)
    assert np.array_equal(scores.plug_in, plain.plug_in)  # centers and weights are unchanged
    best, pv = learner.learn_policy_pair(ds, pairs, basis, engine=engine)
    ref = [ref_score(engine, p)[0] for p in pairs]
    assert best is pairs[int(np.argmax(ref))] and not opens_one[int(np.argmax(ref))]
    assert np.isfinite(pv.value) and not pv.unbounded and pv.unbounded_direction is None

    flat = [p for p, one in zip(pairs, opens_one) if one]
    best, pv = learner.learn_policy_pair(ds, flat, basis, engine=engine)
    assert best is flat[0] and pv.value == -np.inf and pv.unbounded
    direction = ref_score(engine, best)[4]
    assert np.array_equal(pv.unbounded_direction, direction)
    assert direction[:, 1].all() and np.abs(direction[:, [0, 2]]).max() <= 1e-12
    assert pv.plug_in == plain.plug_in[[p is best for p in pairs].index(True)]

    monkeypatch.setattr(learner, "PRUNE", 4)
    for cls in (pairs, flat):
        _learn_counted(engine, cls, basis)


@pytest.mark.parametrize("case", ["t2h3_class", "t1_class", "t2_poly_class"])
def test_the_first_chains_score_as_in_the_full_run(case, request):
    """A run of the first ``k`` chains gives the first ``k`` columns of the
    full chain values and the full plug-in value bit for bit, so its value
    is never below the full one: the bound that prunes the class."""
    ds, basis, pairs = request.getfixturevalue(case)
    engine = learner.LearnerEngine(ds, basis)
    full, k_members = engine.score(pairs), engine.eta.k_members
    for k in (1, 2, 4, k_members):
        part = engine.score(pairs, k)
        assert part.chain_values.keys() == full.chain_values.keys()
        for side, vals in full.chain_values.items():
            assert np.array_equal(part.chain_values[side], vals[:, :k]), (k, side)
        assert np.array_equal(part.plug_in, full.plug_in)
        assert (part.value >= full.value).all()
    for bad in (0, k_members + 1):
        with pytest.raises(ValueError, match=f"chains must be between 1 and k_members = {k_members}, got {bad}"):
            engine.score(pairs, bad)


def test_only_a_class_of_one_keeps_its_moment_means(t1_class):
    ds, basis, pairs = t1_class
    engine = learner.LearnerEngine(ds, basis)
    for cls, kept in ((pairs, False), (pairs[:1], True)):
        policies = game.PolicyStack.of(cls, ds.horizon, ds.n_states, ds.n_u)
        stages = [s for s in ope.chain_recursion(engine.stats, policies, "bob", 2) if s.coef is not None]
        assert stages and all((s.alpha is not None) == kept for s in stages)


# ---------------------------------------------------------------------------
# the pruned scan against the unpruned one
# ---------------------------------------------------------------------------


def _assert_same_record(pv, ref):
    """Every field of two :class:`PessimisticValue` records, bit for bit."""
    assert pv.policy is ref.policy
    assert (pv.value, pv.plug_in, pv.unbounded) == (ref.value, ref.plug_in, ref.unbounded)
    assert pv.chain_values.keys() == ref.chain_values.keys()
    for side, vals in ref.chain_values.items():
        assert np.array_equal(pv.chain_values[side], vals), side
    if ref.unbounded_direction is None:
        assert pv.unbounded_direction is None
    else:
        assert np.array_equal(pv.unbounded_direction, ref.unbounded_direction)
    assert pv.diagnostics["region_sizes"] == ref.diagnostics["region_sizes"]
    members = ref.diagnostics["attaining_members"]
    assert pv.diagnostics["attaining_members"].keys() == members.keys()
    for key, member in members.items():
        assert np.array_equal(pv.diagnostics["attaining_members"][key], member), key


def _learn_counted(engine, pairs, basis):
    """:func:`learn_policy_pair` checked against :func:`ref_learn`; returns the
    number of candidates the full-chain scorer saw, call by call, and checks
    that it saw none twice.  Calls with fewer chains (the bound) are not
    counted."""
    seen = []

    def score(cls, chains=None):
        if chains in (None, engine.eta.k_members):
            seen.append(cls)
        return learner.LearnerEngine.score(engine, cls, chains)

    engine.score = score
    try:
        best, pv = learner.learn_policy_pair(None, pairs, basis, engine=engine)
    finally:
        del engine.score
    ref_best, ref_pv = ref_learn(engine, pairs)
    assert best is ref_best
    _assert_same_record(pv, ref_pv)
    scored = [id(p) for cls in seen for p in cls]
    assert len(set(scored)) == len(scored)
    return [len(cls) for cls in seen]


def test_the_scan_that_chooses_the_pair_gives_its_record(t1_class):
    """A class of at most ``PRUNE`` candidates takes one full-chain scan,
    and the learned pair's record comes from it: the winner is not scored
    again."""
    ds, basis, pairs = t1_class
    assert _learn_counted(learner.LearnerEngine(ds, basis), pairs, basis) == [32]


@pytest.mark.parametrize("n, seeds", [(2_000, (1, 2)), (12_000, (12, 13)), (30_000, (5, 6))])
def test_pruned_scan_learns_as_the_unpruned_one(n, seeds):
    spec = fixtures.t2_spec(horizon=3)
    for seed in seeds:
        ds, basis, pairs = _case(spec, n, seed)
        seen = sum(_learn_counted(learner.LearnerEngine(ds, basis), pairs, basis))
        if n == 12_000:  # the class-t2h3 size: the bound leaves about ten that can win
            assert seen <= 32 and len(pairs) == 512


@pytest.mark.parametrize("case", ["t2h3_class", "t1_class", "t2_poly_class"])
@pytest.mark.parametrize("c_eta", [2.0, 0.0])
def test_small_first_batches_prune_to_the_same_pair(case, c_eta, request, monkeypatch):
    """With ``PRUNE`` at 4 the 32-candidate classes prune too; at ``c_eta = 0``
    every region is its center, so the pessimistic value is the plug-in and
    the bound prunes only candidates strictly below the best."""
    ds, basis, pairs = request.getfixturevalue(case)
    engine = learner.LearnerEngine(ds, basis, learner.EtaConfig(c_eta=c_eta))
    if case != "t2h3_class":
        monkeypatch.setattr(learner, "PRUNE", 4)
    assert sum(_learn_counted(engine, pairs, basis)) < len(pairs)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_a_candidate_without_a_finite_plug_in_is_scored(t2h3_class, bad, monkeypatch):
    """The winner's bound replaced by ``bad`` sorts it away from the first
    batch; it must still be scored and win, and the margin must ignore it."""
    ds, basis, pairs = t2h3_class
    engine = learner.LearnerEngine(ds, basis)
    best = ref_learn(engine, pairs)[0]
    score = learner.LearnerEngine.score

    def bounded(self, cls, chains=None):
        scores = score(self, cls, chains)
        if chains == 1:
            scores.value[[p is best for p in cls]] = bad
        return scores

    monkeypatch.setattr(learner.LearnerEngine, "score", bounded)
    assert sum(_learn_counted(engine, pairs, basis)) < len(pairs)


def test_pruned_scan_under_rescaled_rewards(t1_basis, monkeypatch):
    """The scaled-reward datasets of the learner's equivariance test, and
    scales far from 1, where the pruning margin scales with the bounds."""
    monkeypatch.setattr(learner, "PRUNE", 4)
    spec = fixtures.t1_spec()
    pairs = game.stationary_deterministic_pairs(spec)
    for lam in (1.0, 3.0, 1e-6, 1e6):
        ds = game.simulate_dataset(spec.scaled_rewards(lam), n=8_000, seed=6)
        _learn_counted(learner.LearnerEngine(ds, t1_basis), pairs, t1_basis)

