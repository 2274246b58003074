import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from confgame import fixtures, game, gameio, learner, oracle
from confgame.errors import EmptyClass, MalformedSpec


def test_validate_t1_passes(t1):
    report = game.validate_spec(t1)
    assert report.ok
    rel = [c for c in report.checks if c.name == "iv_relevance"]
    assert rel and abs(rel[0].value - 0.3 * 0.25) < 1e-12  # iv shift times Var(B)


def test_validate_flags_irrelevant_instrument(t1):
    flat = replace(t1, alice_act_iv=np.zeros_like(t1.alice_act_iv))
    report = game.validate_spec(flat)
    assert not report.ok
    assert any(c.name == "iv_relevance" and c.stage == 0 for c in report.violations)


def test_validate_flags_uncentered_residual(t1):
    bad = replace(t1, alice_rew_resid=np.full_like(t1.alice_rew_resid, 0.1))
    report = game.validate_spec(bad)
    assert any(
        c.name == "alice_reward_residual_mean" and not c.ok for c in report.checks
    )


def test_validate_flags_orthogonality_violation():
    report = game.validate_spec(fixtures.negative_control_spec())
    assert any("orthogonality[alice_reward" in c.name and not c.ok for c in report.checks)


def test_malformed_probabilities_rejected(t1):
    with pytest.raises(MalformedSpec):
        replace(t1, init_state=np.array([0.5]))
    with pytest.raises(MalformedSpec):
        replace(t1, alice_act_base=np.full_like(t1.alice_act_base, 0.9))  # 0.9+0.3 > 1


@pytest.mark.parametrize(
    "field, edit, message",
    [
        ("reward_noise", lambda spec: np.nan, "reward_noise: value nan is not a finite number"),
        ("reward_noise", lambda spec: np.inf, "reward_noise: value inf is not a finite number"),
        # every comparison with nan is false, so a range check alone lets it through
        ("v1_law", lambda spec: np.where(np.arange(2) == 1, np.nan, spec.v1_law),
         r"v1_law: value nan at index \(0, 0, 1\) is not a probability in \[0, 1\]"),
        ("bob_rew_iv", lambda spec: np.where(np.arange(2) == 1, np.inf, spec.bob_rew_iv),
         r"bob_rew_iv: value inf at index \(0, 0, 0, 1\) is not a finite number"),
        ("init_state", lambda spec: np.array([0.5, 0.25]), "init_state: row sum 0.75 is not 1"),
    ],
    ids=["noise-nan", "noise-inf", "law-nan", "reward-inf", "row-sum"],
)
def test_spec_names_the_first_bad_value(t2, field, edit, message):
    with pytest.raises(MalformedSpec, match=f"^{message}$"):
        replace(t2, **{field: edit(t2)})


@pytest.mark.parametrize(
    "field, value",
    [("horizon", 2.0), ("horizon", True), ("n_states", 2.0), ("n_u", np.float64(1.0)), ("n_v1", "2"), ("n_v2", None)],
)
def test_spec_sizes_must_be_integers(t2, field, value):
    """A float size matches its table shapes (``4.0 == 4``), so only this
    check keeps it from failing later as a raw ``TypeError``."""
    with pytest.raises(MalformedSpec, match=f"^{field}: expected an integer, got {re.escape(repr(value))}$"):
        replace(t2, **{field: value})


def test_spec_sizes_may_be_numpy_integers(t2):
    spec = replace(t2, horizon=np.int64(2), n_states=np.int32(2))
    assert game.simulate_dataset(spec, n=10, seed=0).horizon == 2


def test_spec_names_a_table_of_the_wrong_shape(t2, tmp_path):
    """A table's shape is checked before its values, in one message."""
    with pytest.raises(
        MalformedSpec, match=r"^trans: expected shape \(4, 1, 2, 2, 2, 2, 2, 2\), got \(4, 1, 2, 2, 2, 2, 2, 1\)$"
    ):
        replace(t2, trans=t2.trans[..., :1])
    with pytest.raises(MalformedSpec, match=r"^init_state: expected shape \(2,\), got \(1,\)$"):
        replace(t2, init_state=np.array([1.0]))
    path = tmp_path / "t2.spec"
    gameio.write_spec(t2, str(path))
    text = path.read_text()
    assert "[v1_law] shape=4,2,2\n" in text
    path.write_text(text.replace("[v1_law] shape=4,2,2\n", "[v1_law] shape=2,4,2\n"))
    with pytest.raises(MalformedSpec, match=r"^v1_law: expected shape \(4, 2, 2\), got \(2, 4, 2\)$"):
        gameio.read_spec(str(path))


def test_policy_probabilities_must_be_finite(t1):
    with pytest.raises(MalformedSpec, match=r"^policy alice: value nan at index \(0, 0, 0, 0\)"):
        game.constant_policy_pair(t1, np.nan, 0.0, 0.5)
    with pytest.raises(MalformedSpec, match="^behavior init_bob: value nan is not a probability"):
        game.BehaviorPolicyPair.from_spec(t1, init_bob=np.nan)


def test_policy_tables_must_have_the_same_steps():
    with pytest.raises(MalformedSpec, match="^policy tables have 2 alice steps and 1 bob steps$"):
        game.PolicyPair(alice=np.zeros((2, 1, 1, 2)), bob=np.zeros((1, 1, 2)), init_bob=0.5)


def test_policy_stack_names_the_first_pair_of_another_shape(t1, t2):
    pairs = [game.constant_policy_pair(t1, 1.0, 0.5, 0.5)] * 2 + [game.constant_policy_pair(t2, 1.0, 0.5, 0.5)]
    with pytest.raises(
        MalformedSpec,
        match=r"^policy pair 2 has shapes alice \(2, 2, 1, 2\), bob \(2, 2, 2\); "
        r"the game needs alice \(1, 1, 1, 2\), bob \(1, 1, 2\)$",
    ):
        game.PolicyStack.of(pairs, t1.horizon, t1.n_states, t1.n_u)
    longer = game.constant_policy_pair(fixtures.t2_spec(horizon=3), 1.0, 0.5, 0.5)
    with pytest.raises(
        MalformedSpec,
        match=r"^policy pair 0 has shapes alice \(3, 2, 1, 2\), bob \(3, 2, 2\); "
        r"the game needs alice \(2, 2, 1, 2\), bob \(2, 2, 2\)$",
    ):
        game.PolicyStack.of([longer], t2.horizon, t2.n_states, t2.n_u)


def test_empty_policy_stack_is_an_empty_class(t2, t2_basis):
    with pytest.raises(EmptyClass, match="^no candidate policy pairs$"):
        game.PolicyStack.of([], t2.horizon, t2.n_states, t2.n_u)
    engine = learner.LearnerEngine(game.simulate_dataset(t2, n=500, seed=0), t2_basis)
    with pytest.raises(EmptyClass, match="^no candidate policy pairs$"):
        engine.score([])


def test_spec_for_another_grid_is_rejected(t1, t2):
    game.check_spec_grid(t2, t2.horizon, t2.n_states, t2.n_u)
    with pytest.raises(
        MalformedSpec,
        match=r"^the spec has \(horizon, n_states, n_u\) = \(1, 1, 1\); the data have \(2, 2, 1\)$",
    ):
        game.check_spec_grid(t1, t2.horizon, t2.n_states, t2.n_u)


def test_simulate_empty_dataset(t1):
    ds = game.simulate_dataset(t1, n=0, seed=3)
    assert ds.n == 0 and ds.s.shape == (0, 1) and ds.horizon == 1


def test_simulate_action_frequency_matches_exact_value(t1):
    ds = game.simulate_dataset(t1, n=100_000, seed=7)
    mask = ds.b_init == 1
    p_hat = ds.a[mask, 0].mean()
    assert abs(p_hat - 0.6) < 0.01  # base 0.2 + shift 0.3 + 0.2 * E[v1]


def test_simulate_deterministic_given_seed(t1):
    d1 = game.simulate_dataset(t1, n=500, seed=9)
    d2 = game.simulate_dataset(t1, n=500, seed=9)
    assert d1 == d2 and d1.hidden == d2.hidden
    assert d1 != game.simulate_dataset(t1, n=500, seed=10)


def test_observed_table_has_no_private_columns(t1):
    ds = game.simulate_dataset(t1, n=10, seed=0)
    from confgame.game import _OBSERVED_FIELDS

    assert not any(f.startswith("v") for f in _OBSERVED_FIELDS)
    assert ds.hidden is not None  # the trace exists, but as a sibling object


def test_memoryless_private_draws(t2):
    """The second half-step private draw is independent of (state, action)
    one stage earlier, given the current cell."""
    passes = 0
    reps = 20
    for rep in range(reps):
        ds = game.simulate_dataset(t2, n=4000, seed=500 + rep)
        h = ds.hidden
        ok = True
        for s_half in range(t2.n_states):
            m = ds.s_half[:, 0] == s_half
            past = ds.s[m, 0] * 2 + ds.a[m, 0]
            vpair = h.v1_half[m, 0] * 2 + h.v2_half[m, 0]
            table = np.zeros((4, 4))
            np.add.at(table, (past, vpair), 1)
            table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
            if min(table.shape) < 2:
                continue
            chi2 = stats.chi2_contingency(table)[0]
            df = (table.shape[0] - 1) * (table.shape[1] - 1)
            if chi2 >= stats.chi2.ppf(0.95, df):
                ok = False
        passes += ok
    assert passes >= int(0.85 * reps)


def test_reward_cell_means_match_exact_law(t1):
    ds = game.simulate_dataset(t1, n=50_000, seed=21)
    p, y = oracle._decision_moments(t1, game.BehaviorPolicyPair.from_spec(t1), 0, 0, 0)
    for prev in (0, 1):
        for act in (0, 1):
            m = (ds.b_init == prev) & (ds.a[:, 0] == act)
            emp = ds.r_a[m, 0].mean()
            cell_p = p[:, :, prev, act]
            exact = float((cell_p * y[:, :, prev, act]).sum() / cell_p.sum())
            se = ds.r_a[m, 0].std() / np.sqrt(m.sum())
            assert abs(emp - exact) < 3 * se + 1e-9


@pytest.mark.parametrize("fixture", ["t1", "t2-h3"])
def test_reward_mean_matches_a_gather_per_table(fixture):
    """The one flat gather of ``reward_mean`` gives bit for bit what four
    separate four-array gathers give, on random draws and on the oracle's
    broadcast grid."""
    spec = fixtures.get_fixture(fixture)
    rng = np.random.default_rng(31)
    n = 1_000
    draws = tuple(rng.integers(0, size, n) for size in (spec.n_u, spec.n_v1, spec.n_v2, spec.n_states))
    own, prev = rng.integers(0, 2, n), rng.integers(0, 2, n).astype(float)
    v1, v2 = (axis[..., None, None] for axis in np.ogrid[: spec.n_v1, : spec.n_v2])
    grid_prev, grid_act = np.meshgrid(np.arange(2.0), np.arange(2.0), indexing="ij")
    for t in range(spec.n_stages):
        ra, ri, rx, rr = spec.reward_tables(t)
        for args in ((own, prev, *draws), (grid_act, grid_prev, spec.n_u - 1, v1, v2, spec.n_states - 1)):
            a, b, idx = args[0], args[1], args[2:]
            want = ra[idx] * a + ri[idx] * b + rx[idx] * a * b + rr[idx]
            got = spec.reward_mean(t, *args)
            assert got.shape == want.shape and np.array_equal(got, want)


def test_policy_pair_rejects_v_dependent_bob(t1):
    with pytest.raises(TypeError):
        game.PolicyPair(
            alice=np.zeros((1, 1, 1, 2)),
            bob=np.zeros((1, 1, 2, 2)),  # an extra axis that could carry v
            init_bob=0.5,
        )


def test_stationary_class_is_lex_sorted(t1):
    pairs = game.stationary_deterministic_pairs(t1)
    codes = [p.encode() for p in pairs]
    assert codes == sorted(codes)
    assert len(pairs) == 32


def _sorted_class(spec, alice_sees_prev, bob_sees_prev):
    """The stationary class as an explicit sort builds it: bit tables least
    significant bit first, then sorted by ``encode()``."""
    ns, nu, h = spec.n_states, spec.n_u, spec.horizon
    a_cells, b_cells = ns * nu * (2 if alice_sees_prev else 1), ns * (2 if bob_sees_prev else 1)
    pairs = []
    for init_bob in (0, 1):
        for a_code in range(2**a_cells):
            a_tab = np.array([(a_code >> i) & 1 for i in range(a_cells)], dtype=float).reshape(ns, nu, -1)
            for b_code in range(2**b_cells):
                b_tab = np.array([(b_code >> i) & 1 for i in range(b_cells)], dtype=float).reshape(ns, -1)
                pairs.append(
                    game.PolicyPair(
                        alice=np.repeat(np.broadcast_to(a_tab, (ns, nu, 2))[None], h, axis=0),
                        bob=np.repeat(np.broadcast_to(b_tab, (ns, 2))[None], h, axis=0),
                        init_bob=float(init_bob),
                    )
                )
    return sorted(pairs, key=lambda p: p.encode())


@pytest.mark.parametrize("bob_sees_prev", [True, False])
@pytest.mark.parametrize("alice_sees_prev", [True, False])
@pytest.mark.parametrize("fixture", sorted(fixtures.FIXTURES))
def test_stationary_class_matches_a_sorted_enumeration(fixture, alice_sees_prev, bob_sees_prev):
    spec = fixtures.get_fixture(fixture)
    kw = {"alice_sees_prev": alice_sees_prev, "bob_sees_prev": bob_sees_prev}
    pairs = game.stationary_deterministic_pairs(spec, **kw)
    want = _sorted_class(spec, **kw)
    assert len(pairs) == len(want)
    for got, ref in zip(pairs, want):
        assert got.init_bob == ref.init_bob
        assert np.array_equal(got.alice, ref.alice) and np.array_equal(got.bob, ref.bob)
        assert all(t.flags.writeable and t.flags.c_contiguous for t in (got.alice, got.bob))
    tables = [t for p in pairs[:2] for t in (p.alice, p.bob)]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(tables) for b in tables[i + 1 :])


def test_behavior_pair_for_another_grid_is_rejected(t1, t2):
    from confgame import ope

    t1_rules = game.BehaviorPolicyPair.from_spec(t1)
    shapes = r"alice \(1, 1, 2, 2, 1, 2\), bob \(1, 1, 2, 2, 1, 2\); the game needs \(2, 1, 2, 2, 2, 2\)"
    for call in (
        lambda: oracle.stage_laws(t2, t1_rules),
        lambda: game.simulate_dataset(t2, t1_rules, n=10, seed=0),
        lambda: game.validate_spec(t2, t1_rules),
        lambda: ope.PopulationSource(t2, t1_rules),
    ):
        with pytest.raises(MalformedSpec, match=shapes):
            call()
    game.BehaviorPolicyPair.from_spec(t2).check_grid(t2)
