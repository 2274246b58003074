import dataclasses
import re
from dataclasses import replace

import numpy as np
import pytest

from confgame import cli, fixtures, game, gameio, harness, learner, ope, oracle, sieve, smd
from confgame.errors import BasisMismatch, EmptyClass


@pytest.fixture(scope="module")
def t1_ds(t1):
    return game.simulate_dataset(t1, n=10_000, seed=42)


@pytest.fixture(scope="module")
def t1_engine(t1_ds, t1_basis):
    return learner.LearnerEngine(t1_ds, t1_basis, learner.EtaConfig())


def _with_grid(spec):
    """``spec`` with its states at 0, 1, ... and the tensor-polynomial basis
    that spans its cells."""
    spec = replace(spec, state_values=np.arange(spec.n_states, dtype=float)[:, None])
    basis = sieve.build_basis(
        "tensor-polynomial", spec.n_states, spec.n_u, k=spec.n_states * spec.n_u,
        state_values=spec.state_values,
    )
    return spec, basis


def test_zero_radius_regions_collapse_to_plug_in(t1, t1_basis, t1_ds, t2):
    """Also on a spanning tensor-polynomial basis, which reparametrizes the
    saturated criterion bijectively, so its plug-in is the saturated one."""
    t2_grid, t2_poly = _with_grid(t2)
    t2_ds = game.simulate_dataset(t2_grid, n=10_000, seed=42)
    eta0 = learner.EtaConfig(c_eta=0.0)
    for spec, basis, ds in ((t1, t1_basis, t1_ds), (t2_grid, t2_poly, t2_ds)):
        pol = game.constant_policy_pair(spec, 1.0, 0.5, 0.5)

        def plug_in(basis):
            engine = learner.LearnerEngine(ds, basis, eta0)
            return engine, learner.pessimistic_value(engine, pol)

        engine, pv = plug_in(basis)
        assert abs(pv.value - pv.plug_in) < 1e-12
        res = ope.evaluate_policy(ds, pol, basis)
        assert abs(pv.plug_in - res.j_total) <= 1e-10
        saturated = sieve.build_basis("saturated", spec.n_states, spec.n_u)
        assert abs(pv.plug_in - plug_in(saturated)[1].plug_in) <= 1e-10
    with pytest.raises(BasisMismatch, match="saturated basis"):
        learner.truth_covered(engine, t2_grid, pol)


def test_pessimistic_value_below_plug_in(t1, t1_basis, t1_ds, t1_engine):
    for pol in (
        game.constant_policy_pair(t1, 1.0, 0.5, 0.5),
        game.constant_policy_pair(t1, 0.0, 1.0, 1.0),
        game.constant_policy_pair(t1, 0.6, 0.2, 0.3),
    ):
        pv = learner.pessimistic_value(t1_engine, pol)
        assert pv.value <= pv.plug_in + 1e-12


def test_value_monotone_in_radius(t1, t1_basis, t1_ds):
    pol = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    values = []
    for c_eta in (0.5, 1.0, 2.0):
        eta = learner.EtaConfig(c_eta=c_eta)
        engine = learner.LearnerEngine(t1_ds, t1_basis, eta)
        values.append(learner.pessimistic_value(engine, pol).value)
    assert values[0] >= values[1] >= values[2]


def test_single_policy_class(t1, t1_basis, t1_ds):
    pol = game.constant_policy_pair(t1, 1.0, 1.0, 1.0)
    best, pv = learner.learn_policy_pair(t1_ds, [pol], t1_basis)
    assert best is pol and np.isfinite(pv.value)


def test_empty_class_raises(t1_basis, t1_ds):
    with pytest.raises(EmptyClass):
        learner.learn_policy_pair(t1_ds, [], t1_basis)


def test_zero_reward_returns_lexicographic_first(t1_basis):
    spec = fixtures.t1_spec(reward_scale=0.0, noise=0.0)
    ds = game.simulate_dataset(spec, n=4_000, seed=3)
    pairs = game.stationary_deterministic_pairs(spec)
    best, pv = learner.learn_policy_pair(ds, pairs, t1_basis)
    assert pv.value == 0.0
    assert best.encode() == pairs[0].encode()


def test_learned_pair_matches_oracle_on_large_sample(t1, t1_basis):
    ds = game.simulate_dataset(t1, n=64_000, seed=5)
    pairs = game.stationary_deterministic_pairs(t1)
    best, _ = learner.learn_policy_pair(ds, pairs, t1_basis)
    assert learner.compute_gap(t1, best, pairs) <= 0.1


def test_gap_examples(t1):
    pairs = game.stationary_deterministic_pairs(t1)
    star, j_star = oracle.exact_optimal_pair(t1, pairs)
    assert learner.compute_gap(t1, star, pairs) == 0.0
    zero = fixtures.t1_spec(reward_scale=0.0, noise=0.0)
    zp = game.stationary_deterministic_pairs(zero)
    assert learner.compute_gap(zero, zp[7], zp) == 0.0
    off = game.constant_policy_pair(t1, 0.0, 0.0, 0.0)
    ja, jb = oracle.exact_policy_value(t1, off)
    assert abs(learner.compute_gap(t1, off, pairs) - (j_star - ja - jb)) < 1e-12


def test_gap_rejects_a_pair_that_beats_the_class(t1):
    pairs = game.stationary_deterministic_pairs(t1)
    star, j_star = oracle.exact_optimal_pair(t1, pairs)
    worse = [p for p in pairs if sum(oracle.exact_policy_value(t1, p)) < j_star - 0.1]
    with pytest.raises(ValueError, match="beats the class optimum"):
        learner.compute_gap(t1, star, worse)


def test_reward_scaling_leaves_argmax_unchanged(t1, t1_basis):
    lam = 3.0
    ds = game.simulate_dataset(t1, n=8_000, seed=6)
    ds_scaled = game.simulate_dataset(t1.scaled_rewards(lam), n=8_000, seed=6)
    assert np.allclose(ds_scaled.r_a, lam * ds.r_a) and np.allclose(ds_scaled.r_b, lam * ds.r_b)
    pairs = game.stationary_deterministic_pairs(t1)
    best1, pv1 = learner.learn_policy_pair(ds, pairs, t1_basis)
    best2, pv2 = learner.learn_policy_pair(ds_scaled, pairs, t1_basis)
    assert best1.encode() == best2.encode()
    assert abs(pv2.value - lam * pv1.value) < 1e-9 * max(1.0, abs(pv1.value))


def test_truth_coverage_on_moderate_sample(t1, t1_basis):
    pol = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    exq = oracle.exact_q(t1, pol)
    blocks = oracle.exact_recursion_blocks(t1, pol, exq)
    hits = 0
    for rep in range(20):
        ds = game.simulate_dataset(t1, n=10_000, seed=900 + rep)
        engine = learner.LearnerEngine(ds, t1_basis, learner.EtaConfig())
        hits += learner.truth_covered(engine, t1, pol, exq, blocks)
    assert hits >= 17


def test_truth_coverage_compares_each_stage_with_its_own_truth(t2, t2_basis):
    """Alice's second move draws v2 from (0.3, 0.7), so her stage-2 action
    effect is 1.08 and 1.28 per state, not the opening stage's 1.0 and 1.2;
    residuals on v1 keep the game valid.  A population engine with radius 0
    fits the stage exactly, so the truth is covered."""
    v2_law = t2.v2_law.copy()
    v2_law[2] = (0.3, 0.7)
    _, v1, _, _ = np.indices(t2.alice_rew_resid.shape, dtype=float)
    spec = replace(t2, v2_law=v2_law, alice_rew_resid=0.6 * (v1 - 0.5), bob_rew_resid=0.6 * (v1 - 0.5))
    assert game.validate_spec(spec).ok
    engine = learner.LearnerEngine(ope.PopulationSource(spec), t2_basis)
    assert np.allclose(engine.stats[2].reward_coef[:, 0], [1.08, 1.28], rtol=0, atol=1e-12)
    assert learner.truth_covered(engine, spec, game.constant_policy_pair(spec, 1.0, 0.5, 0.5))


def test_value_monotone_in_chain_budget(t1, t1_basis, t1_ds):
    """More sampled member chains can only deepen the inner minimum."""
    pol = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    values = []
    for k in (1, 4, 16):
        eta = learner.EtaConfig(k_members=k)
        engine = learner.LearnerEngine(t1_ds, t1_basis, eta)
        values.append(learner.pessimistic_value(engine, pol).value)
    assert values[0] >= values[1] >= values[2]


@pytest.mark.parametrize("k", [0, -1])
def test_chain_budget_below_one_is_rejected(k):
    with pytest.raises(ValueError, match=f"k_members must be at least 1 .*got {k}"):
        learner.EtaConfig(k_members=k)


@pytest.mark.parametrize(
    "name, value, need",
    [("alpha", 0.0, "> 0"), ("alpha", np.nan, "> 0"), ("varsigma", -0.5, ">= 0"), ("d", 0, ">= 1"), ("c_eta", -1.0, ">= 0")],
)
def test_schedule_parameter_out_of_range_is_rejected(name, value, need, tmp_path):
    """Every schedule parameter is checked when the config is built, by the
    guard of :func:`~confgame.smd.eta_schedule`, and a benchmark config that
    holds one fails before any output is written."""
    message = re.escape(f"{name} must be {need}, got {value}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        learner.EtaConfig(**{name: value})
    with pytest.raises(ValueError, match=f"^{message}$"):
        smd.eta_schedule(100, **{name: value})
    out = tmp_path / "results"
    with pytest.raises(ValueError, match=f"^{message}$"):
        harness.ExperimentConfig(out_dir=str(out), **{name: value})
    assert not out.exists()


@pytest.mark.parametrize("name", ["alpha", "varsigma", "d", "c_eta"])
def test_schedule_parameter_that_is_not_finite_is_rejected(name, tmp_path):
    """``c_eta = inf`` learned a value of ``nan`` with only warnings; every
    schedule parameter must be finite, checked after its range."""
    message = f"^{name} must be finite, got inf$"
    with pytest.raises(ValueError, match=message):
        learner.EtaConfig(**{name: np.inf})
    with pytest.raises(ValueError, match=message):
        smd.eta_schedule(100, **{name: np.inf})
    out = tmp_path / "results"
    with pytest.raises(ValueError, match=message):
        harness.ExperimentConfig(out_dir=str(out), **{name: np.inf})
    assert not out.exists()


@pytest.mark.parametrize("k", [2.0, True, np.float64(4.0), "16"])
def test_chain_budget_must_be_an_integer(k, tmp_path):
    """A float budget raised a raw ``IndexError`` from the region members and
    ``True`` a raw ``TypeError``; ``bool`` is rejected as for a spec's sizes."""
    message = f"^k_members must be an integer, got {re.escape(str(k))}$"
    with pytest.raises(ValueError, match=message):
        learner.EtaConfig(k_members=k)
    out = tmp_path / "results"
    with pytest.raises(ValueError, match=message):
        harness.ExperimentConfig(out_dir=str(out), k_members=k)
    assert not out.exists()


def test_chain_budget_may_be_a_numpy_integer(t1, t1_basis, t1_ds):
    pol = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    values = [
        learner.pessimistic_value(learner.LearnerEngine(t1_ds, t1_basis, learner.EtaConfig(k_members=k)), pol).value
        for k in (4, np.int64(4))
    ]
    assert values[0] == values[1]


def test_cli_rejects_a_negative_radius_constant(t1, tmp_path, capsys):
    """``c_eta < 0`` used to learn as ``c_eta = 0``, with pessimism off."""
    assert learner.EtaConfig(c_eta=0.0).c_eta == 0.0
    data, out = tmp_path / "t1.csv", tmp_path / "results"
    gameio.write_dataset(game.simulate_dataset(t1, n=200, seed=1), str(data))
    capsys.readouterr()
    learn = ["learn", "--data", str(data), "--fixture", "t1", "--out", str(tmp_path / "p.csv"), "--c-eta", "-1"]
    assert cli.main(learn) == 2
    assert "ValueError: c_eta must be >= 0, got -1.0" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()
    assert cli.main(["benchmark", "--fixture", "t1", "--c-eta", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_eta_config_is_frozen():
    """Engines and the learner share one default instance: a field set
    through one engine would change it for every later call."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        learner.EtaConfig().c_eta = 0.0


def test_pessimistic_value_approaches_optimum_from_below(t1, t1_basis):
    """At the in-class optimum, the lower bound stays below the true value
    and its median tightens as the sample grows."""
    pairs = game.stationary_deterministic_pairs(t1)
    star, j_star = oracle.exact_optimal_pair(t1, pairs)
    eta = learner.EtaConfig()
    medians = []
    below = 0
    reps = 20
    for n in (1_000, 10_000, 100_000):
        vals = []
        for rep in range(reps):
            ds = game.simulate_dataset(t1, n=n, seed=70_000 + rep)
            engine = learner.LearnerEngine(ds, t1_basis, eta)
            pv = learner.pessimistic_value(engine, star)
            vals.append(pv.value)
            below += pv.value <= j_star + 1e-9
        medians.append(float(np.median(vals)))
    assert below >= int(0.9 * 3 * reps)
    assert medians[0] <= medians[1] <= medians[2] <= j_star + 1e-9
    assert j_star - medians[-1] < 0.25  # the bound tightens toward the optimum


def test_multistage_learning_smoke(t2, t2_basis):
    for spec, basis in ((t2, t2_basis), _with_grid(t2)):
        ds = game.simulate_dataset(spec, n=8_000, seed=7)
        pairs = game.stationary_deterministic_pairs(
            spec, alice_sees_prev=False, bob_sees_prev=False
        )
        best, pv = learner.learn_policy_pair(ds, pairs, basis)
        assert np.isfinite(pv.value)
        assert pv.value <= pv.plug_in + 1e-12
        assert learner.compute_gap(spec, best, pairs) <= 1.0
