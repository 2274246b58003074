import re
from dataclasses import replace

import numpy as np
import pytest

from confgame import cli, fixtures, game, gameio, learner, ope, oracle, sieve, smd
from confgame.errors import BasisMismatch, DegenerateIV, IllPosedFit, InsufficientData, MalformedDataset, MalformedSpec


def test_zero_reward_everything_vanishes(t1_basis):
    spec = fixtures.t1_spec(reward_scale=0.0, noise=0.0)
    ds = game.simulate_dataset(spec, n=3_000, seed=2)
    pol = game.constant_policy_pair(spec, 1.0, 0.5, 0.5)
    res = ope.evaluate_policy(ds, pol, t1_basis)
    assert res.j_alice == 0.0 and res.j_bob == 0.0
    for rep in res.qhat.values():
        assert np.all(rep.stack() == 0.0)


def test_single_stage_value_accuracy(t1, t1_basis, t1_big):
    pol = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    res = ope.evaluate_policy(t1_big, pol, t1_basis)
    ja, jb = oracle.exact_policy_value(t1, pol)
    assert abs(res.j_alice - ja) <= 0.05
    assert abs(res.j_bob - jb) <= 0.05


def test_zero_bob_reward_gives_zero_bob_tables(t1, t1_basis):
    spec = replace(
        t1,
        bob_rew_act=np.zeros_like(t1.bob_rew_act),
        bob_rew_iv=np.zeros_like(t1.bob_rew_iv),
        bob_rew_inter=np.zeros_like(t1.bob_rew_inter),
        bob_rew_resid=np.zeros_like(t1.bob_rew_resid),
    )
    ds = game.simulate_dataset(spec, n=100_000, seed=8)
    pol = game.constant_policy_pair(spec, 1.0, 0.5, 0.5)
    res = ope.evaluate_policy(ds, pol, t1_basis)
    rep = res.qhat[(0, "bob")]
    assert np.abs(rep.stack()).max() <= 0.05


@pytest.mark.parametrize("name", ["t1", "t2"])
def test_population_recursion_matches_exact_q(name, request):
    spec = fixtures.t1_spec() if name == "t1" else fixtures.t2_spec()
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    pol = game.PolicyPair(
        alice=np.tile(np.array([0.7, 0.3]), (spec.horizon, spec.n_states, spec.n_u, 1)),
        bob=np.tile(np.array([0.6, 0.2]), (spec.horizon, spec.n_states, 1)),
        init_bob=0.5,
    )
    res = ope.evaluate_policy(ope.PopulationSource(spec), pol, basis)
    exq = oracle.exact_q(spec, pol)
    for key, rep in res.qhat.items():
        truth = exq.marginal[key]
        assert np.abs(rep.stack() - truth.stack()).max() < 1e-8
    assert abs(res.j_alice - exq.j_alice) < 1e-8
    assert abs(res.j_bob - exq.j_bob) < 1e-8


def test_multistage_value_accuracy(t2, t2_basis, t2_big):
    for pol in (
        game.constant_policy_pair(t2, 1.0, 1.0, 1.0),
        game.constant_policy_pair(t2, 0.5, 0.5, 0.5),
    ):
        res = ope.evaluate_policy(t2_big, pol, t2_basis)
        ja, jb = oracle.exact_policy_value(t2, pol)
        assert abs(res.j_total - ja - jb) <= 0.1


def test_action_free_transitions_decouple_continuation(t2, t2_basis):
    """With transitions independent of both actions, the stage-one triple is
    the reward block alone and the continuation appears as a constant."""
    kern = t2.trans.copy()
    flat = kern[..., 0, 0, :][..., None, None, :]
    spec = replace(t2, trans=np.broadcast_to(flat, kern.shape).copy())
    pol = game.constant_policy_pair(spec, 0.7, 0.6, 0.5)
    res = ope.evaluate_policy(ope.PopulationSource(spec), pol, t2_basis)
    rep = res.qhat[(0, "alice")]
    truth = oracle.true_coefficients(spec)["alice_reward"]
    assert np.allclose(rep.theta, truth.theta_a, atol=1e-8)
    assert np.allclose(rep.gamma, truth.theta_z, atol=1e-8)
    assert np.allclose(rep.omega, truth.theta_az, atol=1e-8)
    assert np.abs(rep.zeta).max() > 0.1  # constant continuation, carried separately


def test_value_linear_in_opening_rule(t1, t1_basis):
    ds = game.simulate_dataset(t1, n=20_000, seed=9)
    lo = game.constant_policy_pair(t1, 0.7, 0.4, 0.0)
    hi = game.constant_policy_pair(t1, 0.7, 0.4, 1.0)
    lam = 0.3
    mix = game.constant_policy_pair(t1, 0.7, 0.4, lam)
    r_lo = ope.evaluate_policy(ds, lo, t1_basis)
    r_hi = ope.evaluate_policy(ds, hi, t1_basis)
    r_mix = ope.evaluate_policy(ds, mix, t1_basis)
    for attr in ("j_alice", "j_bob"):
        blend = lam * getattr(r_hi, attr) + (1 - lam) * getattr(r_lo, attr)
        assert abs(getattr(r_mix, attr) - blend) < 1e-9


def test_policy_type_and_horizon_guards(t1, t1_basis, t2):
    ds = game.simulate_dataset(t1, n=100, seed=0)
    with pytest.raises(TypeError):
        ope.evaluate_policy(ds, "not a policy", t1_basis)
    wrong_h = game.constant_policy_pair(t2, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ope.evaluate_policy(ds, wrong_h, t1_basis)


def test_cross_fitting_smoke(t1, t1_basis):
    ds = game.simulate_dataset(t1, n=20_000, seed=10)
    pol = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    plain = ope.evaluate_policy(ds, pol, t1_basis)
    crossed = ope.evaluate_policy(ope.SampleSource(ds, cross_fit=True), pol, t1_basis)
    assert abs(plain.j_total - crossed.j_total) < 0.05


def test_cross_fit_is_set_on_the_source(t1, t1_basis):
    """Cross-fitting is an option of the sample source: a source that
    cross-fits gives the same result as a fresh copy of its dataset, and a
    result other than the dataset's plain evaluation."""
    ds = game.simulate_dataset(t1, n=2_000, seed=10)
    pol = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    crossed, fresh = (
        ope.evaluate_policy(ope.SampleSource(data, cross_fit=True), pol, t1_basis) for data in (ds, replace(ds))
    )
    assert crossed.j_total == fresh.j_total
    assert crossed.j_total != ope.evaluate_policy(ds, pol, t1_basis).j_total


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("a", 3, "field a, row 0, step 0: value 3 is not in 0..1"),
        ("r_a", np.nan, "field r_a, row 0, step 0: value nan is not finite"),
        ("s", -1, "field s, row 0, step 0: value -1 is not in 0..0"),
    ],
)
def test_malformed_dataset_is_rejected(t1, t1_basis, name, value, message):
    ds = game.simulate_dataset(t1, n=2_000, seed=0)
    col = getattr(ds, name).astype(float if np.isnan(value) else getattr(ds, name).dtype)
    col[0, 0] = value
    bad = replace(ds, **{name: col})
    pol = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    with pytest.raises(MalformedDataset, match=message):
        ope.evaluate_policy(bad, pol, t1_basis)
    with pytest.raises(MalformedDataset, match=message):
        learner.learn_policy_pair(bad, [pol], t1_basis)


SHAPE_CASES = {  # t2 (two steps) with n = 500
    "b_init": (lambda ds: {"b_init": ds.b_init[:-1]}, "field b_init: shape (499,), expected (500,)"),
    "s_term": (lambda ds: {"s_term": ds.s_term[:-1]}, "field s_term: shape (499,), expected (500,)"),
    "r_a": (lambda ds: {"r_a": ds.r_a[:-1]}, "field r_a: shape (499, 2), expected (500, 2)"),
    "a": (lambda ds: {"a": ds.a[:, :1]}, "field a: shape (500, 1), expected (500, 2)"),
    "r_b": (lambda ds: {"r_b": ds.r_b[:, :1]}, "field r_b: shape (500, 1), expected (500, 2)"),
    "u": (lambda ds: {"u": ds.u[:, 0]}, "field u: shape (500,), expected (500, 2)"),
    "horizon": (lambda ds: {"horizon": 3}, "field s: shape (500, 2), expected (500, 3)"),
    "extra steps": (lambda ds: {"horizon": 1}, "field s: shape (500, 2), expected (500, 1)"),
}


@pytest.mark.parametrize("change, message", SHAPE_CASES.values(), ids=SHAPE_CASES)
def test_dataset_of_the_wrong_shape_is_rejected(t2, t2_basis, change, message):
    ds = game.simulate_dataset(t2, n=500, seed=0)
    bad = replace(ds, **change(ds))
    pol = game.constant_policy_pair(t2, 1.0, 0.5, 0.5)
    with pytest.raises(MalformedDataset, match=f"^{re.escape(message)}$"):
        ope.evaluate_policy(bad, pol, t2_basis)
    with pytest.raises(MalformedDataset, match=f"^{re.escape(message)}$"):
        learner.learn_policy_pair(bad, [pol], t2_basis)


def test_a_list_column_is_rejected(t2, t2_basis, tmp_path):
    """A column must be a numpy array: a list passed the dataset check and
    then raised a raw ``AttributeError`` or ``TypeError`` from the estimator
    or the writer."""
    ds = game.simulate_dataset(t2, n=500, seed=0)
    pol = game.constant_policy_pair(t2, 1.0, 0.5, 0.5)
    path = tmp_path / "d.csv"
    b_init = replace(ds, b_init=ds.b_init.tolist())
    with pytest.raises(MalformedDataset, match="^field b_init: expected a numpy array, got list$"):
        ope.evaluate_policy(b_init, pol, t2_basis)
    with pytest.raises(MalformedDataset, match="^field b_init: expected a numpy array, got list$"):
        gameio.write_dataset(b_init, str(path))
    with pytest.raises(MalformedDataset, match="^field r_a: expected a numpy array, got list$"):
        learner.learn_policy_pair(replace(ds, r_a=ds.r_a.tolist()), [pol], t2_basis)
    hidden = replace(ds, hidden=replace(ds.hidden, v1=ds.hidden.v1.tolist()))
    with pytest.raises(MalformedDataset, match="^field hidden v1: expected a numpy array, got list$"):
        gameio.write_dataset(hidden, str(path))
    assert not path.exists()


def test_unreached_state_leaves_other_cells_exact():
    """Stage 1 of this spec never reaches state 2; its empty cell must not
    perturb the nuisance fits of the cells that are reached."""
    spec = fixtures.random_valid_spec(6, n_states=3)
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    pol = game.constant_policy_pair(spec, 1.0, 0.5, 0.5)
    source = ope.PopulationSource(spec)
    assert ope.StageStats(source, 1, basis).mass[2] == 0.0
    res = ope.evaluate_policy(source, pol, basis)
    exq = oracle.exact_q(spec, pol)
    assert abs(res.j_alice - exq.j_alice) <= 1e-12
    assert abs(res.j_bob - exq.j_bob) <= 1e-12


def test_population_row_guards_count_law_atoms():
    """After the first move this spec reaches states 0 and 1 only, so its
    exact law has 64 atoms at stage 1, 32 in each instrument arm: the
    per-arm guard fires, since an arm has fewer atoms than the 64 basis
    functions; a sample of the same game is short of rows."""
    spec = fixtures.random_valid_spec(1, n_states=64)
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    message = r"^stage 1: 32 law atoms \(population mode\) with instrument = 0 for 64 basis functions$"
    with pytest.raises(InsufficientData, match=message):
        ope.stage_statistics(ope.PopulationSource(spec), basis)
    ds = game.simulate_dataset(spec, n=40, seed=0)
    with pytest.raises(InsufficientData, match=r"^stage 0: 40 rows for 64 basis functions$"):
        ope.stage_statistics(ope.as_source(ds), basis)


def test_cli_identify_names_the_failing_stage(t2, t2_basis, tmp_path, capsys):
    """The opening bob action is stage 0's instrument: held constant, it has
    no variance, and identify names the stage as evaluation does."""
    ds = game.simulate_dataset(t2, n=500, seed=0)
    ds.b_init[:] = 1
    message = "stage 0: instrument variance 0.00e+00 in cell 0 is below 1e-06"
    with pytest.raises(DegenerateIV, match=f"^{re.escape(message)}$"):
        ope.evaluate_policy(ds, game.constant_policy_pair(t2, 1.0, 0.5, 0.5), t2_basis)
    data = tmp_path / "t2.csv"
    gameio.write_dataset(ds, str(data))
    capsys.readouterr()
    assert cli.main(["identify", "--data", str(data)]) == 2
    assert capsys.readouterr().err == f"error: DegenerateIV: {message}\n"


def test_basis_must_match_the_data():
    spec = fixtures.t2_spec(horizon=3)
    ds = game.simulate_dataset(spec, n=2_000, seed=0)
    wrong = sieve.build_basis("saturated", 2, 2)
    pol = game.constant_policy_pair(spec, 1.0, 0.5, 0.5)
    message = r"basis has \(n_states, n_u\) = \(2, 2\); the data have \(2, 1\)"
    with pytest.raises(BasisMismatch, match=message):
        ope.evaluate_policy(ds, pol, wrong)
    with pytest.raises(BasisMismatch, match=message):
        learner.learn_policy_pair(ds, [pol], wrong)
    # the direct builders check the basis too, on either source and for a
    # smaller or a larger grid, where reading rows would fail in numpy
    for grid in ((2, 2), (1, 1), (3, 1)):
        other = sieve.build_basis("saturated", *grid)
        message = f"^{re.escape(f'basis has (n_states, n_u) = {grid}; the data have (2, 1)')}$"
        for source in (ope.SampleSource(ds), ope.PopulationSource(spec)):
            with pytest.raises(BasisMismatch, match=message):
                ope.build_stages(source, (0, 1), other)
            with pytest.raises(BasisMismatch, match=message):
                ope.StageStats(source, 0, other)
            with pytest.raises(BasisMismatch, match=message):
                ope.stage_statistics(source, other)


def test_a_source_builds_on_the_grid_its_dataset_has_now(t2, t2_basis):
    """A grid reassigned after a source was made is the grid the source
    builds on, so the basis built for the old grid is rejected, also once
    the memo holds an entry for it."""
    ds = game.simulate_dataset(t2, n=500, seed=0)
    source = ope.SampleSource(ds)
    ope.stage_statistics(source, t2_basis)
    ds.n_states = 3  # every state is still in range
    pol = game.PolicyPair(alice=np.full((2, 3, 1, 2), 0.7), bob=np.full((2, 3, 2), 0.4), init_bob=0.5)
    message = r"^basis has \(n_states, n_u\) = \(2, 1\); the data have \(3, 1\)$"
    with pytest.raises(BasisMismatch, match=message):
        ope.stage_statistics(source, t2_basis)
    with pytest.raises(BasisMismatch, match=message):
        ope.evaluate_policy(ds, pol, t2_basis)
    with pytest.raises(BasisMismatch, match=message):
        learner.learn_policy_pair(ds, [pol], t2_basis)


@pytest.mark.parametrize(
    "change, message",
    [
        SHAPE_CASES["a"],
        (lambda ds: {"r_a": np.where(np.arange(2) == 1, np.nan, ds.r_a)}, "field r_a, row 0, step 1: value nan is not finite"),
    ],
    ids=["shape", "value"],
)
def test_every_stage_build_checks_its_dataset(t2, t2_basis, change, message):
    """A source checks nothing; the build does, before the basis: on a
    malformed dataset every builder raises the dataset's error, also for a
    basis of another grid."""
    ds = game.simulate_dataset(t2, n=500, seed=0)
    source = ope.SampleSource(replace(ds, **change(ds)))
    builds = (
        lambda basis: ope.build_stages(source, (0, 1), basis),
        lambda basis: ope.StageStats(source, 1, basis),
        lambda basis: ope.stage_statistics(source, basis),
    )
    for build in builds:
        for basis in (t2_basis, sieve.build_basis("saturated", 2, 2)):
            with pytest.raises(MalformedDataset, match=f"^{re.escape(message)}$"):
                build(basis)


def test_evaluation_raises_a_data_guard_before_an_off_grid_policy(t2, t2_basis):
    """Evaluation builds its statistics first, as the learner does, so a
    degenerate instrument raises before a policy of another horizon."""
    ds = game.simulate_dataset(t2, n=500, seed=0)
    ds.b_init[:] = 1
    pol = game.constant_policy_pair(fixtures.t2_spec(horizon=3), 1.0, 0.5, 0.5)
    message = "stage 0: instrument variance 0.00e+00 in cell 0 is below 1e-06"
    with pytest.raises(DegenerateIV, match=f"^{re.escape(message)}$"):
        ope.evaluate_policy(ds, pol, t2_basis)
    with pytest.raises(DegenerateIV, match=f"^{re.escape(message)}$"):
        learner.learn_policy_pair(ds, [pol], t2_basis)


def test_near_singular_continuation_is_ill_posed_in_every_chain(t1, t1_basis, monkeypatch):
    """Stage 0's continuation design is singular to 1e-13 and the block
    moments load on that direction, so the criterion gradient cannot vanish:
    the all-center chain of evaluation and the learner's member chains both
    refuse the fit and name the stage."""
    ds = game.simulate_dataset(t1, n=2_000, seed=0)
    stats = ope.stage_statistics(ope.as_source(ds), t1_basis)
    st = stats[0]
    st.geometry4 = smd.BlockGeometry.of_cells(st.mass, np.diag([1.0, 1.0, 1.0, 1e-13])[None])
    st.t_alpha = np.zeros_like(st.t_alpha)
    st.t_alpha[:, 3] = 1e7
    monkeypatch.setattr(ope, "stage_statistics", lambda source, basis: stats)
    monkeypatch.setattr(learner, "stage_statistics", lambda source, basis: stats)
    pol = game.constant_policy_pair(t1, 1.0, 0.5, 0.5)
    message = r"^stage 0: cell 0: singular design with non-vanishing gradient"
    with pytest.raises(IllPosedFit, match=message):
        ope.evaluate_policy(ds, pol, t1_basis)
    with pytest.raises(IllPosedFit, match=message):
        learner.learn_policy_pair(ds, [pol], t1_basis)


def test_policy_for_another_grid_is_rejected(t2, t2_basis, tmp_path, capsys):
    ds = game.simulate_dataset(t2, n=3_000, seed=5)
    one_state = game.PolicyPair(
        alice=np.full((t2.horizon, 1, t2.n_u, 2), 0.5), bob=np.full((t2.horizon, 1, 2), 0.5), init_bob=0.5
    )
    longer = game.constant_policy_pair(fixtures.t2_spec(horizon=3), 1.0, 0.5, 0.5)
    shapes = r"alice \(2, 1, 1, 2\), bob \(2, 1, 2\); the game needs alice \(2, 2, 1, 2\), bob \(2, 2, 2\)"
    with pytest.raises(MalformedSpec, match=shapes):
        learner.learn_policy_pair(ds, [one_state], t2_basis)
    with pytest.raises(MalformedSpec, match=shapes):
        ope.evaluate_policy(ds, one_state, t2_basis)
    with pytest.raises(MalformedSpec, match=shapes):
        oracle.exact_policy_value(t2, one_state)
    with pytest.raises(MalformedSpec, match=r"alice \(3, 2, 1, 2\)"):
        oracle.exact_policy_value(t2, longer)
    with pytest.raises(MalformedSpec, match=shapes):
        oracle.exact_q(t2, one_state)
    on_grid = game.constant_policy_pair(t2, 1.0, 0.5, 0.5)
    with pytest.raises(MalformedSpec, match="^policy pair 1 has shapes " + shapes):
        oracle.exact_optimal_pair(t2, [on_grid, one_state])
    exq = oracle.exact_q(t2, on_grid)
    blocks = oracle.exact_recursion_blocks(t2, on_grid, exq)
    with pytest.raises(MalformedSpec, match="^policy pair 0 has shapes " + shapes):
        learner.truth_covered(learner.LearnerEngine(ds, t2_basis), t2, one_state, exq, blocks)

    data = tmp_path / "t2.csv"
    gameio.write_dataset(ds, str(data))
    capsys.readouterr()
    assert cli.main(["learn", "--data", str(data), "--fixture", "t1", "--out", str(tmp_path / "p.csv")]) == 2
    assert "MalformedSpec" in capsys.readouterr().err


def test_spec_for_another_grid_is_rejected(t1, t2, t2_basis, tmp_path, capsys):
    """A spec is checked against the data's grid, also when its truth comes
    precomputed with a policy that fits the data."""
    ds = game.simulate_dataset(t2, n=3_000, seed=5)
    engine = learner.LearnerEngine(ds, t2_basis)
    on_grid = game.constant_policy_pair(t2, 1.0, 0.5, 0.5)
    assert learner.truth_covered(engine, t2, on_grid) in (True, False)
    t2h3 = fixtures.t2_spec(horizon=3)
    grids = r"^the spec has \(horizon, n_states, n_u\) = {}; the data have \(2, 2, 1\)$"
    for spec, have in ((t1, r"\(1, 1, 1\)"), (t2h3, r"\(3, 2, 1\)")):
        pair = game.constant_policy_pair(spec, 1.0, 0.5, 0.5)
        exq = oracle.exact_q(spec, pair)
        blocks = oracle.exact_recursion_blocks(spec, pair, exq)
        for args in ((pair,), (pair, exq, blocks), (on_grid, exq, blocks)):
            with pytest.raises(MalformedSpec, match=grids.format(have)):
                learner.truth_covered(engine, spec, *args)

    data = tmp_path / "t2.csv"
    gameio.write_dataset(ds, str(data))
    capsys.readouterr()
    assert cli.main(["identify", "--data", str(data), "--fixture", "t1"]) == 2
    out, err = capsys.readouterr()
    assert re.search(grids.format(r"\(1, 1, 1\)")[1:], err) and "MalformedSpec" in err and out == ""
    assert cli.main(["identify", "--data", str(data), "--fixture", "t2"]) == 0
