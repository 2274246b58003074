"""The per-dataset memo of stage statistics.

``ope.stage_statistics`` builds a dataset's :class:`~confgame.ope.StageStats`
once per (basis object, cross-fit flag) and hands the same objects to every
later evaluation and learner.  These tests count the builds, check that
reuse changes no number, and that no edit of the data -- in place,
by reassignment or through a copy -- can return statistics of other data.
A memo entry also vouches for the dataset check: a dataset that still holds
an entry's arrays is not checked again, and every edit is.
"""

import copy
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from confgame import fixtures, game, harness, learner, ope, sieve
from confgame.errors import MalformedDataset
from confgame.game import _OBSERVED_FIELDS

STAT_FIELDS = ("mass", "phibar4", "abar_reward", "t_alpha", "scale_weights", "reward_coef", "reward_scale_sq")


@pytest.fixture(scope="module")
def t2h3():
    spec = fixtures.t2_spec(horizon=3)
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    pairs = game.stationary_deterministic_pairs(spec, alice_sees_prev=False, bob_sees_prev=False)
    constant = [game.constant_policy_pair(spec, *c) for c in ((1.0, 0.5, 0.5), (0.0, 1.0, 0.0))]
    return spec, basis, pairs, constant + [pairs[5]]


@pytest.fixture
def counted(monkeypatch):
    """How many stacked builds of each run of stages ``stage_statistics`` makes."""
    built, build = Counter(), ope.build_stages

    def counted_build(source, stages, basis):
        built[tuple(stages)] += 1
        return build(source, stages, basis)

    monkeypatch.setattr(ope, "build_stages", counted_build)
    return built


@pytest.fixture
def checks(monkeypatch):
    """The datasets ``check_dataset`` checks, in order."""
    checked, check = [], ope.check_dataset

    def counted(ds):
        checked.append(ds)
        check(ds)

    monkeypatch.setattr(ope, "check_dataset", counted)
    return checked


def _fresh(ds, basis, cross_fit=False):
    return ope.stage_statistics(ope.SampleSource(replace(ds), cross_fit=cross_fit), basis)


def _assert_same_stats(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in STAT_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _assert_same_result(got, want):
    assert (got.j_alice, got.j_bob) == (want.j_alice, want.j_bob)
    assert got.qhat.keys() == want.qhat.keys()
    for key, rep in want.qhat.items():
        for name in ("theta", "gamma", "omega", "zeta"):
            assert np.array_equal(getattr(got.qhat[key], name), getattr(rep, name)), (key, name)


def test_a_round_builds_each_stage_once(t2h3, counted):
    spec, basis, pairs, policies = t2h3
    ds = game.simulate_dataset(spec, n=6_000, seed=3)
    results = [ope.evaluate_policy(ds, pol, basis) for pol in policies]
    best, pv = learner.learn_policy_pair(ds, pairs, basis)
    assert counted == Counter([tuple(range(2 * spec.horizon))])

    for pol, res in zip(policies, results):
        _assert_same_result(res, ope.evaluate_policy(replace(ds), pol, basis))
    fresh_best, fresh_pv = learner.learn_policy_pair(replace(ds), pairs, basis)
    assert best is fresh_best
    assert (pv.value, pv.plug_in) == (fresh_pv.value, fresh_pv.plug_in)
    for side, vals in fresh_pv.chain_values.items():
        assert np.array_equal(pv.chain_values[side], vals)


def test_each_key_has_its_own_entry(t2h3, counted):
    spec, basis, _, policies = t2h3
    ds = game.simulate_dataset(spec, n=4_000, seed=4)
    twin = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    plain = ope.stage_statistics(ope.as_source(ds), basis)
    crossed = ope.stage_statistics(ope.SampleSource(ds, cross_fit=True), basis)
    other = ope.stage_statistics(ope.as_source(ds), twin)
    assert len({id(plain), id(crossed), id(other)}) == 3
    assert counted == Counter({tuple(range(2 * spec.horizon)): 3})

    assert ope.stage_statistics(ope.as_source(ds), basis) is plain
    assert ope.stage_statistics(ope.SampleSource(ds, cross_fit=True), basis) is crossed
    assert ope.stage_statistics(ope.as_source(ds), twin) is other
    assert counted == Counter({tuple(range(2 * spec.horizon)): 3})
    _assert_same_stats(crossed, _fresh(ds, basis, cross_fit=True))
    _assert_same_result(
        ope.evaluate_policy(ope.SampleSource(ds, cross_fit=True), policies[0], basis),
        ope.evaluate_policy(ope.SampleSource(replace(ds), cross_fit=True), policies[0], basis),
    )


def test_observed_arrays_are_read_only_after_a_fit(t1):
    ds = game.simulate_dataset(t1, n=500, seed=5)
    basis = sieve.build_basis("saturated", t1.n_states, t1.n_u)
    ds.r_a[0, 0] = 1.0  # writeable until the first fit
    ope.stage_statistics(ope.as_source(ds), basis)
    for name in _OBSERVED_FIELDS:
        col = getattr(ds, name)
        with pytest.raises(ValueError, match="read-only"):
            col[(0,) * col.ndim] = col[(0,) * col.ndim]


def test_reassigned_or_reopened_arrays_rebuild(t1):
    basis = sieve.build_basis("saturated", t1.n_states, t1.n_u)
    ds = game.simulate_dataset(t1, n=500, seed=6)
    before = ope.stage_statistics(ope.as_source(ds), basis)

    ds.r_a = ds.r_a * 2.0
    doubled = ope.stage_statistics(ope.as_source(ds), basis)
    assert doubled is not before
    _assert_same_stats(doubled, _fresh(ds, basis))
    assert not np.array_equal(doubled[0].abar_reward, before[0].abar_reward)

    ds.r_a.setflags(write=True)  # the array owns its data, so it may be made writeable again
    ds.r_a[0, 0] += 1.0
    _assert_same_stats(ope.stage_statistics(ope.as_source(ds), basis), _fresh(ds, basis))


def test_a_reassigned_horizon_rebuilds(t2h3):
    """A dataset holds exactly ``horizon`` steps: a shorter horizon over the
    same arrays is rejected, also once a memo entry is stored, and with the
    arrays of its first two steps and the state after them it rebuilds."""
    spec, basis, _, _ = t2h3
    ds = game.simulate_dataset(spec, n=2_000, seed=9)
    assert len(ope.stage_statistics(ope.as_source(ds), basis)) == 6
    ds.horizon = 2
    with pytest.raises(MalformedDataset, match=r"^field s: shape \(2000, 3\), expected \(2000, 2\)$"):
        ope.stage_statistics(ope.as_source(ds), basis)
    s_term = ds.s[:, 2]
    for name in _OBSERVED_FIELDS:
        if name not in ("b_init", "s_term"):
            setattr(ds, name, getattr(ds, name)[:, :2])
    ds.s_term = s_term
    shorter = ope.stage_statistics(ope.as_source(ds), basis)
    assert len(shorter) == 4
    _assert_same_stats(shorter, _fresh(ds, basis))


def test_copies_never_return_stale_statistics(t1):
    basis = sieve.build_basis("saturated", t1.n_states, t1.n_u)
    ds = game.simulate_dataset(t1, n=500, seed=7)
    original = ope.stage_statistics(ope.as_source(ds), basis)

    shallow = copy.copy(ds)  # shares the arrays, read-only, and starts with the memo's entries
    assert ope.stage_statistics(ope.as_source(shallow), basis) is original
    shallow.r_b = shallow.r_b + 1.0
    _assert_same_stats(ope.stage_statistics(ope.as_source(shallow), basis), _fresh(shallow, basis))
    _assert_same_stats(ope.stage_statistics(ope.as_source(ds), basis), original)

    # a deep copy keeps the memo's integer keys, but its arrays and the
    # entry's basis are new objects, and the arrays are writeable again
    for deep, deep_basis in (copy.deepcopy(ds), basis), copy.deepcopy((ds, basis)):
        deep.r_a[0, 0] += 1.0
        got = ope.stage_statistics(ope.as_source(deep), deep_basis)
        _assert_same_stats(got, _fresh(deep, deep_basis))
        assert not np.array_equal(got[0].abar_reward, original[0].abar_reward)

    edited = replace(ds, r_a=ds.r_a + 1.0)
    _assert_same_stats(ope.stage_statistics(ope.as_source(edited), basis), _fresh(edited, basis))
    assert ope.stage_statistics(ope.as_source(replace(ds)), basis) is not original


def test_a_shallow_copy_keeps_its_own_memo(t2h3, counted):
    """Once the copy reassigns an array, the dataset and its copy each build
    their statistics once, however often they alternate."""
    spec, basis, _, _ = t2h3
    ds = game.simulate_dataset(spec, n=2_000, seed=11)
    shallow = copy.copy(ds)
    shallow.r_b = shallow.r_b + 1.0
    for _ in range(3):
        for data in (ds, shallow):
            ope.stage_statistics(ope.as_source(data), basis)
    assert counted == Counter({tuple(range(2 * spec.horizon)): 2})


def test_an_entry_is_returned_for_its_own_basis_only(t1):
    """A deep copy's memo keys its entry by the id of the original basis, an
    id that another basis object may get once the original is freed.  Moving
    the entry under a new basis' key stands in for that reuse: the entry,
    built before an in-place edit of the copy, must not be returned."""
    basis, other, third = (sieve.build_basis("saturated", t1.n_states, t1.n_u) for _ in range(3))
    ds = game.simulate_dataset(t1, n=500, seed=10)
    ope.stage_statistics(ope.as_source(ds), basis)
    deep = copy.deepcopy(ds)
    deep.r_a[0, 0] += 1.0
    ope.stage_statistics(ope.as_source(deep), other)  # makes the copy's arrays read-only
    deep._stats[id(third), False] = deep._stats.pop((id(basis), False))
    _assert_same_stats(ope.stage_statistics(ope.as_source(deep), third), _fresh(deep, third))


def test_equality_and_repr_ignore_the_memo(t1):
    basis = sieve.build_basis("saturated", t1.n_states, t1.n_u)
    ds = game.simulate_dataset(t1, n=200, seed=8)
    blank = replace(ds)
    ope.stage_statistics(ope.as_source(ds), basis)
    assert ds == blank and repr(ds) == repr(blank)
    assert "_stats" not in repr(ds)


@pytest.mark.parametrize("cross_fit, builds", [(False, 1), (True, 2)])
def test_a_harness_cell_builds_its_statistics_once(tmp_path, monkeypatch, counted, cross_fit, builds):
    """The engine, the coverage check, the evaluation and the learner of a
    cell share one build; a cross-fitted evaluation adds its own."""
    monkeypatch.setenv("CONFGAME_THREADS", "1")  # the counter is not thread-safe
    config = harness.ExperimentConfig(
        fixture="t1", n_grid=(500,), seeds=(0, 1), cross_fit=cross_fit, out_dir=str(tmp_path)
    )
    harness.run_experiment(config)
    assert counted == Counter({(0, 1): 2 * builds})


def test_a_memo_hit_skips_the_dataset_check(t2h3, checks):
    spec, basis, pairs, policies = t2h3
    ds = game.simulate_dataset(spec, n=4_000, seed=12)
    for pol in policies:
        ope.evaluate_policy(ds, pol, basis)
    learner.learn_policy_pair(ds, pairs, basis)
    ope.SampleSource(ds, cross_fit=True).stage_rows(0)  # the plain entry vouches for the arrays
    assert checks == [ds]
    ds.r_a = ds.r_a.copy()  # no entry holds the new array
    ope.SampleSource(ds)
    assert checks == [ds, ds]


@pytest.mark.parametrize("edit", ["reassign", "reopen", "grid", "after the source"])
def test_an_edit_after_a_fit_is_checked(t2, t2_basis, edit):
    """A reassigned array, one made writeable and edited in place, a changed
    grid, and a reassignment after the source was built (on a memo hit,
    without a check) are each checked before they are read."""
    ds = game.simulate_dataset(t2, n=500, seed=13)
    pol = game.constant_policy_pair(t2, 1.0, 0.5, 0.5)
    ope.evaluate_policy(ds, pol, t2_basis)
    source = ope.SampleSource(ds)
    message = "field r_a, row 0, step 1: value nan is not finite"
    if edit == "reopen":
        ds.r_a.setflags(write=True)
        ds.r_a[0, 1] = np.nan
    elif edit == "grid":
        ds.n_states = 1
        message = "field s, row ([0-9]+), step ([0-9]): value 1 is not in 0..0"
    else:
        ds.r_a = ds.r_a.copy()
        ds.r_a[0, 1] = np.nan
    with pytest.raises(MalformedDataset, match=f"^{message}$"):
        if edit == "after the source":
            ope.stage_statistics(source, t2_basis)
        else:
            ope.evaluate_policy(ds, pol, t2_basis)
