"""One stacked build of every stage against one build per stage.

``ope.stage_statistics`` builds all stages of a source in one pass with a
leading stage axis (``ope.build_stages``); ``ope.StageStats(source, t,
basis)`` is the same build of stage ``t`` alone.  Stacking must move no bit
of any field, and the first stage whose guard fails must raise its own
first guard, as a loop over the stages would.
"""

from dataclasses import replace

import numpy as np
import pytest

from confgame import errors, fixtures, game, ope, sieve

GEOMETRY = ("hess", "mass", "design", "lift", "pinv", "singular", "hpinv", "hdiag", "order")
FIT = ("coef", "gram_cond", "resid_norm", "ridge_used")


def _two_private_values(horizon=4):
    """The t2 game with two values of ``u`` whose models and laws differ."""
    base = fixtures.t2_spec(horizon=horizon)
    u = np.arange(2.0)[:, None, None, None]
    tables = {}
    for name in game.COEF_TABLES:
        table = getattr(base, name)
        tables[name] = np.concatenate([table, table]) + (0.05 if "rew" in name else 0.02) * u
    u_law = np.concatenate([np.full_like(base.u_law, 0.4), np.full_like(base.u_law, 0.6)], axis=-1)
    return replace(base, n_u=2, u_law=u_law, trans=np.concatenate([base.trans, base.trans], axis=1), **tables)


def _same(a, b, what):
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), what
        for i, (x, y) in enumerate(zip(a, b)):
            _same(x, y, f"{what}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), what
        for key in a:
            _same(a[key], b[key], f"{what}[{key}]")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.shape(a) == np.shape(b) and np.asarray(a).dtype == np.asarray(b).dtype, what
        assert np.array_equal(a, b), what
    else:
        assert type(a) is type(b) and a == b, what


def _fields(st):
    out = {}
    for name, value in vars(st).items():
        if name == "nuisances":
            value = [
                [getattr(fit, f) for fit in (nuis.f1, *nuis.f2) for f in FIT] + [nuis.clip_count, nuis.residual_means]
                for nuis in value
            ]
        elif name.startswith("geometry"):
            value = [getattr(value, f) for f in GEOMETRY]
        elif name == "basis":
            continue
        out[name] = value
    return out


def _grid_spec():
    return replace(fixtures.t2_spec(), state_values=np.array([[0.0], [1.0]]))


CASES = {
    "t1-sample": lambda: (fixtures.t1_spec(), "sample", False, None),
    "t1-sample-crossfit": lambda: (fixtures.t1_spec(), "sample", True, None),
    "t2h3-sample": lambda: (fixtures.get_fixture("t2-h3"), "sample", False, None),
    "t2h3-sample-crossfit": lambda: (fixtures.get_fixture("t2-h3"), "sample", True, None),
    "t2h3-population": lambda: (fixtures.get_fixture("t2-h3"), "population", False, None),
    "t2-tensor-polynomial": lambda: (_grid_spec(), "sample", True, 2),
    "nu2-h4-sample-crossfit": lambda: (_two_private_values(), "sample", True, None),
    "nu2-h4-population": lambda: (_two_private_values(), "population", False, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_stacked_build_is_each_stage_alone(case):
    spec, kind, cross_fit, k = CASES[case]()
    if k is None:
        basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    else:
        basis = sieve.build_basis("tensor-polynomial", spec.n_states, spec.n_u, k=k, state_values=spec.state_values)
    if kind == "sample":
        source = ope.SampleSource(game.simulate_dataset(spec, n=3_000, seed=26), cross_fit=cross_fit)
    else:
        source = ope.PopulationSource(spec)
    stacked = ope.stage_statistics(source, basis)
    assert len(stacked) == 2 * spec.horizon
    for t, st in enumerate(stacked):
        _same(_fields(st), _fields(ope.StageStats(source, t, basis)), f"stage {t}")
    pairs = ope.build_stages(source, (1, 0), basis)  # any run of stages, in any order
    _same([_fields(st) for st in pairs], [_fields(stacked[1]), _fields(stacked[0])], "stages (1, 0)")


def test_the_first_failing_stage_raises_its_own_first_guard():
    """Stage 0 fails a late guard (one row in the instrument's upper arm) and
    stage 1 an early one (alice's action, its instrument, is constant in
    cell 1): the build names stage 0 and its arm, as a loop over the stages
    raises it, and stage 1 alone still raises its own."""
    spec = fixtures.t2_spec()
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    ds = game.simulate_dataset(spec, n=20, seed=5)
    ds.s[:, 0] = 0
    ds.b_init[:] = 0
    ds.b_init[3] = 1
    ds.a[ds.s_half[:, 0] == 1, 0] = 1
    source = ope.SampleSource(ds)
    with pytest.raises(errors.DegenerateIV, match=r"^instrument variance 0\.00e\+00 in cell 1 is below 1e-06$"):
        ope.StageStats(source, 1, basis)
    message = "stage 0: 1 rows with instrument = 1 for 2 basis functions"
    with pytest.raises(errors.InsufficientData, match=f"^{message}$"):
        ope.stage_statistics(source, basis)
    with pytest.raises(errors.InsufficientData, match=f"^{message}$"):
        ope.evaluate_policy(ds, game.constant_policy_pair(spec, 1.0, 0.5, 0.5), basis)
    with pytest.raises(errors.DegenerateIV, match="^stage 1: instrument variance"):
        ope.build_stages(source, (1, 0), basis)  # stage 1 comes first in this run


def test_an_earlier_reward_solve_fails_before_a_later_stage_guard(monkeypatch):
    """The reward solve is a stage's last guard: a stage-0 solve without a
    minimizer fires before stage 1's constant instrument."""
    spec = fixtures.t2_spec()
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    ds = game.simulate_dataset(spec, n=400, seed=5)
    ds.a[ds.s_half[:, 0] == 1, 0] = 1
    source = ope.SampleSource(ds)
    with pytest.raises(errors.DegenerateIV, match="^stage 1: instrument variance"):
        ope.stage_statistics(source, basis)

    def no_minimizer(self, alphabar):
        raise errors.IllPosedFit("cell 0: singular design with non-vanishing gradient")

    monkeypatch.setattr(ope.BlockGeometry, "solve", no_minimizer)
    with pytest.raises(errors.IllPosedFit, match="^stage 0: cell 0: singular design with non-vanishing gradient$"):
        ope.stage_statistics(source, basis)
