"""The row-level reward fit from its count table against two other routes.

``estimate_nuisances`` -> ``assemble_system`` -> ``fit_smd`` reads a decision
point's rows into a (cell, instrument, action) count table and fits from it.
``StageStats(...).reward_fit()`` computes the same fit from the stage's own
table, and ``row_reference`` computes it row by row.  The three agree to
rounding, report the same outcome scale and clip count, and raise the same
errors.
"""

import numpy as np
import pytest
import row_reference

from confgame import errors, fixtures, game, moments, ope, sieve, smd

TOL = 1e-10


class _Weighted(ope.SampleSource):
    """A dataset's stage rows with seeded non-uniform weights."""

    def stage_rows(self, t):
        rows = super().stage_rows(t)
        rows.weights = np.random.default_rng(t).uniform(0.2, 3.0, size=rows.weights.shape)
        return rows


def _basis(spec, kind):
    if kind == "saturated":
        return sieve.build_basis("saturated", spec.n_states, spec.n_u)
    values = np.linspace(0.0, 1.0, spec.n_states)[:, None]
    return sieve.build_basis("tensor-polynomial", spec.n_states, spec.n_u, k=1, state_values=values)


def _data(rows):
    return moments.MomentData(
        y=rows.y_reward, s=rows.s, u=rows.u, act=rows.act, iv=rows.iv, weights=rows.weights
    )


def row_level_fit(source, t, basis):
    data = _data(source.stage_rows(t))
    nuis = moments.estimate_nuisances(data, basis)
    return smd.fit_smd(moments.assemble_system(data, nuis), basis), nuis


def stage_fit(source, t, basis):
    st = ope.StageStats(source, t, basis)
    return st.reward_fit(), st.nuisances[0]


def reference_fit(source, t, basis):
    return row_reference.reward_fit(_data(source.stage_rows(t)), basis)


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("kind", ["saturated", "tensor-polynomial"])
@pytest.mark.parametrize("fixture", ["t1", "t2-h3"])
def test_row_level_fit_matches_stage_and_rows(fixture, kind, weighted):
    spec = fixtures.get_fixture(fixture)
    basis = _basis(spec, kind)
    ds = game.simulate_dataset(spec, n=5_000, seed=31)
    source = _Weighted(ds) if weighted else ope.SampleSource(ds)
    for t in range(2 * spec.horizon):
        fit, nuis = row_level_fit(source, t, basis)
        for other in (stage_fit, reference_fit):
            want, want_nuis = other(source, t, basis)
            where = (t, other.__name__)
            assert np.abs(fit.coef - want.coef).max() <= TOL * np.abs(want.coef).max(), where
            hess, want_hess = row_reference.dense_hessian(fit), row_reference.dense_hessian(want)
            assert np.abs(hess - want_hess).max() <= TOL * np.abs(want_hess).max(), where
            assert abs(fit.loss - want.loss) <= 1e-12 * want.outcome_scale**2, where
            assert fit.outcome_scale == want.outcome_scale, where
            assert nuis.clip_count == want_nuis.clip_count, where
            assert nuis.residual_means.keys() == want_nuis.residual_means.keys(), where
            for key, value in want_nuis.residual_means.items():
                assert abs(nuis.residual_means[key] - value) <= 1e-12, (where, key)


def test_clipped_rows_are_counted_alike():
    spec = fixtures.t2_spec()
    basis = _basis(spec, "saturated")
    ds = game.simulate_dataset(spec, n=400, seed=5)
    # stage 0: alice copies the instrument, so f2 is 0 or 1 on every row
    ds.a[:, 0] = ds.b_init
    source = ope.SampleSource(ds)
    counts = [route(source, 0, basis)[1].clip_count for route in (row_level_fit, stage_fit, reference_fit)]
    assert counts == [400, 400, 400]


def _raised(build):
    with pytest.raises(errors.ConfgameError) as info:
        build()
    return type(info.value), str(info.value)


def _t2_source(n, edit):
    spec = fixtures.t2_spec()
    ds = game.simulate_dataset(spec, n=n, seed=5)
    edit(ds)
    return _basis(spec, "saturated"), ope.SampleSource(ds)


def _constant_instrument_in_cell_1(ds):
    # stage 1: bob's instrument is alice's action, constant in cell 1
    ds.a[ds.s_half[:, 0] == 1, 0] = 1


def _one_row_in_the_upper_arm(ds):
    # stage 0: every row in cell 0, one row in the instrument's upper arm
    ds.s[:, 0] = 0
    ds.b_init[:] = 0
    ds.b_init[3] = 1


@pytest.mark.parametrize(
    "n, edit, t, want",
    [
        (
            400,
            _constant_instrument_in_cell_1,
            1,
            (errors.DegenerateIV, "instrument variance 0.00e+00 in cell 1 is below 1e-06"),
        ),
        (
            20,
            _one_row_in_the_upper_arm,
            0,
            (errors.InsufficientData, "1 rows with instrument = 1 for 2 basis functions"),
        ),
        (1, lambda ds: None, 0, (errors.InsufficientData, "1 rows for 2 basis functions")),
    ],
    ids=["constant-instrument", "thin-arm", "too-few-rows"],
)
def test_guards_raise_alike(n, edit, t, want):
    basis, source = _t2_source(n, edit)
    for route in (reference_fit, row_level_fit, stage_fit):
        assert _raised(lambda: route(source, t, basis)) == want, route.__name__
