"""``StageStats`` from its count table against a row-by-row construction.

The reference below builds the same statistics the long way: nuisances and
features for every row (the row-by-row fit of ``row_reference`` on the
stage's rows), weighted per-row sums grouped by cell and by (cell, next
cell, action).  ``StageStats`` collapses the rows into a (fold, cell,
instrument, action, next cell) table first and evaluates the features once
per table key, so the two agree to rounding and raise the same errors.
"""

from dataclasses import replace

import numpy as np
import pytest
import row_reference

from confgame import errors, fixtures, game, moments, ope, sieve, smd

TOL = 1e-10


def _rows_data(rows, w, y, take):
    return moments.MomentData(
        y=y[take], s=rows.s[take], u=rows.u[take], act=rows.act[take], iv=rows.iv[take], weights=w[take]
    )


def row_stats(source, t, basis):
    """The statistics of ``StageStats``, from per-row features."""
    rows = source.stage_rows(t)
    nu = source.n_u
    k = source.n_states * nu
    n = rows.s.shape[0]
    w = rows.weights / rows.weights.sum()
    if rows.fold is None:
        parts = [(slice(None), slice(None))]
    else:
        parts = [(rows.fold == f, rows.fold != f) for f in (0, 1)]
    cells = rows.s * nu + rows.u
    next_cells = rows.next_s * nu + rows.next_u
    transitions = (cells * k + next_cells) * 2 + rows.act
    wy = w * rows.y_reward
    phi_sum, reward_sum, t_sum = np.zeros((k, 4, 4)), np.zeros((k, 3)), np.zeros((k * k * 2, 4))
    clip_counts = []
    for take, fit_on in parts:
        nuis = row_reference.estimate_nuisances(_rows_data(rows, w, np.zeros(n), fit_on), basis)
        system = row_reference.assemble_system(_rows_data(rows, w, np.ones(n), take), nuis, intercept=True)
        phi_sum += row_reference.cell_sums(cells[take], system.phi * w[take, None, None], k)
        reward_sum += row_reference.cell_sums(cells[take], system.alpha[:, :3] * wy[take, None], k)
        t_sum += row_reference.cell_sums(transitions[take], system.alpha * w[take, None], k * k * 2)
        clip_counts.append(nuis.clip_count)

    mass = np.bincount(cells, w, minlength=k)
    nz = mass > 0
    phibar4 = phi_sum
    phibar4[nz] /= mass[nz][:, None, None]
    reward_sum[nz] /= mass[nz][:, None]
    t_alpha = np.ascontiguousarray(np.moveaxis(t_sum.reshape(k, k, 2, 4), 3, 1))
    t_alpha[nz] /= mass[nz][:, None, None, None]
    geometry3 = smd.BlockGeometry.of_basis(mass, phibar4[:, :3, :3], basis)
    geometry4 = smd.BlockGeometry.of_basis(mass, phibar4, basis)
    abar_reward = geometry3.moments(reward_sum)
    return {
        "mass": mass,
        "phibar4": phibar4,
        "t_alpha": geometry4.moments(t_alpha),
        "abar_reward": abar_reward,
        "reward_coef": geometry3.solve(abar_reward),
        "scale_weights": np.bincount(next_cells * 2 + rows.act, w, minlength=2 * k).reshape(k, 2),
        "reward_scale_sq": float((w * rows.y_reward**2).sum()),
        "clip_counts": clip_counts,
    }


def _grid_spec():
    return replace(fixtures.t2_spec(), state_values=np.array([[0.0], [1.0]]))


CASES = {
    "t1-sample": lambda: (fixtures.t1_spec(), "sample", False, None),
    "t1-sample-crossfit": lambda: (fixtures.t1_spec(), "sample", True, None),
    "t2h3-sample": lambda: (fixtures.get_fixture("t2-h3"), "sample", False, None),
    "t2h3-sample-crossfit": lambda: (fixtures.get_fixture("t2-h3"), "sample", True, None),
    "t1-population": lambda: (fixtures.t1_spec(), "population", False, None),
    "t2h3-population": lambda: (fixtures.get_fixture("t2-h3"), "population", False, None),
    "t2-tensor-polynomial": lambda: (_grid_spec(), "sample", False, 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_matches_row_construction(case):
    spec, kind, cross_fit, k = CASES[case]()
    if k is None:
        basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    else:
        basis = sieve.build_basis(
            "tensor-polynomial", spec.n_states, spec.n_u, k=k, state_values=spec.state_values
        )
    if kind == "sample":
        source = ope.SampleSource(game.simulate_dataset(spec, n=5_000, seed=23), cross_fit=cross_fit)
    else:
        source = ope.PopulationSource(spec)
    for t in range(2 * spec.horizon):
        st, ref = ope.StageStats(source, t, basis), row_stats(source, t, basis)
        for name, want in ref.items():
            if name == "clip_counts":
                assert [nuis.clip_count for nuis in st.nuisances] == want, t
                continue
            have = np.asarray(getattr(st, name))
            assert have.shape == np.shape(want), (t, name)
            scale = max(np.abs(want).max(initial=0.0), 1.0)
            assert np.abs(have - want).max(initial=0.0) <= TOL * scale, (t, name)


def _raised(build):
    with pytest.raises(errors.ConfgameError) as info:
        build()
    return type(info.value), str(info.value)


def _t2_data(n):
    spec = fixtures.t2_spec()
    return sieve.build_basis("saturated", spec.n_states, spec.n_u), game.simulate_dataset(spec, n=n, seed=5)


def test_constant_instrument_in_one_cell_raises_like_rows():
    basis, ds = _t2_data(400)
    # stage 1: bob's instrument is alice's action, constant in cell 1
    ds.a[ds.s_half[:, 0] == 1, 0] = 1
    source = ope.SampleSource(ds)
    want = _raised(lambda: row_stats(source, 1, basis))
    assert want[0] is errors.DegenerateIV and "in cell 1" in want[1]
    assert _raised(lambda: ope.StageStats(source, 1, basis)) == want


def test_thin_instrument_arm_raises_like_rows():
    basis, ds = _t2_data(20)
    # stage 0: every row in cell 0, one row in the instrument's upper arm
    ds.s[:, 0] = 0
    ds.b_init[:] = 0
    ds.b_init[3] = 1
    source = ope.SampleSource(ds)
    want = _raised(lambda: row_stats(source, 0, basis))
    assert want == (errors.InsufficientData, "1 rows with instrument = 1 for 2 basis functions")
    assert _raised(lambda: ope.StageStats(source, 0, basis)) == want


def test_too_few_fit_rows_raise_like_rows():
    basis, ds = _t2_data(1)
    source = ope.SampleSource(ds)
    want = _raised(lambda: row_stats(source, 0, basis))
    assert want == (errors.InsufficientData, "1 rows for 2 basis functions")
    assert _raised(lambda: ope.StageStats(source, 0, basis)) == want


def test_clip_count_counts_rows():
    basis, ds = _t2_data(400)
    # stage 0: alice copies the instrument, so f2 is 0 or 1 on every row
    ds.a[:, 0] = ds.b_init
    source = ope.SampleSource(ds, cross_fit=True)
    want = row_stats(source, 0, basis)["clip_counts"]
    assert want == [200, 200]
    assert [nuis.clip_count for nuis in ope.StageStats(source, 0, basis).nuisances] == want
