import numpy as np
import pytest

from confgame import fixtures, game, moments, ope, oracle, sieve
from confgame.errors import DegenerateIV, MalformedDataset


def _stage0_data(ds):
    return moments.MomentData(
        y=ds.r_a[:, 0], s=ds.s[:, 0], u=ds.u[:, 0], act=ds.a[:, 0], iv=ds.b_init
    )


def test_nuisance_estimates_match_behavior(t1, t1_basis, t1_big):
    data = _stage0_data(t1_big)
    nuis = moments.estimate_nuisances(data, t1_basis)
    assert abs(nuis.f1_at([0], [0])[0] - 0.5) < 0.01
    diff = nuis.f2_at([0], [0], [1])[0] - nuis.f2_at([0], [0], [0])[0]
    assert abs(diff - 0.3) < 0.015
    for name, value in nuis.residual_means.items():
        assert abs(value) < 1e-10, name


def test_degenerate_instrument_raises(t1, t1_basis):
    ds = game.simulate_dataset(t1, n=200, seed=0)
    data = moments.MomentData(
        y=ds.r_a[:, 0], s=ds.s[:, 0], u=ds.u[:, 0], act=ds.a[:, 0],
        iv=np.ones(ds.n, dtype=np.int64),
    )
    with pytest.raises(DegenerateIV):
        moments.estimate_nuisances(data, t1_basis)


def _crafted_nuisances(basis, f1, f2_lo, f2_hi):
    def fit(value):
        return sieve.SeriesFit(
            basis=basis, coef=np.full((basis.k, 1), value), gram_cond=1.0, resid_norm=0.0
        )

    return moments.NuisanceSet(
        f1=fit(f1), f2=(fit(f2_lo), fit(f2_hi)), clip_count=0
    )


def _one_row_system(nuis, act, iv):
    data = moments.MomentData(
        y=np.array([2.0]), s=np.array([0]), u=np.array([0]),
        act=np.array([act]), iv=np.array([iv]),
    )
    return moments.assemble_system(data, nuis, n_states=1, n_u=1)


def test_rho_features_zero_when_instrument_residual_vanishes(t1_basis):
    # the feature map is pure arithmetic, so a synthetic row with the
    # instrument exactly at its fitted mean isolates the common factor:
    # every column carrying the instrument residual vanishes
    nuis = _crafted_nuisances(t1_basis, 0.5, 0.3, 0.6)
    system = _one_row_system(nuis, 1.0, 0.5)
    assert np.allclose(system.alpha[0, :2], 0.0, atol=1e-15)
    assert np.allclose(system.phi[0, :2], 0.0, atol=1e-15)


def test_rho_features_zero_when_action_residual_vanishes(t1_basis):
    nuis = _crafted_nuisances(t1_basis, 0.5, 0.6, 0.6)
    system = _one_row_system(nuis, 0.6, 1.0)
    assert abs(system.alpha[0, 0]) < 1e-15  # both-residual outcome product
    assert np.allclose(system.phi[0, 0], 0.0, atol=1e-15)  # both-residual action products


def test_rho_arithmetic_on_a_fixture_row(t1_basis):
    nuis = _crafted_nuisances(t1_basis, 0.5, 0.6, 0.6)
    system = _one_row_system(nuis, 1, 1)
    assert abs(system.alpha[0, 0] - 0.5 * 0.4 * 2.0) < 1e-12


def test_population_moments_vanish_at_truth(t1, t1_basis):
    src = ope.PopulationSource(t1)
    rows = src.stage_rows(0)
    data = moments.MomentData(
        y=rows.y_reward, s=rows.s, u=rows.u, act=rows.act, iv=rows.iv, weights=rows.weights
    )
    nuis = moments.estimate_nuisances(data, t1_basis)
    system = moments.assemble_system(data, nuis, n_states=1, n_u=1)
    truth = np.array([1.2, 0.5, 0.25])
    w_rows = system.evaluate(np.tile(truth, (system.n, 1)))
    cond_mean = (system.weights[:, None] * w_rows).sum(axis=0) / system.weights.sum()
    assert np.abs(cond_mean).max() < 1e-10


def test_system_linearity_and_zero_reduction(t1, t1_basis):
    ds = game.simulate_dataset(t1, n=2_000, seed=5)
    data = _stage0_data(ds)
    nuis = moments.estimate_nuisances(data, t1_basis)
    system = moments.assemble_system(data, nuis, n_states=1, n_u=1)
    t1v = np.tile([0.5, -1.0, 2.0], (system.n, 1))
    t2v = np.tile([-0.25, 0.75, 0.0], (system.n, 1))
    lhs = system.evaluate(t1v) - system.evaluate(t2v)
    rhs = np.einsum("nmp,np->nm", system.phi, t1v - t2v)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(system.evaluate(np.zeros((system.n, 3))), system.alpha)


def test_duplicated_rows_leave_cell_averages_unchanged(t1, t1_basis):
    from confgame.smd import _cell_averages

    ds = game.simulate_dataset(t1, n=1_000, seed=6)
    data = _stage0_data(ds)
    nuis = moments.estimate_nuisances(data, t1_basis)
    sys1 = moments.assemble_system(data, nuis, n_states=1, n_u=1)
    doubled = moments.MomentData(
        y=np.tile(data.y, 2), s=np.tile(data.s, 2), u=np.tile(data.u, 2),
        act=np.tile(data.act, 2), iv=np.tile(data.iv, 2),
    )
    sys2 = moments.assemble_system(doubled, nuis, n_states=1, n_u=1)
    for a, b in zip(_cell_averages(sys1, t1_basis), _cell_averages(sys2, t1_basis)):
        assert np.allclose(a, b, atol=1e-12)


def test_negative_control_biases_the_sampled_fit(t1_basis):
    spec = fixtures.negative_control_spec()
    ds = game.simulate_dataset(spec, n=100_000, seed=13)
    data = _stage0_data(ds)
    nuis = moments.estimate_nuisances(data, t1_basis)
    system = moments.assemble_system(data, nuis, n_states=1, n_u=1)
    from confgame.smd import fit_smd

    fit = fit_smd(system, t1_basis)
    truth = oracle.true_coefficients(spec)["alice_reward"]
    bias = np.abs(
        fit.coef[0] - [truth.theta_a[0, 0], truth.theta_z[0, 0], truth.theta_az[0, 0]]
    ).max()
    assert bias >= 0.01


@pytest.mark.parametrize("state", [-1, 2])
def test_cell_outside_the_basis_grid_is_rejected(t2, t2_basis, state):
    ds = game.simulate_dataset(t2, n=200, seed=0)
    s = ds.s[:, 0].copy()
    s[5::3] = state
    data = moments.MomentData(y=ds.r_a[:, 0], s=s, u=ds.u[:, 0], act=ds.a[:, 0], iv=ds.b_init)
    with pytest.raises(MalformedDataset, match=f"^field s, row 5: value {state} is not in 0..1$"):
        moments.estimate_nuisances(data, t2_basis)
