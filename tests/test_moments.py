import re

import numpy as np
import pytest
import row_reference

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


def _one_row_features(nuis, act, iv):
    """Design and outcome moments of one row with outcome 2 (the feature map
    itself: a row-level system accepts binary actions and instruments only)."""
    phi, alpha = nuis.features(np.array([0]), np.array([0]), np.array([iv]), np.array([act]))
    return phi, alpha * 2.0


def test_rho_features_zero_when_instrument_residual_vanishes(t1_basis):
    # the feature map is pure arithmetic, so a synthetic row with the
    # instrument exactly at its fitted mean isolates the common factor:
    # every column carrying the instrument residual vanishes
    nuis = _crafted_nuisances(t1_basis, 0.5, 0.3, 0.6)
    phi, alpha = _one_row_features(nuis, 1.0, 0.5)
    assert np.allclose(alpha[0, :2], 0.0, atol=1e-15)
    assert np.allclose(phi[0, :2], 0.0, atol=1e-15)


def test_rho_features_zero_when_action_residual_vanishes(t1_basis):
    nuis = _crafted_nuisances(t1_basis, 0.5, 0.6, 0.6)
    phi, alpha = _one_row_features(nuis, 0.6, 1.0)
    assert abs(alpha[0, 0]) < 1e-15  # both-residual outcome product
    assert np.allclose(phi[0, 0], 0.0, atol=1e-15)  # both-residual action products


def test_rho_arithmetic_on_a_fixture_row(t1_basis):
    nuis = _crafted_nuisances(t1_basis, 0.5, 0.6, 0.6)
    system = _one_row_system(nuis, 1, 1)
    _, _, alphabar = system.cell_means()  # the one row's outcome moments
    assert abs(alphabar[0, 0] - 0.5 * 0.4 * 2.0) < 1e-12


def _row_moments(data, nuis):
    """Per-row design (n, 3, 3) and outcome moments (n, 3) of the reward
    system, from the feature map itself."""
    phi, alpha = nuis.features(data.s, data.u, data.iv, data.act)
    return phi[:, :3, :3], alpha[:, :3] * data.y[:, None]


def test_population_moments_vanish_at_truth(t1, t1_basis):
    src = ope.PopulationSource(t1)
    rows = src.stage_rows(0)
    data = moments.MomentData(
        y=rows.y_reward, s=rows.s, u=rows.u, act=rows.act, iv=rows.iv, weights=rows.weights
    )
    nuis = moments.estimate_nuisances(data, t1_basis)
    system = moments.assemble_system(data, nuis, n_states=1, n_u=1)
    truth = np.array([1.2, 0.5, 0.25])
    mass, phibar, alphabar = system.cell_means()
    cond_mean = mass @ (phibar @ truth + alphabar)
    assert np.abs(cond_mean).max() < 1e-10


def test_system_linearity_and_zero_reduction(t1, t1_basis):
    ds = game.simulate_dataset(t1, n=2_000, seed=5)
    data = _stage0_data(ds)
    nuis = moments.estimate_nuisances(data, t1_basis)
    phi, alpha = _row_moments(data, nuis)
    n = data.n

    def evaluate(theta_by_row):
        return np.einsum("nmp,np->nm", phi, theta_by_row) + alpha

    t1v = np.tile([0.5, -1.0, 2.0], (n, 1))
    t2v = np.tile([-0.25, 0.75, 0.0], (n, 1))
    lhs = evaluate(t1v) - evaluate(t2v)
    rhs = np.einsum("nmp,np->nm", phi, t1v - t2v)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(evaluate(np.zeros((n, 3))), alpha)
    # the system's cell means are the row averages of the same components
    system = moments.assemble_system(data, nuis, n_states=1, n_u=1)
    _, phibar, alphabar = system.cell_means()
    assert np.allclose(phibar[0] @ t1v[0] + alphabar[0], evaluate(t1v).mean(axis=0), atol=1e-12)


def test_duplicated_rows_leave_cell_averages_unchanged(t1, t1_basis):
    ds = game.simulate_dataset(t1, n=1_000, seed=6)
    data = _stage0_data(ds)
    nuis = moments.estimate_nuisances(data, t1_basis)
    sys1 = moments.assemble_system(data, nuis, n_states=1, n_u=1)
    doubled = moments.MomentData(
        y=np.tile(data.y, 2), s=np.tile(data.s, 2), u=np.tile(data.u, 2),
        act=np.tile(data.act, 2), iv=np.tile(data.iv, 2),
    )
    sys2 = moments.assemble_system(doubled, nuis, n_states=1, n_u=1)
    rows1, rows2 = row_reference.assemble_system(data, nuis), row_reference.assemble_system(doubled, nuis)
    for a, b in zip(row_reference.cell_averages(rows1, t1_basis), row_reference.cell_averages(rows2, t1_basis)):
        assert np.allclose(a, b, atol=1e-12)
    for a, b in zip(sys1.cell_means(), sys2.cell_means()):
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


@pytest.mark.parametrize(
    "name, value, detail",
    [
        ("s", 1, "value 1 is not in 0..0"),
        ("act", 2, "value 2 is not in 0..1"),
        ("iv", -1, "value -1 is not in 0..1"),
        ("y", np.nan, "value nan is not finite"),
        ("weights", np.inf, "value inf is not finite"),
        ("weights", -1.0, "value -1.0 is negative"),
    ],
)
def test_malformed_row_is_rejected(t1, t1_basis, name, value, detail):
    ds = game.simulate_dataset(t1, n=500, seed=0)
    good = _stage0_data(ds)
    nuis = moments.estimate_nuisances(good, t1_basis)
    cols = {key: np.array(getattr(good, key)) for key in ("y", "s", "u", "act", "iv", "weights")}
    cols[name][3] = value
    for fit in (
        lambda: moments.estimate_nuisances(moments.MomentData(**cols), t1_basis),
        lambda: moments.assemble_system(moments.MomentData(**cols), nuis),
    ):
        with pytest.raises(MalformedDataset, match=f"^field {name}, row 3: {detail}$"):
            fit()


def test_weights_summing_to_zero_are_rejected(t1, t1_basis):
    good = _stage0_data(game.simulate_dataset(t1, n=500, seed=0))
    nuis = moments.estimate_nuisances(good, t1_basis)
    cols = {key: getattr(good, key) for key in ("y", "s", "u", "act", "iv")}
    for fit in (
        lambda: moments.estimate_nuisances(moments.MomentData(**cols, weights=np.zeros(good.n)), t1_basis),
        lambda: moments.assemble_system(moments.MomentData(**cols, weights=np.zeros(good.n)), nuis),
    ):
        with pytest.raises(MalformedDataset, match="^field weights: the weights sum to 0$"):
            fit()


@pytest.mark.parametrize(
    "name, change, message",
    [
        ("y", lambda col: col[:-1], "field y: shape (199,), expected (200,)"),
        ("s", lambda col: col[:-1], "field s: shape (199,), expected (200,)"),
        ("act", lambda col: col[:, None], "field act: shape (200, 1), expected (200,)"),
        ("iv", lambda col: np.stack([col, col]), "field iv: shape (2, 200), expected (200,)"),
        ("weights", lambda col: col[:-1], "field weights: shape (199,), expected (200,)"),
    ],
    ids=["y-short", "s-short", "act-2d", "iv-2d", "weights-short"],
)
def test_columns_of_another_length_or_rank_are_rejected(t1, t1_basis, name, change, message):
    good = _stage0_data(game.simulate_dataset(t1, n=200, seed=0))
    nuis = moments.estimate_nuisances(good, t1_basis)
    cols = {key: getattr(good, key) for key in ("y", "s", "u", "act", "iv", "weights")}
    cols[name] = change(cols[name])
    for fit in (
        lambda: moments.estimate_nuisances(moments.MomentData(**cols), t1_basis),
        lambda: moments.assemble_system(moments.MomentData(**cols), nuis),
    ):
        with pytest.raises(MalformedDataset, match=f"^{re.escape(message)}$"):
            fit()
