import numpy as np
import pytest
import row_reference

from confgame import fixtures, game, moments, ope, sieve, smd
from confgame.errors import BasisMismatch, IllPosedFit, UnboundedBelow

TRUTH = np.array([1.2, 0.5, 0.25])


def _stage0_data(ds):
    return moments.MomentData(
        y=ds.r_a[:, 0], s=ds.s[:, 0], u=ds.u[:, 0], act=ds.a[:, 0], iv=ds.b_init
    )


def _fit_t1(ds, basis, **kw):
    data = _stage0_data(ds)
    nuis = moments.estimate_nuisances(data, basis)
    system = moments.assemble_system(data, nuis, n_states=1, n_u=1, **kw)
    return smd.fit_smd(system, basis), system


def test_sampled_fit_close_to_truth(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    assert np.abs(fit.coef[0] - TRUTH).max() <= 0.05


def test_population_fit_is_exact(t1, t1_basis):
    src = ope.PopulationSource(t1)
    rows = src.stage_rows(0)
    data = moments.MomentData(
        y=rows.y_reward, s=rows.s, u=rows.u, act=rows.act, iv=rows.iv, weights=rows.weights
    )
    nuis = moments.estimate_nuisances(data, t1_basis)
    system = moments.assemble_system(data, nuis, n_states=1, n_u=1)
    fit = smd.fit_smd(system, t1_basis)
    assert np.abs(fit.coef[0] - TRUTH).max() < 1e-8
    assert fit.loss < 1e-16


def test_zero_reward_fit_is_exactly_zero(t1_basis):
    spec = fixtures.t1_spec(reward_scale=0.0, noise=0.0)
    ds = game.simulate_dataset(spec, n=2_000, seed=1)
    fit, _ = _fit_t1(ds, t1_basis)
    assert np.all(fit.coef == 0.0) and fit.loss == 0.0


def test_general_basis_path_matches_cell_path(t1, t1_big):
    saturated = sieve.build_basis("saturated", 1, 1)
    poly = sieve.build_basis(
        "tensor-polynomial", n_states=1, n_u=1, k=1, state_values=np.array([[0.5]])
    )
    ds = game.simulate_dataset(t1, n=5_000, seed=17)
    fit_sat, _ = _fit_t1(ds, saturated)
    fit_poly, _ = _fit_t1(ds, poly)
    # one cell: the constant polynomial basis spans the same space
    assert np.allclose(fit_sat.coef, fit_poly.coef, atol=1e-8)
    assert abs(fit_sat.loss - fit_poly.loss) < 1e-12


def test_fit_on_another_grid_is_rejected(t2, t2_basis):
    ds = game.simulate_dataset(t2, n=500, seed=0)
    data = moments.MomentData(y=ds.r_a[:, 0], s=ds.s[:, 0], u=ds.u[:, 0], act=ds.a[:, 0], iv=ds.b_init)
    system = moments.assemble_system(data, moments.estimate_nuisances(data, t2_basis))
    with pytest.raises(BasisMismatch, match=r"the system has \(2, 1\)$"):
        smd.fit_smd(system, sieve.build_basis("saturated", 1, 1))


@pytest.mark.parametrize("grid", [{"n_states": 2}, {"n_u": 2}])
def test_system_grid_must_match_the_nuisance_basis(t1, t1_basis, grid):
    ds = game.simulate_dataset(t1, n=500, seed=0)
    data = moments.MomentData(y=ds.r_a[:, 0], s=ds.s[:, 0], u=ds.u[:, 0], act=ds.a[:, 0], iv=ds.b_init)
    nuis = moments.estimate_nuisances(data, t1_basis)
    want = (grid.get("n_states", 1), grid.get("n_u", 1))
    with pytest.raises(BasisMismatch, match=rf"= \(1, 1\); the system asks for \({want[0]}, {want[1]}\)$"):
        moments.assemble_system(data, nuis, **grid)


def test_near_singular_cell_is_ill_posed():
    # cell 1's design is singular to 1e-13 and its outcome loads on that
    # direction, so the criterion gradient cannot vanish there
    phibar = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-13])])
    alphabar = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1e6]])
    geometry = smd.BlockGeometry.of_cells(np.array([0.5, 0.5]), phibar)
    with pytest.raises(IllPosedFit, match="cell 1"):
        smd.fit_cell_moments(geometry, alphabar, sieve.build_basis("saturated", 2, 1), 1.0)


def test_eta_schedule_values():
    eta = smd.eta_schedule(10_000, alpha=2.0, varsigma=0.0, d=1, c_eta=1.0, horizon_weight=1.0)
    assert abs(eta - 10_000 ** (-0.8)) < 1e-15
    assert abs(eta - 6.309573e-4) < 1e-9
    assert smd.horizon_weight(3, 1) == 16.0
    assert smd.horizon_weight(5, 5) == 1.0  # floored at one
    assert smd.eta_schedule(1, c_eta=3.0, horizon_weight=2.0) == 6.0
    with pytest.raises(ValueError):
        smd.eta_schedule(0)


def _region(fit, eta):
    return smd.ConfidenceRegion(center=fit, eta=eta)


def test_region_membership_basics(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    region = _region(fit, 1e-3)
    assert region.contains(fit.coef)
    tight = _region(fit, 0.0)
    off = fit.coef + 0.05
    assert not tight.contains(off)
    with pytest.raises(BasisMismatch):
        region.contains(np.zeros((2, 5)))


def test_region_gap_matches_direct_loss(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    data = _stage0_data(t1_big)
    rows = row_reference.assemble_system(data, moments.estimate_nuisances(data, t1_basis))
    region = _region(fit, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        probe = fit.coef + rng.normal(scale=0.2, size=fit.coef.shape)
        refit_loss = _loss_at(rows, t1_basis, probe)
        assert abs((refit_loss - fit.loss) - region.loss_gap(probe)) < 1e-9


def _loss_at(rows, basis, coef):
    """The criterion at ``coef``, from the per-row reference system ``rows``."""
    mass, phibar, alphabar = row_reference.cell_averages(rows, basis)
    loss = 0.0
    for c in range(basis.n_cells):
        if mass[c] <= 0:
            continue
        r = phibar[c] @ coef[c] + alphabar[c]
        loss += mass[c] * float(r @ r)
    return loss


def test_region_monotone_in_eta(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    small, large = _region(fit, 1e-4), _region(fit, 2e-4)
    rng = np.random.default_rng(1)
    for _ in range(50):
        probe = fit.coef + rng.normal(scale=0.05, size=fit.coef.shape)
        if small.contains(probe):
            assert large.contains(probe)


def _identity_region(center, eta, p=3):
    fit = smd.SmdFit(
        basis=sieve.build_basis("saturated", 1, 1),
        coef=np.asarray(center, dtype=float).reshape(1, p),
        loss=0.0,
        hessian=np.eye(p),
        outcome_scale=1.0,
    )
    return smd.ConfidenceRegion(center=fit, eta=eta)


def test_min_linear_closed_form():
    region = _identity_region([0.0, 0.0, 0.0], 0.5)
    value, argmin = region.min_linear(np.array([[1.0, 0.0, 0.0]]))
    assert abs(value + 1.0) < 1e-12
    assert np.allclose(argmin, [[-1.0, 0.0, 0.0]])

    point = _identity_region([2.0, -1.0, 0.5], 0.0)
    value, argmin = point.min_linear(np.array([[1.0, 1.0, 1.0]]))
    assert abs(value - 1.5) < 1e-12 and np.allclose(argmin, point.center.coef)

    value, argmin = region.min_linear(np.zeros((1, 3)))
    assert value == 0.0 and np.allclose(argmin, region.center.coef)


def test_min_linear_unbounded_on_flat_direction():
    fit = smd.SmdFit(
        basis=sieve.build_basis("saturated", 1, 1),
        coef=np.zeros((1, 3)),
        loss=0.0,
        hessian=np.diag([1.0, 1.0, 0.0]),
        outcome_scale=1.0,
    )
    region = smd.ConfidenceRegion(center=fit, eta=0.5)
    with pytest.raises(UnboundedBelow):
        region.min_linear(np.array([[0.0, 0.0, 1.0]]))


def test_min_linear_never_exceeds_center_value(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    region = _region(fit, 5e-4)
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.normal(size=fit.coef.shape)
        value, _ = region.min_linear(w)
        assert value <= float((w * fit.coef).sum()) + 1e-12


def test_grid_state_polynomial_path(t2):
    """Declaring states as grid points and fitting through a polynomial
    basis reproduces the saturated fit when the polynomial spans the grid."""
    from dataclasses import replace

    spec = replace(t2, state_values=np.array([[0.0], [1.0]]))
    ds = game.simulate_dataset(spec, n=20_000, seed=23)
    data = moments.MomentData(
        y=ds.r_a[:, 0], s=ds.s[:, 0], u=ds.u[:, 0], act=ds.a[:, 0], iv=ds.b_init
    )
    saturated = sieve.build_basis("saturated", 2, 1)
    poly = sieve.build_basis(
        "tensor-polynomial", n_states=2, n_u=1, k=2, state_values=spec.state_values
    )
    nuis_s = moments.estimate_nuisances(data, saturated)
    nuis_p = moments.estimate_nuisances(data, poly)
    fit_s = smd.fit_smd(moments.assemble_system(data, nuis_s, n_states=2, n_u=1), saturated)
    fit_p = smd.fit_smd(moments.assemble_system(data, nuis_p, n_states=2, n_u=1), poly)
    grid_s = np.array([0, 1])
    grid_u = np.array([0, 0])
    assert np.allclose(fit_p.predict(grid_s, grid_u), fit_s.predict(grid_s, grid_u), atol=1e-8)


def test_k_schedule_and_fit_summary():
    assert sieve.k_schedule(1000) == 20
    assert sieve.k_schedule(1) == 2


def test_reward_region_covers_truth(t1, t1_basis):
    """With the scheduled radius, the true triple is a member in at least
    90 percent of replications at n = 1e4."""
    hits, reps = 0, 50
    for rep in range(reps):
        ds = game.simulate_dataset(t1, n=10_000, seed=50_000 + rep)
        fit, system = _fit_t1(ds, t1_basis)
        eta = smd.eta_schedule(ds.n) * system.outcome_scale**2
        region = smd.ConfidenceRegion(center=fit, eta=eta)
        hits += region.contains(TRUTH[None, :])
    assert hits >= int(0.9 * reps)


def test_members_lie_on_the_boundary(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    region = _region(fit, 1e-3)
    members = region.members(16)
    assert np.array_equal(members[0], fit.coef)
    assert len(members) <= 16
    for m in members[1:]:
        assert abs(region.loss_gap(m) - region.eta) < 1e-12
