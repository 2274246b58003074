import numpy as np
import pytest
import row_reference

from confgame import fixtures, game, moments, ope, sieve, smd
from confgame.errors import BasisMismatch, IllPosedFit

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
        geometry.solve(alphabar)


def test_eta_schedule_values():
    eta = smd.eta_schedule(10_000, alpha=2.0, varsigma=0.0, d=1, c_eta=1.0, horizon_weight=1.0)
    assert abs(eta - 10_000 ** (-0.8)) < 1e-15
    assert abs(eta - 6.309573e-4) < 1e-9
    assert smd.horizon_weight(3, 1) == 16.0
    assert smd.horizon_weight(5, 5) == 1.0  # floored at one
    assert smd.eta_schedule(1, c_eta=3.0, horizon_weight=2.0) == 6.0
    with pytest.raises(ValueError):
        smd.eta_schedule(0)


def _geometry(fit):
    """The region geometry of one fit: its dense Hessian as a single block."""
    return smd.BlockGeometry(row_reference.dense_hessian(fit)[None])


def _flat(coef):
    return np.asarray(coef, dtype=float).reshape(1, -1)


def _gap(fit, coef):
    """Criterion increase from ``fit``'s coefficients to ``coef``."""
    return float(_geometry(fit).loss_gap(_flat(coef), _flat(fit.coef)))


def _contains(fit, eta, coef):
    return _gap(fit, coef) <= eta + 1e-12


def _min_linear(fit, eta, weights):
    value, argmin = _geometry(fit).min_linear(_flat(weights), _flat(fit.coef), eta)
    return float(value), argmin.reshape(fit.coef.shape)


def test_region_membership_basics(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    assert _contains(fit, 1e-3, fit.coef)
    off = fit.coef + 0.05
    assert not _contains(fit, 0.0, off)


def test_region_gap_matches_direct_loss(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    data = _stage0_data(t1_big)
    rows = row_reference.assemble_system(data, moments.estimate_nuisances(data, t1_basis))
    rng = np.random.default_rng(0)
    for _ in range(100):
        probe = fit.coef + rng.normal(scale=0.2, size=fit.coef.shape)
        refit_loss = _loss_at(rows, t1_basis, probe)
        assert abs((refit_loss - fit.loss) - _gap(fit, probe)) < 1e-9


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
    rng = np.random.default_rng(1)
    for _ in range(50):
        probe = fit.coef + rng.normal(scale=0.05, size=fit.coef.shape)
        if _contains(fit, 1e-4, probe):
            assert _contains(fit, 2e-4, probe)


def _identity_fit(center, p=3):
    return smd.SmdFit(
        basis=sieve.build_basis("saturated", 1, 1),
        coef=np.asarray(center, dtype=float).reshape(1, p),
        loss=0.0,
        geometry=smd.BlockGeometry(np.eye(p)[None]),
        outcome_scale=1.0,
    )


def test_min_linear_closed_form():
    origin = _identity_fit([0.0, 0.0, 0.0])
    value, argmin = _min_linear(origin, 0.5, np.array([[1.0, 0.0, 0.0]]))
    assert abs(value + 1.0) < 1e-12
    assert np.allclose(argmin, [[-1.0, 0.0, 0.0]])

    point = _identity_fit([2.0, -1.0, 0.5])
    value, argmin = _min_linear(point, 0.0, np.array([[1.0, 1.0, 1.0]]))
    assert abs(value - 1.5) < 1e-12 and np.allclose(argmin, point.coef)

    value, argmin = _min_linear(origin, 0.5, np.zeros((1, 3)))
    assert value == 0.0 and np.allclose(argmin, origin.coef)


def test_min_linear_unbounded_on_flat_direction():
    fit = smd.SmdFit(
        basis=sieve.build_basis("saturated", 1, 1),
        coef=np.zeros((1, 3)),
        loss=0.0,
        geometry=smd.BlockGeometry(np.diag([1.0, 1.0, 0.0])[None]),
        outcome_scale=1.0,
    )
    w = _flat([[0.0, 0.0, 1.0]])
    value, _ = _geometry(fit).min_linear(w, _flat(fit.coef), 0.5)
    assert value == -np.inf
    assert np.array_equal(_geometry(fit).flat_part(w), w)


def test_min_linear_never_exceeds_center_value(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.normal(size=fit.coef.shape)
        value, _ = _min_linear(fit, 5e-4, w)
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
    at_poly, at_saturated = (f.basis.evaluate(grid_s, grid_u) @ f.coef for f in (fit_p, fit_s))
    assert np.allclose(at_poly, at_saturated, atol=1e-8)


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
        hits += _contains(fit, eta, TRUTH[None, :])
    assert hits >= int(0.9 * reps)


def test_members_lie_on_the_boundary(t1, t1_basis, t1_big):
    fit, _ = _fit_t1(t1_big, t1_basis)
    geometry, eta = _geometry(fit), 1e-3
    index = np.arange(min(16, 1 + 2 * geometry.order.size))
    members = geometry.members(_flat(fit.coef), eta, index).reshape((-1,) + fit.coef.shape)
    assert np.array_equal(members[0], fit.coef)
    assert len(members) <= 16
    for m in members[1:]:
        assert abs(_gap(fit, m) - eta) < 1e-12
