import numpy as np
import pytest

from confgame import fixtures, moments, ope, sieve
from confgame.errors import InsufficientData, RankDeficientBasis


def test_saturated_basis_is_cell_indicators():
    basis = sieve.build_basis("saturated", n_states=2, n_u=2)
    assert basis.k == 4
    s = np.array([0, 0, 1, 1])
    u = np.array([0, 1, 0, 1])
    q = basis.evaluate(s, u)
    assert np.array_equal(q, np.eye(4))
    # Gram matrix is the diagonal of cell frequencies
    w = np.array([0.1, 0.2, 0.3, 0.4])
    gram = (q * w[:, None]).T @ q
    assert np.allclose(gram, np.diag(w))


def test_constant_basis_projection_is_the_mean():
    basis = sieve.build_basis(
        "tensor-polynomial", n_states=4, n_u=1, k=1,
        state_values=np.linspace(0, 1, 4)[:, None],
    )
    assert basis.k == 1
    rng = np.random.default_rng(0)
    s = rng.integers(0, 4, 100)
    y = rng.normal(size=100)
    fit = sieve.project_conditional_mean(s, np.zeros(100, int), y, basis)
    assert np.allclose(fit.coef[0, 0], y.mean())


def test_monomial_count_degree_two_dim_two():
    assert sieve.polynomial_count(2, 2) == 6
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 4), np.linspace(0, 1, 4)), -1).reshape(-1, 2)
    basis = sieve.build_basis("tensor-polynomial", n_states=16, n_u=1, k=6, state_values=grid)
    assert basis.k == 6


def test_rank_deficient_basis_detected():
    values = np.zeros((3, 1))  # three identical grid points
    with pytest.raises(RankDeficientBasis):
        sieve.build_basis("tensor-polynomial", n_states=3, n_u=1, k=3, state_values=values)


def test_insufficient_data():
    basis = sieve.build_basis("saturated", n_states=3, n_u=2)
    with pytest.raises(InsufficientData):
        sieve.project_conditional_mean(
            np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0]), basis
        )


def test_projection_reproduces_constants_exactly():
    basis = sieve.build_basis("saturated", n_states=2, n_u=1)
    s = np.array([0, 1, 0, 1, 1])
    u = np.zeros(5, int)
    fit = sieve.project_conditional_mean(s, u, np.full(5, 3.25), basis)
    assert np.allclose(fit.predict(s, u), 3.25)
    assert fit.resid_norm < 1e-14


def test_projection_interpolates_basis_functions():
    grid = np.linspace(0, 1, 8)[:, None]
    basis = sieve.build_basis("tensor-polynomial", n_states=8, n_u=1, k=3, state_values=grid)
    rng = np.random.default_rng(1)
    s = rng.integers(0, 8, 200)
    u = np.zeros(200, int)
    y = basis.evaluate(s, u)[:, 1]  # the linear term itself
    fit = sieve.project_conditional_mean(s, u, y, basis)
    target = np.zeros(basis.k)
    target[1] = 1.0
    assert np.allclose(fit.coef[:, 0], target, atol=1e-10)


def test_projection_idempotent():
    basis = sieve.build_basis("saturated", n_states=2, n_u=2)
    rng = np.random.default_rng(2)
    s = rng.integers(0, 2, 300)
    u = rng.integers(0, 2, 300)
    y = rng.normal(size=300)
    fit = sieve.project_conditional_mean(s, u, y, basis)
    refit = sieve.project_conditional_mean(s, u, fit.predict(s, u), basis)
    assert np.allclose(refit.coef, fit.coef, atol=1e-12)


def test_residual_norm_monotone_in_k():
    grid = np.linspace(0, 1, 12)[:, None]
    rng = np.random.default_rng(3)
    s = rng.integers(0, 12, 400)
    u = np.zeros(400, int)
    y = np.sin(3 * grid[s, 0]) + 0.1 * rng.normal(size=400)
    resids = []
    for k in (1, 2, 3, 4):
        basis = sieve.build_basis("tensor-polynomial", n_states=12, n_u=1, k=k, state_values=grid)
        fit = sieve.project_conditional_mean(s, u, y, basis)
        resids.append(fit.resid_norm)
    assert all(a >= b - 1e-12 for a, b in zip(resids, resids[1:]))


def test_cell_means_converge_to_exact_conditionals(t1, t1_big):
    basis = sieve.build_basis("saturated", 1, 1)
    ds = t1_big
    fit = sieve.project_conditional_mean(
        ds.s[:, 0], ds.u[:, 0], ds.a[:, 0].astype(float), basis
    )
    exact = 0.45  # base 0.2 + 0.2 E[v1] + 0.3 E[b]
    se = np.sqrt(exact * (1 - exact) / ds.n)
    assert abs(fit.coef[0, 0] - exact) < 3 * se + 1e-9


def test_ridge_fallback_on_degenerate_support():
    grid = np.array([[0.5], [0.5], [0.1]])  # two coincident points
    basis = sieve.SieveBasis(
        kind="tensor-polynomial", k=3, n_states=3, n_u=1,
        state_values=grid, exponents=((0,), (1,), (2,)),
    )
    s = np.array([0, 1, 0, 1, 0, 1])  # only the coincident support appears
    y = np.ones(6)
    fit = sieve.project_conditional_mean(s, np.zeros(6, int), y, basis)
    assert fit.ridge_used
    assert np.isfinite(fit.coef).all()


def _dense_one_hot_fit(weight, y):
    """The least-squares fit of binary outcomes ``y`` on keys weighing
    ``weight`` (cells, j), each cell's keys in order, through the dense
    one-hot design: Gram matrix, right-hand side, condition number, ridge
    fallback, solve and weighted residual norm."""
    cells, j = weight.shape
    q = np.repeat(np.eye(cells), j, axis=0)
    w, y = weight.ravel(), np.broadcast_to(y, weight.shape).ravel()
    total = w.sum()
    gram = (q * w[:, None]).T @ q / total
    rhs = (q * w[:, None]).T @ y[:, None] / total
    sup = np.diag(gram) > 0
    gram = gram[np.ix_(sup, sup)]
    cond, ridge = float(np.linalg.cond(gram)), False
    if not np.isfinite(cond) or cond > sieve.COND_LIMIT:
        gram, ridge = gram + sieve.RIDGE_LAMBDA * np.eye(len(gram)), True
        cond = float(np.linalg.cond(gram))
    coef = np.zeros((cells, 1))
    coef[sup] = np.linalg.solve(gram, rhs[sup])
    resid = y[:, None] - q @ coef
    return coef, cond, float(np.sqrt((w[:, None] * resid**2).sum() / total)), ridge


def _population_key_weights():
    """Every stage's key weights of the exact t2-h3 law, by cell and key."""
    source = ope.PopulationSource(fixtures.get_fixture("t2-h3"))
    for t in range(2 * source.horizon):
        rows = source.stage_rows(t)
        table = moments.KeyTable.of_rows(2, 1, rows.s, rows.u, rows.iv, rows.act, rows.y_reward, rows.weights)
        yield table.fit_keys()[0].reshape(2, 4)


def _cell_weights():
    """Key weights (cells, 4) of many fits: random draws over 1 to 9 cells,
    empty cells, a nearly empty cell that trips the ridge, and the exact law."""
    rng = np.random.default_rng(26)
    cases = []
    for _ in range(200):
        cells = int(rng.integers(1, 10))
        weight = rng.integers(0, 50, size=(cells, 4)) / rng.integers(50, 5000)
        weight[:, 0] += 1e-3  # every cell reached
        cases.append(weight)
    empty = cases[-1].copy()
    empty[len(empty) // 2] = 0.0
    thin = cases[-2].copy()
    thin[0] *= 1e-14
    return cases + [empty, thin] + list(_population_key_weights())


def test_cell_means_match_the_dense_one_hot_solve_bit_for_bit():
    """``project_cell_means`` sums each cell's keys instead of building the
    one-hot design; for binary outcomes every field of every fit is the
    dense solve's, on instrument-like (4 keys per cell) and action-like
    (2 keys per cell) outcomes alike, however many fits one call stacks."""
    iv, act = np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0])
    cases = _cell_weights()
    assert any((w == 0).all(axis=1).any() for w in cases)
    ridges = 0
    for cells in {len(w) for w in cases}:
        basis = sieve.build_basis("saturated", cells, 1)
        weight = np.stack([w for w in cases if len(w) == cells])
        arms = weight.reshape(len(weight), cells, 2, 2).transpose(0, 2, 1, 3).reshape(-1, cells, 2)
        f1, arm_fits = sieve.project_cell_means(weight, iv, basis), sieve.project_cell_means(arms, act, basis)
        for fit, (w, y) in zip(f1 + arm_fits, [(w, iv) for w in weight] + [(w, act) for w in arms]):
            coef, cond, resid_norm, ridge = _dense_one_hot_fit(w, y)
            assert np.array_equal(fit.coef, coef) and fit.coef.shape == coef.shape
            assert (fit.gram_cond, fit.resid_norm, fit.ridge_used) == (cond, resid_norm, ridge)
            index = np.arange(cells)
            assert np.array_equal(fit.predict(index, np.zeros_like(index)), (basis.grid @ coef)[:, 0])
            ridges += ridge
    assert ridges > 0
