"""``smd.BlockGeometry`` against test-local copies of the code it replaced.

The references below are the per-cell ``lstsq`` loop that fitted saturated
cells, the eigen-decomposition ``min_linear`` and member loop of the dense
region of one fit (here one block, ``row_reference.dense_hessian(fit)``,
the dense form of the fit's own region ``fit.geometry``), and the learner's
per-call member, region-minimum and argmin helpers.  They run on
random positive-definite and rank-deficient blocks and on the per-cell
statistics of t1 and t2 (horizon 3) samples: coefficients,
values and argmins agree to 1e-12 (relative to the larger of 1 and their
size) and members exactly.  The dense ``lstsq`` fit that served every basis
but the saturated one is pinned against the single-block geometry of
:meth:`BlockGeometry.of_basis` to 1e-10, on the same random cells and on the
stage statistics of a t2 sample with tensor-polynomial bases.
"""

from dataclasses import replace

import numpy as np
import pytest
import row_reference

from confgame import fixtures, game, ope, sieve, smd
from confgame.errors import IllPosedFit

TOL = 1e-12
DENSE_TOL = 1e-10
HESSIAN_TOL = 1e-10


class Unbounded(Exception):
    """A reference minimum is unbounded below: the weight loads on a flat
    direction of the criterion."""


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def ref_fit_cells(mass, phibar, alphabar):
    """Saturated cells solved one by one with ``lstsq``."""
    k, _, p = phibar.shape
    coef = np.zeros((k, p))
    hessian = np.zeros((k * p, k * p))
    loss = 0.0
    for c in range(k):
        if mass[c] <= 0:
            continue
        sol, *_ = np.linalg.lstsq(phibar[c], -alphabar[c], rcond=None)
        coef[c] = sol
        resid = phibar[c] @ sol + alphabar[c]
        loss += mass[c] * float(resid @ resid)
        hessian[c * p : (c + 1) * p, c * p : (c + 1) * p] = 2.0 * mass[c] * phibar[c].T @ phibar[c]
    return coef, loss, hessian


def ref_dense_fit(mass, phibar, alphabar, basis):
    """The general-basis fit: ``lstsq`` on the dense quadratic criterion."""
    grid_s, grid_u = np.divmod(np.arange(basis.n_cells), basis.n_u)
    q = basis.evaluate(grid_s, grid_u)
    gram = (q * mass[:, None]).T @ q
    ginv = np.linalg.pinv(gram, rcond=1e-12)
    a_t = np.einsum("c,ck,cmp,cl->mklp", mass, q, phibar, q)
    b_t = np.einsum("c,ck,cm->mk", mass, q, alphabar)
    k, p = basis.k, phibar.shape[2]
    hess = 2.0 * np.einsum("mklp,kK,mKqr->lpqr", a_t, ginv, a_t).reshape(k * p, k * p)
    hess = 0.5 * (hess + hess.T)
    lin = 2.0 * np.einsum("mk,kK,mKlp->lp", b_t, ginv, a_t).reshape(k * p)
    const = float(np.einsum("mk,kK,mK->", b_t, ginv, b_t))
    sol, *_ = np.linalg.lstsq(hess, -lin, rcond=None)
    grad = hess @ sol + lin
    if np.linalg.norm(grad) > 1e-8:
        svals = np.linalg.svd(hess, compute_uv=False)
        if svals.min() < HESSIAN_TOL:
            raise IllPosedFit("singular criterion Hessian with non-vanishing gradient")
    loss = const + float(lin @ sol) + 0.5 * float(sol @ hess @ sol)
    return sol.reshape(k, p), max(loss, 0.0), hess


def ref_region_min_linear(hessian, center, eta, weights):
    """Eigen-decomposition minimum of ``<weights, coef>`` over a dense region."""
    w = weights.ravel()
    vals, vecs = np.linalg.eigh(hessian)
    keep = vals > HESSIAN_TOL * max(vals.max(initial=0.0), 1.0)
    w_spec = vecs.T @ w
    if np.linalg.norm(w_spec[~keep]) > 1e-10 and eta > 0:
        raise Unbounded("flat direction")
    center_val = float(w @ center.ravel())
    quad = float((w_spec[keep] ** 2 / vals[keep]).sum())
    if quad <= 0 or eta <= 0:
        return center_val, center.copy()
    h_pinv_w = vecs[:, keep] @ (w_spec[keep] / vals[keep])
    argmin = center.ravel() - np.sqrt(2.0 * eta / quad) * h_pinv_w
    return center_val - np.sqrt(2.0 * eta * quad), argmin.reshape(center.shape)


def ref_region_members(hessian, center, eta, k_max):
    out = [center.copy()]
    if eta <= 0:
        return out
    diag = np.diag(hessian)
    inv = np.where(diag > HESSIAN_TOL, 1.0 / np.where(diag > HESSIAN_TOL, diag, 1.0), 0.0)
    order = [i for i in np.argsort(-inv) if diag[i] > HESSIAN_TOL]
    flat = center.ravel()
    for i in order:
        radius = np.sqrt(2.0 * eta / diag[i])
        for sign in (1.0, -1.0):
            if len(out) >= k_max:
                return out
            point = flat.copy()
            point[i] += sign * radius
            out.append(point.reshape(center.shape))
    return out


def ref_member(center, hdiag, eta, index):
    """The learner's k-th member of one region, axis order sorted per call."""
    if index == 0 or eta <= 0:
        return center
    flat_d = hdiag.ravel()
    radii = np.where(
        flat_d > HESSIAN_TOL, np.sqrt(2.0 * eta / np.maximum(flat_d, HESSIAN_TOL)), 0.0
    )
    order = np.argsort(-radii)
    order = order[radii[order] > 0]
    if order.size == 0:
        return center
    axis = order[((index - 1) // 2) % order.size]
    sign = 1.0 if (index - 1) % 2 == 0 else -1.0
    out = center.ravel().copy()
    out[axis] += sign * radii[axis]
    return out.reshape(center.shape)


def ref_min_over_region(weight, center, hess, hpinv, eta):
    q = float(np.einsum("cp,cpq,cq->", weight, hpinv, weight))
    proj = np.einsum("cpq,cq->cp", hess, np.einsum("cpq,cq->cp", hpinv, weight))
    if float(np.abs(weight - proj).max()) > 1e-8 * max(1.0, float(np.abs(weight).max())):
        raise Unbounded("flat direction")
    base = np.einsum("...cp,cp->...", center, weight)
    return base - np.sqrt(np.maximum(2.0 * np.asarray(eta) * q, 0.0))


def ref_region_argmin(weight, center, hpinv, eta):
    step = np.einsum("cpq,cq->cp", hpinv, weight)
    q = float(np.einsum("cp,cp->", weight, step))
    if q <= 0 or eta <= 0:
        return center.copy()
    return center - np.sqrt(2.0 * eta / q) * step


# ---------------------------------------------------------------------------
# cases: (mass, phibar, alphabar) per cell
# ---------------------------------------------------------------------------


def _random_case(rank_deficient):
    rng = np.random.default_rng(3 if rank_deficient else 2)
    k, p = 6, 4
    mass = rng.uniform(0.05, 0.3, size=k)
    mass[4] = 0.0  # an unreached cell
    mass /= mass.sum()
    phibar = np.zeros((k, p, p))
    for c in range(k):
        u, _ = np.linalg.qr(rng.normal(size=(p, p)))
        v, _ = np.linalg.qr(rng.normal(size=(p, p)))
        s = rng.uniform(0.5, 2.0, size=p)
        if rank_deficient and c % 2 == 0:
            s[-1 - c // 2 :] = 0.0
        phibar[c] = u @ np.diag(s) @ v.T
    phibar[4] = 0.0
    alphabar = rng.normal(size=(k, p))
    alphabar[4] = 0.0
    return mass, phibar, alphabar


def _stage_cases(spec, n, seed):
    ds = game.simulate_dataset(spec, n=n, seed=seed)
    return _stage_cases_of(ds, sieve.build_basis("saturated", spec.n_states, spec.n_u), seed)


def _stage_cases_of(ds, basis, seed):
    stats = ope.stage_statistics(ope.as_source(ds), basis)
    rng = np.random.default_rng(seed)
    out = []
    for st in stats:
        out.append((st.mass, st.phibar3, st.abar_reward))
        g = rng.normal(size=(1, 1, st.mass.size, 2))
        alpha, _ = st.block_moments(g)
        out.append((st.mass, st.phibar4, alpha[0, 0]))
    return out


def _t2_grid_cases():
    spec = replace(fixtures.t2_spec(), state_values=np.array([[0.0], [1.0]]))
    ds = game.simulate_dataset(spec, n=20_000, seed=47)
    return _stage_cases_of(ds, sieve.build_basis("saturated", spec.n_states, spec.n_u), 47)


def _near_singular_case():
    # cell 1's design is singular to 1e-13 and its outcome loads on that
    # direction, so no coefficient makes the criterion gradient vanish
    phibar = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-13])])
    alphabar = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1e6]])
    return np.array([0.5, 0.5]), phibar, alphabar


@pytest.fixture(scope="module")
def cases():
    return {
        "spd": [_random_case(False)],
        "rank-deficient": [_random_case(True)],
        "t1": _stage_cases(fixtures.t1_spec(), 10_000, 41),
        "t2-h3": _stage_cases(fixtures.t2_spec(horizon=3), 12_000, 43),
    }


CASES = ("spd", "rank-deficient", "t1", "t2-h3")


def _close(got, want):
    want = np.asarray(want)
    return np.abs(got - want).max() <= TOL * max(1.0, float(np.abs(want).max()))


def _basis(mass):
    return sieve.build_basis("saturated", mass.size, 1)


def _in_range(hess, w):
    """``w`` projected onto the range of each block."""
    return np.einsum("cpq,cq->cp", hess, np.einsum("cpq,cq->cp", np.linalg.pinv(hess), w))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CASES)
def test_cell_fit_matches_lstsq_loop(cases, name):
    for mass, phibar, alphabar in cases[name]:
        geo = smd.BlockGeometry.of_cells(mass, phibar)
        fit = smd.fit_cell_moments(geo, geo.solve(alphabar), alphabar, _basis(mass), 1.0)
        coef, loss, hessian = ref_fit_cells(mass, phibar, alphabar)
        assert _close(fit.coef, coef) and _close(fit.loss, loss)
        assert _close(row_reference.dense_hessian(fit), hessian)


# cell statistics -> (states, private values, state coordinates) of their
# grid and the tensor-polynomial sizes fitted on it: the random cells lie on a
# 3 x 2 grid (4 functions leave it unspanned, 6 span it), t2 on two states
GRID_3X2 = (3, 2, np.array([[0.0], [0.4], [1.0]]))
GRID_T2 = (2, 1, np.array([[0.0], [1.0]]))
DENSE_CASES = {
    "spd": (GRID_3X2, (4, 6)),
    "rank-deficient": (GRID_3X2, (4, 6)),
    "t2-tensor-polynomial": (GRID_T2, (1, 2)),
    "near-singular": (GRID_T2, (2,)),
}


def _dense_cells(cases, name):
    if name == "t2-tensor-polynomial":
        return _t2_grid_cases()
    if name == "near-singular":
        return [_near_singular_case()]
    return cases[name]


def _sieve_fit(mass, phibar, alphabar, basis):
    geo = smd.BlockGeometry.of_basis(mass, phibar, basis)
    alphabar = geo.moments(alphabar)
    return smd.fit_cell_moments(geo, geo.solve(alphabar), alphabar, basis, 1.0)


@pytest.mark.parametrize("name", sorted(DENSE_CASES))
def test_sieve_fit_matches_dense_lstsq(cases, name):
    (ns, nu, values), sizes = DENSE_CASES[name]
    raised = 0
    for k in sizes:
        basis = sieve.build_basis("tensor-polynomial", ns, nu, k=k, state_values=values)
        for mass, phibar, alphabar in _dense_cells(cases, name):
            try:
                coef, loss, hessian = ref_dense_fit(mass, phibar, alphabar, basis)
            except IllPosedFit:
                with pytest.raises(IllPosedFit):
                    _sieve_fit(mass, phibar, alphabar, basis)
                raised += 1
                continue
            fit = _sieve_fit(mass, phibar, alphabar, basis)
            for got, want in ((fit.coef, coef), (fit.loss, loss), (row_reference.dense_hessian(fit), hessian)):
                want = np.asarray(want)
                assert np.abs(got - want).max() <= DENSE_TOL * max(1.0, float(np.abs(want).max()))
    assert raised == (len(sizes) if name == "near-singular" else 0)


@pytest.mark.parametrize("name", CASES)
def test_confidence_region_matches_eigh_reference(cases, name):
    rng = np.random.default_rng(7)
    for mass, phibar, alphabar in cases[name]:
        geo = smd.BlockGeometry.of_cells(mass, phibar)
        fit = smd.fit_cell_moments(geo, geo.solve(alphabar), alphabar, _basis(mass), 1.0)
        hess, hessian = geo.hess, row_reference.dense_hessian(fit)
        region, center = smd.BlockGeometry(hessian[None]), fit.coef.reshape(1, -1)
        for eta in (0.0, 1e-3, 0.5):
            for _ in range(5):
                w = _in_range(hess, rng.normal(size=fit.coef.shape))
                value, argmin = region.min_linear(w.reshape(1, -1), center, eta)
                ref_value, ref_argmin = ref_region_min_linear(hessian, fit.coef, eta, w)
                assert _close(value, ref_value) and _close(argmin.reshape(fit.coef.shape), ref_argmin)
                probe = fit.coef + rng.normal(scale=0.1, size=fit.coef.shape)
                d = (probe - fit.coef).ravel()
                assert _close(region.loss_gap(probe.reshape(1, -1), center), 0.5 * d @ hessian @ d)
            for k_max in (1, 4, 16, 64):
                count = min(k_max, 1 + 2 * region.order.size) if eta > 0 else 1
                got = region.members(center, eta, np.arange(count)).reshape((-1,) + fit.coef.shape)
                want = ref_region_members(hessian, fit.coef, eta, k_max)
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("name", CASES)
def test_learner_region_helpers_match_references(cases, name):
    rng = np.random.default_rng(11)
    chains = 16
    for mass, phibar, alphabar in cases[name]:
        geo = smd.BlockGeometry.of_cells(mass, phibar)
        hdiag = np.diagonal(geo.hess, axis1=1, axis2=2)
        center = geo.solve(alphabar)
        scale = float(np.abs(center).max()) or 1.0
        centers = center + rng.normal(scale=0.01 * scale, size=(chains,) + center.shape)
        etas = rng.uniform(0.0, 1e-2, size=chains)
        etas[3] = 0.0
        got = geo.members(centers, etas, np.arange(chains))
        want = np.stack([ref_member(centers[k], hdiag, float(etas[k]), k) for k in range(chains)])
        assert np.array_equal(got, want)
        got = geo.members(center, 1e-3, np.arange(40))  # wraps around the axes
        want = np.stack([ref_member(center, hdiag, 1e-3, k) for k in range(40)])
        assert np.array_equal(got, want)

        w = _in_range(geo.hess, rng.normal(size=center.shape))
        values, argmins = geo.min_linear(w, centers, etas)
        assert np.array_equal(values, ref_min_over_region(w, centers, geo.hess, geo.hpinv, etas))
        for k in range(chains):
            ref = ref_region_argmin(w, centers[k], geo.hpinv, float(etas[k]))
            assert _close(argmins[k], ref)


def test_flat_direction_raises_at_zero_radius():
    # the sublevel set at eta = 0 still contains the whole flat line, so the
    # minimum is unbounded below whatever the radius: the geometry scores it
    # -inf and reports the weight's flat part, the learner's reference raises;
    # the eigen-decomposition reference returned the center value there
    fit = smd.SmdFit(
        basis=sieve.build_basis("saturated", 1, 1),
        coef=np.zeros((1, 3)),
        loss=0.0,
        geometry=smd.BlockGeometry(np.diag([1.0, 1.0, 0.0])[None]),
        outcome_scale=1.0,
    )
    hessian = row_reference.dense_hessian(fit)
    w = np.array([[0.0, 0.0, 1.0]])
    assert ref_region_min_linear(hessian, fit.coef, 0.0, w)[0] == 0.0
    region = smd.BlockGeometry(hessian[None])
    assert region.min_linear(w, fit.coef, 0.0)[0] == -np.inf
    assert np.array_equal(region.flat_part(w), w)
    with pytest.raises(Unbounded):
        ref_min_over_region(w, fit.coef, hessian[None], np.linalg.pinv(hessian)[None], 0.0)

