"""Row-by-row reference of the row-level reward fit.

The package reads a decision point's rows into a (cell, instrument, action)
count table and fits from the table.  This module keeps the fit written the
long way, row by row, for tests to compare against: nuisances fitted by
series projection on the rows themselves, with the same guards in the same
order; the feature functions evaluated for every row; per-row weighted sums
grouped by cell; and the criterion's geometry and fit record from those cell
averages.
"""

from dataclasses import dataclass

import numpy as np

from confgame import moments, smd
from confgame.errors import DegenerateIV, InsufficientData
from confgame.game import check_column
from confgame.sieve import project_conditional_mean


def _check_iv_variance(data, basis):
    cells = basis.cell_index(data.s, data.u)
    w = data.weights
    tot = np.bincount(cells, w)
    reached = tot > 0
    mean = np.bincount(cells, w * data.iv)
    mean[reached] /= tot[reached]
    var = np.bincount(cells, w * (data.iv - mean[cells]) ** 2)
    var[reached] /= tot[reached]
    low = np.flatnonzero(reached & (var < moments.IV_VARIANCE_TOL))
    if low.size:
        raise DegenerateIV(
            f"instrument variance {var[low[0]]:.2e} in cell {int(low[0])} is below {moments.IV_VARIANCE_TOL}"
        )


def estimate_nuisances(data, basis):
    """``f1`` and the two ``f2`` arms projected on the rows."""
    check_column("s", data.s, basis.n_states)
    check_column("u", data.u, basis.n_u)
    if data.n < basis.k:
        raise InsufficientData(f"{data.n} rows for {basis.k} basis functions")
    _check_iv_variance(data, basis)
    w = data.weights
    f1 = project_conditional_mean(data.s, data.u, data.iv.astype(float), basis, w)
    arms = []
    for b in (0, 1):
        m = data.iv == b
        if not m.any():
            raise DegenerateIV(f"no rows with instrument = {b}")
        if m.sum() < basis.k:
            raise InsufficientData(f"{m.sum()} rows with instrument = {b} for {basis.k} basis functions")
        arms.append(project_conditional_mean(data.s[m], data.u[m], data.act[m].astype(float), basis, w[m]))
    nuis = moments.NuisanceSet(f1=f1, f2=(arms[0], arms[1]), clip_count=0)
    lo, hi = (f.predict(data.s, data.u) for f in arms)
    raw = np.stack([f1.predict(data.s, data.u), np.where(data.iv > 0.5, hi, lo)])
    nuis.clip_count = int((np.abs(raw - np.clip(raw, moments.F_CLIP, 1 - moments.F_CLIP)) > 0).sum())
    total = w.sum()
    nuis.residual_means = {
        "w4": float((w * (data.iv - nuis.f1_at(data.s, data.u))).sum() / total),
        "w5": float((w * (data.act - nuis.f2_at(data.s, data.u, data.iv))).sum() / total),
    }
    return nuis


@dataclass
class RowSystem:
    """Per-row moment components ``W_i = phi_i @ theta + alpha_i``."""

    phi: np.ndarray
    alpha: np.ndarray
    s: np.ndarray
    u: np.ndarray
    weights: np.ndarray
    outcome_scale: float


def assemble_system(data, nuis, intercept=False):
    """The moment components of every row."""
    f1v = nuis.f1_at(data.s, data.u)
    f2v = nuis.f2_at(data.s, data.u, data.iv)
    act = data.act.astype(float)
    iv = data.iv.astype(float)
    y = data.y.astype(float)
    b_til = iv - f1v
    a_til = act - f2v
    rho2 = b_til * a_til * act
    rho3 = iv * rho2
    rho5 = b_til * act
    rho6 = iv * b_til
    rho7 = act * iv * b_til
    p = m = 4 if intercept else 3
    phi = np.zeros((data.n, m, p))
    alpha = np.zeros((data.n, m))
    alpha[:, 0] = b_til * a_til * y
    phi[:, 0, 0], phi[:, 0, 2] = -rho2, -rho3
    alpha[:, 1] = b_til * y
    phi[:, 1, 0], phi[:, 1, 1], phi[:, 1, 2] = -rho5, -rho6, -rho7
    alpha[:, 2] = y
    phi[:, 2, 0], phi[:, 2, 1], phi[:, 2, 2] = -act, -iv, -act * iv
    if intercept:
        phi[:, 2, 3] = -1.0
        alpha[:, 3] = act * y
        phi[:, 3, 0], phi[:, 3, 1], phi[:, 3, 2], phi[:, 3, 3] = -act, -act * iv, -act * iv, -act
    total = data.weights.sum()
    scale = float(np.sqrt((data.weights * y**2).sum() / total)) if total > 0 else 0.0
    return RowSystem(phi, alpha, data.s, data.u, data.weights, scale)


def cell_sums(index, values, size):
    """Sums of per-row ``values`` (n, ...) grouped by ``index`` -> (size, ...)."""
    m = int(np.prod(values.shape[1:]))
    slots = (index[:, None] * m + np.arange(m)).ravel()
    sums = np.bincount(slots, values.ravel(), minlength=size * m)
    return sums.reshape((size,) + values.shape[1:])


def cell_averages(system, basis):
    """Cell masses and the weighted cell means of ``system.phi`` and
    ``system.alpha``, from its per-row arrays."""
    cells = basis.cell_index(system.s, system.u)
    k = basis.n_cells
    w = system.weights
    total = w.sum()
    mass = cell_sums(cells, w, k) / total
    phibar = cell_sums(cells, system.phi * w[:, None, None], k)
    alphabar = cell_sums(cells, system.alpha * w[:, None], k)
    nz = mass > 0
    phibar[nz] /= (mass[nz] * total)[:, None, None]
    alphabar[nz] /= (mass[nz] * total)[:, None]
    return mass, phibar, alphabar


def fit_smd(system, basis):
    """The criterion fit from the per-row cell averages."""
    mass, phibar, alphabar = cell_averages(system, basis)
    geometry = smd.BlockGeometry.of_basis(mass, phibar, basis)
    alphabar = geometry.moments(alphabar)
    return smd.fit_cell_moments(geometry, geometry.solve(alphabar), alphabar, basis, system.outcome_scale)


def dense_hessian(fit):
    """The (blocks·q)² criterion Hessian of ``fit``: its geometry's diagonal
    blocks scattered into one dense matrix."""
    hess = fit.geometry.hess
    blocks, q, _ = hess.shape
    dense = np.zeros((blocks, q, blocks, q))
    dense[np.arange(blocks), :, np.arange(blocks)] = hess
    return dense.reshape(blocks * q, blocks * q)


def reward_fit(data, basis):
    """The reward fit of ``data``'s rows and its nuisances."""
    nuis = estimate_nuisances(data, basis)
    return fit_smd(assemble_system(data, nuis), basis), nuis
