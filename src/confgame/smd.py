"""Sieve minimum-distance estimation and confidence regions.

The moment stack is linear in the unknown coefficient functions, so after
projecting each component onto the instrument basis the empirical criterion
is a positive-semidefinite quadratic in the sieve coefficients.  Fitting
solves its normal equations (minimum-norm when singular); a confidence region
is the sublevel set of the criterion gap, which is exactly a quadratic form
around the fit and therefore an ellipsoid that supports closed-form linear
minimization.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import BasisMismatch, IllPosedFit, UnboundedBelow
from .moments import MomentSystem
from .sieve import SieveBasis

HESSIAN_TOL = 1e-10


@dataclass
class SmdFit:
    """Fitted sieve coefficients of one moment system.

    ``coef`` has shape (k, p): one column per unknown (action effect,
    instrument effect, interaction, and optionally the intercept).  The
    criterion is exactly ``loss + 0.5 * d^T hessian d`` for a coefficient
    perturbation ``d = (coef' - coef).ravel()``.
    """

    basis: SieveBasis
    coef: np.ndarray
    loss: float
    hessian: np.ndarray
    outcome_scale: float
    gram_cond: float = 1.0

    @property
    def p(self) -> int:
        return self.coef.shape[1]

    def predict(self, s, u) -> np.ndarray:
        return self.basis.evaluate(s, u) @ self.coef

    def coef_table(self) -> np.ndarray:
        """(n_states, n_u, p) table of fitted values (saturated basis)."""
        if self.basis.kind != "saturated":
            raise BasisMismatch("coef_table is only defined for the saturated basis")
        return self.coef.reshape(self.basis.n_states, self.basis.n_u, self.p)


def _cell_averages(system: MomentSystem, basis: SieveBasis):
    cells = basis.cell_index(system.s, system.u)
    k = basis.n_cells
    total = system.weights.sum()
    mass = np.zeros(k)
    np.add.at(mass, cells, system.weights)
    mass /= total
    m, p = system.phi.shape[1], system.phi.shape[2]
    phibar = np.zeros((k, m, p))
    alphabar = np.zeros((k, m))
    np.add.at(phibar, cells, system.phi * system.weights[:, None, None])
    np.add.at(alphabar, cells, system.alpha * system.weights[:, None])
    nz = mass > 0
    phibar[nz] /= (mass[nz] * total)[:, None, None]
    alphabar[nz] /= (mass[nz] * total)[:, None]
    return mass, phibar, alphabar


def fit_smd(system: MomentSystem, basis: SieveBasis) -> SmdFit:
    """Minimize the projected moment criterion of a row-level system.

    The criterion depends on the rows only through their per-cell averages,
    so this is :func:`fit_cell_moments` on those averages.
    """
    mass, phibar, alphabar = _cell_averages(system, basis)
    return fit_cell_moments(mass, phibar, alphabar, basis, system.outcome_scale)


def fit_cell_moments(
    mass: np.ndarray,
    phibar: np.ndarray,
    alphabar: np.ndarray,
    basis: SieveBasis,
    outcome_scale: float,
) -> SmdFit:
    """Minimize the projected moment criterion over the sieve space.

    ``mass`` (cells,) holds each cell's share of the weight, ``phibar``
    (cells, m, p) and ``alphabar`` (cells, m) the per-cell means of the
    design and the outcome moments.  With the saturated basis the problem
    decouples into independent per-cell least squares; general bases go
    through the dense quadratic form.  Raises :class:`IllPosedFit` when the
    Hessian is singular and the gradient does not vanish on its null space.
    """
    p = phibar.shape[2]
    if basis.kind == "saturated":
        k = basis.n_cells
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
            block = 2.0 * mass[c] * phibar[c].T @ phibar[c]
            hessian[c * p : (c + 1) * p, c * p : (c + 1) * p] = block
            grad = 2.0 * mass[c] * phibar[c].T @ resid
            if np.linalg.norm(grad) > 1e-8:
                svals = np.linalg.svd(phibar[c], compute_uv=False)
                if svals.min() < HESSIAN_TOL:
                    raise IllPosedFit(
                        f"cell {c}: singular design with non-vanishing gradient"
                    )
        return SmdFit(
            basis=basis,
            coef=coef,
            loss=loss,
            hessian=hessian,
            outcome_scale=outcome_scale,
        )

    grid_s, grid_u = np.divmod(np.arange(basis.n_cells), basis.n_u)
    q = basis.evaluate(grid_s, grid_u)
    gram = (q * mass[:, None]).T @ q
    gram_cond = float(np.linalg.cond(gram))
    ginv = np.linalg.pinv(gram, rcond=1e-12)
    a_t = np.einsum("c,ck,cmp,cl->mklp", mass, q, phibar, q)
    b_t = np.einsum("c,ck,cm->mk", mass, q, alphabar)
    k = basis.k
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
    return SmdFit(
        basis=basis,
        coef=sol.reshape(k, p),
        loss=max(loss, 0.0),
        hessian=hess,
        outcome_scale=outcome_scale,
        gram_cond=gram_cond,
    )


def eta_schedule(
    n: int,
    alpha: float = 2.0,
    varsigma: float = 0.0,
    d: int = 1,
    c_eta: float = 2.0,
    horizon_weight: float = 1.0,
) -> float:
    """Region radius ``c_eta * horizon_weight * n**(-2a / (2a + 2v + d))``."""
    if alpha <= 0 or varsigma < 0 or d < 1 or n < 1:
        raise ValueError("need alpha > 0, varsigma >= 0, d >= 1, n >= 1")
    rate = 2.0 * alpha / (2.0 * alpha + 2.0 * varsigma + d)
    return c_eta * horizon_weight * float(n) ** (-rate)


def horizon_weight(horizon: int, step: float, block: str) -> float:
    """Radius multiplier: 1 for reward blocks, (H - h)^4 floored at 1 for
    recursion blocks (the floor reconciles the single-step schedule, whose
    radius does not vanish, with the multi-step one)."""
    if block == "reward":
        return 1.0
    return max(float(horizon - step) ** 4, 1.0)


@dataclass
class ConfidenceRegion:
    """Sublevel set ``{coef : criterion(coef) - criterion(center) <= eta}``."""

    center: SmdFit
    eta: float

    def _check(self, coef: np.ndarray) -> np.ndarray:
        coef = np.asarray(coef, dtype=float)
        if coef.shape != self.center.coef.shape:
            raise BasisMismatch(
                f"coefficients of shape {coef.shape} do not match {self.center.coef.shape}"
            )
        return coef

    def loss_gap(self, coef: np.ndarray) -> float:
        delta = (self._check(coef) - self.center.coef).ravel()
        return 0.5 * float(delta @ self.center.hessian @ delta)

    def contains(self, coef: np.ndarray) -> bool:
        return self.loss_gap(coef) <= self.eta + 1e-12

    def min_linear(self, weights: np.ndarray) -> tuple[float, np.ndarray]:
        """Exact minimum of ``<weights, coef>`` over the region.

        Directions outside the Hessian's range are flat in the criterion, so
        nonzero objective weight on them makes the problem unbounded below
        (raised as :class:`UnboundedBelow`, signalling that the data do not
        pin down the queried functional).
        """
        w = self._check(weights).ravel()
        h = self.center.hessian
        vals, vecs = np.linalg.eigh(h)
        scale = max(vals.max(initial=0.0), 1.0)
        keep = vals > HESSIAN_TOL * scale
        w_spec = vecs.T @ w
        null_part = np.linalg.norm(w_spec[~keep])
        if null_part > 1e-10 and self.eta > 0:
            direction = vecs[:, ~keep] @ w_spec[~keep]
            raise UnboundedBelow(
                "objective has weight on a flat direction of the criterion",
                direction=direction.reshape(self.center.coef.shape),
            )
        center_val = float(w @ self.center.coef.ravel())
        quad = float((w_spec[keep] ** 2 / vals[keep]).sum())
        if quad <= 0 or self.eta <= 0:
            return center_val, self.center.coef.copy()
        step = np.sqrt(2.0 * self.eta / quad)
        h_pinv_w = vecs[:, keep] @ (w_spec[keep] / vals[keep])
        argmin = self.center.coef.ravel() - step * h_pinv_w
        value = center_val - np.sqrt(2.0 * self.eta * quad)
        return value, argmin.reshape(self.center.coef.shape)

    def members(self, k_max: int = 16) -> list[np.ndarray]:
        """Center plus axis-aligned boundary points, widest axes first."""
        out = [self.center.coef.copy()]
        if self.eta <= 0:
            return out
        diag = np.diag(self.center.hessian)
        order = [i for i in np.argsort(-np.where(diag > HESSIAN_TOL, 1.0 / diag, 0.0)) if diag[i] > HESSIAN_TOL]
        flat = self.center.coef.ravel()
        for i in order:
            radius = np.sqrt(2.0 * self.eta / diag[i])
            for sign in (1.0, -1.0):
                if len(out) >= k_max:
                    return out
                point = flat.copy()
                point[i] += sign * radius
                out.append(point.reshape(self.center.coef.shape))
        return out


FIT_SUMMARY_HEADER = "n,seed,err_action,err_instrument,err_interaction,loss,eta,covered"


def fit_summary_row(
    n: int, seed: int, fit: SmdFit, truth: np.ndarray, eta: float, covered: bool
) -> str:
    """One CSV row summarizing a fit against known truth."""
    err = np.abs(fit.coef[:, :3] - np.asarray(truth)[:, :3]).max(axis=0)
    return (
        f"{n},{seed},{err[0]:.17g},{err[1]:.17g},{err[2]:.17g},"
        f"{fit.loss:.17g},{eta:.17g},{int(covered)}"
    )
