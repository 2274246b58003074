"""Sieve minimum-distance estimation and confidence regions.

The moment stack is linear in the unknown coefficient functions, so after
projecting each component onto the instrument basis the empirical criterion
is a positive-semidefinite quadratic in the sieve coefficients.  Fitting
solves its normal equations (minimum-norm when singular); a confidence region
is the sublevel set of the criterion gap, which is exactly a quadratic form
around the fit and therefore an ellipsoid that supports closed-form linear
minimization.  :class:`BlockGeometry` is that ellipsoid and its guarded
least-squares solve, written once for a stack of Hessian blocks: one block per
cell for the saturated basis and a single block, the Gram-whitened projected
design, for any other basis.  A region is a (center, radius) pair on it, and
fits, off-policy evaluation, the pessimistic learner and its coverage check
all use it; the region of one fit is ``fit.geometry`` around ``fit.coef`` in
its blocks, ``fit.coef.reshape(fit.geometry.hess.shape[:2])``.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BasisMismatch, IllPosedFit
from .game import is_integer
from .moments import MomentSystem
from .sieve import SieveBasis

HESSIAN_TOL = 1e-10
PINV_RCOND = 1e-12


@dataclass
class SmdFit:
    """Fitted sieve coefficients of one moment system: a center on the
    criterion ``geometry`` it was fitted on (shared, not copied).

    ``coef`` has shape (k, p): one column per unknown (action effect,
    instrument effect, interaction, and optionally the intercept).  In the
    geometry's (blocks, q) layout the criterion is ``loss + geometry.loss_gap(coef', coef)``.
    """

    basis: SieveBasis
    coef: np.ndarray
    loss: float
    geometry: BlockGeometry
    outcome_scale: float

    def coef_table(self) -> np.ndarray:
        """(n_states, n_u, p) table of fitted values (saturated basis)."""
        if self.basis.kind != "saturated":
            raise BasisMismatch("coef_table is only defined for the saturated basis")
        return self.coef.reshape(self.basis.n_states, self.basis.n_u, -1)


class BlockGeometry:
    """Criterion-gap ellipsoids of a block-diagonal criterion Hessian.

    ``hess`` (blocks, q, q) stacks the symmetric positive-semidefinite
    diagonal blocks.  Moving coefficients (blocks, q) away from a center by
    ``d`` raises the criterion by exactly ``0.5 * sum_b d_b^T hess_b d_b``
    (:meth:`loss_gap`), so a confidence region ``{coef : gap <= eta}`` is an
    ellipsoid whose axis members (:meth:`members`) and minimum of a linear
    functional (:meth:`min_linear`) are closed-form.  Centers, radii and
    weights may carry leading (candidate, chain, ...) axes.  ``hpinv`` holds the blocks'
    pseudo-inverses, ``hdiag`` the flattened diagonal and ``order`` the axes
    with positive curvature, widest first.  Geometries of a least-squares
    criterion ``sum_b mass[b] * |design[b] @ coef[b] + alphabar[b]|^2`` also
    hold its ``mass`` and ``design``, which give the fit (:meth:`solve`), and
    ``lift`` from cell to block moments (:meth:`moments`; ``None`` for cells).
    """

    def __init__(self, hess: np.ndarray, mass=None, design=None, lift=None):
        self.hess = hess
        self.mass, self.design, self.lift = mass, design, lift
        if design is not None:
            reached = mass > 0
            self.pinv = _stack_pinv(design, reached)
            # only a singular design can leave a non-zero gradient at the solve
            sval = np.linalg.svd(design[reached], compute_uv=False)
            self.singular = np.flatnonzero(reached)[sval.min(axis=1, initial=np.inf) < HESSIAN_TOL]

    # the region operators are built on first use: a fit needs only the solve

    @cached_property
    def hpinv(self) -> np.ndarray:
        return _stack_pinv(self.hess, self.hess.any(axis=(1, 2)))

    @cached_property
    def hdiag(self) -> np.ndarray:
        return np.diagonal(self.hess, axis1=1, axis2=2).ravel()

    @cached_property
    def order(self) -> np.ndarray:
        curved = self.hdiag > HESSIAN_TOL
        # the widest axis is the one with the smallest curvature
        return np.argsort(np.where(curved, self.hdiag, np.inf))[: int(curved.sum())]

    @classmethod
    def of_cells(cls, mass: np.ndarray, phibar: np.ndarray, lift=None) -> "BlockGeometry":
        """Blocks of ``sum_c mass[c] * |phibar[c] @ coef[c] + alphabar[c]|^2``."""
        nz = mass > 0
        hess = np.zeros(phibar.shape[:1] + phibar.shape[2:] * 2)
        phi = phibar[nz]
        hess[nz] = 2.0 * mass[nz][:, None, None] * np.transpose(phi, (0, 2, 1)) @ phi
        return cls(hess, mass, phibar, lift)

    @classmethod
    def of_basis(cls, mass: np.ndarray, phibar: np.ndarray, basis: SieveBasis) -> "BlockGeometry":
        """The projected moment criterion over the sieve space, from cell
        masses (cells,) and design means ``phibar`` (cells, m, p).

        The saturated basis decouples into per-cell blocks.  Any other basis is
        one block, the least-squares problem of ``G^{+1/2} A``: ``G`` is the
        basis' mass-weighted Gram matrix on the grid and ``A`` the design
        projected onto it (rows (m, k), columns (k, p)).
        """
        if basis.kind == "saturated":
            return cls.of_cells(mass, phibar)
        q = basis.grid
        gram = (q * mass[:, None]).T @ q
        lam, vec = np.linalg.eigh(gram)
        keep = lam > PINV_RCOND * lam.max(initial=0.0)
        half = (vec[:, keep] / np.sqrt(lam[keep])) @ vec[:, keep].T
        lift = half @ (q * mass[:, None]).T
        design = _lift(lift, phibar[:, :, None, :] * q[:, None, :, None])
        return cls.of_cells(np.ones(1), design.reshape(1, design.shape[1], -1), lift)

    @classmethod
    def of_stages(cls, masses: list, phibars: list, basis: SieveBasis) -> list:
        """:meth:`of_basis` of every stage's cell masses and design means.  The
        saturated blocks of all stages are built as one stack: each stage's
        geometry holds its own run of the blocks' Hessians, pseudo-inverses and
        singular flags, and the stage's own ``mass`` and ``phibar``."""
        if basis.kind != "saturated":
            return [cls.of_basis(mass, phibar, basis) for mass, phibar in zip(masses, phibars)]
        whole = cls.of_cells(np.concatenate(masses), np.concatenate(phibars))
        parts, lo = [], 0
        for mass, phibar in zip(masses, phibars):
            hi = lo + len(mass)
            part = copy.copy(whole)
            part.hess, part.pinv = whole.hess[lo:hi].copy(), whole.pinv[lo:hi].copy()
            part.mass, part.design = mass, phibar
            part.singular = whole.singular[(lo <= whole.singular) & (whole.singular < hi)] - lo
            parts.append(part)
            lo = hi
        return parts

    def moments(self, x: np.ndarray) -> np.ndarray:
        """Block moment means (blocks, m', ...) of cell moment means (cells, m, ...)."""
        return x if self.lift is None else _lift(self.lift, x)

    def solve(self, alphabar: np.ndarray) -> np.ndarray:
        """Least-squares block coefficients (..., blocks, q) of block moment
        means ``alphabar`` (..., blocks, m): the centers of the regions.

        Raises :class:`IllPosedFit` when a singular block design meets a
        gradient that does not vanish, so that no coefficient minimizes it.
        """
        coef = np.einsum("cpm,...cm->...cp", self.pinv, alphabar)
        np.negative(coef, out=coef)
        bad = self.singular
        if bad.size:
            design = self.design[bad]
            resid = np.einsum("cmp,...cp->...cm", design, coef[..., bad, :]) + alphabar[..., bad, :]
            grad = 2.0 * self.mass[bad, None] * np.einsum("cmp,...cm->...cp", design, resid)
            steep = np.linalg.norm(grad, axis=-1) > 1e-8
            if steep.any():
                where = "" if self.lift is not None else f"cell {bad[np.nonzero(steep)[-1].min()]}: "
                raise IllPosedFit(f"{where}singular design with non-vanishing gradient")
        return coef

    def loss_gap(self, coef: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Criterion increase from ``center`` to ``coef``."""
        d = coef - center
        return 0.5 * np.einsum("...cp,cpq,...cq->...", d, self.hess, d)

    def members(self, center: np.ndarray, eta, index) -> np.ndarray:
        """Member ``index`` of each region ``(center, eta)``.

        Member 0 is the center; members ``2i + 1`` and ``2i + 2`` are the two
        ends of the ``i``-th widest axis, wrapping around after the last one.
        A region with ``eta <= 0`` or no curved axis has only its center.
        ``center`` (..., blocks, q), ``eta`` and ``index`` broadcast over the
        leading axes.
        """
        eta, index = np.asarray(eta, dtype=float), np.asarray(index)
        lead = np.broadcast_shapes(center.shape[:-2], eta.shape, index.shape)
        out = np.array(np.broadcast_to(center, lead + center.shape[-2:]))
        flat = out.reshape(-1, self.hdiag.size)
        eta, index = np.broadcast_to(eta, lead).ravel(), np.broadcast_to(index, lead).ravel()
        moved = np.flatnonzero((index > 0) & (eta > 0))
        if self.order.size and moved.size:
            step = index[moved] - 1
            axis = self.order[(step // 2) % self.order.size]
            sign = np.where(step % 2 == 0, 1.0, -1.0)
            flat[moved, axis] += sign * np.sqrt(2.0 * eta[moved] / self.hdiag[axis])
        return out

    def flat_part(self, weight: np.ndarray) -> np.ndarray:
        """The part (..., blocks, q) of ``weight`` (..., blocks, q) on directions
        outside the Hessian's range, zero where it is within ``1e-8`` (times the
        largest weight, at least 1) of vanishing.  These directions are flat in
        the criterion and a region contains a line along them even at
        ``eta = 0``, so a linear functional with a non-zero flat part is
        unbounded below over it (the data do not pin the functional down)."""
        return self._flat_part(weight, np.einsum("cpq,...cq->...cp", self.hpinv, weight))

    def _flat_part(self, weight: np.ndarray, step: np.ndarray) -> np.ndarray:
        """:meth:`flat_part` of ``weight`` given its ``step``, ``hpinv · weight``."""
        flat = weight - np.einsum("cpq,...cq->...cp", self.hess, step)
        size = np.maximum(np.abs(weight).max(axis=(-2, -1), initial=0.0), 1.0)
        loads = np.abs(flat).max(axis=(-2, -1), initial=0.0) > 1e-8 * size
        return flat * loads[..., None, None]

    def min_linear(self, weight: np.ndarray, center: np.ndarray, eta):
        """Exact minimum of ``<weight, coef>`` over each region, and its argmin.

        ``weight`` (..., blocks, q), ``center`` (..., blocks, q) and ``eta``
        broadcast over the leading axes; returns the values (...) and argmins
        (..., blocks, q).  A region whose weight has a non-zero
        :meth:`flat_part` has value ``-inf``.
        """
        step = np.einsum("cpq,...cq->...cp", self.hpinv, weight)
        quad = np.einsum("...cp,cpq,...cq->...", weight, self.hpinv, weight)
        eta = np.asarray(eta, dtype=float)
        value = np.einsum("...cp,...cp->...", center, weight) - np.sqrt(np.maximum(2.0 * eta * quad, 0.0))
        value = np.where(self._flat_part(weight, step).any(axis=(-2, -1)), -np.inf, value)
        reach = np.sqrt(np.maximum(2.0 * eta, 0.0) / np.where(quad > 0, quad, np.inf))
        return value, center - reach[..., None, None] * step


def _lift(lift: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``lift`` (k, cells) on the cells of ``x`` (cells, m, ...) -> (1, m * k, ...)."""
    y = np.einsum("kc,cm...->mk...", lift, x)
    return y.reshape((1, -1) + y.shape[2:])


def _stack_pinv(mats: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Pseudo-inverses of ``mats[keep]``, zero elsewhere."""
    out = np.zeros(mats.shape[:1] + mats.shape[:0:-1])
    if keep.any():
        out[keep] = np.linalg.pinv(mats[keep], rcond=PINV_RCOND)
    return out


def fit_smd(system: MomentSystem, basis: SieveBasis) -> SmdFit:
    """Minimize the projected moment criterion of a row-level system: the
    criterion depends on the rows only through their cell averages, read off
    the system's count table, so this is :func:`fit_cell_moments` at their
    solve.  :class:`BasisMismatch` when ``basis`` is not built on the table's grid."""
    have, grid = (basis.n_states, basis.n_u), (system.table.n_states, system.table.n_u)
    if have != grid:
        raise BasisMismatch(f"basis has (n_states, n_u) = {have}; the system has {grid}")
    mass, phibar, alphabar = system.cell_means()
    geometry = BlockGeometry.of_basis(mass, phibar, basis)
    alphabar = geometry.moments(alphabar)
    return fit_cell_moments(geometry, geometry.solve(alphabar), alphabar, basis, system.outcome_scale)


def fit_cell_moments(
    geometry: BlockGeometry,
    coef: np.ndarray,
    alphabar: np.ndarray,
    basis: SieveBasis,
    outcome_scale: float,
) -> SmdFit:
    """Fit record of criterion ``geometry`` (:meth:`BlockGeometry.of_basis`) at
    block moment means ``alphabar`` (blocks, m), centered at ``coef`` (blocks,
    q), which its guarded :meth:`~BlockGeometry.solve` gave; solves nothing."""
    resid = np.einsum("cmp,cp->cm", geometry.design, coef) + alphabar
    loss = float(geometry.mass @ (resid**2).sum(axis=1))
    return SmdFit(basis, coef.reshape(basis.k, -1), loss, geometry, outcome_scale)


def check_schedule(alpha: float, varsigma: float, d: int, c_eta: float, n: int = 1) -> None:
    """The schedule's one check: ``ValueError`` naming the first parameter of
    :func:`eta_schedule` to break a rule, the rules taken in turn: a number,
    not a ``bool``; in range; finite; ``d`` and ``n`` integral."""
    named = (("alpha", alpha), ("varsigma", varsigma), ("d", d), ("c_eta", c_eta), ("n", n))
    for name, value in named:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            what = "an integer" if name in ("d", "n") else "a real number"
            raise ValueError(f"{name} must be {what}, got {value}")
    for name, value, ok, need in (
        ("alpha", alpha, alpha > 0, "> 0"),
        ("varsigma", varsigma, varsigma >= 0, ">= 0"),
        ("d", d, d >= 1, ">= 1"),
        ("c_eta", c_eta, c_eta >= 0, ">= 0"),
        ("n", n, n >= 1, ">= 1"),
    ):
        if not ok:
            raise ValueError(f"{name} must be {need}, got {value}")
    for name, value in named[:4]:
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, value in (("d", d), ("n", n)):
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value}")


def eta_schedule(
    n: int,
    alpha: float = 2.0,
    varsigma: float = 0.0,
    d: int = 1,
    c_eta: float = 2.0,
    horizon_weight: float = 1.0,
) -> float:
    """Region radius ``c_eta * horizon_weight * n**(-2a / (2a + 2v + d))``."""
    check_schedule(alpha, varsigma, d, c_eta, n)
    rate = 2.0 * alpha / (2.0 * alpha + 2.0 * varsigma + d)
    return c_eta * horizon_weight * float(n) ** (-rate)


def horizon_weight(horizon: int, step: float) -> float:
    """Radius multiplier of the recursion blocks at step ``h``: (H - h)^4 floored
    at 1 (the floor reconciles the single-step schedule, whose radius does not
    vanish, with the multi-step one).  Reward blocks take weight 1."""
    return max(float(horizon - step) ** 4, 1.0)
