"""Invalid-instrument moment system for one decision point.

Given rows ``(y, s, u, act, iv)`` where ``act`` is the acting player's binary
action and ``iv`` the partner's previous action, this module fits the
nuisance conditional means, assembles the per-row feature functions
``rho1..rho10`` and stacks the moment components ``W = Phi * theta + alpha``
whose conditional mean given (s, u) vanishes at the true marginalized
coefficients.

The roles are a parameter, not duplicated code: alice systems pass her action
as ``act`` and the preceding bob action as ``iv``; bob systems swap them.

Component layout (per row):

* ``w1``  instrument-and-action residual product equation,
* ``w2``  instrument residual equation,
* ``w3``  plain mean equation, valid because residual blocks of well-formed
  games are centered over the private draw,
* ``w4``  (optional, ``intercept=True``) action-weighted mean equation, which
  additionally identifies a nonzero intercept; the backward recursion needs
  it because continuation values carry constants.

For a binary instrument the covariance-form identity is a ``(1 - f1)``
multiple of ``w1`` and therefore adds no information; it is checked in the
oracle property tests instead of being stacked here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateIV, InsufficientData
from .game import check_categorical
from .sieve import SeriesFit, SieveBasis, project_conditional_mean

F_CLIP = 1e-6
IV_VARIANCE_TOL = 1e-6


@dataclass
class MomentData:
    """One decision point's rows: outcome, cell, action and instrument."""

    y: np.ndarray
    s: np.ndarray
    u: np.ndarray
    act: np.ndarray
    iv: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self.y)
        if self.weights is None:
            self.weights = np.full(n, 1.0 / max(n, 1))
        for name in ("y", "s", "u", "act", "iv", "weights"):
            setattr(self, name, np.asarray(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass
class NuisanceSet:
    """Fitted conditional means entering the moment features.

    ``f1(s, u)`` is the instrument mean and ``f2(s, u, iv)`` the action mean
    given the instrument, one series fit per instrument arm.  Both are
    clipped into ``[F_CLIP, 1 - F_CLIP]``; ``clip_count`` counts the clipped
    rows.  ``residual_means`` holds the in-sample means of the instrument
    residual (``w4``) and the action residual (``w5``), both near zero by
    construction.
    """

    f1: SeriesFit
    f2: tuple
    clip_count: int
    residual_means: dict = field(default_factory=dict)

    def f1_at(self, s, u) -> np.ndarray:
        return np.clip(self.f1.predict(s, u), F_CLIP, 1.0 - F_CLIP)

    def f2_at(self, s, u, iv) -> np.ndarray:
        lo = self.f2[0].predict(s, u)
        hi = self.f2[1].predict(s, u)
        iv = np.asarray(iv)
        return np.clip(np.where(iv > 0.5, hi, lo), F_CLIP, 1.0 - F_CLIP)

    def clipped(self, s, u, iv) -> np.ndarray:
        """How many of ``f1`` and ``f2`` each row clips (0, 1 or 2)."""
        lo, hi = (f.predict(s, u) for f in self.f2)
        raw = np.stack([self.f1.predict(s, u), np.where(np.asarray(iv) > 0.5, hi, lo)])
        return (np.abs(raw - np.clip(raw, F_CLIP, 1 - F_CLIP)) > 0).sum(axis=0)


def _check_iv_variance(data: MomentData, basis: SieveBasis):
    cells = basis.cell_index(data.s, data.u)
    w = data.weights
    tot = np.bincount(cells, w)
    reached = tot > 0
    mean = np.bincount(cells, w * data.iv)
    mean[reached] /= tot[reached]
    var = np.bincount(cells, w * (data.iv - mean[cells]) ** 2)
    var[reached] /= tot[reached]
    low = np.flatnonzero(reached & (var < IV_VARIANCE_TOL))
    if low.size:
        raise DegenerateIV(
            f"instrument variance {var[low[0]]:.2e} in cell {int(low[0])} is below {IV_VARIANCE_TOL}"
        )


def estimate_nuisances(data: MomentData, basis: SieveBasis) -> NuisanceSet:
    """Fit the instrument mean ``f1`` and the action mean ``f2`` by series projection.

    ``f2`` is fit separately on the two instrument arms (saturated in the
    instrument).  Raises :class:`DegenerateIV` when the instrument does not
    vary inside some cell and :class:`InsufficientData` when an arm has fewer
    rows than basis functions, and :class:`~confgame.errors.MalformedDataset`
    for a row whose cell lies outside the basis grid.
    """
    check_categorical("s", data.s, basis.n_states)
    check_categorical("u", data.u, basis.n_u)
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
        arms.append(
            project_conditional_mean(
                data.s[m], data.u[m], data.act[m].astype(float), basis, w[m]
            )
        )
    nuis = NuisanceSet(f1=f1, f2=(arms[0], arms[1]), clip_count=0)
    nuis.clip_count = int(nuis.clipped(data.s, data.u, data.iv).sum())
    total = w.sum()
    nuis.residual_means = {
        "w4": float((w * (data.iv - nuis.f1_at(data.s, data.u))).sum() / total),
        "w5": float((w * (data.act - nuis.f2_at(data.s, data.u, data.iv))).sum() / total),
    }
    return nuis


@dataclass
class MomentSystem:
    """Per-row linear decomposition ``W_i = phi_i @ theta(s_i, u_i) + alpha_i``.

    ``phi`` has shape (n, m, p) and ``alpha`` (n, m) with m moment components
    and p unknowns per cell (3, or 4 when an intercept is estimated).
    ``outcome_scale`` is the weighted root mean square of the outcome; region
    radii are scaled by its square so that confidence regions transform
    exactly under a rescaling of all rewards.
    """

    phi: np.ndarray
    alpha: np.ndarray
    s: np.ndarray
    u: np.ndarray
    weights: np.ndarray
    n_states: int
    n_u: int
    intercept: bool
    outcome_scale: float = 1.0

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @property
    def p(self) -> int:
        return self.phi.shape[2]

    def evaluate(self, theta_by_row: np.ndarray) -> np.ndarray:
        """W rows at per-row coefficient vectors (n, p) -> (n, m)."""
        return np.einsum("nmp,np->nm", self.phi, theta_by_row) + self.alpha


def assemble_system(
    data: MomentData,
    nuis: NuisanceSet,
    intercept: bool = False,
    n_states: Optional[int] = None,
    n_u: Optional[int] = None,
) -> MomentSystem:
    """Stack the moment components for every row."""
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
    p = 4 if intercept else 3
    m = 4 if intercept else 3
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
        phi[:, 3, 0], phi[:, 3, 1], phi[:, 3, 2], phi[:, 3, 3] = (
            -act,
            -act * iv,
            -act * iv,
            -act,
        )
    total = data.weights.sum()
    scale = float(np.sqrt((data.weights * y**2).sum() / total)) if total > 0 else 0.0
    return MomentSystem(
        phi=phi,
        alpha=alpha,
        s=data.s,
        u=data.u,
        weights=data.weights,
        n_states=n_states if n_states is not None else int(data.s.max(initial=0)) + 1,
        n_u=n_u if n_u is not None else int(data.u.max(initial=0)) + 1,
        intercept=intercept,
        outcome_scale=scale,
    )
