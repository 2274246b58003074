"""Invalid-instrument moment system for one decision point.

Given rows ``(y, s, u, act, iv)`` where ``act`` is the acting player's binary
action and ``iv`` the partner's previous action, this module fits the
nuisance conditional means, evaluates the feature functions ``rho1..rho10``
and stacks the moment components ``W = Phi * theta + alpha`` whose conditional
mean given (s, u) vanishes at the true marginalized coefficients.  Every
feature is a function of a row's (cell, instrument, action) key and the
outcome enters linearly, so the rows are read once into a count table over
those ``4 * cells`` keys, with a fold axis for cross-fitting and a next-cell
axis for the continuation outcomes of the OPE recursion (:class:`KeyTable`).
The row-level fit (:class:`MomentData`) and every stage of the recursion
(:class:`~confgame.ope.StageStats`) build it (:meth:`KeyTable.of_rows`), fit
the nuisances on it, evaluate the features once per key and take cell means
off it through the same methods: the key layout is known only here.  The
stages of a dataset stack their tables (:meth:`KeyTable.stack`) and run each
step once for all of them; on the saturated basis the nuisances of every
stage and fold are per-cell sums (:func:`~confgame.sieve.project_cell_means`).

The roles are a parameter, not duplicated code: alice systems pass her action
as ``act`` and the preceding bob action as ``iv``; bob systems swap them.

Component layout (per row), by unknowns (action, instrument, interaction,
intercept):

* ``w1``  instrument-and-action residual product equation,
* ``w2``  instrument residual equation,
* ``w3``  plain mean equation, valid because residual blocks of well-formed
  games are centered over the private draw,
* ``w4``  action-weighted mean equation, which additionally identifies a
  nonzero intercept; the backward recursion needs it because continuation
  values carry constants.

Reward residuals are centered, so the reward system is the intercept-free
top-left block: ``w1..w3`` in the first three unknowns (:func:`assemble_system`,
and the reward criterion of :class:`~confgame.ope.StageStats`).

For a binary instrument the covariance-form identity is a ``(1 - f1)``
multiple of ``w1`` and therefore adds no information; it is checked in the
oracle property tests instead of being stacked here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import BasisMismatch, DegenerateIV, InsufficientData, MalformedDataset
from .game import check_column, check_shapes, raise_first
from .sieve import SeriesFit, SieveBasis, project_cell_means, project_conditional_mean

F_CLIP = 1e-6
IV_VARIANCE_TOL = 1e-6


def key_grid(n_states: int, n_u: int) -> tuple:
    """(s, u, iv, act) of every key ``((s * n_u + u) * 2 + iv) * 2 + act``."""
    cell, iv, act = (a.ravel() for a in np.indices((n_states * n_u, 2, 2)))
    return np.divmod(cell, n_u) + (iv, act)


class KeyTable(NamedTuple):
    """Rows tallied by (fold, cell, instrument, action) key: each key's share
    ``weight`` (folds, cells, 2, 2, next cells) of the total weight, split by
    the row's next cell, its row ``count`` and weighted outcome sum ``wy``
    (folds, cells, 2, 2), and the outcome's weighted ``mean_square``, on the
    (``n_states``, ``n_u``) grid.  Rows without folds or next cells have one
    of each (:meth:`of_rows`).  The tables of several stages stack along a
    leading stage axis (:meth:`stack`), which every array and
    ``mean_square`` then has first; the methods below keep it."""

    weight: np.ndarray
    count: np.ndarray
    wy: np.ndarray
    mean_square: float
    n_states: int
    n_u: int

    @classmethod
    def of_rows(cls, n_states, n_u, s, u, iv, act, y, weights, fold=None, next_cell=None) -> "KeyTable":
        """The table of rows (s, u, iv, act, y) weighing ``weights``, with
        their ``fold`` (0 or 1) and ``next_cell`` (``s * n_u + u``) if given."""
        cells, folds = n_states * n_u, 1 if fold is None else 2
        key = (((s * n_u + u) * 2 + iv) * 2 + act).astype(np.int64, copy=False)  # as in :func:`key_grid`
        key = key if fold is None else key + 4 * cells * fold
        slot, nexts = (key, 1) if next_cell is None else (key * cells + next_cell, cells)
        w = weights / (total := weights.sum())
        keys, shape = 4 * folds * cells, (folds, cells, 2, 2)
        weight = np.bincount(slot, w, minlength=keys * nexts).reshape(shape + (nexts,))
        count = np.bincount(key, minlength=keys).reshape(shape)
        wy = np.bincount(key, w * y, minlength=keys).reshape(shape)
        mean_square = float((weights * y**2).sum() / total) if total > 0 else 0.0
        return cls(weight, count, wy, mean_square, n_states, n_u)

    @classmethod
    def stack(cls, tables: list) -> "KeyTable":
        """The tables of stages on one grid, stacked along a leading stage axis."""
        arrays = (np.stack([getattr(table, name) for table in tables]) for name in ("weight", "count", "wy"))
        mean_square = np.array([table.mean_square for table in tables])
        return cls(*arrays, mean_square, tables[0].n_states, tables[0].n_u)

    def fit_keys(self):
        """Weights and row counts (..., folds, keys) of the keys each fold's
        nuisances are fitted on: the other fold's, or all without folds."""
        lead = self.count.shape[:-3]
        return tuple(np.flip(a, axis=-4).reshape(lead + (-1,)) for a in (self.weight.sum(axis=-1), self.count))

    def nuisances(self, basis: SieveBasis, row_name: str = "rows") -> list:
        """One :class:`NuisanceSet` per fold (of every stage, stage by stage),
        for that fold's features: fitted on the other fold's keys, or on all
        of them without folds (:func:`fit_nuisances`)."""
        return fit_nuisances(*self.fit_keys(), basis, row_name)

    def features(self, nuisances: list):
        """Design (..., folds, cells, 2, 2, 4, 4) and outcome moments per unit
        outcome (..., folds, cells, 2, 2, 4) of every key, fold ``f``'s from
        its :class:`NuisanceSet` in ``nuisances`` (in :meth:`nuisances`'
        order), by :func:`key_features` on the clipped fits."""
        iv, act = key_grid(self.n_states, self.n_u)[2:]
        fitted = np.clip(np.stack([nuis.at_keys for nuis in nuisances]), F_CLIP, 1.0 - F_CLIP)
        phi, alpha = key_features(fitted[:, 0], fitted[:, 1], iv, act)
        return phi.reshape(self.wy.shape + (4, 4)), alpha.reshape(self.wy.shape + (4,))

    def cell_means(self, phi: np.ndarray, alpha: np.ndarray):
        """Cell masses (..., cells) and the weighted cell means (..., cells, m,
        p) of the key designs ``phi`` and (..., cells, m) of the outcome
        moments ``alpha * y``, for features per key as :meth:`features` gives
        them."""
        mass = self.weight.sum(axis=(-5, -3, -2, -1))
        nz = mass > 0
        phibar = np.einsum("...fcian,...fciamp->...cmp", self.weight, phi)
        phibar[nz] /= mass[nz][:, None, None]
        alphabar = np.einsum("...fcia,...fciam->...cm", self.wy, alpha)
        alphabar[nz] /= mass[nz][:, None]
        return mass, phibar, alphabar

    def next_cell_means(self, alpha: np.ndarray, mass: np.ndarray):
        """The weighted cell means (..., cells, m, next cells, 2) of the
        outcome moments ``alpha`` (per key, as :meth:`features` gives them)
        per unit continuation outcome of each (next cell, action), over the
        cell masses ``mass`` of :meth:`cell_means`, and each (next cell,
        action)'s share (..., next cells, 2) of the total weight."""
        means = np.einsum("...fcian,...fciam->...cmna", self.weight, alpha, order="C")
        nz = mass > 0
        means[nz] /= mass[nz][:, None, None, None]
        return means, self.weight.sum(axis=(-5, -4, -3)).swapaxes(-1, -2)


@dataclass
class MomentData:
    """One decision point's rows: outcome, cell, action and instrument.  Fits
    read the rows' :class:`KeyTable`, built on the first :meth:`table` call
    for a grid, so the arrays must not change in place after a fit."""

    y: np.ndarray
    s: np.ndarray
    u: np.ndarray
    act: np.ndarray
    iv: np.ndarray
    weights: Optional[np.ndarray] = None
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.y)
        if self.weights is None:
            self.weights = np.full(n, 1.0 / max(n, 1))
        for name in ("y", "s", "u", "act", "iv", "weights"):
            setattr(self, name, np.asarray(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def table(self, n_states: int, n_u: int) -> KeyTable:
        """The rows' :class:`KeyTable` on the (``n_states``, ``n_u``) grid;
        :class:`~confgame.errors.MalformedDataset`, naming the field and row,
        at the first row off the grid, not binary, not finite or of negative
        weight, and for weights that sum to 0; before those, naming the field
        and its shape, for a column that is not one-dimensional or whose
        length differs from the others' (:func:`~confgame.game.check_shapes`)."""
        if (n_states, n_u) not in self._tables:
            sizes = {"s": n_states, "u": n_u, "act": 2, "iv": 2, "y": None, "weights": None}
            check_shapes({name: getattr(self, name) for name in sizes})
            for name, size in sizes.items():
                check_column(name, getattr(self, name), size)
            raise_first("weights", self.weights, self.weights < 0, "negative")
            if self.n and not self.weights.sum() > 0:
                raise MalformedDataset("field weights: the weights sum to 0")
            rows = (self.s, self.u, self.iv, self.act, self.y, self.weights)
            self._tables[n_states, n_u] = KeyTable.of_rows(n_states, n_u, *rows)
        return self._tables[n_states, n_u]


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

    @cached_property
    def at_keys(self) -> np.ndarray:
        """``f1`` and ``f2`` before clipping (2, keys) at every key of their
        basis' grid (:func:`key_grid`), evaluated once for the clip count,
        the residual means and the features alike."""
        s, u, iv, _ = key_grid(self.f1.basis.n_states, self.f1.basis.n_u)
        return np.stack((self.f1.predict(s, u), self.f2_raw(s, u, iv)))

    def f1_at(self, s, u) -> np.ndarray:
        return np.clip(self.f1.predict(s, u), F_CLIP, 1.0 - F_CLIP)

    def f2_at(self, s, u, iv) -> np.ndarray:
        return np.clip(self.f2_raw(s, u, iv), F_CLIP, 1.0 - F_CLIP)

    def f2_raw(self, s, u, iv) -> np.ndarray:
        lo, hi = (f.predict(s, u) for f in self.f2)
        return np.where(np.asarray(iv) > 0.5, hi, lo)

    def features(self, s, u, iv, act):
        """Design ``phi`` (n, 4, 4) and outcome moments per unit outcome
        ``alpha`` (n, 4) of rows (s, u, iv, act) (:func:`key_features`)."""
        return key_features(self.f1_at(s, u), self.f2_at(s, u, iv), iv, act)


def key_features(f1, f2, iv, act):
    """Design ``phi`` (..., 4, 4) and outcome moments per unit outcome
    ``alpha`` (..., 4) of rows (iv, act) whose clipped nuisances are ``f1``
    and ``f2``, all broadcast together: equations ``w1..w4`` by unknowns
    (action, instrument, interaction, intercept).  An outcome ``y`` has
    outcome moments ``alpha * y``; the reward system is the top-left block
    ``phi[..., :3, :3]``, ``alpha[..., :3]``."""
    iv, act = np.asarray(iv, dtype=float), np.asarray(act, dtype=float)
    b_til = iv - f1
    a_til = act - f2
    rho2 = b_til * a_til * act
    shape = np.broadcast_shapes(b_til.shape, a_til.shape)
    phi, alpha = np.zeros(shape + (4, 4)), np.empty(shape + (4,))
    rows = (  # w1..w4 by action, instrument, interaction and intercept; None is zero
        (-rho2, None, -(iv * rho2), None),
        (-(b_til * act), -(iv * b_til), -(act * iv * b_til), None),
        (-act, -iv, -act * iv, -1.0),
        (-act, -act * iv, -act * iv, -act),
    )
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry is not None:
                phi[..., i, j] = entry
    for j, entry in enumerate((b_til * a_til, b_til, 1.0, act)):
        alpha[..., j] = entry
    return phi, alpha


def nuisance_guard(weight: np.ndarray, count: np.ndarray, basis: SieveBasis, row_name: str = "rows"):
    """Raise for the first fit :func:`fit_nuisances` refuses, in C order of
    the leading axes of ``weight`` and ``count`` (..., keys).  A fit is
    refused, in this order, with
    :class:`InsufficientData` for fewer rows than basis functions,
    :class:`DegenerateIV` for an instrument variance below
    ``IV_VARIANCE_TOL`` in some cell, then per arm :class:`DegenerateIV`
    without rows and :class:`InsufficientData` with fewer rows than basis
    functions, each naming the arm; the two row counts call the rows
    ``row_name`` (exact-law rows are the law's atoms)."""
    lead, k = count.shape[:-1], basis.k
    n = count.sum(axis=-1)
    arms = weight.reshape(lead + (-1, 2, 2)).sum(axis=-1)  # (..., cells, iv)
    lo, hi = arms[..., 0], arms[..., 1]
    total = lo + hi
    with np.errstate(divide="ignore", invalid="ignore"):  # a cell without weight has no variance
        mean = hi / total
        var = (lo * mean**2 + hi * (1.0 - mean) ** 2) / total
    low = (total > 0) & (var < IV_VARIANCE_TOL)
    arm_rows = count.reshape(lead + (-1, 2, 2)).sum(axis=(-3, -1))
    refused = (n < k) | low.any(axis=-1) | (arm_rows < k).any(axis=-1)
    if not refused.any():
        return
    at = np.unravel_index(np.argmax(refused), lead)
    if n[at] < k:
        raise InsufficientData(f"{n[at]} {row_name} for {k} basis functions")
    if low[at].any():
        cell = np.argmax(low[at])
        raise DegenerateIV(f"instrument variance {var[at][cell]:.2e} in cell {cell} is below {IV_VARIANCE_TOL}")
    b = np.argmax(arm_rows[at] < k)
    if arm_rows[at][b] == 0:
        raise DegenerateIV(f"no rows with instrument = {b}")
    raise InsufficientData(f"{arm_rows[at][b]} {row_name} with instrument = {b} for {k} basis functions")


def fit_nuisances(weight: np.ndarray, count: np.ndarray, basis: SieveBasis, row_name: str = "rows") -> list:
    """Fit the instrument mean ``f1`` and, per instrument arm, the action mean
    ``f2`` on the key grid of ``basis`` (:func:`key_grid`), whose keys weigh
    ``weight`` and hold ``count`` rows (..., keys): one :class:`NuisanceSet`
    per index of the leading axes, in C order.  :func:`nuisance_guard` raises
    first for a fit it refuses.  The saturated basis fits every set at once
    by per-cell sums (:func:`~confgame.sieve.project_cell_means`); any other
    basis projects each set's fits
    (:func:`~confgame.sieve.project_conditional_mean`)."""
    nuisance_guard(weight, count, basis, row_name)
    s, u, iv, act = key_grid(basis.n_states, basis.n_u)
    w, count = weight.reshape(-1, iv.size), count.reshape(-1, iv.size)
    fits = len(w)
    if basis.kind == "saturated":  # f1 on each cell's 4 keys; f2 per arm on its 2, the arms stacked
        f1 = project_cell_means(w.reshape(fits, -1, 4), iv.reshape(-1, 4).astype(float), basis)
        by_arm = w.reshape(fits, -1, 2, 2).transpose(2, 0, 1, 3).reshape(2 * fits, -1, 2)
        f2 = project_cell_means(by_arm, act[:2].astype(float), basis)
        f2 = (f2[:fits], f2[fits:])
    else:
        f1 = [project_conditional_mean(s, u, iv.astype(float), basis, wf) for wf in w]
        f2 = [
            [project_conditional_mean(s[m], u[m], act[m].astype(float), basis, wf[m]) for wf in w]
            for m in (iv == 0, iv == 1)
        ]
    sets = [NuisanceSet(f1=a, f2=(lo, hi), clip_count=0) for a, lo, hi in zip(f1, *f2)]
    raw = np.stack([nuis.at_keys for nuis in sets])
    fitted = np.clip(raw, F_CLIP, 1.0 - F_CLIP)
    clip_count = ((raw != fitted).sum(axis=1) * count).sum(axis=1)
    total = w.sum(axis=1)
    w4 = (w * (iv - fitted[:, 0])).sum(axis=1) / total
    w5 = (w * (act - fitted[:, 1])).sum(axis=1) / total
    for nuis, clipped, r4, r5 in zip(sets, clip_count, w4, w5):
        nuis.clip_count, nuis.residual_means = int(clipped), {"w4": float(r4), "w5": float(r5)}
    return sets


def estimate_nuisances(data: MomentData, basis: SieveBasis) -> NuisanceSet:
    """:func:`fit_nuisances` on the rows' :class:`KeyTable` over the grid of
    ``basis`` (:meth:`MomentData.table` checks the rows)."""
    return data.table(basis.n_states, basis.n_u).nuisances(basis)[0]


@dataclass
class MomentSystem:
    """The reward system ``W = phi @ theta(s, u) + alpha * y`` of a decision
    point's rows, held as their :class:`KeyTable` and each key's design
    ``key_phi`` and outcome moments per unit outcome ``key_alpha``: the
    top-left block of :meth:`KeyTable.features`.  A fit reads only their
    cell means (:meth:`cell_means`).  ``outcome_scale`` is the weighted root
    mean square of the outcome; region radii are scaled by its square so that
    confidence regions transform exactly under a rescaling of all rewards.
    """

    table: KeyTable
    key_phi: np.ndarray
    key_alpha: np.ndarray
    outcome_scale: float = 1.0

    @property
    def n(self) -> int:
        """The number of rows the table holds."""
        return int(self.table.count.sum())

    def cell_means(self):
        """Cell masses (cells,), summing to 1, and weighted cell means of the
        design (cells, m, p) and of the outcome moments (cells, m)."""
        mass, phibar, alphabar = self.table.cell_means(self.key_phi, self.key_alpha)
        return mass / mass.sum(), phibar, alphabar


def assemble_system(
    data: MomentData,
    nuis: NuisanceSet,
    n_states: Optional[int] = None,
    n_u: Optional[int] = None,
) -> MomentSystem:
    """The reward system of ``data``'s rows on the grid of ``nuis``' basis
    (:meth:`MomentData.table` checks the rows): the top-left three equations
    and unknowns of :meth:`KeyTable.features`.  :class:`BasisMismatch` when
    ``n_states`` or ``n_u`` is given and differs from that grid."""
    grid = nuis.f1.basis
    have = (grid.n_states, grid.n_u)
    want = (have[0] if n_states is None else n_states, have[1] if n_u is None else n_u)
    if want != have:
        raise BasisMismatch(f"nuisance basis has (n_states, n_u) = {have}; the system asks for {want}")
    table = data.table(*have)
    phi, alpha = table.features([nuis])
    return MomentSystem(table, phi[..., :3, :3], alpha[..., :3], float(np.sqrt(table.mean_square)))
