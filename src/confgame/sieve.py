"""Basis construction and series least-squares projection.

Two basis families cover the desk-scale games: saturated cell indicators on
finite (state, private-info) grids, and tensor-product polynomials over real
state coordinates for the grid-state extension.  The same projection routine
backs both the conditional-mean estimator inside the minimum-distance loss
and the nuisance fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional

import numpy as np

from .errors import InsufficientData, RankDeficientBasis

RIDGE_LAMBDA = 1e-8
COND_LIMIT = 1e12


@dataclass(frozen=True)
class SieveBasis:
    """Evaluation map of ``k`` basis functions on (state, private-info)."""

    kind: str
    k: int
    n_states: int
    n_u: int
    state_values: Optional[np.ndarray] = None
    exponents: Optional[tuple] = None

    @property
    def n_cells(self) -> int:
        return self.n_states * self.n_u

    def cell_index(self, s, u) -> np.ndarray:
        return np.asarray(s) * self.n_u + np.asarray(u)

    def evaluate(self, s, u) -> np.ndarray:
        """(n, k) design matrix at integer-coded inputs."""
        s = np.atleast_1d(np.asarray(s))
        u = np.atleast_1d(np.asarray(u))
        if self.kind == "saturated":
            out = np.zeros((s.shape[0], self.k))
            out[np.arange(s.shape[0]), self.cell_index(s, u)] = 1.0
            return out
        coords = self.state_values[s]  # (n, d)
        monos = np.stack(
            [np.prod(coords ** np.asarray(e), axis=1) for e in self.exponents], axis=1
        )
        if self.n_u == 1:
            return monos
        onehot = np.zeros((s.shape[0], self.n_u))
        onehot[np.arange(s.shape[0]), u] = 1.0
        return (monos[:, :, None] * onehot[:, None, :]).reshape(s.shape[0], -1)

    @cached_property
    def grid(self) -> np.ndarray:
        """(cells, k) design at every cell, in cell order ``s * n_u + u``."""
        return self.evaluate(*np.divmod(np.arange(self.n_cells), self.n_u))

    def tables(self, coef: np.ndarray) -> np.ndarray:
        """Cell tables (..., cells, p) of sieve coefficients (..., k, p); the
        saturated grid design is the identity, and so is this map and the next."""
        return coef if self.kind == "saturated" else np.einsum("ck,...kp->...cp", self.grid, coef)

    def coefficient_weights(self, weights: np.ndarray) -> np.ndarray:
        """Weights (k, p) on sieve coefficients of the linear functional that
        weights the cell tables by ``weights`` (cells, p)."""
        return weights if self.kind == "saturated" else self.grid.T @ weights


def polynomial_count(degree: int, d: int) -> int:
    """Number of monomials of total degree at most ``degree`` in ``d`` vars."""
    from math import comb

    return comb(degree + d, d)


def k_schedule(n: int, c: float = 2.0) -> int:
    """Default sieve-size schedule for polynomial bases: ceil(c * n^(1/3))."""
    import math

    return max(int(math.ceil(c * n ** (1.0 / 3.0))), 1)


def build_basis(
    kind: str,
    n_states: int,
    n_u: int,
    k: Optional[int] = None,
    state_values: Optional[np.ndarray] = None,
) -> SieveBasis:
    """Construct a basis and verify linear independence on the full support.

    For ``saturated`` the size is always ``n_states * n_u``.  For
    ``tensor-polynomial`` the total degree is the largest one whose monomial
    count stays within ``k``; the Gram matrix on the declared grid must have
    full rank or :class:`RankDeficientBasis` is raised.
    """
    if kind == "saturated":
        basis = SieveBasis(kind=kind, k=n_states * n_u, n_states=n_states, n_u=n_u)
        return basis
    if kind != "tensor-polynomial":
        raise ValueError(f"unknown basis kind {kind!r}")
    if state_values is None:
        raise ValueError("tensor-polynomial basis needs state_values")
    state_values = np.asarray(state_values, dtype=float)
    d = state_values.shape[1]
    if k is None or k < 1:
        raise ValueError("tensor-polynomial basis needs k >= 1")
    degree = 0
    while polynomial_count(degree + 1, d) <= max(k // n_u, 1):
        degree += 1
    exponents = tuple(
        e for e in product(range(degree + 1), repeat=d) if sum(e) <= degree
    )
    exponents = tuple(sorted(exponents, key=lambda e: (sum(e), e)))
    basis = SieveBasis(
        kind=kind,
        k=len(exponents) * n_u,
        n_states=n_states,
        n_u=n_u,
        state_values=state_values,
        exponents=exponents,
    )
    q = basis.grid
    if np.linalg.matrix_rank(q.T @ q) < basis.k:
        raise RankDeficientBasis(
            f"{basis.k} basis functions are dependent on the {n_states}-point grid"
        )
    return basis


@dataclass
class SeriesFit:
    """Least-squares projection of one or more outcomes onto a basis."""

    basis: SieveBasis
    coef: np.ndarray  # (k, m)
    gram_cond: float
    resid_norm: float
    ridge_used: bool = False

    def predict(self, s, u) -> np.ndarray:
        if self.basis.kind == "saturated":  # the design is one-hot: pick each row's cell
            out = self.coef[self.basis.cell_index(np.atleast_1d(s), np.atleast_1d(u))]
        else:
            out = self.basis.evaluate(s, u) @ self.coef
        return out[:, 0] if self.coef.shape[1] == 1 else out


def project_conditional_mean(
    s,
    u,
    y,
    basis: SieveBasis,
    weights: Optional[np.ndarray] = None,
) -> SeriesFit:
    """Weighted series regression of ``y`` on the basis functions.

    With the saturated basis this reduces to per-cell weighted means.  A basis
    function without support in the rows (a zero Gram diagonal, such as an
    empty cell) gets coefficient 0 and leaves the others untouched.  An
    ill-conditioned Gram matrix among the supported functions (condition
    number above 1e12) falls back to a small ridge so degenerate supports
    degrade instead of crashing.
    """
    y = np.asarray(y, dtype=float)
    y2 = y[:, None] if y.ndim == 1 else y
    n = y2.shape[0]
    if n < basis.k:
        raise InsufficientData(f"{n} rows for {basis.k} basis functions")
    if weights is None:
        weights = np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    q = basis.evaluate(s, u)
    gram = (q * w[:, None]).T @ q / total
    rhs = (q * w[:, None]).T @ y2 / total
    sup = np.diag(gram) > 0
    gram = gram[np.ix_(sup, sup)]
    cond = float(np.linalg.cond(gram))
    ridge_used = False
    if not np.isfinite(cond) or cond > COND_LIMIT:
        gram = gram + RIDGE_LAMBDA * np.eye(gram.shape[0])
        ridge_used = True
        cond = float(np.linalg.cond(gram))
    coef = np.zeros((basis.k, y2.shape[1]))
    coef[sup] = np.linalg.solve(gram, rhs[sup])
    resid = y2 - q @ coef
    resid_norm = float(np.sqrt((w[:, None] * resid**2).sum() / total))
    return SeriesFit(
        basis=basis, coef=coef, gram_cond=cond, resid_norm=resid_norm, ridge_used=ridge_used
    )


def project_cell_means(weight: np.ndarray, y: np.ndarray, basis: SieveBasis) -> list:
    """Saturated-basis projections of outcomes on keys grouped by cell.

    ``weight`` (fits, cells, j) weighs each cell's ``j`` keys for every fit
    and ``y`` (cells, j) holds their outcomes.  Returns one
    :class:`SeriesFit` per fit, :func:`project_conditional_mean` of ``y`` on
    the keys in that order.  Its Gram matrix is diagonal, and so is every
    step of the solve: a cell sums its keys in key order, the Gram entry and
    the right-hand side are those sums of ``w`` and ``w * y`` over the total
    weight, and the coefficient is their quotient.  This gives
    ``project_conditional_mean``'s fields bit for bit when every product
    ``w * y`` is exact, as for binary outcomes.  The condition numbers of all
    the fits come from ``np.linalg.cond``, stacked over the fits whose
    supported cells are as many.
    """
    total = weight.reshape(len(weight), -1).sum(axis=1)[:, None]
    gram = weight.sum(axis=2) / total
    rhs = (weight * y).sum(axis=2) / total
    sup = gram > 0
    cond = _diagonal_cond(gram, sup)
    ridge = ~np.isfinite(cond) | (cond > COND_LIMIT)
    if ridge.any():
        gram[ridge] += RIDGE_LAMBDA * sup[ridge]
        cond[ridge] = _diagonal_cond(gram[ridge], sup[ridge])
    coef = np.divide(rhs, gram, out=np.zeros_like(rhs), where=sup)
    resid = (weight * (y - coef[:, :, None]) ** 2).reshape(len(weight), -1).sum(axis=1)
    resid_norm = np.sqrt(resid / total[:, 0])
    return [
        SeriesFit(basis, c[:, None], float(g), float(r), bool(b))
        for c, g, r, b in zip(coef, cond, resid_norm, ridge)
    ]


def _diagonal_cond(gram: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """``np.linalg.cond`` of each row's supported entries of ``gram`` as a
    diagonal matrix, stacked over the rows with as many of them; that of a
    1 x 1 matrix is 1."""
    cond, size = np.ones(len(gram)), sup.sum(axis=1)
    for m in set(size[size > 1].tolist()):
        rows = np.flatnonzero(size == m)
        diag = gram[rows][sup[rows]].reshape(-1, m)
        cond[rows] = np.linalg.cond(diag[:, :, None] * np.eye(m))
    return cond
