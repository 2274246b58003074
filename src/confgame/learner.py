"""Pessimistic policy learning over nested confidence regions.

For each candidate pair the backward recursion is rerun with every fitted
block replaced by a confidence region (a criterion-gap ellipsoid).  The
nested union over upstream regions is approximated by propagating a fixed
number of member selections ("chains"): member 0 is always the center, the
rest are axis-aligned boundary points, widest axes first, wrapping around
after the last axis, so the all-center chain reproduces the plug-in estimate
and the pessimistic value can never exceed it.  At the first stage the value
functional is linear in the remaining block coefficients, so the inner
minimum over each final region is closed-form and the pessimistic value is
the minimum over chains of a sum of exact ellipsoid minima.  A value weight
on a flat direction of some region makes the value unbounded below (``-inf``).

Candidates are scored by batched recursions per side:
:func:`~confgame.ope.chain_recursion`, the same backward recursion that
off-policy evaluation runs with a class of one and the all-center chain
alone, run on the stacked policy tables of up to :data:`CHUNK` candidates
with every array carrying leading (candidate, chain) axes, and fitting each
stage's continuations once per group of candidates that play alike after
it.  A run of the
first chains alone reproduces the first columns of the full run, and the
pessimistic value is a minimum over chains, so it never exceeds the
all-center chain's sum of exact minima.  A class of more than :data:`PRUNE`
candidates is first scored by that 1-chain bound, the :data:`FIRST` best by
bound are scored with all chains, and the member chains then score only the
candidates whose bound can still reach the best pessimistic value
(:func:`learn_policy_pair`); a smaller class is not pruned.  It runs over the
per-stage statistics of :class:`~confgame.ope.StageStats`, which are
policy-independent (design moments) or enter only through small contraction
tables (outcome moments), so a scan costs a handful of numpy calls per stage
for the whole batch instead of passes over the rows or Python calls per
candidate.  Each stage's :class:`~confgame.smd.BlockGeometry`, for any sieve
basis, gives the region centers by its guarded solve, the members of every
(candidate, chain) in one call and the exact linear minimum, per candidate
weight, that scores the first stage.  The scan keeps, per region, what one
candidate's full record needs along its minimizing chain, and the learned
pair's record (:meth:`ClassScores.record`) comes from the scan that chose
it, so no candidate is scored twice with all chains.  Region radii are the
rate schedule times the squared root mean square of the block outcome,
which makes the whole construction exactly equivariant under a positive
rescaling of all rewards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BasisMismatch, EmptyClass
from .game import GameSpec, PolicyPair, PolicyStack, check_spec_grid, is_integer
from .ope import (
    as_source,
    block_slots,
    chain_recursion,
    continuation_centers,
    stage_roles,
    stage_statistics,
    value_weight_tables,
)
from .sieve import SieveBasis
from .smd import check_schedule, eta_schedule, horizon_weight
from . import oracle as oracle_mod


@dataclass(frozen=True)
class EtaConfig:
    """Region-size schedule parameters and the chain budget, with the package's
    defaults.  :func:`~confgame.smd.check_schedule` checks the schedule, then
    ``k_members`` must be an integer of at least 1.  Values are kept as given."""

    alpha: float = 2.0
    varsigma: float = 0.0
    d: int = 1
    c_eta: float = 2.0
    k_members: int = 16

    def __post_init__(self):
        check_schedule(self.alpha, self.varsigma, self.d, self.c_eta)
        if not is_integer(self.k_members):
            raise ValueError(f"k_members must be an integer, got {self.k_members}")
        if self.k_members < 1:
            raise ValueError(f"k_members must be at least 1 (the center chain), got {self.k_members}")

    def radius_unit(self, n: Optional[int], step_weight: float) -> float:
        """Schedule value before the outcome-scale factor."""
        if n is None or n <= 0:
            return 0.0
        return eta_schedule(n, self.alpha, self.varsigma, self.d, self.c_eta, horizon_weight=step_weight)


@dataclass
class PessimisticValue:
    """Lower-bound value of one policy pair plus diagnostics."""

    policy: PolicyPair
    value: float
    plug_in: float
    chain_values: dict
    unbounded: bool = False
    unbounded_direction: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)


CHUNK = 512  # candidates scored per batched recursion; bounds the scan's memory
PRUNE = 64  # a class of more candidates than this is pruned by its 1-chain bound
FIRST = 8  # candidates, best by bound, scored with all chains before the bound prunes


@dataclass
class ClassScores:
    """Pessimistic values of a stacked class, candidate axis first.

    ``chain_values[side]`` (candidate, chain) holds each chain's sum of exact
    block minima.  ``regions[(side, region)]`` holds what :meth:`record`
    needs of each first-stage region: its geometry, the value weights
    (candidate, blocks, q), and the center (candidate, blocks, q) and radius
    (candidate,) along the candidate's minimizing chain.
    """

    value: np.ndarray
    plug_in: np.ndarray
    chain_values: dict
    regions: dict

    def record(self, i: int, policy: PolicyPair) -> PessimisticValue:
        """The full record of candidate ``i``, ``policy``: the minimizing
        member and the radius of every region along its minimizing chain
        and, when its value is unbounded below, the flat part of the first
        loaded region of the last side that has one."""
        members, sizes, loaded = {}, {}, {}
        for key, (geometry, weight, center, radius) in self.regions.items():
            members[key] = geometry.min_linear(weight[i], center[i], radius[i])[1]
            sizes[key] = float(radius[i])
            flat = geometry.flat_part(weight[i])
            if flat.any():
                loaded.setdefault(key[0], flat)
        direction = next(reversed(loaded.values()), None)
        return PessimisticValue(
            policy=policy,
            value=float(self.value[i]),
            plug_in=float(self.plug_in[i]),
            chain_values={side: v[i].copy() for side, v in self.chain_values.items()},
            unbounded=direction is not None,
            unbounded_direction=direction,
            diagnostics={"attaining_members": members, "region_sizes": sizes},
        )


class LearnerEngine:
    """Shared per-dataset state for scanning many candidate policies."""

    def __init__(self, data, basis: SieveBasis, eta: EtaConfig = EtaConfig()):
        self.source = as_source(data)
        self.basis = basis
        self.eta = eta
        self.stats = stage_statistics(self.source, basis)  # checks the dataset before anything reads it
        self.n = self.source.dataset.n if hasattr(self.source, "dataset") else None
        self.horizon = self.source.horizon
        self.grid = self.horizon, self.source.n_states, self.source.n_u  # policies and specs must match
        unit = eta.radius_unit
        # reward and continuation radii of stage t (step t / 2 + 1 of the game)
        # per unit outcome mean square
        self.radius_units = [
            (unit(self.n, 1.0), unit(self.n, horizon_weight(self.horizon, t / 2 + 1)))
            for t in range(2 * self.horizon)
        ]

    def score(self, pairs: list, chains: Optional[int] = None) -> ClassScores:
        """Pessimistic values of ``pairs`` by one batched chain recursion per
        side over (candidate, chain); chain ``k`` takes member ``k`` of every
        region it passes through.  ``chains`` (1 to ``eta.k_members``, all by
        default) runs the first chains alone: their columns of
        ``chain_values`` and the ``plug_in`` are those of the full run bit for
        bit, so the ``value`` bounds the full one from above."""
        if chains is None:
            chains = self.eta.k_members
        if not 1 <= chains <= self.eta.k_members:
            raise ValueError(f"chains must be between 1 and k_members = {self.eta.k_members}, got {chains}")
        policies = PolicyStack.of(pairs, *self.grid)
        weights = _stage0_weights(self.stats[0], value_weight_tables(self.stats[0], policies))
        scores = ClassScores(np.zeros(len(pairs)), np.zeros(len(pairs)), {}, {})
        for side in ("alice", "bob"):
            for regions in chain_recursion(self.stats, policies, side, chains, self.radius_units):
                pass  # the first stage comes last; the recursion frees the others on its way
            _add_first_stage(scores, side, regions, *weights)
        return scores


def _add_first_stage(scores: ClassScores, side: str, regions, w_reward, w_blocks) -> None:
    """Add one side's exact first-stage minima (candidate, chain) over its
    ``regions`` (:class:`~confgame.ope.StageRegions`) to ``scores``.  The
    regions are fitted per group of candidates that play alike after stage 0;
    the value weights depend on ``init_bob`` as well, so the minima are taken
    per candidate, on the centers and radii of its group (``regions.rows``)."""
    st, cand = regions.st, scores.value.shape[0]
    scores.plug_in += _center_value(regions, w_reward, w_blocks)
    if regions.reward is not None:
        center, eta = regions.reward
        scores.value += st.geometry3.min_linear(w_reward, center, eta)[0]
        center = np.broadcast_to(center, w_reward.shape)
        scores.regions[(side, "reward")] = st.geometry3, w_reward, center, np.full(cand, eta)
    if regions.coef is None:
        return
    coef, etas, rows = regions.coef, regions.radius, regions.rows
    vals = np.zeros((cand, coef.shape[1]))
    for j in range(4):
        vals += st.geometry4.min_linear(w_blocks[j][:, None], coef[rows, :, j], etas[rows, :, j])[0]
    scores.chain_values[side] = vals
    scores.value += vals.min(axis=1)
    pick = rows, np.argmin(vals, axis=1)  # each candidate's group and minimizing chain
    for j in range(4):
        scores.regions[(side, f"block{j}")] = st.geometry4, w_blocks[j], coef[pick + (j,)], etas[pick + (j,)]


def _center_value(regions, w_reward, w_blocks) -> np.ndarray:
    """One side's first-stage value (candidate,) at the region centers of
    ``regions``, chain 0, each candidate's group's: the plug-in value."""
    parts = []
    if regions.reward is not None:
        parts.append(np.einsum("cp,...cp->...", regions.reward[0], w_reward))
    if regions.coef is not None:
        coef = regions.coef[regions.rows, 0]
        parts.append(sum(np.einsum("...cp,...cp->...", coef[:, j], w_blocks[j]) for j in range(4)))
    return sum(parts)


def _stage0_weights(st, w_rep: np.ndarray):
    """Value weights (candidate, blocks, q) on the block coefficients of the
    first stage's reward block and four continuation blocks, from the value
    weight tables ``w_rep`` (candidate, cells, 4): the value is linear in the
    stage table, so each block column takes the weight of the slot it folds
    into (:func:`~confgame.ope.stage_roles`, :func:`~confgame.ope.block_slots`)."""
    pull, lead = st.basis.coefficient_weights, w_rep.shape[:1]
    shape = lead + st.geometry4.hess.shape[:2]
    w_blocks = [pull(np.take(w_rep, slots, axis=-1)).reshape(shape) for slots in block_slots(0)]
    # the reward block has the first three columns of the stage's roles
    w_reward = pull(np.take(w_rep, stage_roles(0), axis=-1)[..., :3])
    return w_reward.reshape(lead + st.reward_coef.shape), w_blocks


def pessimistic_value(engine: LearnerEngine, policy: PolicyPair) -> PessimisticValue:
    """Exact inner minimization of one pair's value over its nested regions:
    the record (:meth:`ClassScores.record`) of :meth:`LearnerEngine.score`
    on a class of one."""
    return engine.score([policy]).record(0, policy)


def learn_policy_pair(
    data,
    policy_class: list[PolicyPair],
    basis: SieveBasis,
    eta: EtaConfig = EtaConfig(),
    engine: Optional[LearnerEngine] = None,
) -> tuple[PolicyPair, PessimisticValue]:
    """Pessimistic argmax over an ordered policy class.

    A candidate's pessimistic value never exceeds its 1-chain bound, the
    ``value`` of :meth:`LearnerEngine.score` with the all-center chain alone
    (the reward-region minimum plus, per side, chain 0's sum of exact block
    minima), so a class of more than :data:`PRUNE` candidates is pruned by a
    bound pass, :data:`CHUNK` at a time: the :data:`FIRST` best by bound (a
    stable sort, best first) are scored with all chains, then, :data:`CHUNK` at
    a time and in that order, every other candidate whose bound is at least
    the best pessimistic value so far less a margin of ``1e-9`` times the
    largest finite bound magnitude (at least 1); a candidate whose bound is
    not finite is always scored.  A smaller class is not pruned: it is scored
    whole, :data:`CHUNK` at a time.  The winner is the first maximum in class
    order among the candidates scored with all chains: candidates must be
    sorted by their encoding, so the tie-break is lexicographic by
    construction, and the result is that of scoring every candidate.  The
    winner's record (:meth:`ClassScores.record`) comes from the full-chain
    batch that scored it: no candidate is scored twice with all chains.
    """
    if not policy_class:
        raise EmptyClass("no candidate policy pairs")
    if engine is None:
        engine = LearnerEngine(data, basis, eta)
    values = np.full(len(policy_class), -np.inf)
    order, size, bound = np.arange(len(policy_class)), CHUNK, None
    if len(policy_class) > PRUNE:
        bound = np.concatenate(
            [engine.score(policy_class[i : i + CHUNK], 1).value for i in range(0, len(policy_class), CHUNK)]
        )
        finite = np.isfinite(bound)
        margin = 1e-9 * np.abs(bound[finite]).max(initial=1.0)
        order, size = np.argsort(-bound, kind="stable"), FIRST
    while order.size:
        batch, order = order[:size], order[size:]
        scores = engine.score([policy_class[i] for i in batch])
        values[batch] = scores.value
        best = int(np.argmax(values))
        at = np.flatnonzero(batch == best)
        if at.size:  # the first maximum so far is in this batch
            record = scores.record(int(at[0]), policy_class[best])
        del scores  # not alive while the next batch is scored
        if bound is not None:
            order = order[~finite[order] | (bound[order] >= values.max() - margin)]
        size = CHUNK
    return record.policy, record


def compute_gap(spec: GameSpec, policy: PolicyPair, policy_class: list[PolicyPair]) -> float:
    """In-class optimality gap of a learned pair, by exact enumeration."""
    _, j_star = oracle_mod.exact_optimal_pair(spec, policy_class)
    ja, jb = oracle_mod.exact_policy_value(spec, policy)
    gap = j_star - (ja + jb)
    if gap < -1e-10:
        raise ValueError(
            f"gap {gap:.3e} is negative: the policy beats the class optimum, "
            "so it lies outside the class"
        )
    return float(max(gap, 0.0))


def truth_covered(
    engine: LearnerEngine,
    spec: GameSpec,
    policy: PolicyPair,
    exq=None,
    true_blocks=None,
) -> bool:
    """Whether every true table lies in its region along the true chain.

    Mirrors the nested construction: true reward triples must fall in the
    reward-block regions, and at every stage the true continuation-block
    vectors, built from the true upstream tables rather than sampled members,
    must fall in the corresponding block regions.  The true tables are cell
    tables, so the engine's basis must be the saturated one
    (:class:`BasisMismatch` otherwise), and ``spec`` and ``policy`` must be
    built for the engine's grid (:class:`MalformedSpec` otherwise).
    """
    if engine.basis.kind != "saturated":
        raise BasisMismatch("truth_covered compares cell tables and needs the saturated basis")
    check_spec_grid(spec, *engine.grid)
    policies = PolicyStack.of([policy], *engine.grid)
    if exq is None:
        exq = oracle_mod.exact_q(spec, policy)
    if true_blocks is None:
        true_blocks = oracle_mod.exact_recursion_blocks(spec, policy, exq)
    for t in range(2 * engine.horizon):
        st = engine.stats[t]
        # the stage's own truth: its private-draw law may differ from the opening stages'
        truth = oracle_mod.true_coefficients(spec, t)["alice_reward" if t % 2 == 0 else "bob_reward"]
        true3 = truth.stack().reshape(-1, 3)
        eta_r = engine.radius_units[t][0] * st.reward_scale_sq
        if st.geometry3.loss_gap(true3, st.reward_coef) > eta_r + 1e-12:
            return False
    for t in range(2 * engine.horizon - 1):
        st = engine.stats[t]
        for side in ("alice", "bob"):
            rep_true = exq.marginal[(t + 1, side)].stack().reshape(1, 1, -1, 4)
            coef, _, scale_sq = continuation_centers(st, t, rep_true, policies)
            etas = engine.radius_units[t][1] * scale_sq
            for j in range(4):
                # the fitted blocks' columns are in the stage's roles, the truth's in slots
                true4 = true_blocks[(t, side, j)].stack().reshape(-1, 4)[:, stage_roles(t)]
                if st.geometry4.loss_gap(true4, coef[0, 0, j]) > float(etas[0, 0, j]) + 1e-12:
                    return False
    return True
