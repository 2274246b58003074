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

The whole class is scored by one batched recursion per side:
:func:`~confgame.ope.chain_recursion`, the same backward recursion that
off-policy evaluation runs with a class of one and the all-center chain
alone, run on the stacked policy tables of up to :data:`CHUNK` candidates
with every array carrying leading (candidate, chain) axes.  It runs over the
per-stage statistics of :class:`~confgame.ope.StageStats`, which are
policy-independent (design moments) or enter only through small contraction
tables (outcome moments), so a scan costs a handful of numpy calls per stage
for the whole chunk instead of passes over the rows or Python calls per
candidate.  Each stage's :class:`~confgame.smd.BlockGeometry`, for any sieve
basis, gives the region centers by its guarded solve, the members of every
(candidate, chain) in one call and the exact linear minimum, per candidate
weight, that scores the first stage.  The learned pair's full record comes
from :func:`pessimistic_value`, the same scorer on a class of one.  Region
radii are the rate schedule times the squared root mean square of the block
outcome, which makes the whole construction exactly equivariant under a
positive rescaling of all rewards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BasisMismatch, EmptyClass
from .game import GameSpec, PolicyPair
from .ope import (
    PolicyStack,
    as_source,
    block_slots,
    chain_recursion,
    continuation_centers,
    stage_roles,
    stage_statistics,
    value_weight_tables,
)
from .sieve import SieveBasis
from .smd import eta_schedule, horizon_weight
from . import oracle as oracle_mod


@dataclass
class EtaConfig:
    """Region-size schedule parameters and the chain budget."""

    alpha: float = 2.0
    varsigma: float = 0.0
    d: int = 1
    c_eta: float = 2.0
    k_members: int = 16

    def __post_init__(self):
        if self.k_members < 1:
            raise ValueError(f"k_members must be at least 1 (the center chain), got {self.k_members}")

    def radius_unit(self, n: Optional[int], step_weight: float) -> float:
        """Schedule value before the outcome-scale factor."""
        if n is None or n <= 0:
            return 0.0
        return eta_schedule(
            n,
            alpha=self.alpha,
            varsigma=self.varsigma,
            d=self.d,
            c_eta=self.c_eta,
            horizon_weight=step_weight,
        )


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


@dataclass
class ClassScores:
    """Pessimistic values of a stacked class, candidate axis first.

    ``chain_values[side]`` (candidate, chain) holds each chain's sum of exact
    block minima; ``attaining`` (candidate, blocks, q) and ``region_sizes``
    (candidate,) hold, per (side, region), the minimizing member and radius
    along the minimizing chain, and ``flat`` the value weight's
    :meth:`~confgame.smd.BlockGeometry.flat_part`, non-zero where the value is
    unbounded below.
    """

    value: np.ndarray
    plug_in: np.ndarray
    chain_values: dict
    attaining: dict
    region_sizes: dict
    flat: dict


class LearnerEngine:
    """Shared per-dataset state for scanning many candidate policies."""

    def __init__(self, data, basis: SieveBasis, eta: EtaConfig = EtaConfig()):
        self.source = as_source(data)
        self.basis = basis
        self.eta = eta
        self.n = self.source.dataset.n if hasattr(self.source, "dataset") else None
        self.horizon = self.source.horizon
        self.stats = stage_statistics(self.source, basis)
        unit = eta.radius_unit
        # reward and continuation radii of stage t (step t / 2 + 1 of the game)
        # per unit outcome mean square
        self.radius_units = [
            (unit(self.n, 1.0), unit(self.n, horizon_weight(self.horizon, t / 2 + 1, "recursion")))
            for t in range(2 * self.horizon)
        ]

    def score(self, pairs: list) -> ClassScores:
        """Pessimistic values of ``pairs`` by one batched chain recursion per
        side over (candidate, chain); chain ``k`` takes member ``k`` of every
        region it passes through."""
        for pair in pairs:
            pair.check_grid(self.horizon, self.source.n_states, self.source.n_u)
        policies = PolicyStack.of(pairs)
        st = self.stats[0]
        weights = _stage0_weights(st, value_weight_tables(st, policies))
        scores = ClassScores(np.zeros(len(pairs)), np.zeros(len(pairs)), {}, {}, {}, {})
        for side in ("alice", "bob"):
            for regions in chain_recursion(self.stats, policies, side, self.eta.k_members, self.radius_units):
                pass  # the first stage comes last; the recursion frees the others on its way
            _add_first_stage(scores, side, regions, *weights)
        return scores


def _add_first_stage(scores: ClassScores, side: str, regions, w_reward, w_blocks) -> None:
    """Add one side's exact first-stage minima (candidate, chain) over its
    ``regions`` (:class:`~confgame.ope.StageRegions`) to ``scores``."""
    st, cand = regions.st, scores.value.shape[0]
    if regions.reward is not None:
        center, eta = regions.reward
        value, argmin = st.geometry3.min_linear(w_reward, center, eta)
        scores.value += value
        scores.plug_in += np.einsum("cp,...cp->...", center, w_reward)
        scores.attaining[(side, "reward")] = argmin
        scores.region_sizes[(side, "reward")] = np.full(cand, eta)
        scores.flat[(side, "reward")] = st.geometry3.flat_part(w_reward)
    if regions.coef is None:
        return
    coef, etas = regions.coef, regions.radius
    vals = np.zeros(coef.shape[:2])
    for j in range(4):
        vals += st.geometry4.min_linear(w_blocks[j][:, None], coef[:, :, j], etas[:, :, j])[0]
    scores.chain_values[side] = vals
    # the minimizing chain's members, from its regions alone
    pick = np.arange(cand), np.argmin(vals, axis=1)
    for j in range(4):
        center, eta = coef[pick + (j,)], etas[pick + (j,)]
        scores.attaining[(side, f"block{j}")] = st.geometry4.min_linear(w_blocks[j], center, eta)[1]
        scores.region_sizes[(side, f"block{j}")] = eta
        scores.flat[(side, f"block{j}")] = st.geometry4.flat_part(w_blocks[j])
    scores.value += vals.min(axis=1)
    scores.plug_in += sum(np.einsum("...cp,...cp->...", coef[:, 0, j], w_blocks[j]) for j in range(4))


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
    :meth:`LearnerEngine.score` on a class of one."""
    scores = engine.score([policy])
    direction = None
    for side in ("alice", "bob"):
        loads = [f[0] for (s, _), f in scores.flat.items() if s == side and f[0].any()]
        if loads:
            direction = loads[0]
    return PessimisticValue(
        policy=policy,
        value=float(scores.value[0]),
        plug_in=float(scores.plug_in[0]),
        chain_values={side: v[0] for side, v in scores.chain_values.items()},
        unbounded=direction is not None,
        unbounded_direction=direction,
        diagnostics={
            "attaining_members": {key: m[0] for key, m in scores.attaining.items()},
            "region_sizes": {key: float(r[0]) for key, r in scores.region_sizes.items()},
        },
    )


def learn_policy_pair(
    data,
    policy_class: list[PolicyPair],
    basis: SieveBasis,
    eta: EtaConfig = EtaConfig(),
    engine: Optional[LearnerEngine] = None,
) -> tuple[PolicyPair, PessimisticValue]:
    """Exhaustive pessimistic argmax over an ordered policy class.

    The class is scored :data:`CHUNK` candidates at a time.  Candidates must
    be sorted by their encoding; ties keep the earliest, so the tie-break is
    lexicographic by construction.
    """
    if not policy_class:
        raise EmptyClass("no candidate policy pairs")
    if engine is None:
        engine = LearnerEngine(data, basis, eta)
    best, best_value = 0, -np.inf
    for start in range(0, len(policy_class), CHUNK):
        values = engine.score(policy_class[start : start + CHUNK]).value
        top = int(np.argmax(values))
        if values[top] > best_value:
            best, best_value = start + top, values[top]
    return policy_class[best], pessimistic_value(engine, policy_class[best])


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
    (:class:`BasisMismatch` otherwise).
    """
    if engine.basis.kind != "saturated":
        raise BasisMismatch("truth_covered compares cell tables and needs the saturated basis")
    if exq is None:
        exq = oracle_mod.exact_q(spec, policy)
    if true_blocks is None:
        true_blocks = oracle_mod.exact_recursion_blocks(spec, policy, exq)
    truths = oracle_mod.true_coefficients(spec)
    for t in range(2 * engine.horizon):
        st = engine.stats[t]
        true3 = truths["alice_reward" if t % 2 == 0 else "bob_reward"].stack().reshape(-1, 3)
        eta_r = engine.radius_units[t][0] * st.reward_scale_sq
        if st.geometry3.loss_gap(true3, st.reward_coef) > eta_r + 1e-12:
            return False
    for t in range(2 * engine.horizon - 1):
        st = engine.stats[t]
        for side in ("alice", "bob"):
            rep_true = exq.marginal[(t + 1, side)].stack().reshape(1, 1, -1, 4)
            coef, _, scale_sq = continuation_centers(st, t, rep_true, PolicyStack.of([policy]))
            etas = engine.radius_units[t][1] * scale_sq
            for j in range(4):
                # the fitted blocks' columns are in the stage's roles, the truth's in slots
                true4 = true_blocks[(t, side, j)].stack().reshape(-1, 4)[:, stage_roles(t)]
                if st.geometry4.loss_gap(true4, coef[0, 0, j]) > float(etas[0, 0, j]) + 1e-12:
                    return False
    return True
