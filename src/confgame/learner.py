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

The chains run :func:`~confgame.ope.chain_recursion`, the same backward
recursion that off-policy evaluation runs with the all-center chain alone,
over the per-stage statistics of :class:`~confgame.ope.StageStats`.  Those
are policy-independent (design moments) or enter only through small
contraction tables (outcome moments), so scanning thousands of candidates
costs einsums over tiny arrays instead of passes over the rows.  Each stage's
:class:`~confgame.smd.BlockGeometry`, for any sieve basis, gives the region
centers by its guarded solve, the members of every chain in one call and the
exact linear minimum that scores the first stage.  Region radii are the rate
schedule times the squared root mean square of the block outcome, which
makes the whole construction exactly equivariant under a positive rescaling
of all rewards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BasisMismatch, EmptyClass, UnboundedBelow
from .game import GameSpec, PolicyPair
from .ope import as_source, chain_recursion, continuation_centers, stage_statistics, value_weight_tables
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


@dataclass
class QRegions:
    """Stage-one region structure of one candidate policy.

    ``stage0[side]`` is the first stage's :class:`~confgame.ope.StageRegions`:
    the per-chain block regions and the (chain-independent) reward region;
    the union over upstream members is represented by the sampled chains.
    """

    policy: PolicyPair
    eta: EtaConfig
    n: Optional[int]
    stage0: dict
    diagnostics: dict = field(default_factory=dict)


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

    def propagate(self, policy: PolicyPair) -> dict:
        """Chain recursion; returns the stage-0 regions per side.

        Chain ``k`` takes member ``k`` of every region it passes through.
        """
        policy.check_grid(self.horizon, self.source.n_states, self.source.n_u)
        return {
            side: chain_recursion(self.stats, policy, side, self.eta.k_members, self.radius_units)[0]
            for side in ("alice", "bob")
        }


def build_q_regions(
    data,
    policy: PolicyPair,
    basis: SieveBasis,
    eta: EtaConfig = EtaConfig(),
    engine: Optional[LearnerEngine] = None,
) -> QRegions:
    """Construct the stage-one confidence-region structure for one policy."""
    if engine is None:
        engine = LearnerEngine(data, basis, eta)
    stage0 = engine.propagate(policy)
    return QRegions(
        policy=policy, eta=eta, n=engine.n, stage0=stage0, diagnostics={"engine": engine}
    )


def _stage0_weights(st, w_rep: np.ndarray):
    """Value weights on the block coefficients of the first stage's reward
    block and four continuation blocks."""
    post = np.stack([w_rep[:, 0], w_rep[:, 2], w_rep[:, 2], w_rep[:, 0]], axis=1)
    pull = st.basis.coefficient_weights
    w_blocks = [pull(w).reshape(st.geometry4.hess.shape[:2]) for w in (w_rep, post, w_rep, post)]
    return pull(w_rep[:, :3]).reshape(st.reward_coef.shape), w_blocks


def pessimistic_value(data, policy: PolicyPair, regions: QRegions) -> PessimisticValue:
    """Exact inner minimization of the policy value over the region structure."""
    engine: LearnerEngine = regions.diagnostics["engine"]
    st = engine.stats[0]
    w_reward, w_blocks = _stage0_weights(st, value_weight_tables(st, policy))
    total_min, total_plug = 0.0, 0.0
    chain_values = {}
    attaining = {}
    region_sizes = {}
    unbounded, direction = False, None
    for side in ("alice", "bob"):
        info = regions.stage0[side]
        try:
            if info.reward is not None:
                center_r, eta_r = info.reward
                value, argmin = st.geometry3.min_linear(w_reward, center_r, eta_r)
                total_min += float(value)
                total_plug += float(np.einsum("cp,cp->", center_r, w_reward))
                attaining[(side, "reward")] = argmin
                region_sizes[(side, "reward")] = eta_r
            if info.coef is not None:
                coef, etas = info.coef, info.radius
                vals = np.zeros(coef.shape[0])
                argmins = []
                for j in range(4):
                    value, argmin = st.geometry4.min_linear(w_blocks[j], coef[:, j], etas[:, j])
                    vals += value
                    argmins.append(argmin)
                chain_values[side] = vals
                best_k = int(np.argmin(vals))
                for j in range(4):
                    attaining[(side, f"block{j}")] = argmins[j][best_k]
                    region_sizes[(side, f"block{j}")] = float(etas[best_k, j])
                total_min += float(vals.min())
                total_plug += float(sum(np.einsum("cp,cp->", coef[0, j], w_blocks[j]) for j in range(4)))
        except UnboundedBelow as exc:
            unbounded, direction = True, exc.direction
            total_min = -np.inf
    return PessimisticValue(
        policy=policy,
        value=total_min,
        plug_in=total_plug,
        chain_values=chain_values,
        unbounded=unbounded,
        unbounded_direction=direction,
        diagnostics={"attaining_members": attaining, "region_sizes": region_sizes},
    )


def learn_policy_pair(
    data,
    policy_class: list[PolicyPair],
    basis: SieveBasis,
    eta: EtaConfig = EtaConfig(),
    engine: Optional[LearnerEngine] = None,
) -> tuple[PolicyPair, PessimisticValue]:
    """Exhaustive pessimistic argmax over an ordered policy class.

    Candidates must be sorted by their encoding; ties keep the earliest, so
    the tie-break is lexicographic by construction.
    """
    if not policy_class:
        raise EmptyClass("no candidate policy pairs")
    if engine is None:
        engine = LearnerEngine(data, basis, eta)
    best, best_val = None, None
    for pair in policy_class:
        regions = build_q_regions(data, pair, basis, eta, engine=engine)
        pv = pessimistic_value(data, pair, regions)
        if best_val is None or pv.value > best_val.value:
            best, best_val = pair, pv
    return best, best_val


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
        # the blocks' columns follow the stage's roles: (own, partner, interaction, constant)
        roles = [0, 1, 2, 3] if t % 2 == 0 else [1, 0, 2, 3]
        for side in ("alice", "bob"):
            rep_true = exq.marginal[(t + 1, side)].stack().reshape(1, -1, 4)
            coef, _, scale_sq = continuation_centers(st, t, rep_true, policy)
            etas = engine.radius_units[t][1] * scale_sq
            for j in range(4):
                true4 = true_blocks[(t, side, j)].stack().reshape(-1, 4)[:, roles]
                if st.geometry4.loss_gap(true4, coef[0, j]) > float(etas[0, j]) + 1e-12:
                    return False
    return True
