"""Exact brute-force computations on tabular game specs.

Everything in this module works on the full joint law, with the second
mover's private information visible, so it can serve as the ground truth for
the estimation modules that never see it: true marginalized coefficients,
true action-value tables, exact policy values, optimal policy pairs, and the
population identification system evaluated from exact moments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularSystem, SpaceTooLarge
from .game import BehaviorPolicyPair, GameSpec, PolicyPair, PolicyStack

DEFAULT_CELL_BUDGET = 10**7
SINGULAR_TOL = 1e-10


# ---------------------------------------------------------------------------
# exact stage laws under a behavior pair
# ---------------------------------------------------------------------------


@dataclass
class StageLaws:
    """Exact per-stage joint laws of one trajectory under a behavior pair.

    ``with_action[t][s, u, v1, v2, prev, act]`` is the law of stage ``t``
    through the action; ``trans_joint[t]`` appends the realized next state.
    ``prev`` is the partner's previous action, which plays the instrument
    role at stage ``t``.
    """

    spec: GameSpec
    with_action: list
    trans_joint: list

    def transition_rows(self, t: int) -> np.ndarray:
        """Joint law over (s, u, v1, v2, prev, act, s', u') at stage ``t``."""
        u_next = (
            self.spec.u_law[t + 1]
            if t + 1 < self.spec.n_stages
            else np.ones((self.spec.n_states, 1))
        )
        return self.trans_joint[t][..., None] * u_next[None, None, None, None, None, None, :, :]


def _fresh(spec: GameSpec, t: int, state_law=1.0) -> np.ndarray:
    """(s, u, v1, v2) law at stage ``t`` of the state, drawn from ``state_law``
    (given by default), and the fresh private draws."""
    return (
        np.reshape(state_law, (-1, 1, 1, 1))
        * spec.u_law[t][:, :, None, None]
        * spec.v1_law[t][:, None, :, None]
        * spec.v2_law[t][:, None, None, :]
    )


def stage_laws(spec: GameSpec, behavior: Optional[BehaviorPolicyPair] = None) -> StageLaws:
    """Forward-propagate the exact joint law stage by stage; :class:`MalformedSpec`
    when the behavior pair is built for another grid."""
    if behavior is None:
        behavior = BehaviorPolicyPair.from_spec(spec)
    behavior.check_grid(spec)
    ns, nu, nv1, nv2 = spec.n_states, spec.n_u, spec.n_v1, spec.n_v2
    per_stage = ns * nu * nv1 * nv2 * 4 * ns * nu
    if per_stage * spec.n_stages > DEFAULT_CELL_BUDGET:
        raise SpaceTooLarge(
            f"stage enumeration needs {per_stage * spec.n_stages} cells, budget {DEFAULT_CELL_BUDGET}"
        )

    with_action, trans_joint = [], []
    prev_dist = np.array([1.0 - behavior.init_bob, behavior.init_bob])
    cur = _fresh(spec, 0, spec.init_state)[..., None] * prev_dist  # (s, u, v1, v2, prev)
    for t in range(spec.n_stages):
        # the behavior table is indexed (u, v1, v2, s, prev) -> move s first
        p1 = np.moveaxis(behavior.table(t), 3, 0)  # (s, u, v1, v2, prev)
        probs = np.stack([1.0 - p1, p1], axis=-1)  # (..., prev, act)
        wa = cur[..., None] * probs
        with_action.append(wa)
        kern = np.moveaxis(spec.trans[t], 3, 0)  # (s, u, v1, v2, a, b, s')
        if t % 2 == 0:
            # act plays the alice axis, prev plays the bob axis
            kern_pa = np.moveaxis(kern, 4, 5)  # (s,u,v1,v2,b=prev,a=act,s')
        else:
            kern_pa = kern  # (s,u,v1,v2,a=prev,b=act,s')
        tj = wa[..., None] * kern_pa
        trans_joint.append(tj)
        if t + 1 < spec.n_stages:
            # next stage: fresh (u', v') given s'; prev' is the action just taken
            arrive = tj.sum(axis=(1, 2, 3, 4))  # (s, act, s') -> sum over old u,v,prev
            arrive = arrive.sum(axis=0)  # (act, s')
            state_act = np.moveaxis(arrive, 0, 1)  # (s', act)
            cur = _fresh(spec, t + 1)[..., None] * state_act[:, None, None, None, :]
    return StageLaws(spec=spec, with_action=with_action, trans_joint=trans_joint)


# ---------------------------------------------------------------------------
# full-path enumeration
# ---------------------------------------------------------------------------


@dataclass
class JointLaw:
    """Full joint probability table over one trajectory's variables.

    Paths are tuples ``(b_init, s_1, (u, v1, v2, act) per stage ..., s_term)``
    with their exact probabilities.  Only intended for desk-scale specs; the
    per-stage laws in :class:`StageLaws` scale much further.
    """

    spec: GameSpec
    paths: dict

    @property
    def n_atoms(self) -> int:
        return len(self.paths)

    def total_mass(self) -> float:
        return math.fsum(self.paths.values())

    def marginal_init_state(self) -> np.ndarray:
        out = np.zeros(self.spec.n_states)
        for path, p in self.paths.items():
            out[path[1]] += p
        return out


def exact_joint_law(spec: GameSpec, behavior: Optional[BehaviorPolicyPair] = None) -> JointLaw:
    """Enumerate every trajectory of positive probability with its mass."""
    if behavior is None:
        behavior = BehaviorPolicyPair.from_spec(spec)
    ns, nu, nv1, nv2 = spec.n_states, spec.n_u, spec.n_v1, spec.n_v2
    per_stage = nu * nv1 * nv2 * 2 * ns
    if (2 * ns) * per_stage ** spec.n_stages > DEFAULT_CELL_BUDGET:
        raise SpaceTooLarge("full-path enumeration exceeds the cell budget")
    paths = {}
    heads = []
    for b0 in range(2):
        p0 = behavior.init_bob if b0 == 1 else 1.0 - behavior.init_bob
        for s0 in range(ns):
            p = p0 * spec.init_state[s0]
            if p > 0:
                heads.append(((b0, s0), p, s0, b0))
    for t in range(spec.n_stages):
        table = behavior.table(t)
        new_heads = []
        for prefix, p, state, prev in heads:
            for u, v1, v2 in itertools.product(range(nu), range(nv1), range(nv2)):
                p_draw = (
                    spec.u_law[t, state, u]
                    * spec.v1_law[t, state, v1]
                    * spec.v2_law[t, state, v2]
                )
                if p_draw <= 0:
                    continue
                p_act1 = table[u, v1, v2, state, prev]
                for act in range(2):
                    p_act = p_act1 if act == 1 else 1.0 - p_act1
                    if p_act <= 0:
                        continue
                    a_bit, b_bit = (act, prev) if t % 2 == 0 else (prev, act)
                    for s_next in range(ns):
                        p_next = spec.trans[t, u, v1, v2, state, a_bit, b_bit, s_next]
                        if p_next <= 0:
                            continue
                        q = p * p_draw * p_act * p_next
                        new_heads.append(
                            (prefix + ((u, v1, v2, act), s_next), q, s_next, act)
                        )
        heads = new_heads
        if len(heads) > DEFAULT_CELL_BUDGET:
            raise SpaceTooLarge("full-path enumeration exceeds the cell budget")
    for prefix, p, _state, _prev in heads:
        paths[prefix] = paths.get(prefix, 0.0) + p
    return JointLaw(spec=spec, paths=paths)


# ---------------------------------------------------------------------------
# true marginalized coefficients
# ---------------------------------------------------------------------------


@dataclass
class CoefficientTriple:
    """V-marginalized (action, instrument, interaction) effects over (s, u)."""

    theta_a: np.ndarray
    theta_z: np.ndarray
    theta_az: np.ndarray

    def stack(self) -> np.ndarray:
        """(s, u, 3) array in (action, instrument, interaction) order."""
        return np.stack([self.theta_a, self.theta_z, self.theta_az], axis=-1)


def _v_weights(spec: GameSpec, stage: int) -> np.ndarray:
    """(s, v1, v2) private-draw law at a stage."""
    return spec.v1_law[stage][:, :, None] * spec.v2_law[stage][:, None, :]


def marginalize_over_v(spec: GameSpec, stage: int, table: np.ndarray) -> np.ndarray:
    """E over V of a (u, v1, v2, s) table, giving an (s, u) table."""
    w = _v_weights(spec, stage)  # (s, v1, v2)
    return np.einsum("uvws,svw->su", table, w)


def true_coefficients(spec: GameSpec, stage: Optional[int] = None) -> dict:
    """Exact marginalized coefficient triples of both reward blocks.

    ``stage`` selects the private-draw law used for the marginalization; the
    default uses each player's first decision point.  Returns a dict with
    ``alice_reward`` and ``bob_reward`` triples (the action axis is each
    player's own action).
    """
    t_alice = stage if stage is not None and stage % 2 == 0 else 0
    t_bob = stage if stage is not None and stage % 2 == 1 else 1

    def triple(t):
        return CoefficientTriple(*(marginalize_over_v(spec, t, x) for x in spec.reward_tables(t)[:3]))

    return {"alice_reward": triple(t_alice), "bob_reward": triple(t_bob)}


# ---------------------------------------------------------------------------
# exact action-value tables and policy values
# ---------------------------------------------------------------------------


@dataclass
class StageRep:
    """Marginalized bilinear representation of a stage value function.

    ``theta`` multiplies alice's most recent action, ``gamma`` bob's most
    recent action, ``omega`` their product; ``zeta`` is the constant part
    (the policy's continuation value that does not depend on either action).
    All tables are indexed (s, u).
    """

    theta: np.ndarray
    gamma: np.ndarray
    omega: np.ndarray
    zeta: np.ndarray

    def stack(self) -> np.ndarray:
        return np.stack([self.theta, self.gamma, self.omega, self.zeta], axis=-1)

    @classmethod
    def of_corners(cls, m: np.ndarray) -> "StageRep":
        """Representation of a table ``m[..., a, b]`` on the four action corners."""
        return cls(
            theta=m[..., 1, 0] - m[..., 0, 0],
            gamma=m[..., 0, 1] - m[..., 0, 0],
            omega=m[..., 1, 1] - m[..., 1, 0] - m[..., 0, 1] + m[..., 0, 0],
            zeta=m[..., 0, 0],
        )


@dataclass
class ExactQ:
    """Exact action-value tables for both players at every stage.

    ``full[(t, side)][s, u, v1, v2, a, b]`` conditions on both players'
    private draws; ``marginal[(t, side)]`` is the matching
    :class:`StageRep` after integrating the private draw out.
    """

    spec: GameSpec
    policy: PolicyPair
    full: dict
    marginal: dict
    j_alice: float
    j_bob: float


def _reward_table(spec: GameSpec, t: int) -> np.ndarray:
    """Mean reward at stage ``t`` as an (s, u, v1, v2, a, b) table."""
    grid_a, grid_b = np.meshgrid(np.arange(2.0), np.arange(2.0), indexing="ij")
    own, prev = (grid_a, grid_b) if t % 2 == 0 else (grid_b, grid_a)
    coef = np.moveaxis(np.stack(spec.reward_tables(t)), 4, 1)  # (4, s, u, v1, v2)
    feats = np.stack([own, prev, own * prev, np.ones_like(own)])  # (4, a, b)
    return np.einsum("csuvw,cab->suvwab", coef, feats)


def _backward(spec: GameSpec, policies: PolicyStack):
    """Backward dynamic programming over the full-information chain, for a
    stack of policy pairs at once.

    Returns ``full[(t, side)]`` (candidate or 1, s, u, v1, v2, a, b), with
    a leading 1 where the table does not depend on the policy, and the exact
    values ``J_alice`` and ``J_bob``, each (candidate,).
    """
    full = {}
    for t in reversed(range(spec.n_stages)):
        h = t // 2
        reward = _reward_table(spec, t)
        kern = np.moveaxis(spec.trans[t], 3, 0)  # (s, u, v1, v2, a, b, s')
        fresh = _fresh(spec, t + 1) if t + 1 < spec.n_stages else None
        for side in ("alice", "bob"):
            nq = full.get((t + 1, side))  # (c, s', u', v1', v2', a, b)
            if nq is None:
                cont = np.zeros((1,) + reward.shape)
            elif t % 2 == 0:
                # next actor is bob: draw b' from pi_b(s', a)
                pi_b = policies.bob[:, h, :, None, None, None, :]  # (c, s', 1, 1, 1, a)
                mixed = nq[..., 0] * (1.0 - pi_b) + nq[..., 1] * pi_b  # b axis replaced by the draw
                avg = np.einsum("cpuvwa,puvw->cpa", mixed, fresh)
                cont = np.einsum("suvwabp,cpa->csuvwab", kern, avg)
            else:
                # next actor is alice step h+1: draw a' from pi_a(s', u', b)
                pi_a = policies.alice[:, h + 1, :, :, None, None, :]  # (c, s', u', 1, 1, b)
                mixed = nq[..., 0, :] * (1.0 - pi_a) + nq[..., 1, :] * pi_a  # a axis replaced
                avg = np.einsum("cpuvwb,puvw->cpb", mixed, fresh)
                cont = np.einsum("suvwabp,cpb->csuvwab", kern, avg)
            paid = (t % 2 == 0) == (side == "alice")
            full[(t, side)] = (reward if paid else 0.0) + cont

    # integrate the opening distribution: b ~ init rule, s ~ init law,
    # (u, v) fresh, a ~ alice's first rule
    fresh0 = _fresh(spec, 0)
    pi_a0 = policies.alice[:, 0, :, :, None, None, :]  # (c, s, u, 1, 1, b)
    b_dist = np.stack([1.0 - policies.init_bob, policies.init_bob], axis=-1)  # (c, b)
    values = []
    for side in ("alice", "bob"):
        q0 = full[(0, side)]
        mixed = q0[..., 0, :] * (1.0 - pi_a0) + q0[..., 1, :] * pi_a0  # (c, s, u, v1, v2, b)
        values.append(np.einsum("csuvwb,suvw,s,cb->c", mixed, fresh0, spec.init_state, b_dist))
    return full, values[0], values[1]


def exact_q(spec: GameSpec, policy: PolicyPair) -> ExactQ:
    """Exact action-value tables and values of one policy pair."""
    full, ja, jb = _backward(spec, PolicyStack.of([policy], spec.horizon, spec.n_states, spec.n_u))
    full = {key: q[0] for key, q in full.items()}
    marginal = {
        (t, side): StageRep.of_corners(np.einsum("suvwab,svw->suab", q, _v_weights(spec, t)))
        for (t, side), q in full.items()
    }
    return ExactQ(spec, policy, full, marginal, float(ja[0]), float(jb[0]))


def exact_policy_value(spec: GameSpec, policy: PolicyPair) -> tuple[float, float]:
    """Exact (J_alice, J_bob) for a policy pair."""
    _, ja, jb = _backward(spec, PolicyStack.of([policy], spec.horizon, spec.n_states, spec.n_u))
    return float(ja[0]), float(jb[0])


def exact_optimal_pair(spec: GameSpec, pairs: list[PolicyPair]) -> tuple[PolicyPair, float]:
    """Exhaustive argmax of J_alice + J_bob over an ordered policy class, by
    one backward pass over the whole class.

    Candidates must already be sorted by their lexicographic encoding; ties
    keep the earliest candidate.
    """
    _, ja, jb = _backward(spec, PolicyStack.of(pairs, spec.horizon, spec.n_states, spec.n_u))
    total = ja + jb
    best = int(np.argmax(total))  # the first maximum: ties keep the earliest pair
    return pairs[best], float(total[best])


# ---------------------------------------------------------------------------
# population identification system
# ---------------------------------------------------------------------------


@dataclass
class IdentificationSystem:
    """Exact 3x3 linear system identifying one marginalized triple.

    Rows: the two-residual product equation, the instrument-residual
    equation, and the plain mean equation (valid because reward residual
    blocks are centered over the private draw).  The covariance-form
    identity is reported as a diagnostic: for a binary instrument it is a
    (1 - f1) multiple of the first row, so it cannot serve as an
    independent third equation.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    solution: np.ndarray
    relevance: float
    sigma_min: float
    covariance_row_gap: float


def _decision_moments(spec, behavior, stage, s, u):
    """Conditional law over (v1, v2, prev, act) and mean outcomes at a cell."""
    cell = stage_laws(spec, behavior).with_action[stage][s, u]  # (v1, v2, prev, act)
    mass = cell.sum()
    if mass <= 0:
        raise SingularSystem(f"cell (s={s}, u={u}) has zero mass at stage {stage}")
    p = cell / mass
    grid_prev, grid_act = np.meshgrid(np.arange(2.0), np.arange(2.0), indexing="ij")
    v1, v2 = (axis[..., None, None] for axis in np.ogrid[: spec.n_v1, : spec.n_v2])
    return p, spec.reward_mean(stage, grid_act, grid_prev, u, v1, v2, s)


def _cell_system(p: np.ndarray, y: np.ndarray):
    """Population identification system of one cell from its law
    ``p[v1, v2, prev, act]`` and mean outcomes ``y``.

    Returns the (4, 3) matrix and the right-hand side over the unknowns
    (action, instrument, interaction) -- rows: the residual-product, the
    instrument-residual and the plain mean equations, then the
    covariance-form identity -- and cov(action, instrument).
    """
    grid_prev, grid_act = np.meshgrid(np.arange(2.0), np.arange(2.0), indexing="ij")
    iv, act = grid_prev, grid_act  # (prev, act)

    def mean(x):
        return float(np.einsum("vwpa,vwpa->", p, np.broadcast_to(x, p.shape)))

    def mean_y(x):
        return float(np.einsum("vwpa,vwpa->", p, np.broadcast_to(x, p.shape) * y))

    f1 = mean(iv)
    p_iv = p.sum(axis=(0, 1, 3))
    p_act_given = p.sum(axis=(0, 1))  # (prev, act)
    with np.errstate(invalid="ignore", divide="ignore"):
        f2 = np.where(p_iv > 0, p_act_given[:, 1] / p_iv, 0.0)  # E[act | iv]
    b_til = iv - f1
    a_til = act - f2[:, None]
    q = f1 * (1 - f1)
    cross = mean(act * iv * b_til * a_til)
    matrix = np.array(
        [
            [mean(b_til * a_til * act), 0.0, mean(iv * b_til * a_til * act)],
            [mean(act * b_til), mean(iv * b_til), mean(act * iv * b_til)],
            [mean(act), mean(iv), mean(act * iv)],
            [cross - q * mean(act * a_til), 0.0, cross - q * mean(act * iv * a_til)],
        ]
    )
    rhs = np.array(
        [
            mean_y(b_til * a_til),
            mean_y(b_til),
            mean_y(np.ones_like(act)),
            mean_y(iv * b_til * a_til) - q * mean_y(a_til),
        ]
    )
    return matrix, rhs, action_iv_cov(p)


def action_iv_cov(p: np.ndarray) -> np.ndarray:
    """cov(action, instrument) under cell laws ``p[..., v1, v2, prev, act]``
    that each sum to one."""
    p_prev_act = p.sum(axis=(-4, -3))
    return p_prev_act[..., 1, 1] - p_prev_act[..., :, 1].sum(axis=-1) * p_prev_act[..., 1, :].sum(axis=-1)


def _row_gaps(matrix: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``rhs - matrix @ x``, subtracting the terms one unknown at a time."""
    gaps = rhs.copy()
    for j in range(matrix.shape[1]):
        gaps -= matrix[:, j] * x[j]
    return gaps


def identification_system(
    spec: GameSpec,
    behavior: Optional[BehaviorPolicyPair] = None,
    stage: int = 0,
    s: int = 0,
    u: int = 0,
) -> IdentificationSystem:
    """Build and solve the exact identification system at one cell.

    Raises :class:`SingularSystem` when the instrument is irrelevant in the
    cell or the system matrix is numerically singular.
    """
    if behavior is None:
        behavior = BehaviorPolicyPair.from_spec(spec)
    matrix, rhs, relevance = _cell_system(*_decision_moments(spec, behavior, stage, s, u))
    matrix, rhs, cov_row, cov_rhs = matrix[:3], rhs[:3], matrix[3:], rhs[3:]
    sigma_min = float(np.linalg.svd(matrix, compute_uv=False).min())
    if abs(relevance) < SINGULAR_TOL:
        raise SingularSystem(
            f"instrument irrelevant at stage {stage}, cell (s={s}, u={u}): "
            f"cov(action, instrument) = {relevance:.2e}"
        )
    if sigma_min < SINGULAR_TOL:
        raise SingularSystem(f"identification matrix singular: sigma_min = {sigma_min:.2e}")
    solution = np.linalg.solve(matrix, rhs)
    return IdentificationSystem(
        matrix=matrix,
        rhs=rhs,
        solution=solution,
        relevance=float(relevance),
        sigma_min=sigma_min,
        # the covariance-form identity at the solution (diagnostic only)
        covariance_row_gap=float(_row_gaps(cov_row, cov_rhs, solution)[0]),
    )


def moment_identity_report(
    spec: GameSpec,
    behavior: Optional[BehaviorPolicyPair] = None,
    stage: int = 0,
    s: int = 0,
    u: int = 0,
) -> dict:
    """Gaps of the three population identities at the true coefficients.

    Returns ``{"residual_product": gap, "iv_residual": gap, "covariance":
    gap}``; all three are zero (to enumeration precision) whenever the
    orthogonality conditions hold.
    """
    if behavior is None:
        behavior = BehaviorPolicyPair.from_spec(spec)
    matrix, rhs, _ = _cell_system(*_decision_moments(spec, behavior, stage, s, u))
    block = "alice_reward" if stage % 2 == 0 else "bob_reward"
    theta = true_coefficients(spec, stage)[block].stack()[s, u]
    gaps = _row_gaps(matrix, rhs, theta)
    return {
        "residual_product": float(gaps[0]),
        "iv_residual": float(gaps[1]),
        "covariance": float(gaps[3]),
    }


# ---------------------------------------------------------------------------
# exact pseudo-outcome decompositions (for coverage tests)
# ---------------------------------------------------------------------------


def exact_recursion_blocks(spec: GameSpec, policy: PolicyPair, exq: Optional["ExactQ"] = None) -> dict:
    """True decompositions of every backward-recursion block.

    For each stage and side, the four continuation blocks carry the next
    stage's constant, own-action, partner-action and interaction tables
    through the transition (the latter contracted with the next actor's
    policy mean where that actor's draw is integrated out).  Keys are
    ``(stage, side, j)`` for ``j`` in 0..3; values are the marginalized
    bilinear representations in (alice-recent, bob-recent) coordinates.
    :class:`MalformedSpec` for a ``policy`` of another game than ``spec``.
    """
    PolicyStack.of([policy], spec.horizon, spec.n_states, spec.n_u)
    if exq is None:
        exq = exact_q(spec, policy)
    out = {}
    for t in range(spec.n_stages - 1):
        for side in ("alice", "bob"):
            nxt = exq.marginal[(t + 1, side)]
            if t % 2 == 0:
                specs = [
                    (nxt.zeta, None),
                    (nxt.theta, None),
                    (nxt.gamma, "next_bob"),
                    (nxt.omega, "next_bob"),
                ]
            else:
                specs = [
                    (nxt.zeta, None),
                    (nxt.theta, "next_alice"),
                    (nxt.gamma, None),
                    (nxt.omega, "next_alice"),
                ]
            for j, (g, contract) in enumerate(specs):
                out[(t, side, j)] = exact_block_coefficients(
                    spec, t, g, policy=policy, contract=contract
                )
    return out


def exact_block_coefficients(
    spec: GameSpec,
    stage: int,
    g_table: np.ndarray,
    policy: Optional[PolicyPair] = None,
    contract: Optional[str] = None,
) -> StageRep:
    """Exact bilinear decomposition of one backward-recursion block.

    ``g_table[s', u']`` is a next-cell function; ``contract`` multiplies it by
    the next actor's policy mean: ``"next_bob"`` uses the bob rule following
    an even stage, ``"next_alice"`` the alice rule following an odd stage,
    ``None`` no factor.  Returns the V-marginalized representation in
    (alice-recent, bob-recent) coordinates; :class:`MalformedSpec` for a
    ``policy`` of another game than ``spec``.
    """
    ns, nu = spec.n_states, spec.n_u
    if policy is not None:
        PolicyStack.of([policy], spec.horizon, ns, nu)
    h = stage // 2
    kern = np.moveaxis(spec.trans[stage], 3, 0)  # (s, u, v1, v2, a, b, s')
    u_next = (
        spec.u_law[stage + 1] if stage + 1 < spec.n_stages else np.ones((ns, 1))
    )
    grid_a, grid_b = np.meshgrid(np.arange(2.0), np.arange(2.0), indexing="ij")
    if contract is None:
        fac = np.ones((ns, u_next.shape[1], 2, 2))
    elif contract == "next_bob":
        pi_b = policy.bob[h]  # (s', a)
        fac = np.broadcast_to(pi_b[:, None, :, None], (ns, u_next.shape[1], 2, 2)).copy()
    elif contract == "next_alice":
        pi_a = policy.alice[h + 1]  # (s', u', b)
        fac = np.broadcast_to(pi_a[:, :, None, :], (ns, u_next.shape[1], 2, 2)).copy()
    else:
        raise ValueError(f"unknown contraction {contract!r}")
    target = g_table[:, : u_next.shape[1], None, None] * fac  # (s', u', a, b)
    # E[g * fac | s, u, v, a, b]
    val = np.einsum("suvwabp,pq,pqab->suvwab", kern, u_next, target)
    w = _v_weights(spec, stage)
    return StageRep.of_corners(np.einsum("suvwab,svw->suab", val, w))
