"""Off-policy evaluation by backward recursion over invalid-instrument fits.

Each stage's action-value function is bilinear in (alice's recent action,
bob's recent action) plus a constant continuation term.  Working backward
from the final reward, every stage fits up to five blocks against the
role-appropriate moment system: a reward block (three unknowns; reward
residuals are centered so the intercept is structurally zero) and four
continuation blocks carrying the next stage's constant, own-action,
partner-action and interaction coefficients through the transition, those on
the next actor's action weighted by the evaluated policy (four unknowns each,
since a conditional mean of a continuation generally has a constant part).
The fitted blocks combine linearly into the stage representation, where
post-multiplying by a binary action folds constants and instrument
coefficients into own-action and interaction slots.  This stage algebra is
written once (:func:`stage_roles`, :data:`BLOCK_SLOTS`,
:func:`contracted_blocks`, :func:`block_slots`); the outcomes of the blocks,
their combination, the learner's first-stage value weights and its coverage
check all follow from it.

Every block fit needs only per-cell statistics of the stage's rows, so each
stage reads its rows once into a :class:`StageStats`, which also holds the
criterion geometry of its basis.  :func:`chain_recursion` is the one backward
recursion, run on a :class:`PolicyStack` of candidates: evaluation runs it on
a class of one with the single all-center chain, the pessimistic learner on
its whole class with its member chains.  The rows come from a sampled
dataset or from exact-law weighted rows ("population mode"), which is how the
composition algebra is tested against the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Optional, Union

import numpy as np

from .errors import BasisMismatch, DegenerateIV, IllPosedFit, InsufficientData
from .game import BehaviorPolicyPair, GameSpec, OfflineDataset, PolicyPair, check_dataset
from .moments import MomentData, assemble_system, estimate_nuisances
from .oracle import StageRep, stage_laws
from .sieve import SieveBasis
from .smd import BlockGeometry, SmdFit, fit_cell_moments


@dataclass
class StageRows:
    """Rows of one decision point: cell, action, instrument, reward, next cell."""

    s: np.ndarray
    u: np.ndarray
    act: np.ndarray
    iv: np.ndarray
    weights: np.ndarray
    y_reward: Optional[np.ndarray]
    next_s: Optional[np.ndarray]
    next_u: Optional[np.ndarray]
    fold: Optional[np.ndarray] = None


class SampleSource:
    """Adapter exposing an offline dataset stage by stage.

    Raises :class:`MalformedDataset` when a state or private value is out of
    range, an action is not binary or a reward is not finite.
    """

    def __init__(self, dataset: OfflineDataset, cross_fit: bool = False):
        check_dataset(dataset)
        self.dataset = dataset
        self.cross_fit = cross_fit
        self.horizon = dataset.horizon
        self.n_states = dataset.n_states
        self.n_u = dataset.n_u

    def stage_rows(self, t: int) -> StageRows:
        ds, h, n = self.dataset, t // 2, self.dataset.n
        fold = (np.arange(n) % 2) if self.cross_fit else None
        w = np.full(n, 1.0 / max(n, 1))
        if t % 2 == 0:  # alice acts, bob's half step follows
            cur = ds.s[:, h], ds.u[:, h], ds.a[:, h], ds.iv_at(h), w, ds.r_a[:, h]
            nxt = ds.s_half[:, h], ds.u_half[:, h]
        else:  # bob acts, alice's next step or the terminal state follows
            cur = ds.s_half[:, h], ds.u_half[:, h], ds.b[:, h], ds.a[:, h], w, ds.r_b[:, h]
            last = h + 1 == self.horizon
            nxt = (ds.s_term, np.zeros(n, dtype=np.int64)) if last else (ds.s[:, h + 1], ds.u[:, h + 1])
        return StageRows(*cur, *nxt, fold)


class PopulationSource:
    """Exact-law weighted rows; every sample average becomes an expectation."""

    def __init__(self, spec: GameSpec, behavior: Optional[BehaviorPolicyPair] = None):
        self.spec = spec
        self.behavior = behavior or BehaviorPolicyPair.from_spec(spec)
        self.laws = stage_laws(spec, self.behavior)
        self.horizon = spec.horizon
        self.n_states = spec.n_states
        self.n_u = spec.n_u

    def stage_rows(self, t: int) -> StageRows:
        tbl = self.laws.transition_rows(t)  # (s,u,v1,v2,prev,act,s',u')
        shape = tbl.shape
        idx = np.indices(shape).reshape(len(shape), -1)
        w = tbl.ravel()
        keep = w > 0
        s, u, v1, v2, prev, act, nxt_s, nxt_u = (a[keep] for a in idx)
        w = w[keep]
        y = self.spec.reward_mean(t, act.astype(float), prev.astype(float), u, v1, v2, s)
        return StageRows(s, u, act, prev, w, y, nxt_s, nxt_u)


DataSource = Union[SampleSource, PopulationSource]


def as_source(data, cross_fit: bool = False) -> DataSource:
    """``data`` as a source; ``ValueError`` when ``cross_fit`` is asked of a
    source that does not cross-fit, since the flag could not take effect."""
    if isinstance(data, OfflineDataset):
        return SampleSource(data, cross_fit=cross_fit)
    if cross_fit and not getattr(data, "cross_fit", False):
        raise ValueError(
            f"cross_fit=True has no effect on a {type(data).__name__} that does not cross-fit; "
            "pass the OfflineDataset or a SampleSource built with cross_fit=True"
        )
    return data


# ---------------------------------------------------------------------------
# per-stage statistics
# ---------------------------------------------------------------------------


class StageStats:
    """Per-cell sufficient statistics of one stage, read from its rows once.

    Every feature of the moment system is a function of (cell, instrument,
    action) and the reward enters linearly, so the stage's rows collapse into
    one count table over (fold, cell, instrument, action, next cell): its
    weights, the weighted reward sums per (fold, cell, instrument, action),
    the weighted reward square sum and the row counts.  The nuisances and
    features are then fitted and assembled once per fold on the ``4 * cells``
    grid of (cell, instrument, action) keys, weighted by the table.

    ``mass[c]`` is cell ``c``'s share of the stage weight and ``phibar4[c]``
    the cell mean of the four-unknown design ``phi`` of
    :func:`~confgame.moments.assemble_system`; ``phibar3`` is its top-left
    block, the design of the intercept-free reward system.  Every outcome
    moment is a feature times the outcome (the system's ``alpha`` at
    ``y = 1``), so ``abar_reward`` holds the reward criterion's moment means
    and ``t_alpha[b, m, next_cell, act]`` turns any continuation outcome
    ``g(next_cell, act)`` into moment means by contraction, as
    ``scale_weights[next_cell, act]`` does for its mean square
    (:meth:`block_moments`).

    With cross-fitting the rows split into two folds; each fold's features
    use nuisances fitted on the other fold and the weighted sums of both folds
    are added.  ``nuisances`` holds one :class:`NuisanceSet` per fold, whose
    ``clip_count`` counts rows.  ``geometry3`` and ``geometry4`` are the
    reward and continuation criteria over ``basis``
    (:meth:`~confgame.smd.BlockGeometry.of_basis`), whose blocks
    ``abar_reward`` and ``t_alpha`` follow; ``reward_coef`` is the reward
    block's fit (:meth:`reward_fit`).
    """

    def __init__(self, source: DataSource, t: int, basis: SieveBasis):
        rows = source.stage_rows(t)
        self.basis = basis
        self.n_states, self.n_u = ns, nu = source.n_states, source.n_u
        k = ns * nu
        folds = 1 if rows.fold is None else 2
        w = rows.weights / rows.weights.sum()
        key = ((rows.s * nu + rows.u) * 2 + rows.iv) * 2 + rows.act
        if rows.fold is not None:
            key = key + 4 * k * rows.fold
        table = (folds, k, 2, 2)
        weight = np.bincount(key * k + rows.next_s * nu + rows.next_u, w, minlength=4 * folds * k * k)
        weight = weight.reshape(table + (k,))
        wy = np.bincount(key, w * rows.y_reward, minlength=4 * folds * k).reshape(table)
        count = np.bincount(key, minlength=4 * folds * k).reshape(table)
        self.reward_scale_sq = float((w * rows.y_reward**2).sum())

        cell, iv, act = (a.ravel() for a in np.indices(table[1:]))
        s, u = np.divmod(cell, nu)
        self.nuisances, phi, alpha = [], [], []
        for f in range(folds):
            fit_on = folds - 1 - f  # the other fold; without cross-fitting, the only one
            fit_rows = count[fit_on]
            # the grid always has 4 * cells keys, so the row-count guards of
            # estimate_nuisances run here on the table's counts, in its order
            if fit_rows.sum() < basis.k:
                raise InsufficientData(f"{fit_rows.sum()} rows for {basis.k} basis functions")
            grid = MomentData(np.zeros(4 * k), s, u, act, iv, weight[fit_on].sum(axis=-1).ravel())
            nuis = estimate_nuisances(grid, basis)
            for arm_rows in fit_rows.sum(axis=(0, 2)):
                if arm_rows < basis.k:
                    raise InsufficientData(f"{arm_rows} rows for {basis.k} basis functions")
            nuis.clip_count = int(fit_rows.ravel() @ nuis.clipped(s, u, iv))
            self.nuisances.append(nuis)
            # at y = 1 the outcome moments alpha are the bare features
            system = assemble_system(MomentData(np.ones(4 * k), s, u, act, iv), nuis, intercept=True)
            phi.append(system.phi)
            alpha.append(system.alpha)
        phi = np.reshape(phi, table + (4, 4))
        alpha = np.reshape(alpha, table + (4,))

        self.mass = mass = weight.sum(axis=(0, 2, 3, 4))
        nz = mass > 0
        self.phibar4 = np.einsum("fcian,fciamp->cmp", weight, phi)
        self.phibar4[nz] /= mass[nz][:, None, None]
        self.phibar3 = self.phibar4[:, :3, :3]
        reward_sum = np.einsum("fcia,fciam->cm", wy, alpha[..., :3])
        reward_sum[nz] /= mass[nz][:, None]
        t_alpha = np.einsum("fcian,fciam->cmna", weight, alpha, order="C")
        t_alpha[nz] /= mass[nz][:, None, None, None]
        self.scale_weights = np.ascontiguousarray(weight.sum(axis=(0, 1, 2)).T)

        self.geometry3 = BlockGeometry.of_basis(mass, self.phibar3, basis)
        self.geometry4 = BlockGeometry.of_basis(mass, self.phibar4, basis)
        self.abar_reward = self.geometry3.moments(reward_sum)
        self.t_alpha = self.geometry4.moments(t_alpha)
        self.reward_coef = self.geometry3.solve(self.abar_reward)

    def reward_fit(self) -> SmdFit:
        """The reward block's fit record."""
        scale = float(np.sqrt(self.reward_scale_sq))
        return fit_cell_moments(self.geometry3, self.abar_reward, self.basis, scale)

    def block_moments(self, g: np.ndarray):
        """Moment means (..., blocks, m) and mean squares (...) of
        continuation outcomes ``g[..., next_cell, act]``."""
        alpha = np.einsum("cmna,...na->...cm", self.t_alpha, g)
        scale_sq = np.einsum("na,...na->...", self.scale_weights, g**2)
        return alpha, scale_sq


def stage_statistics(source: DataSource, basis: SieveBasis) -> list:
    """:class:`StageStats` of every stage, in stage order; :class:`BasisMismatch`
    when the basis is not built on the data's states and private values."""
    want, have = (basis.n_states, basis.n_u), (source.n_states, source.n_u)
    if want != have:
        raise BasisMismatch(f"basis has (n_states, n_u) = {want}; the data have {have}")
    stats = []
    for t in range(2 * source.horizon):
        try:
            stats.append(StageStats(source, t, basis))
        except (DegenerateIV, IllPosedFit, InsufficientData) as exc:
            raise type(exc)(f"stage {t}: {exc}") from exc
    return stats


# ---------------------------------------------------------------------------
# the stage algebra
# ---------------------------------------------------------------------------

THETA, GAMMA, OMEGA, ZETA = range(4)  # slots of a stage table: alice's action, bob's, interaction, constant
BLOCK_SLOTS = (ZETA, THETA, GAMMA, OMEGA)  # the next-stage slot each continuation block carries


def stage_roles(t: int) -> tuple:
    """Slots of the (action, instrument, interaction, constant) columns of a
    block fitted at stage ``t`` when nothing multiplies it: the acting
    player's own action, the partner's previous action (the instrument),
    their interaction and the constant.  Alice acts at even stages, bob at
    odd ones; a reward block has the first three columns."""
    return (THETA, GAMMA, OMEGA, ZETA) if t % 2 == 0 else (GAMMA, THETA, OMEGA, ZETA)


def block_slots(t: int) -> tuple:
    """Slot of every column of the four continuation blocks at stage ``t``.

    A block that carries a coefficient of the acting player's own action
    (the own or the interaction slot) is post-multiplied by that binary
    action: its action column stays in the own slot, its constant joins it,
    and its instrument column joins the interaction.  The other blocks fold
    as :func:`stage_roles` says."""
    roles = stage_roles(t)
    own = roles[0]
    post = (own, OMEGA, OMEGA, own)
    return tuple(post if slot in (own, OMEGA) else roles for slot in BLOCK_SLOTS)


def contracted_blocks(t: int) -> tuple:
    """Whether the next actor's policy mean multiplies each continuation
    block at stage ``t``: the next actor is the partner, so it weights the
    blocks that carry the partner's action coefficient or the interaction."""
    partner = stage_roles(t)[1]
    return tuple(slot in (partner, OMEGA) for slot in BLOCK_SLOTS)


@dataclass
class PolicyStack:
    """Policy pairs stacked on a leading candidate axis: ``alice`` (candidate,
    H, ns, nu, 2), ``bob`` (candidate, H, ns, 2) and ``init_bob`` (candidate,)."""

    alice: np.ndarray
    bob: np.ndarray
    init_bob: np.ndarray

    @classmethod
    def of(cls, pairs: list) -> "PolicyStack":
        return cls(
            np.array([p.alice for p in pairs]),
            np.array([p.bob for p in pairs]),
            np.array([p.init_bob for p in pairs], dtype=float),
        )

    def actor_mean(self, t: int) -> np.ndarray:
        """P(action = 1) of the player acting at stage ``t`` (alice at even
        stages, bob at odd ones), (candidate, cell, partner's previous action)."""
        if t % 2 == 0:
            return self.alice[:, t // 2].reshape(self.alice.shape[0], -1, 2)
        return np.repeat(self.bob[:, t // 2], self.alice.shape[3], axis=1)


def continuation_centers(st: StageStats, t: int, rep: np.ndarray, policies: PolicyStack):
    """Centers (candidate, chain, 4, blocks, q), moment means and outcome mean
    squares (candidate, chain, 4) of the continuation blocks of next-stage
    (theta, gamma, omega, zeta) tables ``rep`` (candidate or 1, chain,
    next_cell, 4): the slots of :data:`BLOCK_SLOTS`, those of
    :func:`contracted_blocks` times the next actor's policy mean.
    """
    fac = policies.actor_mean(t + 1)[:, None]  # (candidate, 1, next_cell, act)
    g = np.empty((fac.shape[0], rep.shape[-3], 4) + fac.shape[-2:])
    for j, (slot, contracted) in enumerate(zip(BLOCK_SLOTS, contracted_blocks(t))):
        g[:, :, j] = rep[..., slot, None] * fac if contracted else rep[..., slot, None]
    alpha, scale_sq = st.block_moments(g)
    try:
        return st.geometry4.solve(alpha), alpha, scale_sq
    except IllPosedFit as exc:
        raise IllPosedFit(f"stage {t}: {exc}") from exc


def combine_blocks(t: int, reward_m, block_m, n_rows: int) -> np.ndarray:
    """Block tables -> (candidate or 1, chain or 1, row, 4) stage
    representations, row by row.

    ``reward_m[chain, row]`` is in (own action, instrument, interaction)
    order, the same for every candidate; ``block_m[candidate, chain, block,
    row]`` holds the constant, own-coefficient, partner-coefficient and
    interaction blocks of the continuation, each in (action, instrument,
    interaction, constant) order of the stage's own roles.  Each column adds
    into its slot of :func:`stage_roles` and :func:`block_slots`.  Either may
    be ``None``; with both ``None`` the representation is zero.
    """
    if block_m is not None:
        lead = block_m.shape[:2]
    else:
        lead = (1,) + (reward_m.shape[:1] if reward_m is not None else (1,))
    rep = np.zeros(lead + (n_rows, 4))
    if reward_m is not None:
        for col, slot in enumerate(stage_roles(t)[:3]):
            rep[..., slot] += reward_m[..., col]
    if block_m is not None:
        terms = [[] for _ in range(4)]  # the block sum of each slot, added to the reward part at once
        for j, slots in enumerate(block_slots(t)):
            for c, slot in enumerate(slots):
                terms[slot].append(block_m[..., j, :, c])
        for slot, parts in enumerate(terms):
            rep[..., slot] += reduce(add, parts)
    return rep


# ---------------------------------------------------------------------------
# the backward recursion
# ---------------------------------------------------------------------------


@dataclass
class StageRegions:
    """Stage ``t`` of :func:`chain_recursion`: the reward region's (center,
    radius) when the side is paid here; when a stage follows, the
    continuation regions' centers ``coef`` (candidate, chain, 4, blocks, q),
    moment means, outcome mean squares and radii (candidate, chain, 4)."""

    st: StageStats
    t: int
    chains: int
    reward: Optional[tuple]
    coef: Optional[np.ndarray]
    alpha: Optional[np.ndarray]
    scale_sq: Optional[np.ndarray]
    radius: Optional[np.ndarray]

    @cached_property
    def rep(self) -> np.ndarray:
        """Stage tables (candidate or 1, chain or 1, cells, 4) the chains carry
        to the stage before: member ``k`` of each region for chain ``k``,
        combined, as cell tables.  The reward members do not depend on the
        policy and are built once.  Built on first use: the learner never
        needs the first stage's."""
        index, k = np.arange(self.chains), self.st.basis.k
        reward_m = block_m = None
        if self.reward is not None:
            reward_m = self.st.geometry3.members(*self.reward, index).reshape(self.chains, k, -1)
        if self.coef is not None:
            block_m = self.st.geometry4.members(self.coef, self.radius, index[:, None])
            block_m = block_m.reshape(block_m.shape[:-2] + (k, -1))
        return self.st.basis.tables(combine_blocks(self.t, reward_m, block_m, k))


def chain_recursion(
    stats: list, policies: PolicyStack, side: str, chains: int = 1, radius_units=None
):
    """The backward recursion of one side for a stack of candidate policies,
    run by a stack of member chains: yields every stage's
    :class:`StageRegions`, last stage first, each stage's centers fitted to
    the next stage's chain tables.  The recursion itself holds on to no stage
    but the one it fits from, so a caller that keeps only the first stage
    holds two stages' arrays at a time, whatever the horizon.
    ``radius_units[t]`` holds the reward and continuation radii per unit
    outcome mean square (zero without it).  Chain 0 takes every center:
    alone, it is the plug-in recursion."""
    nxt = None
    for t in reversed(range(len(stats))):
        st = stats[t]
        unit_reward, unit_next = radius_units[t] if radius_units is not None else (0.0, 0.0)
        reward = coef = alpha = scale_sq = radius = None
        if (t % 2 == 0) == (side == "alice"):
            reward = (st.reward_coef, unit_reward * st.reward_scale_sq)
        if nxt is not None:
            coef, alpha, scale_sq = continuation_centers(st, t, nxt.rep, policies)
            radius = unit_next * scale_sq
        nxt = StageRegions(st, t, chains, reward, coef, alpha, scale_sq, radius)
        yield nxt


@dataclass
class OPEResult:
    qhat: dict
    j_alice: float
    j_bob: float
    fits: dict = field(default_factory=dict)

    @property
    def j_total(self) -> float:
        return self.j_alice + self.j_bob


def value_weight_tables(stats: StageStats, policies: PolicyStack) -> np.ndarray:
    """Occupancy-weighted feature expectations of the opening move.

    ``stats`` are the statistics of stage 0, whose cell mass is the opening
    occupancy.  Returns (candidate, cells, 4) weights such that the estimated
    value of either player is their elementwise dot product with the
    stage-one (theta, gamma, omega, zeta) table.
    """
    p1 = stats.mass / stats.mass.sum()
    pi_b = policies.init_bob[:, None]
    pa = policies.alice[:, 0].reshape(pi_b.shape[0], -1, 2)  # (candidate, cell, b)
    w = np.empty(pa.shape[:-1] + (4,))
    w[..., 0] = (1 - pi_b) * pa[..., 0] + pi_b * pa[..., 1]
    w[..., 1], w[..., 2], w[..., 3] = pi_b, pi_b * pa[..., 1], 1.0
    return p1[:, None] * w


def evaluate_policy(
    data,
    policy: PolicyPair,
    basis: SieveBasis,
    cross_fit: bool = False,
) -> OPEResult:
    """Fitted stage tables and value estimates: the all-center chain of
    :func:`chain_recursion`, with a fit record of every block."""
    if not isinstance(policy, PolicyPair):
        raise TypeError("policy must be a PolicyPair (bob rules cannot see v)")
    source = as_source(data, cross_fit=cross_fit)
    policy.check_grid(source.horizon, source.n_states, source.n_u)
    ns, nu = source.n_states, source.n_u
    stats = stage_statistics(source, basis)
    policies = PolicyStack.of([policy])
    w = value_weight_tables(stats[0], policies)[0]
    reps, fits, value = {}, {}, {}
    for side in ("alice", "bob"):
        stages = list(chain_recursion(stats, policies, side))[::-1]
        value[side] = float(sum((w[:, i] * stages[0].rep[0, 0, :, i]).sum() for i in range(4)))
        for t, (st, stage) in enumerate(zip(stats, stages)):
            reps[(t, side)] = StageRep(*(stage.rep[0, 0, :, i].reshape(ns, nu) for i in range(4)))
            if stage.reward is not None:
                fits[(t, side, "reward")] = st.reward_fit()
            if stage.coef is not None:
                for j in range(4):
                    fits[(t, side, f"block{j}")] = fit_cell_moments(
                        st.geometry4, stage.alpha[0, 0, j], basis, float(np.sqrt(stage.scale_sq[0, 0, j]))
                    )
    return OPEResult(qhat=reps, j_alice=value["alice"], j_bob=value["bob"], fits=fits)


def dump_qhat_csv(result: OPEResult, path) -> None:
    """Write fitted stage tables as CSV (step, player, s, u, coefficients)."""
    lines = ["step,player,s,u,theta,gamma,omega,zeta"]
    for (t, side), rep in sorted(result.qhat.items()):
        step = t // 2 + 1 if t % 2 == 0 else (t // 2 + 1) + 0.5
        ns, nu = rep.theta.shape
        for s in range(ns):
            for u in range(nu):
                lines.append(
                    f"{step},{side},{s},{u},{rep.theta[s, u]:.17g},"
                    f"{rep.gamma[s, u]:.17g},{rep.omega[s, u]:.17g},{rep.zeta[s, u]:.17g}"
                )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
