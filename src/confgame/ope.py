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
stage reads its rows once into a :class:`StageStats`: the count table,
nuisances, features and cell means of :mod:`confgame.moments`, the
continuation contraction of the recursion and the criterion geometry of its
basis.  The stages differ only in their rows, so :func:`build_stages` builds
them in one pass: their count tables stack along a leading stage axis, the
nuisances of every (stage, fold) are fitted together, and features, cell
means and geometry run once on the stack; each :class:`StageStats` is one
stage of that build.  None of it depends on the policy, so
:func:`stage_statistics` builds a dataset's stages once and keeps them on the
dataset for every later call.
:func:`chain_recursion` is the one backward recursion, run on a
:class:`PolicyStack` of candidates: evaluation runs it on a class of one
with the single all-center chain, the pessimistic learner on its whole class
with its member chains.  A candidate's continuation fit at a stage depends
only on what it plays after that stage, so the recursion fits one row per
group of candidates that play alike from there on
(:attr:`~confgame.game.PolicyStack.stage_groups`).  The rows come from a sampled
dataset (:class:`SampleSource`, which alone holds the cross-fitting option)
or from exact-law weighted rows (:class:`PopulationSource`, "population
mode"), which is how the composition algebra is tested against the
brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Optional, Union

import numpy as np

from .errors import BasisMismatch, DegenerateIV, IllPosedFit, InsufficientData
from .game import (
    _OBSERVED_FIELDS,
    BehaviorPolicyPair,
    GameSpec,
    OfflineDataset,
    PolicyPair,
    PolicyStack,
    check_dataset,
)
from .moments import KeyTable
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
    y_reward: np.ndarray
    next_s: np.ndarray
    next_u: np.ndarray
    fold: Optional[np.ndarray] = None


class SampleSource:
    """Adapter exposing an offline dataset stage by stage, with its
    cross-fitting option.  It checks nothing; a stage build checks the
    dataset before it reads a row (:func:`_stacked_build`).  The horizon and
    grid are read from the dataset when used, so a source never holds a grid
    its dataset no longer has."""

    row_name = "rows"  # what the row-count guards count
    horizon = property(lambda self: self.dataset.horizon)
    n_states = property(lambda self: self.dataset.n_states)
    n_u = property(lambda self: self.dataset.n_u)

    def __init__(self, dataset: OfflineDataset, cross_fit: bool = False):
        self.dataset = dataset
        self.cross_fit = cross_fit

    def stage_rows(self, t: int) -> StageRows:
        ds, h, n = self.dataset, t // 2, self.dataset.n
        fold = (np.arange(n) % 2) if self.cross_fit else None
        w = np.full(n, 1.0 / max(n, 1))
        if t % 2 == 0:  # alice acts, bob's half step follows
            iv = ds.b_init if h == 0 else ds.b[:, h - 1]  # bob's action before alice's step h + 1
            cur = ds.s[:, h], ds.u[:, h], ds.a[:, h], iv, w, ds.r_a[:, h]
            nxt = ds.s_half[:, h], ds.u_half[:, h]
        else:  # bob acts, alice's next step or the terminal state follows
            cur = ds.s_half[:, h], ds.u_half[:, h], ds.b[:, h], ds.a[:, h], w, ds.r_b[:, h]
            last = h + 1 == self.horizon
            nxt = (ds.s_term, np.zeros(n, dtype=np.int64)) if last else (ds.s[:, h + 1], ds.u[:, h + 1])
        return StageRows(*cur, *nxt, fold)


class PopulationSource:
    """Exact-law weighted rows; every sample average becomes an expectation.
    A row is an atom of the law, so the row-count guards count atoms."""

    row_name = "law atoms (population mode)"

    def __init__(self, spec: GameSpec, behavior: Optional[BehaviorPolicyPair] = None):
        self.spec = spec
        self.behavior = behavior or BehaviorPolicyPair.from_spec(spec)
        self.laws = stage_laws(spec, self.behavior)
        self.horizon = spec.horizon
        self.n_states = spec.n_states
        self.n_u = spec.n_u

    def stage_rows(self, t: int) -> StageRows:
        tbl = self.laws.transition_rows(t)  # (s,u,v1,v2,prev,act,s',u')
        flat = np.flatnonzero(tbl > 0)
        s, u, v1, v2, prev, act, nxt_s, nxt_u = np.unravel_index(flat, tbl.shape)
        w = tbl.ravel()[flat]
        y = self.spec.reward_mean(t, act.astype(float), prev.astype(float), u, v1, v2, s)
        return StageRows(s, u, act, prev, w, y, nxt_s, nxt_u)


DataSource = Union[SampleSource, PopulationSource]


def as_source(data) -> DataSource:
    """``data`` as a source: a dataset becomes a :class:`SampleSource` that
    does not cross-fit, and a source is returned as it is."""
    return SampleSource(data) if isinstance(data, OfflineDataset) else data


# ---------------------------------------------------------------------------
# per-stage statistics
# ---------------------------------------------------------------------------


class StageStats:
    """Per-cell sufficient statistics of one stage, read from its rows once.

    Every feature of the moment system is a function of (cell, instrument,
    action) and the reward enters linearly, so the stage is five steps on
    :class:`~confgame.moments.KeyTable`: the table of its rows over (fold,
    cell, instrument, action, next cell); one nuisance fit per fold on the
    other fold's key weights; the features of every key; their cell means;
    and the continuation contraction below, which only the recursion needs.

    ``mass[c]`` is cell ``c``'s share of the stage weight and ``phibar4[c]``
    the cell mean of the four-unknown design ``phi``; ``phibar3`` is its
    top-left block, the design of the intercept-free reward system.  Every
    outcome moment is a feature times the outcome (``alpha`` per unit
    outcome), so ``abar_reward`` holds the reward criterion's moment means
    and ``t_alpha[b, m, next_cell, act]`` turns any continuation outcome
    ``g(next_cell, act)`` into moment means by contraction, as
    ``scale_weights[next_cell, act]`` does for its mean square
    (:meth:`block_moments`).

    With cross-fitting the weighted sums of both folds are added.
    ``nuisances`` holds one :class:`NuisanceSet` per fold, whose
    ``clip_count`` counts rows.  ``geometry3`` and ``geometry4`` are the
    reward and continuation criteria over ``basis``
    (:meth:`~confgame.smd.BlockGeometry.of_basis`), whose blocks
    ``abar_reward`` and ``t_alpha`` follow; ``reward_coef`` is the reward
    block's fit (:meth:`reward_fit`).

    The steps never mix stages, so the stages of a source are built together
    (:func:`build_stages`): their tables stack along a leading stage axis and
    every step runs once on the stack.  Each ``StageStats`` is one stage of
    that build, holding its own copy of the stage's arrays.
    ``StageStats(source, t, basis)`` is the build of stage ``t`` alone, whose
    guards raise their own errors, without naming the stage.
    """

    def __init__(self, source: DataSource, t: int, basis: SieveBasis):
        self.__dict__.update(vars(_stacked_build(source, (t,), basis)[0]))

    def reward_fit(self) -> SmdFit:
        """The reward block's fit record, centered at the build's ``reward_coef``."""
        scale = float(np.sqrt(self.reward_scale_sq))
        return fit_cell_moments(self.geometry3, self.reward_coef, self.abar_reward, self.basis, scale)

    def block_moments(self, g: np.ndarray):
        """Moment means (..., blocks, m) and mean squares (...) of
        continuation outcomes ``g[..., next_cell, act]``."""
        alpha = np.einsum("cmna,...na->...cm", self.t_alpha, g)
        scale_sq = np.einsum("na,...na->...", self.scale_weights, g**2)
        return alpha, scale_sq


def _stacked_build(source: DataSource, stages, basis: SieveBasis) -> list:
    """:class:`StageStats` of ``stages`` of ``source``, built in one pass on
    their stacked :class:`~confgame.moments.KeyTable`.  Every build checks
    what it reads, once, before it reads a row: a :class:`SampleSource`'s
    dataset (:func:`~confgame.game.check_dataset`), then the basis grid
    (:class:`BasisMismatch`).  A failing data guard raises its error without
    naming the stage: the nuisance guards of every stage fire before any
    stage's reward solve."""
    if isinstance(source, SampleSource):
        check_dataset(source.dataset)
    ns, nu = source.n_states, source.n_u
    if (basis.n_states, basis.n_u) != (ns, nu):
        raise BasisMismatch(f"basis has (n_states, n_u) = {basis.n_states, basis.n_u}; the data have {ns, nu}")
    tables = []
    for t in stages:
        rows = source.stage_rows(t)
        tables.append(KeyTable.of_rows(
            ns, nu, rows.s, rows.u, rows.iv, rows.act, rows.y_reward, rows.weights,
            rows.fold, rows.next_s * nu + rows.next_u,
        ))
    table, folds = KeyTable.stack(tables), tables[0].count.shape[0]
    nuisances = table.nuisances(basis, source.row_name)
    phi, alpha = table.features(nuisances)
    mass, phibar4, reward_sum = table.cell_means(phi, alpha[..., :3])
    nz = mass > 0
    t_alpha = np.einsum("...fcian,...fciam->...cmna", table.weight, alpha, order="C")
    t_alpha[nz] /= mass[nz][:, None, None, None]
    scale_weights = table.weight.sum(axis=(-5, -4, -3))

    # every stage holds its own arrays; phibar3 is a view of phibar4
    masses, phibar4s = [m.copy() for m in mass], [p.copy() for p in phibar4]
    phibar3s = [p[:, :3, :3] for p in phibar4s]
    geometry3 = BlockGeometry.of_stages(masses, phibar3s, basis)
    geometry4 = BlockGeometry.of_stages(masses, phibar4s, basis)
    stats = []
    for i in range(len(stages)):
        st = StageStats.__new__(StageStats)
        st.basis, st.n_states, st.n_u = basis, ns, nu
        st.reward_scale_sq = float(table.mean_square[i])
        st.nuisances = nuisances[i * folds : (i + 1) * folds]
        st.mass, st.phibar4, st.phibar3 = masses[i], phibar4s[i], phibar3s[i]
        st.scale_weights = np.ascontiguousarray(scale_weights[i].T)
        st.geometry3, st.geometry4 = geometry3[i], geometry4[i]
        st.abar_reward = st.geometry3.moments(reward_sum[i].copy())
        st.t_alpha = st.geometry4.moments(t_alpha[i].copy())
        st.reward_coef = st.geometry3.solve(st.abar_reward)
        stats.append(st)
    return stats


_GUARDS = (DegenerateIV, IllPosedFit, InsufficientData)  # the errors a stage build raises for its data


def build_stages(source: DataSource, stages, basis: SieveBasis) -> list:
    """:class:`StageStats` of ``stages`` of ``source``, built and checked in
    one stacked pass (:func:`_stacked_build`).  When a data guard fails, the
    stages are built again one at a time, so that the first stage whose guard
    fails raises its first guard's error, naming the stage (``stage t: ...``)."""
    try:
        return _stacked_build(source, stages, basis)
    except _GUARDS:
        for t in stages:
            try:
                StageStats(source, t, basis)
            except _GUARDS as exc:
                raise type(exc)(f"stage {t}: {exc}") from exc
        raise


def stage_statistics(source: DataSource, basis: SieveBasis) -> list:
    """:class:`StageStats` of every stage, in stage order: the memo's entry
    or a new build (:func:`build_stages`), which checks what it reads.

    The statistics of a :class:`SampleSource` do not depend on the policy, so
    they are built once per dataset and kept in its memo
    (``OfflineDataset._stats``), keyed by the basis object and the source's
    ``cross_fit`` flag; every later call for that key returns the same
    objects, which callers must not modify.  An entry keeps its basis, which
    must be the very object asked for (a sieve basis holds arrays and is not
    hashable), and the :func:`_dataset_view` it was built from, whose arrays
    it makes read-only: it is reused only while the dataset holds those same
    arrays, still read-only, with the same horizon, states and private
    values.  So a hit returns statistics of data a build checked, and checks
    nothing again; reassigning an array, or a copy whose arrays are writeable
    again (``copy.deepcopy``), misses and is built and checked anew.  A
    :class:`PopulationSource` is built on every call.
    """
    if not isinstance(source, SampleSource):
        return build_stages(source, range(2 * source.horizon), basis)
    ds = source.dataset
    key, view = (id(basis), source.cross_fit), _dataset_view(ds)
    kept_basis, kept_view, stats = ds._stats.get(key, (None, None, None))
    if kept_basis is basis and _same_view(kept_view, view):
        return stats
    stats = build_stages(source, range(2 * source.horizon), basis)
    for arr in view[1]:
        arr.setflags(write=False)
    ds._stats[key] = (basis, view, stats)
    return stats


def _dataset_view(ds: OfflineDataset) -> tuple:
    """What :func:`~confgame.game.check_dataset` reads of ``ds``: its
    (``n_states``, ``n_u``, ``horizon``) and its observed array objects."""
    return (ds.n_states, ds.n_u, ds.horizon), [getattr(ds, name) for name in _OBSERVED_FIELDS]


def _same_view(kept, now) -> bool:
    """Whether ``now`` has the grid and horizon of ``kept`` and the very same
    array objects, still read-only (``kept`` may be ``None``)."""
    return (
        kept is not None
        and kept[0] == now[0]
        and all(old is arr and not arr.flags.writeable for old, arr in zip(kept[1], now[1]))
    )


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
    continuation regions' centers ``coef`` (group, chain, 4, blocks, q),
    moment means (kept for a class of one only), outcome mean squares and
    radii (group, chain, 4).  ``rows`` (candidate,) is each candidate's group
    at this stage (:attr:`~confgame.game.PolicyStack.stage_groups`), so
    ``coef[rows]`` holds every candidate's centers."""

    st: StageStats
    t: int
    chains: int
    rows: np.ndarray
    reward: Optional[tuple]
    coef: Optional[np.ndarray]
    alpha: Optional[np.ndarray]
    scale_sq: Optional[np.ndarray]
    radius: Optional[np.ndarray]

    @cached_property
    def rep(self) -> np.ndarray:
        """Stage tables (group or 1, chain or 1, cells, 4) the chains carry
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
    the next stage's chain tables.  Each stage fits one row per group of
    :attr:`~confgame.game.PolicyStack.stage_groups`, from its first
    candidate's policy and next-stage row: the candidates of a group play
    alike after the stage, so their fits are the same.  A class of one is
    fitted as it is.  The recursion itself holds on to no stage
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
        rows, first = policies.stage_groups[t]
        if nxt is not None:
            # one fit per group, from its first candidate's next-stage row
            rep = nxt.rep if len(nxt.rep) == 1 else nxt.rep[nxt.rows[first]]
            leaders = policies if len(first) == len(rows) else policies.take(first)
            coef, alpha, scale_sq = continuation_centers(st, t, rep, leaders)
            if len(rows) > 1:
                alpha = None  # only a class of one reports its block fits
            radius = unit_next * scale_sq
        nxt = StageRegions(st, t, chains, rows, reward, coef, alpha, scale_sq, radius)
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
    pa = policies.actor_mean(0)  # (candidate, cell, b)
    w = np.empty(pa.shape[:-1] + (4,))
    w[..., 0] = (1 - pi_b) * pa[..., 0] + pi_b * pa[..., 1]
    w[..., 1], w[..., 2], w[..., 3] = pi_b, pi_b * pa[..., 1], 1.0
    return p1[:, None] * w


def evaluate_policy(data, policy: PolicyPair, basis: SieveBasis) -> OPEResult:
    """Fitted stage tables and value estimates: the all-center chain of
    :func:`chain_recursion`, with a fit record of every block's center.

    ``data`` is an :class:`OfflineDataset` or a source (:func:`as_source`);
    to cross-fit, pass ``SampleSource(dataset, cross_fit=True)``.  The
    statistics come first (:func:`stage_statistics`), as in the learner: the
    dataset check, the basis check and the data guards of a build raise
    before a policy of another grid does."""
    if not isinstance(policy, PolicyPair):
        raise TypeError("policy must be a PolicyPair (bob rules cannot see v)")
    source = as_source(data)
    stats = stage_statistics(source, basis)
    ns, nu = source.n_states, source.n_u
    policies = PolicyStack.of([policy], source.horizon, ns, nu)
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
                blocks = zip(stage.coef[0, 0], stage.alpha[0, 0], np.sqrt(stage.scale_sq[0, 0]))
                for j, (coef, alpha, scale) in enumerate(blocks):
                    fits[(t, side, f"block{j}")] = fit_cell_moments(st.geometry4, coef, alpha, basis, float(scale))
    return OPEResult(qhat=reps, j_alice=value["alice"], j_bob=value["bob"], fits=fits)

