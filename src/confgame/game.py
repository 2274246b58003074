"""Tabular two-player turn-based games with private information.

A game runs for ``H`` full steps.  The first mover ("alice") acts at integer
steps ``1..H`` and sees the state, her own private information ``u`` and the
partner's previous action.  The second mover ("bob") acts at half steps
``1/2, 3/2, ..., H+1/2`` and sees the state, his own private information
``v = (v1, v2)`` and alice's previous action.  Bob's private information is
never written to the offline dataset; it is the unobserved confounder that
the estimation modules have to handle.

Both the action and the reward of each player follow saturated conditional
mean models that are bilinear in (own action, partner's previous action),
with coefficient tables indexed by ``(u, v1, v2, s)``.  State transitions are
bilinear in the same pair of actions, which keeps every conditional mean of a
next-state function in the span of ``{1, a, b, a*b}``.

Internally a game is indexed by stages ``t = 0 .. 2H-1``: even stages are
alice decision points (full step ``h = t//2 + 1``), odd stages are bob
decision points (half step ``h + 1/2``).  At even stages the acting player's
action plays the "action" role and the partner's previous action plays the
"instrument" role; at odd stages the roles swap.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
from typing import Optional

import numpy as np

from .errors import EmptyClass, MalformedDataset, MalformedSpec

PROB_TOL = 1e-9


def _check_range(name, values, low=-np.inf, high=np.inf, what="a finite number"):
    """``values`` as a float array; :class:`MalformedSpec` naming ``name``, the
    first index and the value of an entry that is not finite or lies outside
    [low, high]."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values) | (values < low) | (values > high)
    _reject_first(name, "value", values, bad, f"is not {what}")
    return values


def _check_probabilities(name, values):
    return _check_range(name, values, -PROB_TOL, 1 + PROB_TOL, "a probability in [0, 1]")


def _check_dist(name, table, axis=-1):
    table = _check_probabilities(name, table)
    sums = table.sum(axis=axis)
    _reject_first(name, "row sum", sums, np.abs(sums - 1.0) > 1e-8, "is not 1")
    return table


def _reject_first(name, label, values, bad, what):
    if bad.any():
        idx = np.unravel_index(np.argmax(bad), bad.shape)
        at = f" at index {tuple(int(i) for i in idx)}" if bad.ndim else ""
        raise MalformedSpec(f"{name}: {label} {values[idx].item()!r}{at} {what}")


# The spec's coefficient tables, each indexed [u, v1, v2, s]: the action
# models, then each player's reward model in (act, iv, inter, resid) order.
COEF_TABLES = (
    "alice_act_base", "alice_act_iv", "bob_act_base", "bob_act_iv",
    "alice_rew_act", "alice_rew_iv", "alice_rew_inter", "alice_rew_resid",
    "bob_rew_act", "bob_rew_iv", "bob_rew_inter", "bob_rew_resid",
)
# the action and reward tables per player, alice's (acting at even stages) first
ACTION_TABLES = (COEF_TABLES[0:2], COEF_TABLES[2:4])
REWARD_TABLES = (COEF_TABLES[4:8], COEF_TABLES[8:])
# Every table of a spec, in spec-file order: the laws of the initial state and
# of the private draws u, v1 and v2, the coefficient tables, then the
# transition law.  A law is a distribution over its last axis.
SPEC_TABLES = ("init_state", "u_law", "v1_law", "v2_law", *COEF_TABLES, "trans")


@dataclass(frozen=True)
class GameSpec:
    """Full tabular ground truth of one game.

    Coefficient tables are indexed ``[u, v1, v2, s]``.  ``trans`` is indexed
    ``[stage, u, v1, v2, s, a, b, s']`` where ``a`` is alice's most recent
    action and ``b`` is bob's most recent action.  Private-information laws
    are indexed ``[stage, s, value]`` and are memoryless: fresh draws at every
    stage given the current state only.
    """

    horizon: int
    n_states: int
    n_u: int
    n_v1: int
    n_v2: int
    init_state: np.ndarray
    u_law: np.ndarray
    v1_law: np.ndarray
    v2_law: np.ndarray
    # action models: P(action=1) = act_base + act_iv * partner_prev_action
    alice_act_base: np.ndarray
    alice_act_iv: np.ndarray
    bob_act_base: np.ndarray
    bob_act_iv: np.ndarray
    # reward models: mean = rew_act*own + rew_iv*prev + rew_inter*own*prev + rew_resid
    alice_rew_act: np.ndarray
    alice_rew_iv: np.ndarray
    alice_rew_inter: np.ndarray
    alice_rew_resid: np.ndarray
    bob_rew_act: np.ndarray
    bob_rew_iv: np.ndarray
    bob_rew_inter: np.ndarray
    bob_rew_resid: np.ndarray
    trans: np.ndarray
    reward_noise: float = 0.1
    state_values: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("horizon", "n_states", "n_u", "n_v1", "n_v2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise MalformedSpec(f"{name}: expected an integer, got {value!r}")
        if self.horizon < 1:
            raise MalformedSpec("horizon must be a positive integer")
        _check_range("reward_noise", self.reward_noise)
        stages, ns = 2 * self.horizon, self.n_states
        coef = (self.n_u, self.n_v1, self.n_v2, ns)
        # the shape of each of SPEC_TABLES, in order
        laws = [(stages, ns, width) for width in coef[:3]]
        shapes = ((ns,), *laws, *[coef] * len(COEF_TABLES), (stages, *coef, 2, 2, ns))
        for name, want in zip(SPEC_TABLES, shapes, strict=True):
            table = np.asarray(getattr(self, name), dtype=float)
            if table.shape != want:
                raise MalformedSpec(f"{name}: expected shape {want}, got {table.shape}")
            check = _check_range if name in COEF_TABLES else _check_dist
            object.__setattr__(self, name, check(name, table))
        for player, names in zip(("alice", "bob"), ACTION_TABLES):
            base, shift = (getattr(self, name) for name in names)
            for prev in (0, 1):
                _check_probabilities(f"{player} action model for prev={prev}", base + shift * prev)
        if self.state_values is not None:
            sv = _check_range("state_values", self.state_values)
            if sv.ndim != 2 or sv.shape[0] != ns:
                raise MalformedSpec("state_values: expected shape (n_states, d)")
            object.__setattr__(self, "state_values", sv)

    @property
    def n_stages(self) -> int:
        return 2 * self.horizon

    @property
    def n_cells(self) -> int:
        return self.n_states * self.n_u

    def reward_tables(self, stage: int):
        """(act, iv, inter, resid) reward tables of the player acting at ``stage``."""
        return tuple(getattr(self, name) for name in REWARD_TABLES[stage % 2])

    def reward_mean(self, stage: int, own: np.ndarray, prev: np.ndarray, u, v1, v2, s):
        """Mean reward of the player acting at ``stage`` for given draws.  The
        four tables share one shape, so one flat index gathers from them all."""
        tables = self.reward_tables(stage)
        flat = np.ravel_multi_index((u, v1, v2, s), tables[0].shape)
        ra, ri, rx, rr = (table.ravel()[flat] for table in tables)
        return ra * own + ri * prev + rx * own * prev + rr

    def scaled_rewards(self, factor: float) -> "GameSpec":
        """Same game with every reward (and reward noise) multiplied by factor."""
        scaled = {name: getattr(self, name) * factor for names in REWARD_TABLES for name in names}
        return replace(self, reward_noise=self.reward_noise * factor, **scaled)


@dataclass(frozen=True)
class BehaviorPolicyPair:
    """Data-collection rules for both players.

    ``alice[h, u, v1, v2, s, b_prev]`` is P(A=1 | ...) at full step ``h+1``;
    ``bob[h, u, v1, v2, s, a_prev]`` is P(B=1 | ...) at half step ``h+3/2``
    counted from zero, i.e. index ``h`` covers the bob move after alice's
    step ``h+1``.  ``init_bob`` is the probability of the opening bob action,
    drawn before the first state is revealed (an unconditional Bernoulli rule
    by default; see the module docs for the rationale).
    """

    alice: np.ndarray
    bob: np.ndarray
    init_bob: float

    def __post_init__(self):
        for name in ("alice", "bob"):
            object.__setattr__(self, name, _check_probabilities(f"behavior {name}", getattr(self, name)))
        _check_probabilities("behavior init_bob", self.init_bob)

    @classmethod
    def from_spec(cls, spec: GameSpec, init_bob: float = 0.5) -> "BehaviorPolicyPair":
        """Behavior pair matching the spec's own action models at every step."""
        prev = np.arange(2, dtype=float)
        alice, bob = (
            np.broadcast_to(
                getattr(spec, base)[..., None] + getattr(spec, iv)[..., None] * prev,
                (spec.horizon, spec.n_u, spec.n_v1, spec.n_v2, spec.n_states, 2),
            ).copy()
            for base, iv in ACTION_TABLES
        )
        return cls(alice=alice, bob=bob, init_bob=init_bob)

    def check_grid(self, spec: GameSpec) -> None:
        """Raise :class:`MalformedSpec` unless both rules are built for the
        game's horizon, private values, draws and states."""
        want = (spec.horizon, spec.n_u, spec.n_v1, spec.n_v2, spec.n_states, 2)
        if self.alice.shape != want or self.bob.shape != want:
            raise MalformedSpec(
                f"behavior tables have shapes alice {self.alice.shape}, bob {self.bob.shape}; "
                f"the game needs {want} for both"
            )

    def table(self, stage: int) -> np.ndarray:
        """P(action=1) table of the player acting at ``stage``, indexed
        [u, v1, v2, s, prev]."""
        return self.alice[stage // 2] if stage % 2 == 0 else self.bob[stage // 2]


@dataclass(frozen=True)
class PolicyPair:
    """Candidate policy pair to evaluate or learn.

    ``alice[h, s, u, b_prev]`` is P(a=1); alice never sees ``v``.  ``bob[h, s,
    a_prev]`` is P(b=1); an evaluated bob rule sees only the current state and
    alice's previous action, so a ``v``-dependent bob policy cannot even be
    expressed by this type.  ``init_bob`` is the opening-move probability.
    """

    alice: np.ndarray
    bob: np.ndarray
    init_bob: float

    def __post_init__(self):
        alice = np.asarray(self.alice, dtype=float)
        bob = np.asarray(self.bob, dtype=float)
        if alice.ndim != 4:
            raise TypeError("alice policy must be indexed [step, s, u, b_prev]")
        if bob.ndim != 3:
            raise TypeError("bob policy must be indexed [step, s, a_prev]; it may not depend on v")
        if alice.shape[0] != bob.shape[0]:
            raise MalformedSpec(
                f"policy tables have {alice.shape[0]} alice steps and {bob.shape[0]} bob steps"
            )
        for name, arr in (("alice", alice), ("bob", bob)):
            object.__setattr__(self, name, _check_probabilities(f"policy {name}", arr))
        _check_probabilities("policy init_bob", self.init_bob)

    @property
    def horizon(self) -> int:
        return self.alice.shape[0]

    def encode(self) -> tuple:
        """Stable encoding used for lexicographic tie-breaking."""
        return (
            float(self.init_bob),
            tuple(np.round(self.alice, 12).ravel().tolist()),
            tuple(np.round(self.bob, 12).ravel().tolist()),
        )


@dataclass
class PolicyStack:
    """Policy pairs stacked on a leading candidate axis: ``alice`` (candidate,
    H, ns, nu, 2), ``bob`` (candidate, H, ns, 2) and ``init_bob`` (candidate,)."""

    alice: np.ndarray
    bob: np.ndarray
    init_bob: np.ndarray

    @classmethod
    def of(cls, pairs: list, horizon: int, n_states: int, n_u: int) -> "PolicyStack":
        """Stack ``pairs`` for a game of this horizon, number of states and
        number of private values: the one place where a policy's tables meet a
        game.  :class:`MalformedSpec` names the first pair built for another;
        :class:`EmptyClass` if there is none."""
        if not pairs:
            raise EmptyClass("no candidate policy pairs")
        want = ((horizon, n_states, n_u, 2), (horizon, n_states, 2))
        for i, p in enumerate(pairs):
            if (p.alice.shape, p.bob.shape) != want:
                raise MalformedSpec(
                    f"policy pair {i} has shapes alice {p.alice.shape}, bob {p.bob.shape}; "
                    f"the game needs alice {want[0]}, bob {want[1]}"
                )
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

    def take(self, index) -> "PolicyStack":
        """The candidates ``index`` of the stack, as a stack."""
        return PolicyStack(self.alice[index], self.bob[index], self.init_bob[index])

    @cached_property
    def stage_groups(self) -> list:
        """The candidates that play alike after each stage: entry ``t`` is
        (``rows``, ``first``), each candidate's group (candidate,) and each
        group's first candidate (group,), groups in order of first occurrence.

        Two candidates share stage ``t``'s group when they share stage
        ``t + 1``'s and the tables of the player acting at ``t + 1``
        (:meth:`actor_mean`) bit for bit; at the last stage every candidate is
        in one group.  So each group refines the next stage's, and
        ``init_bob``, which acts before stage 0, enters no group's key.  A
        class of one is one group at every stage and is not grouped."""
        cand, stages = len(self.init_bob), 2 * self.alice.shape[1]
        rows = np.zeros(cand, dtype=np.int64)
        groups = [(rows, rows[:1])]
        if cand == 1:
            return groups * stages
        for t in reversed(range(stages - 1)):
            mean = np.ascontiguousarray(self.actor_mean(t + 1)).reshape(cand, -1)
            key = np.concatenate([rows[:, None], mean.view(np.int64)], axis=1)
            key = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()  # a row's bytes
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            order = np.argsort(first)
            rows = np.argsort(order)[inverse.reshape(cand)]
            groups.append((rows, first[order]))
        return groups[::-1]


def check_spec_grid(spec: GameSpec, horizon: int, n_states: int, n_u: int) -> None:
    """Raise :class:`MalformedSpec` unless ``spec`` is a game of this horizon,
    number of states and number of private values (a dataset's)."""
    have, want = (spec.horizon, spec.n_states, spec.n_u), (horizon, n_states, n_u)
    if have != want:
        raise MalformedSpec(f"the spec has (horizon, n_states, n_u) = {have}; the data have {want}")


def constant_policy_pair(
    spec: GameSpec, alice_action: float, bob_action: float, init_bob: float
) -> PolicyPair:
    """Policy pair playing fixed action probabilities everywhere."""
    h, ns, nu = spec.horizon, spec.n_states, spec.n_u
    return PolicyPair(
        alice=np.full((h, ns, nu, 2), float(alice_action)),
        bob=np.full((h, ns, 2), float(bob_action)),
        init_bob=float(init_bob),
    )


def stationary_deterministic_pairs(
    spec: GameSpec,
    cap: int = 4096,
    alice_sees_prev: bool = True,
    bob_sees_prev: bool = True,
) -> list[PolicyPair]:
    """All stationary deterministic policy pairs, in lexicographic order.

    The same decision table is replayed at every step.  ``alice_sees_prev``
    and ``bob_sees_prev`` shrink the class by ignoring the partner's previous
    action, which keeps multi-state games inside the candidate cap.
    """
    from .errors import SpaceTooLarge

    ns, nu, h = spec.n_states, spec.n_u, spec.horizon
    a_shape, b_shape = (ns, nu, 2 if alice_sees_prev else 1), (ns, 2 if bob_sees_prev else 1)
    a_full, b_full = (h, ns, nu, 2), (h, ns, 2)
    a_cells, b_cells = int(np.prod(a_shape)), int(np.prod(b_shape))
    total = 2 ** a_cells * 2 ** b_cells * 2
    if total > cap:
        raise SpaceTooLarge(
            f"{total} deterministic pairs exceed the cap of {cap}; restrict the class"
        )
    a_bits, b_bits = product((0, 1), repeat=a_cells), product((0, 1), repeat=b_cells)
    a_tabs = [np.broadcast_to(np.reshape(a, a_shape), a_full).astype(float, order="C") for a in a_bits]
    b_tabs = [np.broadcast_to(np.reshape(b, b_shape), b_full).astype(float, order="C") for b in b_bits]
    # the tables hold 0 and 1, so first-bit-major order is the order of ``encode()``
    return [
        PolicyPair(alice=a_tab.copy(), bob=b_tab.copy(), init_bob=float(init_bob))
        for init_bob, a_tab, b_tab in product((0, 1), a_tabs, b_tabs)
    ]


# ---------------------------------------------------------------------------
# offline data
# ---------------------------------------------------------------------------


@dataclass
class HiddenTrace:
    """Second mover's private draws, kept apart from the observed table.

    Only the exact oracle may read this; estimators never see it and the
    observed file format has no column for it.
    """

    v1: np.ndarray
    v2: np.ndarray
    v1_half: np.ndarray
    v2_half: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, HiddenTrace):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("v1", "v2", "v1_half", "v2_half")
        )


_OBSERVED_FIELDS = (
    "b_init",
    "s",
    "u",
    "a",
    "r_a",
    "s_half",
    "u_half",
    "b",
    "r_b",
    "s_term",
)


@dataclass
class OfflineDataset:
    """Observed trajectories; one row of arrays per full step.

    Integer arrays ``s, u, a, s_half, u_half, b`` and float rewards have
    shape ``(n, H)``; ``b_init`` and ``s_term`` have shape ``(n,)``.  The
    hidden trace rides along as a sibling attribute so the oracle can audit
    simulations, but equality, the file format and every estimator use only
    the observed fields.

    ``_stats`` is :func:`confgame.ope.stage_statistics`' memo of the
    dataset's per-stage statistics, keyed by basis object and cross-fit
    flag; only that function reads or writes it.  Storing an entry makes the
    observed arrays read-only, so an in-place edit raises instead of leaving
    the statistics stale; to change the data, assign new arrays (the memo
    then rebuilds) or build a new dataset.  Equality, ``repr`` and
    ``dataclasses.replace`` leave the memo out; ``replace`` starts empty.
    """

    horizon: int
    n_states: int
    n_u: int
    b_init: np.ndarray
    s: np.ndarray
    u: np.ndarray
    a: np.ndarray
    r_a: np.ndarray
    s_half: np.ndarray
    u_half: np.ndarray
    b: np.ndarray
    r_b: np.ndarray
    s_term: np.ndarray
    hidden: Optional[HiddenTrace] = None
    _stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.b_init.shape[0]

    def __eq__(self, other):
        if not isinstance(other, OfflineDataset):
            return NotImplemented
        if (self.horizon, self.n_states, self.n_u) != (
            other.horizon,
            other.n_states,
            other.n_u,
        ):
            return False
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in _OBSERVED_FIELDS
        )

    def __copy__(self) -> "OfflineDataset":
        """A shallow copy with a copy of the memo, so that reassigning an
        array of one never evicts the other's entries."""
        clone = replace(self)
        clone._stats = dict(self._stats)
        return clone


def check_dataset(ds: OfflineDataset) -> None:
    """Raise :class:`MalformedDataset` for an array of the wrong shape
    (:func:`check_dataset_shapes`), then at the first out-of-range entry: a
    state or private value outside the declared spaces, an action that is
    not binary or a reward that is not finite."""
    check_dataset_shapes(ds)
    ns, nu = ds.n_states, ds.n_u
    sizes = {"s": ns, "u": nu, "s_half": ns, "u_half": nu, "s_term": ns, "a": 2, "b": 2, "b_init": 2}
    for name, size in {**sizes, "r_a": None, "r_b": None}.items():
        check_column(name, getattr(ds, name), size)


def check_dataset_shapes(ds: OfflineDataset, with_hidden: bool = False) -> None:
    """:func:`check_shapes` of the observed arrays and, ``with_hidden``, of
    the hidden trace's if there is one: ``b_init`` and ``s_term`` are
    ``(n,)`` and every other array ``(n, horizon)``, so that ``s_term`` is
    the state after the last step."""
    arrays = {name: getattr(ds, name) for name in _OBSERVED_FIELDS}
    if with_hidden and ds.hidden is not None:
        arrays.update((f"hidden {name}", col) for name, col in vars(ds.hidden).items())
    check_shapes(arrays, {name: ds.horizon for name in arrays if name not in ("b_init", "s_term")})


def check_shapes(arrays: dict, steps: Optional[dict] = None) -> None:
    """Raise :class:`MalformedDataset` for the first of ``arrays`` (name:
    array) that is not a numpy array, then, naming its shape and the shape
    expected, for the first that is not ``(n,)`` or, for a name in ``steps``,
    ``(n, steps[name])``; ``n`` is the length most of the arrays have."""
    steps = steps or {}
    for name, col in arrays.items():
        if not isinstance(col, np.ndarray):
            raise MalformedDataset(f"field {name}: expected a numpy array, got {type(col).__name__}")
    lengths = [col.shape[:1] for col in arrays.values()]
    n = max(lengths, key=lengths.count)
    for name, col in arrays.items():
        want = n + ((steps[name],) if name in steps else ())
        if col.shape != want:
            raise MalformedDataset(f"field {name}: shape {col.shape}, expected {want}")


def check_column(name: str, col, size: Optional[int] = None) -> None:
    """Raise :class:`MalformedDataset` at the first entry of ``col`` outside
    ``0..size-1`` (integers within it, the common case, take two passes) or,
    without a ``size``, at the first that is not finite."""
    if size is None:
        raise_first(name, col, ~np.isfinite(col), "not finite")
    elif col.dtype.kind not in "biu" or (col.size and (col.min() < 0 or col.max() >= size)):
        raise_first(name, col, ~np.isin(col, np.arange(size)), f"not in 0..{size - 1}")


def raise_first(name: str, col: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Name the field, row (and step) and value of the first ``bad`` entry.
    The error carries the field as ``field``, the entry's array index as
    ``index`` and what is wrong with its value as ``detail``."""
    if not bad.any():
        return
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    where = f"row {idx[0]}" + (f", step {idx[1]}" if len(idx) > 1 else "")
    detail = f"value {col[idx].item()!r} is {what}"
    err = MalformedDataset(f"field {name}, {where}: {detail}")
    err.field, err.index, err.detail = name, idx, detail
    raise err


def _sample_categorical(cum: np.ndarray, index, unif: np.ndarray) -> np.ndarray:
    """Draw one category per row from the cumulative law ``cum[index]``
    (..., k) of a table ``cum`` of cumulative probabilities: the number of
    them below ``unif``, at most ``k - 1``."""
    idx = np.zeros(unif.shape, dtype=np.int64)
    for j in range(cum.shape[-1]):
        idx += unif > cum[..., j][index]
    return np.minimum(idx, cum.shape[-1] - 1)


def simulate_dataset(
    spec: GameSpec,
    behavior: Optional[BehaviorPolicyPair] = None,
    n: int = 0,
    seed: int = 0,
) -> OfflineDataset:
    """Draw ``n`` i.i.d. trajectories under the behavior pair.

    Deterministic given ``seed``: draws are consumed in a fixed order (u, v1,
    v2, action, reward noise, next state) stage by stage, so equal inputs
    produce byte-identical datasets.  ``ValueError`` for a negative or non-integer ``n``.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    if behavior is None:
        behavior = BehaviorPolicyPair.from_spec(spec)
    behavior.check_grid(spec)
    rng = np.random.default_rng(seed)
    # the columns a stage fills, alice's (even stages) first, and their stores
    filled = (("s", "u", "a", "r_a", "v1", "v2"), ("s_half", "u_half", "b", "r_b", "v1_half", "v2_half"))
    shape = (n, spec.horizon)
    out = {k: np.zeros(shape, float if k.startswith("r_") else np.int64) for k in sum(filled, ())}
    # every draw reads a row of cumulative probabilities, summed once per law
    cum = {name: np.cumsum(getattr(spec, name), axis=-1) for name in SPEC_TABLES if name not in COEF_TABLES}
    b_init = (rng.random(n) < behavior.init_bob).astype(np.int64)
    state = _sample_categorical(cum["init_state"], (), rng.random(n))
    prev = b_init.copy()

    for t in range(spec.n_stages):
        cur_u = _sample_categorical(cum["u_law"][t], state, rng.random(n))
        cur_v1 = _sample_categorical(cum["v1_law"][t], state, rng.random(n))
        cur_v2 = _sample_categorical(cum["v2_law"][t], state, rng.random(n))
        p_act = behavior.table(t)[cur_u, cur_v1, cur_v2, state, prev]
        act = (rng.random(n) < p_act).astype(np.int64)
        mean_r = spec.reward_mean(t, act, prev, cur_u, cur_v1, cur_v2, state)
        reward = mean_r + spec.reward_noise * (2.0 * rng.random(n) - 1.0)
        a_bit, b_bit = (act, prev) if t % 2 == 0 else (prev, act)
        kernel = (cur_u, cur_v1, cur_v2, state, a_bit, b_bit)
        next_state = _sample_categorical(cum["trans"][t], kernel, rng.random(n))
        for name, col in zip(filled[t % 2], (state, cur_u, act, reward, cur_v1, cur_v2)):
            out[name][:, t // 2] = col
        state = next_state
        prev = act

    hidden = HiddenTrace(**{k: out.pop(k) for k in ("v1", "v2", "v1_half", "v2_half")})
    grid = (spec.horizon, spec.n_states, spec.n_u)
    return OfflineDataset(*grid, b_init=b_init, s_term=state, hidden=hidden, **out)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """One exact check; ``tol >= 0`` means "|value| at most tol", a negative
    ``tol`` means "|value| at least |tol|" (used for relevance)."""

    name: str
    stage: Optional[int]
    cell: Optional[tuple]
    value: float
    tol: float

    @property
    def ok(self) -> bool:
        if self.tol >= 0:
            return abs(self.value) <= self.tol
        return abs(self.value) >= -self.tol


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def add(self, name, value, tol, stage=None, cell=None):
        self.checks.append(CheckResult(name, stage, cell, float(value), tol))

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            where = ""
            if c.stage is not None:
                where += f" stage={c.stage}"
            if c.cell is not None:
                where += f" cell={c.cell}"
            lines.append(f"{mark} {c.name}{where}: {c.value:.3e} (tol {c.tol:.1e})")
        return "\n".join(lines)


ORTHO_TOL = 1e-12
RELEVANCE_TOL = 1e-8


def validate_spec(
    spec: GameSpec, behavior: Optional[BehaviorPolicyPair] = None
) -> ValidationReport:
    """Exact identification checks for a game spec and behavior pair.

    Raises :class:`MalformedSpec` for structurally invalid tables (that is
    already enforced at construction).  The report covers, per stage and
    conditioning cell: the centered-residual requirement on reward models,
    the orthogonality covariances between outcome-side and action-side
    coefficient functions (for reward blocks and for every next-state
    indicator), instrument relevance, and exact conditional independence of
    the instrument from the private draw given (state, u).
    """
    from . import oracle  # deferred: oracle depends on the types above

    if behavior is None:
        behavior = BehaviorPolicyPair.from_spec(spec)
    behavior.check_grid(spec)
    report = ValidationReport()

    players = ("alice", "bob")  # by the parity of the stage

    # centered residual blocks (required for the mean moment to be valid),
    # alice's stages first
    for t in [*range(0, spec.n_stages, 2), *range(1, spec.n_stages, 2)]:
        mean = oracle.marginalize_over_v(spec, t, spec.reward_tables(t)[3])  # (s, u)
        report.add(f"{players[t % 2]}_reward_residual_mean", np.abs(mean).max(), ORTHO_TOL, stage=t)

    for t in range(spec.n_stages):
        # effective action-side coefficients are behavior-induced
        table = behavior.table(t)
        act_base, act_iv = table[..., 0], table[..., 1] - table[..., 0]

        def cov(f, g):
            """Covariance of two (u, v1, v2, s) tables over the private draw, an (s, u) table."""
            mean = oracle.marginalize_over_v
            return mean(spec, t, f * g) - mean(spec, t, f) * mean(spec, t, g)

        def seven_covariances(out_act, out_iv, out_inter, out_resid, label):
            pairs = [
                ("act~iv_shift", out_act, act_iv),
                ("act~base", out_act, act_base),
                ("iv~iv_shift", out_iv, act_iv),
                ("iv~base", out_iv, act_base),
                ("inter~iv_shift", out_inter, act_iv),
                ("resid~iv_shift", out_resid, act_iv),
                ("inter~base", out_inter, act_base),
            ]
            for name, f, g in pairs:
                report.add(f"orthogonality[{label}:{name}]", np.abs(cov(f, g)).max(), ORTHO_TOL, stage=t)

        seven_covariances(*spec.reward_tables(t), f"{players[t % 2]}_reward")
        # transition blocks: indicator test functions of the next state span
        # every next-cell function, because u', v' laws depend on s' only
        kern = oracle.StageRep.of_corners(np.moveaxis(spec.trans[t], -1, 4))  # (u, v1, v2, s, s')
        # the acting player's own action carries the "action" role
        out_act, out_iv = (kern.theta, kern.gamma) if t % 2 == 0 else (kern.gamma, kern.theta)
        for sp in range(spec.n_states):
            resid = kern.zeta[..., sp]
            seven_covariances(out_act[..., sp], out_iv[..., sp], kern.omega[..., sp], resid, f"trans_s{sp}")
            # extra structural condition used by the intercept-bearing fits
            gap = np.abs(cov(resid, act_base)).max()
            report.add(f"orthogonality[trans_s{sp}:resid~base]", gap, ORTHO_TOL, stage=t)

    # data-law checks need the exact stage laws under the behavior pair
    laws = oracle.stage_laws(spec, behavior)
    for t in range(spec.n_stages):
        joint = laws.with_action[t]  # (s, u, v1, v2, prev, act)
        mass = joint.sum(axis=(2, 3, 4, 5))
        reached = mass >= 1e-12
        law = joint / np.where(reached, mass, 1.0)[..., None, None, None, None]
        relevance = oracle.action_iv_cov(law)
        # instrument independent of the private draw given (s, u)
        p_v_prev = law.sum(axis=5)  # (s, u, v1, v2, prev)
        p_prev = p_v_prev.sum(axis=(2, 3))[:, :, None, None, :]
        indep_gap = np.abs(p_v_prev - p_v_prev.sum(axis=4, keepdims=True) * p_prev).max(axis=(2, 3, 4))
        for cell in zip(*(idx.tolist() for idx in np.nonzero(reached))):
            report.add("iv_relevance", relevance[cell], -RELEVANCE_TOL, stage=t, cell=cell)
            report.add("iv_independent_of_v", indep_gap[cell], ORTHO_TOL, stage=t, cell=cell)
    return report
