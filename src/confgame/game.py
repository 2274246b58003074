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

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import MalformedDataset, MalformedSpec

PROB_TOL = 1e-9


def _check_dist(name, table, axis=-1):
    table = np.asarray(table, dtype=float)
    if np.any(table < -PROB_TOL) or np.any(table > 1 + PROB_TOL):
        raise MalformedSpec(f"{name}: probabilities outside [0, 1]")
    sums = table.sum(axis=axis)
    if np.any(np.abs(sums - 1.0) > 1e-8):
        raise MalformedSpec(f"{name}: rows do not sum to 1")
    return table


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
        h, ns, nu, nv1, nv2 = (
            self.horizon,
            self.n_states,
            self.n_u,
            self.n_v1,
            self.n_v2,
        )
        if h < 1:
            raise MalformedSpec("horizon must be a positive integer")
        coef_shape = (nu, nv1, nv2, ns)
        for name in (
            "alice_act_base",
            "alice_act_iv",
            "bob_act_base",
            "bob_act_iv",
            "alice_rew_act",
            "alice_rew_iv",
            "alice_rew_inter",
            "alice_rew_resid",
            "bob_rew_act",
            "bob_rew_iv",
            "bob_rew_inter",
            "bob_rew_resid",
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != coef_shape:
                raise MalformedSpec(f"{name}: expected shape {coef_shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "init_state", _check_dist("init_state", self.init_state))
        if self.init_state.shape != (ns,):
            raise MalformedSpec("init_state: wrong length")
        stages = 2 * h
        for name, width in (("u_law", nu), ("v1_law", nv1), ("v2_law", nv2)):
            arr = _check_dist(name, getattr(self, name))
            if arr.shape != (stages, ns, width):
                raise MalformedSpec(f"{name}: expected shape {(stages, ns, width)}")
            object.__setattr__(self, name, arr)
        trans = _check_dist("trans", self.trans)
        if trans.shape != (stages, nu, nv1, nv2, ns, 2, 2, ns):
            raise MalformedSpec("trans: wrong shape")
        object.__setattr__(self, "trans", trans)
        for player in ("alice", "bob"):
            base = getattr(self, f"{player}_act_base")
            shift = getattr(self, f"{player}_act_iv")
            for prev in (0.0, 1.0):
                p = base + shift * prev
                if np.any(p < -PROB_TOL) or np.any(p > 1 + PROB_TOL):
                    raise MalformedSpec(
                        f"{player} action model leaves [0, 1] for prev={int(prev)}"
                    )
        if self.state_values is not None:
            sv = np.asarray(self.state_values, dtype=float)
            if sv.ndim != 2 or sv.shape[0] != ns:
                raise MalformedSpec("state_values: expected shape (n_states, d)")
            object.__setattr__(self, "state_values", sv)

    @property
    def n_stages(self) -> int:
        return 2 * self.horizon

    @property
    def n_cells(self) -> int:
        return self.n_states * self.n_u

    def stage_is_alice(self, stage: int) -> bool:
        return stage % 2 == 0

    def reward_tables(self, stage: int):
        """(act, iv, inter, resid) reward tables of the player acting at ``stage``."""
        if self.stage_is_alice(stage):
            return self.alice_rew_act, self.alice_rew_iv, self.alice_rew_inter, self.alice_rew_resid
        return self.bob_rew_act, self.bob_rew_iv, self.bob_rew_inter, self.bob_rew_resid

    def reward_mean(self, stage: int, own: np.ndarray, prev: np.ndarray, u, v1, v2, s):
        """Mean reward of the player acting at ``stage`` for given draws."""
        ra, ri, rx, rr = self.reward_tables(stage)
        idx = (u, v1, v2, s)
        return ra[idx] * own + ri[idx] * prev + rx[idx] * own * prev + rr[idx]

    def scaled_rewards(self, factor: float) -> "GameSpec":
        """Same game with every reward (and reward noise) multiplied by factor."""
        return replace(
            self,
            alice_rew_act=self.alice_rew_act * factor,
            alice_rew_iv=self.alice_rew_iv * factor,
            alice_rew_inter=self.alice_rew_inter * factor,
            alice_rew_resid=self.alice_rew_resid * factor,
            bob_rew_act=self.bob_rew_act * factor,
            bob_rew_iv=self.bob_rew_iv * factor,
            bob_rew_inter=self.bob_rew_inter * factor,
            bob_rew_resid=self.bob_rew_resid * factor,
            reward_noise=self.reward_noise * factor,
        )


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
            arr = np.asarray(getattr(self, name), dtype=float)
            if np.any(arr < -PROB_TOL) or np.any(arr > 1 + PROB_TOL):
                raise MalformedSpec(f"behavior {name}: probabilities outside [0, 1]")
            object.__setattr__(self, name, arr)
        if not (-PROB_TOL <= self.init_bob <= 1 + PROB_TOL):
            raise MalformedSpec("behavior init_bob outside [0, 1]")

    @classmethod
    def from_spec(cls, spec: GameSpec, init_bob: float = 0.5) -> "BehaviorPolicyPair":
        """Behavior pair matching the spec's own action models at every step."""
        prev = np.arange(2, dtype=float)
        alice = (
            spec.alice_act_base[None, ..., None]
            + spec.alice_act_iv[None, ..., None] * prev
        )
        bob = (
            spec.bob_act_base[None, ..., None]
            + spec.bob_act_iv[None, ..., None] * prev
        )
        alice = np.broadcast_to(alice, (spec.horizon,) + alice.shape[1:]).copy()
        bob = np.broadcast_to(bob, (spec.horizon,) + bob.shape[1:]).copy()
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
        for name, arr in (("alice", alice), ("bob", bob)):
            if np.any(arr < -PROB_TOL) or np.any(arr > 1 + PROB_TOL):
                raise MalformedSpec(f"policy {name}: probabilities outside [0, 1]")
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        if not (-PROB_TOL <= self.init_bob <= 1 + PROB_TOL):
            raise MalformedSpec("policy init_bob outside [0, 1]")

    @property
    def horizon(self) -> int:
        return self.alice.shape[0]

    def check_grid(self, horizon: int, n_states: int, n_u: int) -> None:
        """Raise :class:`MalformedSpec` unless the pair is built for a game of
        this horizon, number of states and number of private values."""
        want = ((horizon, n_states, n_u, 2), (horizon, n_states, 2))
        if (self.alice.shape, self.bob.shape) != want:
            raise MalformedSpec(
                f"policy tables have shapes alice {self.alice.shape}, bob {self.bob.shape}; "
                f"the game needs alice {want[0]}, bob {want[1]}"
            )

    def encode(self) -> tuple:
        """Stable encoding used for lexicographic tie-breaking."""
        return (
            float(self.init_bob),
            tuple(np.round(self.alice, 12).ravel().tolist()),
            tuple(np.round(self.bob, 12).ravel().tolist()),
        )

    def alice_mean(self, h: int) -> np.ndarray:
        """P(a=1) table at full step ``h+1``, indexed [s, u, b_prev]."""
        return self.alice[h]

    def bob_mean(self, h: int) -> np.ndarray:
        """P(b=1) table at half step ``h+3/2``, indexed [s, a_prev]."""
        return self.bob[h]


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
    a_cells = ns * nu * (2 if alice_sees_prev else 1)
    b_cells = ns * (2 if bob_sees_prev else 1)
    total = 2 ** a_cells * 2 ** b_cells * 2
    if total > cap:
        raise SpaceTooLarge(
            f"{total} deterministic pairs exceed the cap of {cap}; restrict the class"
        )
    pairs = []
    for init_bob in (0, 1):
        for a_code in range(2 ** a_cells):
            a_bits = [(a_code >> i) & 1 for i in range(a_cells)]
            if alice_sees_prev:
                a_tab = np.array(a_bits, dtype=float).reshape(ns, nu, 2)
            else:
                a_tab = np.repeat(
                    np.array(a_bits, dtype=float).reshape(ns, nu, 1), 2, axis=2
                )
            for b_code in range(2 ** b_cells):
                b_bits = [(b_code >> i) & 1 for i in range(b_cells)]
                if bob_sees_prev:
                    b_tab = np.array(b_bits, dtype=float).reshape(ns, 2)
                else:
                    b_tab = np.repeat(np.array(b_bits, dtype=float).reshape(ns, 1), 2, axis=1)
                pairs.append(
                    PolicyPair(
                        alice=np.repeat(a_tab[None], h, axis=0),
                        bob=np.repeat(b_tab[None], h, axis=0),
                        init_bob=float(init_bob),
                    )
                )
    pairs.sort(key=lambda p: p.encode())
    return pairs


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

    def iv_at(self, h: int) -> np.ndarray:
        """Bob's action preceding alice's full step ``h+1``."""
        return self.b_init if h == 0 else self.b[:, h - 1]


def check_dataset(ds: OfflineDataset) -> None:
    """Raise :class:`MalformedDataset` at the first out-of-range entry: a state
    or private value outside the declared spaces, an action that is not
    binary or a reward that is not finite."""
    ns, nu = ds.n_states, ds.n_u
    sizes = {"s": ns, "u": nu, "s_half": ns, "u_half": nu, "s_term": ns, "a": 2, "b": 2, "b_init": 2}
    for name, size in sizes.items():
        check_categorical(name, getattr(ds, name), size)
    for name in ("r_a", "r_b"):
        col = np.asarray(getattr(ds, name))
        _raise_first(name, col, ~np.isfinite(col), "not finite")


def check_categorical(name: str, col, size: int) -> None:
    """Raise :class:`MalformedDataset` at the first entry of ``col`` outside
    ``0..size-1``."""
    col = np.asarray(col)
    if col.dtype.kind in "biu" and (col.size == 0 or (col.min() >= 0 and col.max() < size)):
        return  # integers within the bounds: the common case, in two passes
    _raise_first(name, col, ~np.isin(col, np.arange(size)), f"not in 0..{size - 1}")


def _raise_first(name: str, col: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Name the field, row (and step) and value of the first ``bad`` entry."""
    if not bad.any():
        return
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    where = f"row {idx[0]}" + (f", step {idx[1]}" if len(idx) > 1 else "")
    raise MalformedDataset(f"field {name}, {where}: value {col[idx].item()!r} is {what}")


def _sample_categorical(rows: np.ndarray, unif: np.ndarray) -> np.ndarray:
    """Draw one category per row from per-row probability vectors."""
    cum = np.cumsum(rows, axis=1)
    idx = (unif[:, None] > cum).sum(axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


def simulate_dataset(
    spec: GameSpec,
    behavior: Optional[BehaviorPolicyPair] = None,
    n: int = 0,
    seed: int = 0,
) -> OfflineDataset:
    """Draw ``n`` i.i.d. trajectories under the behavior pair.

    Deterministic given ``seed``: draws are consumed in a fixed order (u, v1,
    v2, action, reward noise, next state) stage by stage, so equal inputs
    produce byte-identical datasets.
    """
    if behavior is None:
        behavior = BehaviorPolicyPair.from_spec(spec)
    behavior.check_grid(spec)
    rng = np.random.default_rng(seed)
    h_tot, ns, nu = spec.horizon, spec.n_states, spec.n_u
    shape = (n, h_tot)
    out = {
        "s": np.zeros(shape, dtype=np.int64),
        "u": np.zeros(shape, dtype=np.int64),
        "a": np.zeros(shape, dtype=np.int64),
        "r_a": np.zeros(shape, dtype=float),
        "s_half": np.zeros(shape, dtype=np.int64),
        "u_half": np.zeros(shape, dtype=np.int64),
        "b": np.zeros(shape, dtype=np.int64),
        "r_b": np.zeros(shape, dtype=float),
    }
    hid = {k: np.zeros(shape, dtype=np.int64) for k in ("v1", "v2", "v1_half", "v2_half")}

    b_init = (rng.random(n) < behavior.init_bob).astype(np.int64)
    state = _sample_categorical(np.broadcast_to(spec.init_state, (n, ns)), rng.random(n))
    prev = b_init.copy()

    for t in range(spec.n_stages):
        cur_u = _sample_categorical(spec.u_law[t][state], rng.random(n))
        cur_v1 = _sample_categorical(spec.v1_law[t][state], rng.random(n))
        cur_v2 = _sample_categorical(spec.v2_law[t][state], rng.random(n))
        p_act = behavior.table(t)[cur_u, cur_v1, cur_v2, state, prev]
        act = (rng.random(n) < p_act).astype(np.int64)
        mean_r = spec.reward_mean(t, act, prev, cur_u, cur_v1, cur_v2, state)
        reward = mean_r + spec.reward_noise * (2.0 * rng.random(n) - 1.0)
        if t % 2 == 0:
            a_bit, b_bit = act, prev
        else:
            a_bit, b_bit = prev, act
        next_state = _sample_categorical(
            spec.trans[t][cur_u, cur_v1, cur_v2, state, a_bit, b_bit], rng.random(n)
        )
        h = t // 2
        if t % 2 == 0:
            out["s"][:, h], out["u"][:, h] = state, cur_u
            out["a"][:, h], out["r_a"][:, h] = act, reward
            hid["v1"][:, h], hid["v2"][:, h] = cur_v1, cur_v2
        else:
            out["s_half"][:, h], out["u_half"][:, h] = state, cur_u
            out["b"][:, h], out["r_b"][:, h] = act, reward
            hid["v1_half"][:, h], hid["v2_half"][:, h] = cur_v1, cur_v2
        state = next_state
        prev = act

    return OfflineDataset(
        horizon=h_tot,
        n_states=ns,
        n_u=nu,
        b_init=b_init,
        s_term=state,
        hidden=HiddenTrace(**hid),
        **out,
    )


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


def _v_law(spec: GameSpec, t: int) -> np.ndarray:
    """(1, v1, v2, s) product law of the private draw at stage ``t``."""
    return spec.v1_law[t].T[None, :, None, :] * spec.v2_law[t].T[None, None, :, :]


def _cov_over_v(f: np.ndarray, g: np.ndarray, w: np.ndarray):
    """Covariance of two (u, v1, v2, s) tables over the private-draw law ``w``
    of :func:`_v_law`.  Returns an (u, s) table."""
    mean_f = (f * w).sum(axis=(1, 2))
    mean_g = (g * w).sum(axis=(1, 2))
    mean_fg = (f * g * w).sum(axis=(1, 2))
    return mean_fg - mean_f * mean_g


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

    def player(t):
        return "alice" if spec.stage_is_alice(t) else "bob"

    # centered residual blocks (required for the mean moment to be valid),
    # alice's stages first
    for t in [*range(0, spec.n_stages, 2), *range(1, spec.n_stages, 2)]:
        mean = (spec.reward_tables(t)[3] * _v_law(spec, t)).sum(axis=(1, 2))  # (u, s)
        report.add(f"{player(t)}_reward_residual_mean", np.abs(mean).max(), ORTHO_TOL, stage=t)

    for t in range(spec.n_stages):
        # effective action-side coefficients are behavior-induced
        table = behavior.table(t)
        act_base, act_iv = table[..., 0], table[..., 1] - table[..., 0]
        w = _v_law(spec, t)

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
                cov = _cov_over_v(f, g, w)
                report.add(f"orthogonality[{label}:{name}]", np.abs(cov).max(), ORTHO_TOL, stage=t)

        seven_covariances(*spec.reward_tables(t), f"{player(t)}_reward")
        # transition blocks: indicator test functions of the next state span
        # every next-cell function, because u', v' laws depend on s' only
        kern = spec.trans[t]  # (u, v1, v2, s, a, b, s')
        theta = kern[..., 1, 0, :] - kern[..., 0, 0, :]  # alice-action coefficient
        gamma = kern[..., 0, 1, :] - kern[..., 0, 0, :]  # bob-action coefficient
        inter = kern[..., 1, 1, :] - kern[..., 1, 0, :] - kern[..., 0, 1, :] + kern[..., 0, 0, :]
        resid = kern[..., 0, 0, :]
        # the acting player's own action carries the "action" role
        out_act, out_iv = (theta, gamma) if t % 2 == 0 else (gamma, theta)
        for sp in range(spec.n_states):
            seven_covariances(
                out_act[..., sp], out_iv[..., sp], inter[..., sp], resid[..., sp], f"trans_s{sp}"
            )
            # extra structural condition used by the intercept-bearing fits
            cov = _cov_over_v(resid[..., sp], act_base, w)
            report.add(
                f"orthogonality[trans_s{sp}:resid~base]",
                np.abs(cov).max(),
                ORTHO_TOL,
                stage=t,
            )

    # data-law checks need the exact stage laws under the behavior pair
    laws = oracle.stage_laws(spec, behavior)
    for t in range(spec.n_stages):
        joint = laws.with_action[t]  # (s, u, v1, v2, prev, act)
        p_su = joint.sum(axis=(2, 3, 4, 5))
        for s_i in range(spec.n_states):
            for u_i in range(spec.n_u):
                mass = p_su[s_i, u_i]
                if mass < 1e-12:
                    continue
                cell = joint[s_i, u_i] / mass  # (v1, v2, prev, act)
                p_prev = cell.sum(axis=(0, 1, 3))
                p_act_given = cell.sum(axis=(0, 1))  # (prev, act)
                e_prev = p_prev[1]
                e_act = p_act_given[:, 1].sum()
                e_act_prev = p_act_given[1, 1]
                relevance = e_act_prev - e_act * e_prev
                report.add(
                    "iv_relevance", relevance, -RELEVANCE_TOL, stage=t, cell=(s_i, u_i)
                )
                # instrument independent of the private draw given (s, u)
                p_v_prev = cell.sum(axis=3)  # (v1, v2, prev)
                p_v = p_v_prev.sum(axis=2)
                indep_gap = np.abs(
                    p_v_prev - p_v[..., None] * p_prev[None, None, :]
                ).max()
                report.add(
                    "iv_independent_of_v", indep_gap, ORTHO_TOL, stage=t, cell=(s_i, u_i)
                )
    return report
