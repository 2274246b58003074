"""Built-in desk-scale game specs used by tests, demos and the CLI.

All fixtures follow the disjoint-coordinate construction: action models move
only with the first private coordinate ``v1`` while reward and transition
fluctuations move only with ``v2``.  With ``v1`` and ``v2`` independent this
makes every orthogonality covariance vanish structurally, so identification
holds by construction rather than by numerical accident.  The deliberate
negative control breaks exactly that: its action and reward effects share
``v1``.

One private builder, :func:`_game`, owns what the fixtures share: the grid
(one value of ``u``, two each of ``v1`` and ``v2``), their uniform laws, the
transition law and the :class:`~confgame.game.GameSpec`; each fixture passes
only its formulas.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np

from .game import GameSpec


def _game(horizon: int, init_state: np.ndarray, tables, p_state1=None, noise: float = 0.1) -> GameSpec:
    """The game of ``horizon`` steps on ``len(init_state)`` states whose
    private draws ``u``, ``v1`` and ``v2`` take 1, 2 and 2 values, each drawn
    uniformly at every stage.

    ``tables(v1, v2, s)`` gives the coefficient tables by name, as formulas
    in the float index arrays of the [u, v1, v2, s] grid; each is broadcast
    to the grid.  ``p_state1(a, b, v2, s)`` is the probability of moving to
    state 1 after actions ``a`` and ``b`` (the rest moves to state 0);
    without it every next state is equally likely.
    """
    ns, stages = len(init_state), 2 * horizon
    grid = (1, 2, 2, ns)
    _, v1, v2, s = np.indices(grid, dtype=float)
    u_law, v1_law, v2_law = (np.full((stages, ns, width), 1.0 / width) for width in grid[:3])
    trans = np.full((stages, *grid, 2, 2, ns), 1.0 / ns if p_state1 is None else 0.0)
    if p_state1 is not None:
        for a, b in product(range(2), repeat=2):
            p1 = p_state1(a, b, v2, s)
            trans[..., a, b, 1] = p1
            trans[..., a, b, 0] = 1.0 - p1
    coefs = {name: np.asarray(table, dtype=float) * np.ones(grid) for name, table in tables(v1, v2, s).items()}
    return GameSpec(
        horizon, ns, *grid[:3], init_state=init_state, u_law=u_law, v1_law=v1_law, v2_law=v2_law,
        trans=trans, reward_noise=noise, **coefs,
    )


def t1_spec(noise: float = 0.1, reward_scale: float = 1.0) -> GameSpec:
    """Single-step game on one state.

    Alice's action probability is ``0.2 + 0.3 b + 0.2 v1`` and her mean
    reward ``(1 + 0.4 v2) a + 0.5 b + 0.25 a b + 0.6 (v2 - 0.5)``; bob mirrors
    the same shape with reward loadings (0.8, 0.3, 0.1).  The marginalized
    alice reward triple is (1.2, 0.5, 0.25).
    """
    k = reward_scale
    return _game(1, np.array([1.0]), lambda v1, v2, s: {
        "alice_act_base": 0.2 + 0.2 * v1, "alice_act_iv": 0.3,
        "bob_act_base": 0.2 + 0.2 * v1, "bob_act_iv": 0.3,
        "alice_rew_act": k * (1.0 + 0.4 * v2),
        "alice_rew_iv": k * 0.5,
        "alice_rew_inter": k * 0.25,
        "alice_rew_resid": k * 0.6 * (v2 - 0.5),
        "bob_rew_act": k * (0.8 + 0.4 * v2),
        "bob_rew_iv": k * 0.3,
        "bob_rew_inter": k * 0.1,
        "bob_rew_resid": k * 0.6 * (v2 - 0.5),
    }, noise=noise * abs(k))


def t2_spec(horizon: int = 2, noise: float = 0.1) -> GameSpec:
    """Two-state family with genuinely action-dependent transitions.

    The probability of landing in state 1 is ``0.25 + 0.1 s + 0.2 a + 0.15 b
    - 0.1 a b + 0.2 (v2 - 0.5)``, which stays inside [0.15, 0.7] on every
    corner.  Reward tables vary with the current state so the two sieve cells
    carry different targets.
    """
    return _game(horizon, np.array([0.5, 0.5]), lambda v1, v2, s: {
        "alice_act_base": 0.2 + 0.2 * v1, "alice_act_iv": 0.3,
        "bob_act_base": 0.2 + 0.2 * v1, "bob_act_iv": 0.3,
        "alice_rew_act": 1.0 + 0.2 * s + 0.4 * (v2 - 0.5),
        "alice_rew_iv": 0.5 + 0.1 * s + 0.0 * v2,
        "alice_rew_inter": 0.25,
        "alice_rew_resid": 0.6 * (v2 - 0.5),
        "bob_rew_act": 0.8 + 0.1 * s + 0.4 * (v2 - 0.5),
        "bob_rew_iv": 0.3,
        "bob_rew_inter": 0.1,
        "bob_rew_resid": 0.6 * (v2 - 0.5),
    }, lambda a, b, v2, s: 0.25 + 0.1 * s + 0.2 * a + 0.15 * b - 0.1 * a * b + 0.2 * (v2 - 0.5), noise)


def negative_control_spec(noise: float = 0.1) -> GameSpec:
    """T1 variant that deliberately breaks the orthogonality conditions.

    The action-side instrument effect and the reward's action effect both
    ride on ``v1``, so their conditional covariance is 0.04 instead of 0 and
    the invalid-instrument identification is biased by design.
    """
    _, v1, _, _ = np.indices((1, 2, 2, 1), dtype=float)
    return replace(t1_spec(noise=noise), alice_act_iv=0.2 + 0.2 * v1, alice_rew_act=1.0 + 0.8 * (v1 - 0.5))


def random_valid_spec(seed: int, n_states: int = 1) -> GameSpec:
    """Randomized single-step spec satisfying the orthogonality structure.

    Action models move only with ``v1``; reward fluctuations load on ``v2``,
    except the centered residual block which may load on ``v1`` whenever the
    instrument effect is constant (still orthogonal, but it exercises the
    case where the residual co-moves with the action-model base).  With more
    than one state, play moves between states 0 and 1 only.
    """
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(0.15, 0.3)
    a1 = rng.uniform(0.0, 0.2)
    flat_iv = rng.random() < 0.5
    c0 = rng.uniform(0.12, 0.25)
    c1 = 0.0 if flat_iv else rng.uniform(0.05, 0.1)

    def tables(v1, v2, s):  # draws in the order of the tables
        return {
            "alice_act_base": a0 + a1 * v1, "alice_act_iv": c0 + c1 * v1,
            "bob_act_base": a0 + a1 * v1, "bob_act_iv": c0 + c1 * v1,
            "alice_rew_act": rng.uniform(0.5, 1.5) + rng.uniform(0.0, 0.6) * (v2 - 0.5),
            "alice_rew_iv": rng.uniform(-0.5, 0.8) + rng.uniform(0.0, 0.4) * (v2 - 0.5),
            "alice_rew_inter": rng.uniform(-0.4, 0.4) + rng.uniform(0.0, 0.3) * (v2 - 0.5),
            "alice_rew_resid": rng.uniform(0.2, 0.8) * ((v1 if flat_iv else v2) - 0.5),
            "bob_rew_act": rng.uniform(0.3, 1.2) + rng.uniform(0.0, 0.5) * (v2 - 0.5),
            "bob_rew_iv": rng.uniform(-0.4, 0.6),
            "bob_rew_inter": rng.uniform(-0.3, 0.3),
            "bob_rew_resid": rng.uniform(0.2, 0.8) * (v2 - 0.5),
        }

    def p_state1(a, b, v2, s):
        return 0.3 + 0.15 * a + 0.1 * b - 0.05 * a * b + 0.15 * (v2 - 0.5)

    return _game(1, np.full(n_states, 1.0 / n_states), tables, p_state1 if n_states > 1 else None)


FIXTURES = {
    "t1": lambda: t1_spec(),
    "t1-noiseless": lambda: t1_spec(noise=0.0),
    "t1-zero": lambda: t1_spec(noise=0.0, reward_scale=0.0),
    "t2": lambda: t2_spec(horizon=2),
    "t2-h1": lambda: t2_spec(horizon=1),
    "t2-h3": lambda: t2_spec(horizon=3),
    "negative-control": lambda: negative_control_spec(),
}


def get_fixture(name: str) -> GameSpec:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}"
        ) from None
