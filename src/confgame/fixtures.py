"""Built-in desk-scale game specs used by tests, demos and the CLI.

All fixtures follow the disjoint-coordinate construction: action models move
only with the first private coordinate ``v1`` while reward and transition
fluctuations move only with ``v2``.  With ``v1`` and ``v2`` independent this
makes every orthogonality covariance vanish structurally, so identification
holds by construction rather than by numerical accident.  The deliberate
negative control breaks exactly that: its action and reward effects share
``v1``.
"""

from __future__ import annotations

import numpy as np

from .game import GameSpec


def _coef(fn, nu, nv1, nv2, ns):
    u, v1, v2, s = np.indices((nu, nv1, nv2, ns), dtype=float)
    return np.asarray(fn(u, v1, v2, s), dtype=float) * np.ones((nu, nv1, nv2, ns))


def _flat_laws(stages, ns, widths):
    out = []
    for w in widths:
        out.append(np.full((stages, ns, w), 1.0 / w))
    return out


def t1_spec(noise: float = 0.1, reward_scale: float = 1.0) -> GameSpec:
    """Single-step game on one state.

    Alice's action probability is ``0.2 + 0.3 b + 0.2 v1`` and her mean
    reward ``(1 + 0.4 v2) a + 0.5 b + 0.25 a b + 0.6 (v2 - 0.5)``; bob mirrors
    the same shape with reward loadings (0.8, 0.3, 0.1).  The marginalized
    alice reward triple is (1.2, 0.5, 0.25).
    """
    nu, nv1, nv2, ns, h = 1, 2, 2, 1, 1
    u_law, v1_law, v2_law = _flat_laws(2 * h, ns, (nu, nv1, nv2))
    k = reward_scale
    trans = np.ones((2 * h, nu, nv1, nv2, ns, 2, 2, ns))
    return GameSpec(
        horizon=h,
        n_states=ns,
        n_u=nu,
        n_v1=nv1,
        n_v2=nv2,
        init_state=np.array([1.0]),
        u_law=u_law,
        v1_law=v1_law,
        v2_law=v2_law,
        alice_act_base=_coef(lambda u, v1, v2, s: 0.2 + 0.2 * v1, nu, nv1, nv2, ns),
        alice_act_iv=_coef(lambda u, v1, v2, s: 0.3, nu, nv1, nv2, ns),
        bob_act_base=_coef(lambda u, v1, v2, s: 0.2 + 0.2 * v1, nu, nv1, nv2, ns),
        bob_act_iv=_coef(lambda u, v1, v2, s: 0.3, nu, nv1, nv2, ns),
        alice_rew_act=_coef(lambda u, v1, v2, s: k * (1.0 + 0.4 * v2), nu, nv1, nv2, ns),
        alice_rew_iv=_coef(lambda u, v1, v2, s: k * 0.5, nu, nv1, nv2, ns),
        alice_rew_inter=_coef(lambda u, v1, v2, s: k * 0.25, nu, nv1, nv2, ns),
        alice_rew_resid=_coef(lambda u, v1, v2, s: k * 0.6 * (v2 - 0.5), nu, nv1, nv2, ns),
        bob_rew_act=_coef(lambda u, v1, v2, s: k * (0.8 + 0.4 * v2), nu, nv1, nv2, ns),
        bob_rew_iv=_coef(lambda u, v1, v2, s: k * 0.3, nu, nv1, nv2, ns),
        bob_rew_inter=_coef(lambda u, v1, v2, s: k * 0.1, nu, nv1, nv2, ns),
        bob_rew_resid=_coef(lambda u, v1, v2, s: k * 0.6 * (v2 - 0.5), nu, nv1, nv2, ns),
        trans=trans,
        reward_noise=noise * abs(k),
    )


def t2_spec(horizon: int = 2, noise: float = 0.1) -> GameSpec:
    """Two-state family with genuinely action-dependent transitions.

    The probability of landing in state 1 is ``0.25 + 0.1 s + 0.2 a + 0.15 b
    - 0.1 a b + 0.2 (v2 - 0.5)``, which stays inside [0.15, 0.7] on every
    corner.  Reward tables vary with the current state so the two sieve cells
    carry different targets.
    """
    nu, nv1, nv2, ns, h = 1, 2, 2, 2, horizon
    u_law, v1_law, v2_law = _flat_laws(2 * h, ns, (nu, nv1, nv2))
    u, v1, v2, s = np.indices((nu, nv1, nv2, ns), dtype=float)
    trans = np.zeros((2 * h, nu, nv1, nv2, ns, 2, 2, ns))
    for a in range(2):
        for b in range(2):
            p1 = 0.25 + 0.1 * s + 0.2 * a + 0.15 * b - 0.1 * a * b + 0.2 * (v2 - 0.5)
            trans[:, :, :, :, :, a, b, 1] = p1[None]
            trans[:, :, :, :, :, a, b, 0] = 1.0 - p1[None]
    return GameSpec(
        horizon=h,
        n_states=ns,
        n_u=nu,
        n_v1=nv1,
        n_v2=nv2,
        init_state=np.array([0.5, 0.5]),
        u_law=u_law,
        v1_law=v1_law,
        v2_law=v2_law,
        alice_act_base=0.2 + 0.2 * v1,
        alice_act_iv=0.3 * np.ones_like(v1),
        bob_act_base=0.2 + 0.2 * v1,
        bob_act_iv=0.3 * np.ones_like(v1),
        alice_rew_act=1.0 + 0.2 * s + 0.4 * (v2 - 0.5),
        alice_rew_iv=0.5 + 0.1 * s + 0.0 * v2,
        alice_rew_inter=0.25 * np.ones_like(v1),
        alice_rew_resid=0.6 * (v2 - 0.5),
        bob_rew_act=0.8 + 0.1 * s + 0.4 * (v2 - 0.5),
        bob_rew_iv=0.3 * np.ones_like(v1),
        bob_rew_inter=0.1 * np.ones_like(v1),
        bob_rew_resid=0.6 * (v2 - 0.5),
        trans=trans,
        reward_noise=noise,
    )


def negative_control_spec(noise: float = 0.1) -> GameSpec:
    """T1 variant that deliberately breaks the orthogonality conditions.

    The action-side instrument effect and the reward's action effect both
    ride on ``v1``, so their conditional covariance is 0.04 instead of 0 and
    the invalid-instrument identification is biased by design.
    """
    spec = t1_spec(noise=noise)
    u, v1, v2, s = np.indices((1, 2, 2, 1), dtype=float)
    from dataclasses import replace

    return replace(
        spec,
        alice_act_iv=0.2 + 0.2 * v1,
        alice_rew_act=1.0 + 0.8 * (v1 - 0.5),
    )


def random_valid_spec(seed: int, n_states: int = 1) -> GameSpec:
    """Randomized single-step spec satisfying the orthogonality structure.

    Action models move only with ``v1``; reward fluctuations load on ``v2``,
    except the centered residual block which may load on ``v1`` whenever the
    instrument effect is constant (still orthogonal, but it exercises the
    case where the residual co-moves with the action-model base).
    """
    rng = np.random.default_rng(seed)
    nu, nv1, nv2, ns, h = 1, 2, 2, n_states, 1
    u, v1, v2, s = np.indices((nu, nv1, nv2, ns), dtype=float)
    a0 = rng.uniform(0.15, 0.3)
    a1 = rng.uniform(0.0, 0.2)
    flat_iv = rng.random() < 0.5
    c0 = rng.uniform(0.12, 0.25)
    c1 = 0.0 if flat_iv else rng.uniform(0.05, 0.1)
    resid_coord = v1 if flat_iv else v2
    def rand(lo, hi):
        return rng.uniform(lo, hi)

    u_law, v1_law, v2_law = _flat_laws(2 * h, ns, (nu, nv1, nv2))
    trans = np.ones((2 * h, nu, nv1, nv2, ns, 2, 2, ns)) / ns
    if ns > 1:
        trans = np.zeros((2 * h, nu, nv1, nv2, ns, 2, 2, ns))
        for a in range(2):
            for b in range(2):
                p1 = 0.3 + 0.15 * a + 0.1 * b - 0.05 * a * b + 0.15 * (v2 - 0.5)
                trans[:, :, :, :, :, a, b, 1] = p1[None]
                trans[:, :, :, :, :, a, b, 0] = 1.0 - p1[None]
    return GameSpec(
        horizon=h,
        n_states=ns,
        n_u=nu,
        n_v1=nv1,
        n_v2=nv2,
        init_state=np.full(ns, 1.0 / ns),
        u_law=u_law,
        v1_law=v1_law,
        v2_law=v2_law,
        alice_act_base=a0 + a1 * v1,
        alice_act_iv=(c0 + c1 * v1) * np.ones_like(v1),
        bob_act_base=a0 + a1 * v1,
        bob_act_iv=(c0 + c1 * v1) * np.ones_like(v1),
        alice_rew_act=rand(0.5, 1.5) + rand(0.0, 0.6) * (v2 - 0.5),
        alice_rew_iv=rand(-0.5, 0.8) + rand(0.0, 0.4) * (v2 - 0.5),
        alice_rew_inter=rand(-0.4, 0.4) + rand(0.0, 0.3) * (v2 - 0.5),
        alice_rew_resid=rand(0.2, 0.8) * (resid_coord - 0.5),
        bob_rew_act=rand(0.3, 1.2) + rand(0.0, 0.5) * (v2 - 0.5),
        bob_rew_iv=rand(-0.4, 0.6) * np.ones_like(v1),
        bob_rew_inter=rand(-0.3, 0.3) * np.ones_like(v1),
        bob_rew_resid=rand(0.2, 0.8) * (v2 - 0.5),
        trans=trans,
        reward_noise=0.1,
    )


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
