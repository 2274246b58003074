"""``game.validate_spec`` against a written-out reference.

``validate_spec`` reads its exact quantities off the oracle: the private-draw
marginal (:func:`~confgame.oracle.marginalize_over_v`), the transition's
bilinear coefficients (:meth:`~confgame.oracle.StageRep.of_corners`) and a
cell law's cov(action, instrument) (:func:`~confgame.oracle.action_iv_cov`),
all cells of a stage at once.  The reference below integrates the private
draw out with its own product law, splits the kernel by hand and walks the
cells one by one.  Both must give the same checks in the same order, with
values equal to within 1e-15.
"""

from dataclasses import replace

import numpy as np
import pytest

from confgame import fixtures, game, oracle


def ref_v_law(spec, t):
    """(1, v1, v2, s) product law of the private draw at stage ``t``."""
    return spec.v1_law[t].T[None, :, None, :] * spec.v2_law[t].T[None, None, :, :]


def ref_cov_over_v(f, g, w):
    """Covariance of two (u, v1, v2, s) tables over the law ``w``, a (u, s) table."""
    mean_f = (f * w).sum(axis=(1, 2))
    mean_g = (g * w).sum(axis=(1, 2))
    mean_fg = (f * g * w).sum(axis=(1, 2))
    return mean_fg - mean_f * mean_g


def ref_validate(spec, behavior):
    """(name, stage, cell, value, tol) of every check, in report order."""
    checks = []

    def add(name, value, tol, stage=None, cell=None):
        checks.append((name, stage, cell, float(value), tol))

    def player(t):
        return "alice" if t % 2 == 0 else "bob"

    for t in [*range(0, spec.n_stages, 2), *range(1, spec.n_stages, 2)]:
        mean = (spec.reward_tables(t)[3] * ref_v_law(spec, t)).sum(axis=(1, 2))
        add(f"{player(t)}_reward_residual_mean", np.abs(mean).max(), game.ORTHO_TOL, stage=t)

    for t in range(spec.n_stages):
        table = behavior.table(t)
        act_base, act_iv = table[..., 0], table[..., 1] - table[..., 0]
        w = ref_v_law(spec, t)

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
                cov = ref_cov_over_v(f, g, w)
                add(f"orthogonality[{label}:{name}]", np.abs(cov).max(), game.ORTHO_TOL, stage=t)

        seven_covariances(*spec.reward_tables(t), f"{player(t)}_reward")
        kern = spec.trans[t]  # (u, v1, v2, s, a, b, s')
        theta = kern[..., 1, 0, :] - kern[..., 0, 0, :]
        gamma = kern[..., 0, 1, :] - kern[..., 0, 0, :]
        inter = kern[..., 1, 1, :] - kern[..., 1, 0, :] - kern[..., 0, 1, :] + kern[..., 0, 0, :]
        resid = kern[..., 0, 0, :]
        out_act, out_iv = (theta, gamma) if t % 2 == 0 else (gamma, theta)
        for sp in range(spec.n_states):
            seven_covariances(
                out_act[..., sp], out_iv[..., sp], inter[..., sp], resid[..., sp], f"trans_s{sp}"
            )
            cov = ref_cov_over_v(resid[..., sp], act_base, w)
            add(f"orthogonality[trans_s{sp}:resid~base]", np.abs(cov).max(), game.ORTHO_TOL, stage=t)

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
                relevance = p_act_given[1, 1] - p_act_given[:, 1].sum() * p_prev[1]
                add("iv_relevance", relevance, -game.RELEVANCE_TOL, stage=t, cell=(s_i, u_i))
                p_v_prev = cell.sum(axis=3)  # (v1, v2, prev)
                p_v = p_v_prev.sum(axis=2)
                gap = np.abs(p_v_prev - p_v[..., None] * p_prev[None, None, :]).max()
                add("iv_independent_of_v", gap, game.ORTHO_TOL, stage=t, cell=(s_i, u_i))
    return checks


def _cases():
    cases = [(name, make, 0.5) for name, make in fixtures.FIXTURES.items()]
    cases += [
        (f"random-{seed}-ns{ns}", lambda seed=seed, ns=ns: fixtures.random_valid_spec(seed, ns), 0.5)
        for seed in range(5)
        for ns in (1, 2)
    ]

    def zero_shift():
        t1 = fixtures.t1_spec()
        return replace(t1, alice_act_iv=np.zeros_like(t1.alice_act_iv))

    def uncentred_residual():
        t1 = fixtures.t1_spec()
        return replace(t1, alice_rew_resid=np.full_like(t1.alice_rew_resid, 0.1))

    def t2_from_state_zero():  # stage-0 cells of state 1 are never reached
        return replace(fixtures.t2_spec(), init_state=np.array([1.0, 0.0]))

    def t2_skewed_draws():  # v1 and v2 laws differ from each other and across states
        t2 = fixtures.t2_spec()
        v1 = np.broadcast_to([[0.7, 0.3], [0.2, 0.8]], t2.v1_law.shape)
        return replace(t2, v1_law=v1, v2_law=np.broadcast_to([0.4, 0.6], t2.v2_law.shape))

    cases += [
        ("zero-shift", zero_shift, 0.5),
        ("uncentred-residual", uncentred_residual, 0.5),
        ("t2-init-bob-0.3", fixtures.t2_spec, 0.3),
        ("t2-init-state-1-0", t2_from_state_zero, 0.5),
        ("t2-skewed-draws", t2_skewed_draws, 0.5),
    ]
    return cases


@pytest.mark.parametrize("make, init_bob", [c[1:] for c in _cases()], ids=[c[0] for c in _cases()])
def test_validate_spec_matches_reference(make, init_bob):
    spec = make()
    behavior = game.BehaviorPolicyPair.from_spec(spec, init_bob)
    got = game.validate_spec(spec, behavior).checks
    want = ref_validate(spec, behavior)
    assert [(c.name, c.stage, c.cell, c.tol) for c in got] == [w[:3] + w[4:] for w in want]
    assert [c.ok for c in got] == [game.CheckResult(*w).ok for w in want]
    assert np.abs(np.array([c.value for c in got]) - np.array([w[3] for w in want])).max() <= 1e-15


def test_unreached_cells_are_skipped():
    spec = replace(fixtures.t2_spec(), init_state=np.array([1.0, 0.0]))
    cells = [c.cell for c in game.validate_spec(spec).checks if c.name == "iv_relevance" and c.stage == 0]
    assert cells and all(cell[0] == 0 for cell in cells)
