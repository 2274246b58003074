"""``evaluate_policy`` against a row-level reference of the same recursion.

The reference below refits every block from the stage's rows with the
row-by-row fit of ``row_reference`` -- nuisances, per-row features and cell
averages of the rows themselves -- and composes the block tables from the
action algebra directly.  Cross-fitting concatenates the two folds' systems,
each built with nuisances fitted on the other fold.  ``evaluate_policy``
computes the same fits from per-cell statistics read once per stage, so the
two agree to rounding.
"""

from dataclasses import replace

import numpy as np
import pytest
import row_reference

from confgame import fixtures, game, moments, ope, oracle, sieve

TOL = 1e-10


def _rows_data(rows, y, take):
    return moments.MomentData(
        y=y[take], s=rows.s[take], u=rows.u[take], act=rows.act[take], iv=rows.iv[take],
        weights=rows.weights[take],
    )


def _fit_rows(rows, parts, y, basis, intercept):
    systems = [
        row_reference.assemble_system(_rows_data(rows, y, take), nuis, intercept=intercept)
        for take, nuis in parts
    ]

    def cat(name):
        return np.concatenate([getattr(s, name) for s in systems])

    w = rows.weights
    system = row_reference.RowSystem(
        phi=cat("phi"), alpha=cat("alpha"), s=cat("s"), u=cat("u"), weights=cat("weights"),
        outcome_scale=float(np.sqrt((w * y**2).sum() / w.sum())),
    )
    return row_reference.fit_smd(system, basis)


def _block_outcomes(t, rows, rep, policy):
    """Per-row outcomes of the constant, own, partner and interaction blocks."""
    h = t // 2
    cell = (rows.next_s, rows.next_u)
    theta, gamma, omega, zeta = rep.theta[cell], rep.gamma[cell], rep.omega[cell], rep.zeta[cell]
    if t % 2 == 0:  # bob acts next
        fac = policy.bob[h][rows.next_s, rows.act]
        return [zeta, theta, gamma * fac, omega * fac]
    fac = policy.alice[h + 1][rows.next_s, rows.next_u, rows.act]
    return [zeta, theta * fac, gamma, omega * fac]


def reference_evaluate(source, policy, basis):
    ns, nu = source.n_states, source.n_u
    grid_s, grid_u = np.divmod(np.arange(ns * nu), nu)
    reps, fits = {}, {}
    nxt = {"alice": None, "bob": None}
    for t in reversed(range(2 * source.horizon)):
        rows = source.stage_rows(t)
        n = rows.s.shape[0]
        if rows.fold is None:
            splits = [(np.ones(n, bool), np.ones(n, bool))]
        else:
            splits = [(rows.fold == f, rows.fold != f) for f in (0, 1)]
        parts = [
            (take, row_reference.estimate_nuisances(_rows_data(rows, np.zeros(n), fit_on), basis))
            for take, fit_on in splits
        ]
        even = t % 2 == 0
        own, partner = ("theta", "gamma") if even else ("gamma", "theta")
        for side in ("alice", "bob"):
            rep = {name: np.zeros((ns, nu)) for name in ("theta", "gamma", "omega", "zeta")}
            if even == (side == "alice"):
                fit = _fit_rows(rows, parts, rows.y_reward, basis, False)
                fits[(t, side, "reward")] = fit
                r = (basis.evaluate(grid_s, grid_u) @ fit.coef).reshape(ns, nu, 3)
                rep[own] += r[..., 0]
                rep[partner] += r[..., 1]
                rep["omega"] += r[..., 2]
            if nxt[side] is not None:
                for j, y in enumerate(_block_outcomes(t, rows, nxt[side], policy)):
                    fit = _fit_rows(rows, parts, y, basis, True)
                    fits[(t, side, f"block{j}")] = fit
                    b = (basis.evaluate(grid_s, grid_u) @ fit.coef).reshape(ns, nu, 4)
                    # columns: own action, partner action, interaction, constant
                    if j in ((1, 3) if even else (2, 3)):
                        # the block carries a coefficient of the current actor's
                        # action, so it is multiplied by that binary action
                        rep[own] += b[..., 0] + b[..., 3]
                        rep["omega"] += b[..., 1] + b[..., 2]
                    else:
                        rep[own] += b[..., 0]
                        rep[partner] += b[..., 1]
                        rep["omega"] += b[..., 2]
                        rep["zeta"] += b[..., 3]
            reps[(t, side)] = oracle.StageRep(**rep)
        nxt = {side: reps[(t, side)] for side in ("alice", "bob")}

    rows = source.stage_rows(0)
    occ = np.bincount(rows.s * nu + rows.u, rows.weights, minlength=ns * nu).reshape(ns, nu)
    occ /= occ.sum()
    pa, pi_b = policy.alice[0], policy.init_bob
    weights = {
        "theta": occ * ((1 - pi_b) * pa[..., 0] + pi_b * pa[..., 1]),
        "gamma": occ * pi_b,
        "omega": occ * pi_b * pa[..., 1],
        "zeta": occ,
    }
    j = {
        side: sum(float((w * getattr(reps[(0, side)], name)).sum()) for name, w in weights.items())
        for side in ("alice", "bob")
    }
    return reps, fits, j["alice"], j["bob"]


def _random_policy(spec, seed):
    rng = np.random.default_rng(seed)
    return game.PolicyPair(
        alice=rng.uniform(0.1, 0.9, size=(spec.horizon, spec.n_states, spec.n_u, 2)),
        bob=rng.uniform(0.1, 0.9, size=(spec.horizon, spec.n_states, 2)),
        init_bob=0.4,
    )


def _grid_spec():
    return replace(fixtures.t2_spec(), state_values=np.array([[0.0], [1.0]]))


CASES = {
    "t1-sample": lambda: (fixtures.t1_spec(), "sample", False, None),
    "t1-sample-crossfit": lambda: (fixtures.t1_spec(), "sample", True, None),
    "t2h3-sample": lambda: (fixtures.get_fixture("t2-h3"), "sample", False, None),
    "t2h3-sample-crossfit": lambda: (fixtures.get_fixture("t2-h3"), "sample", True, None),
    "t1-population": lambda: (fixtures.t1_spec(), "population", False, None),
    "t2h3-population": lambda: (fixtures.get_fixture("t2-h3"), "population", False, None),
    "t2-tensor-polynomial": lambda: (_grid_spec(), "sample", False, 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_evaluate_policy_matches_row_reference(case):
    spec, kind, cross_fit, k = CASES[case]()
    if k is None:
        basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    else:
        basis = sieve.build_basis(
            "tensor-polynomial", spec.n_states, spec.n_u, k=k, state_values=spec.state_values
        )
    policy = _random_policy(spec, seed=3)
    if kind == "sample":
        data = game.simulate_dataset(spec, n=20_000, seed=17)
        source = ope.SampleSource(data, cross_fit=cross_fit)
    else:
        data = source = ope.PopulationSource(spec)
    res = ope.evaluate_policy(source, policy, basis)
    reps, fits, j_a, j_b = reference_evaluate(source, policy, basis)

    assert res.qhat.keys() == reps.keys()
    for key, rep in reps.items():
        assert np.abs(res.qhat[key].stack() - rep.stack()).max() <= TOL, key
    assert abs(res.j_alice - j_a) <= TOL
    assert abs(res.j_bob - j_b) <= TOL
    assert res.fits.keys() == fits.keys()
    for key, fit in fits.items():
        assert np.abs(res.fits[key].coef - fit.coef).max() <= TOL, key
