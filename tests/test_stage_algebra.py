"""The stage algebra of :mod:`confgame.ope` against explicit formulas.

``combine_blocks`` folds the fitted blocks into stage tables by the one
definition of the action/instrument roles and the block fold
(:func:`~confgame.ope.stage_roles`, :func:`~confgame.ope.block_slots`).  The
reference below writes the fold out by hand, one branch per parity, and the
two must agree bit for bit, sign of zero included.  The learner's first-stage
value weights are the adjoint of the even-stage fold: weighting the folded
tables by the value weight tables equals weighting the block coefficients by
the learner's weights.
"""

import numpy as np
import pytest

from confgame import fixtures, learner, ope, sieve


def ref_combine_blocks(t, reward_m, block_m, n_rows):
    if block_m is not None:
        lead = block_m.shape[:2]
    else:
        lead = (1,) + (reward_m.shape[:1] if reward_m is not None else (1,))
    rep = np.zeros(lead + (n_rows, 4))
    even = t % 2 == 0
    if reward_m is not None:
        r_act, r_iv, r_int = (reward_m[..., i] for i in range(3))
        rep[..., 0] += r_act if even else r_iv
        rep[..., 1] += r_iv if even else r_act
        rep[..., 2] += r_int
    if block_m is None:
        return rep
    b0, b1, b2, b3 = (block_m[..., j, :, :] for j in range(4))
    if even:
        # alice acts: blocks 1 (theta) and 3 (omega) are post-multiplied by her action
        rep[..., 0] += b0[..., 0] + b1[..., 0] + b1[..., 3] + b2[..., 0] + b3[..., 0] + b3[..., 3]
        rep[..., 1] += b0[..., 1] + b2[..., 1]
        rep[..., 2] += b0[..., 2] + b1[..., 1] + b1[..., 2] + b2[..., 2] + b3[..., 1] + b3[..., 2]
        rep[..., 3] += b0[..., 3] + b2[..., 3]
    else:
        # bob acts: blocks 2 (gamma) and 3 (omega) are post-multiplied by his action
        rep[..., 1] += b0[..., 0] + b1[..., 0] + b2[..., 0] + b2[..., 3] + b3[..., 0] + b3[..., 3]
        rep[..., 0] += b0[..., 1] + b1[..., 1]
        rep[..., 2] += b0[..., 2] + b1[..., 2] + b2[..., 1] + b2[..., 2] + b3[..., 1] + b3[..., 2]
        rep[..., 3] += b0[..., 3] + b1[..., 3]
    return rep


def _signed(rng, shape):
    """Uniform draws with a share of exact zeros of both signs."""
    x = rng.uniform(-1.0, 1.0, size=shape)
    pick = rng.random(shape)
    x[pick < 0.1] = -0.0
    x[(pick >= 0.1) & (pick < 0.2)] = 0.0
    return x


@pytest.mark.parametrize("t", [0, 1])
@pytest.mark.parametrize("lead", [(1, 1), (1, 3), (5, 3)])
@pytest.mark.parametrize("parts", ["both", "reward", "blocks", "none"])
def test_combine_blocks_matches_explicit_formulas(t, lead, parts):
    rng = np.random.default_rng(100 * t + 10 * lead[0] + lead[1])
    rows = 6
    reward_m = _signed(rng, (lead[1], rows, 3)) if parts in ("both", "reward") else None
    block_m = _signed(rng, lead + (4, rows, 4)) if parts in ("both", "blocks") else None
    got = ope.combine_blocks(t, reward_m, block_m, rows)
    want = ref_combine_blocks(t, reward_m, block_m, rows)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _saturated_stats():
    spec = fixtures.get_fixture("t2-h3")
    basis = sieve.build_basis("saturated", spec.n_states, spec.n_u)
    return ope.StageStats(ope.PopulationSource(spec), 0, basis)


def _polynomial_stats():
    """Three states, a basis of two functions: the cell tables of the
    coefficients span a strict subspace."""
    spec = fixtures.random_valid_spec(6, n_states=3)
    basis = sieve.build_basis(
        "tensor-polynomial", 3, spec.n_u, k=2 * spec.n_u, state_values=np.arange(3.0)[:, None]
    )
    assert basis.k < basis.n_cells
    return ope.StageStats(ope.PopulationSource(spec), 0, basis)


@pytest.mark.parametrize("make_stats", [_saturated_stats, _polynomial_stats])
def test_first_stage_weights_are_the_adjoint_of_the_fold(make_stats):
    st = make_stats()
    basis, rng = st.basis, np.random.default_rng(5)
    cand, cells, k = 7, basis.n_cells, basis.k
    w_rep = rng.uniform(0.0, 1.0, size=(cand, cells, 4))
    reward_m = rng.uniform(-1.0, 1.0, size=(1, k, 3))
    block_m = rng.uniform(-1.0, 1.0, size=(cand, 1, 4, k, 4))

    tables = basis.tables(ope.combine_blocks(0, reward_m, block_m, k))
    folded = np.einsum("ncs,ncs->n", w_rep, tables[:, 0])

    w_reward, w_blocks = learner._stage0_weights(st, w_rep)
    direct = np.einsum("nbq,bq->n", w_reward, reward_m[0].reshape(st.reward_coef.shape))
    for j in range(4):
        coef = block_m[:, 0, j].reshape((cand,) + st.geometry4.hess.shape[:2])
        direct += np.einsum("nbq,nbq->n", w_blocks[j], coef)
    assert np.abs(folded - direct).max() <= 1e-12
