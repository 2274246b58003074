"""Every count and schedule entry point holds its inputs to one rule.

A count is an integral number, numpy's included, but not a ``bool``
(:func:`confgame.game.is_integer`); a real schedule parameter is a number,
numpy's included, but not a ``bool``.  Each entry point raises its own typed
error naming the field, before any work, and keeps an accepted value as
given.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from confgame import cli, fixtures, game, gameio, learner, smd
from confgame.errors import MalformedSpec
from confgame.harness import ExperimentConfig
from confgame.sieve import build_basis

T1 = fixtures.t1_spec()
LINE = np.array([[0.0], [1.0]])

# values no count accepts, and values no real parameter accepts
NOT_COUNTS = (True, np.True_, 2.5, np.float64(2.0), "2", None)
NOT_REALS = (True, np.True_, "2", None)


def _count(name):
    return f"{name} must be an integer, got {{v}}"


def _real(name):
    return f"{name} must be a real number, got {{v}}"


# (site, call on one value, error, message for a rejected value ``v``,
#  rejected values, accepted values)
SITES = [
    *[
        (f"GameSpec.{name}", lambda v, name=name: replace(T1, **{name: v}), MalformedSpec,
         f"{name}: expected an integer, got {{v!r}}", NOT_COUNTS, (np.int64(getattr(T1, name)),))
        for name in ("horizon", "n_states", "n_u", "n_v1", "n_v2")
    ],
    ("simulate_dataset.n", lambda v: game.simulate_dataset(T1, n=v, seed=0), ValueError,
     "n must be a non-negative integer, got {v}", NOT_COUNTS, (np.int64(3),)),
    *[
        (f"{where}.{name}", lambda v, make=make, name=name: make(**{name: v}), ValueError, _real(name),
         NOT_REALS, (np.int64(3), np.float64(2.5), 2.5))
        for name in ("alpha", "varsigma", "c_eta")
        for where, make in (("EtaConfig", learner.EtaConfig), ("ExperimentConfig", ExperimentConfig))
    ],
    *[
        (f"{where}.{name}", lambda v, make=make, name=name: make(**{name: v}), ValueError, _count(name),
         NOT_COUNTS, (np.int64(2),))
        for name in ("d", "k_members")
        for where, make in (("EtaConfig", learner.EtaConfig), ("ExperimentConfig", ExperimentConfig))
    ],
    ("eta_schedule.n", lambda v: smd.eta_schedule(v), ValueError, _count("n"), NOT_COUNTS, (np.int64(100),)),
    ("ExperimentConfig.n_grid", lambda v: ExperimentConfig(n_grid=(v,)), ValueError,
     "n_grid entries must be integers >= 1, got {v}", NOT_COUNTS, (np.int64(100),)),
    ("ExperimentConfig.seeds", lambda v: ExperimentConfig(seeds=(v,)), ValueError,
     "seeds entries must be integers >= 0, got {v}", NOT_COUNTS, (np.int64(2),)),
    ("ExperimentConfig.max_candidates", lambda v: ExperimentConfig(max_candidates=v), ValueError,
     _count("max_candidates"), NOT_COUNTS, (np.int64(64),)),
    ("stationary_deterministic_pairs.cap", lambda v: game.stationary_deterministic_pairs(T1, cap=v),
     ValueError, _count("cap"), NOT_COUNTS, (np.int64(4096),)),
    ("build_basis.n_states", lambda v: build_basis("saturated", v, 1), ValueError, _count("n_states"),
     NOT_COUNTS, (np.int64(2),)),
    ("build_basis.n_u", lambda v: build_basis("saturated", 2, v), ValueError, _count("n_u"),
     NOT_COUNTS, (np.int64(2),)),
    # a missing k (None) keeps its own message (below)
    ("build_basis.k", lambda v: build_basis("tensor-polynomial", 2, 1, k=v, state_values=LINE), ValueError,
     _count("k"), NOT_COUNTS[:-1], (np.int64(2),)),
]
IDS = [site[0] for site in SITES]


@pytest.mark.parametrize("site, call, error, message, rejected, accepted", SITES, ids=IDS)
def test_each_entry_point_rejects_what_its_rule_rejects(site, call, error, message, rejected, accepted):
    for value in rejected:
        with pytest.raises(error, match=f"^{re.escape(message.format(v=value))}$"):
            call(value)


@pytest.mark.parametrize("site, call, error, message, rejected, accepted", SITES, ids=IDS)
def test_each_entry_point_accepts_numpy_numbers(site, call, error, message, rejected, accepted):
    for value in accepted:
        call(value)


def test_a_missing_polynomial_size_keeps_its_message():
    with pytest.raises(ValueError, match=r"^tensor-polynomial basis needs k >= 1$"):
        build_basis("tensor-polynomial", 2, 1, k=None, state_values=LINE)


@pytest.mark.parametrize("name, value, plain", [("alpha", np.int64(3), 3.0), ("varsigma", 0, 0.0), ("d", np.int16(2), 2)])
def test_schedule_keeps_the_values_it_is_given(name, value, plain):
    eta = learner.EtaConfig(**{name: value})
    assert getattr(eta, name) is value
    assert eta.radius_unit(1000, 1.0) == learner.EtaConfig(**{name: plain}).radius_unit(1000, 1.0)


def test_commands_check_the_spec_grid_before_any_output(tmp_path, capsys):
    """``evaluate`` printed its estimates before failing on the spec, and
    ``learn`` blamed a policy pair of the class it enumerated."""
    t2 = fixtures.t2_spec()
    data, policy = tmp_path / "t2.csv", tmp_path / "p.txt"
    gameio.write_dataset(game.simulate_dataset(t2, n=500, seed=0), str(data))
    gameio.write_policy(game.constant_policy_pair(t2, 1.0, 0.5, 0.5), str(policy))
    message = "error: MalformedSpec: the spec has (horizon, n_states, n_u) = (3, 2, 1); the data have (2, 2, 1)\n"
    capsys.readouterr()
    for argv in (
        ["identify", "--data", str(data)],
        ["evaluate", "--data", str(data), "--policy", str(policy)],
        ["learn", "--data", str(data), "--out", str(tmp_path / "best.csv")],
    ):
        assert cli.main(argv + ["--fixture", "t2-h3"]) == 2
        assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "best.csv").exists()
