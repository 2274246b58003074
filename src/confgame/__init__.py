"""Offline evaluation and pessimistic learning for turn-based games with
private information on one side.

The package is organized as a numpy library:

* :mod:`confgame.game` -- tabular game specs, behavior pairs, simulation,
  validation of the identification structure;
* :mod:`confgame.gameio` -- text formats for datasets, specs and policies;
* :mod:`confgame.oracle` -- exact enumeration and dynamic programming ground
  truth, including the population identification system;
* :mod:`confgame.sieve` -- basis construction and series projection;
* :mod:`confgame.moments` -- nuisance fits and the invalid-instrument moment
  stack;
* :mod:`confgame.smd` -- sieve minimum-distance fitting, radius schedules and
  the criterion-gap geometry of confidence regions;
* :mod:`confgame.ope` -- backward-recursion off-policy evaluation;
* :mod:`confgame.learner` -- pessimistic policy search over nested regions;
* :mod:`confgame.harness` / :mod:`confgame.cli` -- replication experiments
  and the command line;
* :mod:`confgame.fixtures` -- built-in desk-scale games.
"""

from . import errors
from .fixtures import get_fixture
from .game import (
    BehaviorPolicyPair,
    GameSpec,
    HiddenTrace,
    OfflineDataset,
    PolicyPair,
    ValidationReport,
    constant_policy_pair,
    simulate_dataset,
    stationary_deterministic_pairs,
    validate_spec,
)
from .gameio import read_dataset, read_policy, read_spec, write_dataset, write_policy, write_spec
from .learner import EtaConfig, compute_gap, learn_policy_pair, pessimistic_value
from .moments import MomentData, assemble_system, estimate_nuisances
from .ope import PopulationSource, SampleSource, evaluate_policy
from .oracle import (
    exact_joint_law,
    exact_optimal_pair,
    exact_policy_value,
    exact_q,
    identification_system,
    stage_laws,
    true_coefficients,
)
from .sieve import build_basis, k_schedule, project_conditional_mean
from .smd import eta_schedule, fit_smd

__version__ = "0.1.0"
