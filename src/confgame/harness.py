"""Experiment orchestration: replication grids, metrics and reports.

A single experiment sweeps an (n, seed) grid; each cell simulates a dataset,
fits the reward block, evaluates a fixed policy pair, runs the pessimistic
learner and scores everything against the exact oracle.  Results land in
plain CSV files: ``report.csv`` (one row per metric per cell), ``summary.csv``
(per-n medians and interquartile ranges) and ``manifest.json`` (config hash
and code version).  ``report.csv`` and ``summary.csv`` are bytewise
deterministic given the config; wall-clock timings go to a separate
``timings.csv`` precisely because they are not.

All cell-level randomness derives from the per-cell seed alone, so cells can
run in any order or in parallel (``CONFGAME_THREADS``) without changing a
single emitted byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfgameError
from .fixtures import FIXTURES, get_fixture
from .game import (
    BehaviorPolicyPair,
    GameSpec,
    constant_policy_pair,
    is_integer,
    simulate_dataset,
    stationary_deterministic_pairs,
)
from .gameio import read_spec
from .learner import EtaConfig, LearnerEngine, learn_policy_pair, truth_covered
from .ope import SampleSource, evaluate_policy
from . import oracle
from .sieve import build_basis

METRICS = ("rmse_theta", "coverage", "j_error", "gap", "pess_value")


def _entries(name: str, values, low: int) -> tuple:
    """``values`` as a tuple of Python ints; ``ValueError`` unless it is a
    sequence, then at the first entry that is not an integer (numpy's
    included, ``bool`` not) of at least ``low``."""
    if np.ndim(values) != 1:
        raise ValueError(f"{name} must be a sequence of integers, got {values!r}")
    for v in values:
        if not is_integer(v) or v < low:
            raise ValueError(f"{name} entries must be integers >= {low}, got {v}")
    return tuple(int(v) for v in values)


@dataclass
class ExperimentConfig:
    """Everything a benchmark run depends on; hashable and JSON-round-trip.

    The schedule fields and ``k_members`` take their defaults and checks from
    :class:`~confgame.learner.EtaConfig`; the config checks its own flags and
    counts.  A bad field raises ``ValueError`` naming it, before any output.
    Numbers and flags are then held as the Python types their fields name."""

    fixture: str = "t1"
    spec_path: Optional[str] = None
    n_grid: tuple = (1000,)
    seeds: tuple = (0,)
    alpha: float = EtaConfig.alpha
    varsigma: float = EtaConfig.varsigma
    d: int = EtaConfig.d
    c_eta: float = EtaConfig.c_eta
    k_members: int = EtaConfig.k_members
    cross_fit: bool = False
    run_learner: bool = True
    max_candidates: int = 4096
    out_dir: str = "results"

    def __post_init__(self):
        self.n_grid = _entries("n_grid", self.n_grid, 1)
        self.seeds = _entries("seeds", self.seeds, 0)
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(b >= a for a, b in zip(self.n_grid[1:], self.n_grid)):
            raise ValueError("n grid must be strictly increasing")
        if self.spec_path is None and self.fixture not in FIXTURES:
            raise ValueError(f"unknown fixture {self.fixture!r}")
        self.eta()  # a bad schedule or chain budget fails before any work
        for name in ("cross_fit", "run_learner"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)}")
        if not is_integer(self.max_candidates):
            raise ValueError(f"max_candidates must be an integer, got {self.max_candidates}")
        self.alpha, self.varsigma, self.c_eta = float(self.alpha), float(self.varsigma), float(self.c_eta)
        self.d, self.k_members, self.max_candidates = int(self.d), int(self.k_members), int(self.max_candidates)
        self.cross_fit, self.run_learner = bool(self.cross_fit), bool(self.run_learner)

    def spec(self) -> GameSpec:
        if self.spec_path is not None:
            return read_spec(self.spec_path)
        return get_fixture(self.fixture)

    def eta(self) -> EtaConfig:
        """The :class:`EtaConfig` of this config's fields of the same names."""
        return EtaConfig(**{f.name: getattr(self, f.name) for f in fields(EtaConfig)})

    def canonical_json(self) -> str:
        payload = asdict(self)
        payload.pop("out_dir", None)  # output location is not experiment content
        return json.dumps(payload, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.pop("experiment_id", None)
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown config keys {', '.join(unknown)}")
        return cls(**raw)


@dataclass
class _CellResult:
    n: int
    seed: int
    rows: list = field(default_factory=list)
    failed: bool = False
    error: str = ""
    runtime_ms: float = 0.0


def _fmt_value(v: float) -> str:
    if np.isnan(v):
        return "nan"
    return f"{v:.17g}"


def _run_cell(config, spec, behavior, basis, eta, targets, n, seed) -> _CellResult:
    t0 = time.perf_counter()
    out = _CellResult(n=n, seed=seed)
    try:
        ds = simulate_dataset(spec, behavior, n=n, seed=seed)
        engine = LearnerEngine(ds, basis, eta)
        fit = engine.stats[0].reward_fit()
        rmse = float(np.abs(fit.coef_table() - targets["alice_truth"]).max())
        out.rows.append(("rmse_theta", rmse))

        covered = truth_covered(
            engine, spec, targets["eval_policy"], targets["exq"], targets["true_blocks"]
        )
        out.rows.append(("coverage", float(covered)))

        res = evaluate_policy(SampleSource(ds, cross_fit=config.cross_fit), targets["eval_policy"], basis)
        out.rows.append(("j_error", abs(res.j_total - targets["j_eval"])))

        if config.run_learner:
            best, pv = learn_policy_pair(ds, targets["pairs"], basis, eta, engine=engine)
            ja, jb = oracle.exact_policy_value(spec, best)
            out.rows.append(("gap", max(targets["j_star"] - ja - jb, 0.0)))
            out.rows.append(("pess_value", pv.value))
    except (ConfgameError, ValueError, np.linalg.LinAlgError) as exc:
        out.failed = True
        out.error = f"{type(exc).__name__}: {exc}"
        done = {name for name, _ in out.rows}
        for m in METRICS:
            if m not in done:
                out.rows.append((m, float("nan")))
    out.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return out


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every (n, seed) cell and write the report files.

    A failing cell contributes NaN rows flagged ``failed`` without stopping
    the others.  Returns the paths of the emitted files.  ``CONFGAME_THREADS``
    (default 1, values below 1 read as 1) sets the number of cells run at
    once; a value that is not an integer raises ``ValueError`` before any
    work is done.
    """
    threads = os.environ.get("CONFGAME_THREADS", "1")
    try:
        workers = max(int(threads), 1)
    except ValueError:
        raise ValueError(f"CONFGAME_THREADS={threads!r} is not an integer") from None
    spec = config.spec()
    behavior = BehaviorPolicyPair.from_spec(spec)
    basis = build_basis("saturated", spec.n_states, spec.n_u)
    eta = config.eta()
    eval_policy = constant_policy_pair(spec, 1.0, 0.5, 0.5)
    exq = oracle.exact_q(spec, eval_policy)
    targets = {
        "eval_policy": eval_policy,
        "exq": exq,
        "true_blocks": oracle.exact_recursion_blocks(spec, eval_policy, exq),
        "j_eval": exq.j_alice + exq.j_bob,
        "alice_truth": oracle.true_coefficients(spec)["alice_reward"].stack(),
    }
    if config.run_learner:
        pairs = stationary_deterministic_pairs(spec, cap=config.max_candidates)
        _, j_star = oracle.exact_optimal_pair(spec, pairs)
        targets["pairs"] = pairs
        targets["j_star"] = j_star

    cells = [(n, seed) for n in config.n_grid for seed in config.seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda c: _run_cell(config, spec, behavior, basis, eta, targets, *c), cells))
    results.sort(key=lambda r: (r.n, r.seed))

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    exp_id = config.config_hash()

    report_lines = ["experiment,n,seed,metric,value,status"]
    for r in results:
        status = "failed" if r.failed else "ok"
        for metric, value in sorted(r.rows):
            report_lines.append(
                f"{exp_id},{r.n},{r.seed},{metric},{_fmt_value(value)},{status}"
            )
    report_path = out_dir / "report.csv"
    report_path.write_text("\n".join(report_lines) + "\n", encoding="utf-8")

    summary_lines = ["experiment,n,metric,median,iqr,n_ok"]
    for n in config.n_grid:
        for metric in METRICS:
            vals = [
                v
                for r in results
                if r.n == n and not r.failed
                for m, v in r.rows
                if m == metric and not np.isnan(v)
            ]
            if not vals:
                continue
            med = float(np.median(vals))
            iqr = float(np.quantile(vals, 0.75) - np.quantile(vals, 0.25))
            summary_lines.append(
                f"{exp_id},{n},{metric},{_fmt_value(med)},{_fmt_value(iqr)},{len(vals)}"
            )
    summary_path = out_dir / "summary.csv"
    summary_path.write_text("\n".join(summary_lines) + "\n", encoding="utf-8")

    manifest = {
        "experiment_id": exp_id,
        "config": json.loads(config.canonical_json()),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "failures": [
            {"n": r.n, "seed": r.seed, "error": r.error} for r in results if r.failed
        ],
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    timing_lines = ["n,seed,runtime_ms"]
    for r in results:
        timing_lines.append(f"{r.n},{r.seed},{r.runtime_ms:.3f}")
    timings_path = out_dir / "timings.csv"
    timings_path.write_text("\n".join(timing_lines) + "\n", encoding="utf-8")

    return {
        "report": str(report_path),
        "summary": str(summary_path),
        "manifest": str(manifest_path),
        "timings": str(timings_path),
    }
