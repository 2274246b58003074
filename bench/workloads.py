"""The benchmark's workloads: their inputs, timed phases and correctness checks.

Every workload runs the same user-facing phases on each of its datasets --
simulate, write, read, identify, evaluate, learn -- and differs only in where
the work lands: on per-row passes (``rows-t2h3``), on the per-candidate scan
(``class-t2h3``) or on fixed per-call overhead (``grid-t1``).  Only names
exported by ``confgame`` (plus ``confgame.fixtures``) are called, so a change
inside a layer needs no change here.

Checks compare against computations separate from the estimators: reward
triples derived by hand from the fixtures' stated coefficients, the exact
oracle, exact column moments from the stage laws, and properties the method
must have.  Statistical tolerances are ``C / sqrt(n)``; ``C`` is about eight
times the largest standard deviation of ``sqrt(n) * error`` measured over
300 (t1, n=2000) and 40 (t2-h3, n=30000) simulation seeds, so a check fails
by chance with probability far below one in a million over a whole run.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import confgame
from confgame import fixtures

# sqrt(n) * |error| bound for reward triples and policy values, per fixture
TOLERANCE_C = {"t1": 15.0, "t2-h3": 28.0}
# tolerance of a column mean, in exact standard errors
COLUMN_Z = 6.0
POPULATION_TOL = 1e-9

# Marginalized reward triples (action, instrument, interaction) per state,
# averaged by hand over the uniform v2 draw in the fixtures' reward tables.
REWARD_TRIPLES = {
    "t1": {
        "alice": [[1.2, 0.5, 0.25]],
        "bob": [[1.0, 0.3, 0.1]],
    },
    "t2-h3": {
        "alice": [[1.0, 0.5, 0.25], [1.2, 0.6, 0.25]],
        "bob": [[0.8, 0.3, 0.1], [0.9, 0.3, 0.1]],
    },
}
# t1 under the constant pair (alice 1, bob 0.5, opening bob 0.5):
# alice 1.2 + (0.5 + 0.25) * 0.5, bob 1.0 * 0.5 + 0.3 + 0.1 * 0.5
T1_CONSTANT_VALUES = (1.575, 0.85)

PHASES = ("simulate", "write", "read", "identify", "evaluate", "learn")


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    n: int
    datasets: int  # datasets per round
    class_kw: dict = field(default_factory=dict)
    constant_policies: tuple = ((1.0, 0.5, 0.5),)
    evaluate_optimal: bool = False  # also evaluate the oracle-optimal member of the class
    learn_every: int = 1  # learn on datasets 0, learn_every, 2 * learn_every, ... of a round

    def learns(self, i: int) -> bool:
        return i % self.learn_every == 0

    def ops(self, i: int) -> int:
        """Operations on dataset ``i`` of a round: simulate, write, read, two
        reward fits, each evaluation and, where it learns, learn."""
        return 5 + len(self.constant_policies) + int(self.evaluate_optimal) + int(self.learns(i))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rows-t2h3",
            fixture="t2-h3",
            n=20_000,
            datasets=1,
            class_kw=dict(alice_sees_prev=False, bob_sees_prev=False),
            constant_policies=((1.0, 0.5, 0.5), (0.0, 1.0, 0.0)),
            evaluate_optimal=True,
        ),
        Workload(
            name="class-t2h3",
            fixture="t2-h3",
            n=12_000,
            # one 512-candidate scan takes seconds; the other two datasets give
            # the short phases more samples per run
            datasets=3,
            learn_every=3,
        ),
        Workload(
            name="grid-t1",
            fixture="t1",
            n=2_000,
            datasets=4,
        ),
    )
}

# The learner picks the optimal t2-h3 pair only from about n=8000 rows on (its
# region radii shrink with n); below that the regret check rightly fails.
SELFTEST_SIZES = {"rows-t2h3": (10_000, 1), "class-t2h3": (10_000, 2), "grid-t1": (500, 2)}


def selftest_variant(w: Workload) -> Workload:
    n, datasets = SELFTEST_SIZES[w.name]
    return replace(w, n=n, datasets=datasets)


def dataset_seed(seed: int, round_index: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, round_index, i]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# set-up: spec, class and oracle targets
# ---------------------------------------------------------------------------


@dataclass
class Targets:
    spec: confgame.GameSpec
    basis: object
    pairs: list
    j_star: float
    policies: list
    values: list  # exact (J_alice, J_bob) per evaluated policy
    columns: dict  # column name -> (per-step exact means, per-step exact variances)


def column_moments(spec) -> dict:
    """Exact per-step mean and variance of the simulated observed columns.

    Computed from the stage laws and the spec's coefficient tables, without
    the simulator or any estimator.
    """
    laws = confgame.stage_laws(spec)
    out: dict = {}
    for t in range(spec.n_stages):
        law = laws.with_action[t]  # (s, u, v1, v2, prev, act)
        s, u, v1, v2, prev, act = np.indices(law.shape)
        player = "alice" if t % 2 == 0 else "bob"
        idx = (u, v1, v2, s)
        mean_r = (
            getattr(spec, f"{player}_rew_act")[idx] * act
            + getattr(spec, f"{player}_rew_iv")[idx] * prev
            + getattr(spec, f"{player}_rew_inter")[idx] * act * prev
            + getattr(spec, f"{player}_rew_resid")[idx]
        )
        noise_var = spec.reward_noise**2 / 3.0  # uniform noise on [-noise, noise]
        cols = {
            ("s" if t % 2 == 0 else "s_half"): (s, s**2, 0.0),
            ("a" if t % 2 == 0 else "b"): (act, act, 0.0),
            ("r_a" if t % 2 == 0 else "r_b"): (mean_r, mean_r**2, noise_var),
        }
        for name, (x, x2, extra) in cols.items():
            m = float((law * x).sum())
            var = float((law * x2).sum()) - m * m + extra
            means, variances = out.setdefault(name, ([], []))
            means.append(m)
            variances.append(max(var, 0.0))
    return out


def setup(w: Workload) -> Targets:
    spec = fixtures.get_fixture(w.fixture)
    basis = confgame.build_basis("saturated", spec.n_states, spec.n_u)
    pairs = confgame.stationary_deterministic_pairs(spec, **w.class_kw)
    best, j_star = confgame.exact_optimal_pair(spec, pairs)
    policies = [confgame.constant_policy_pair(spec, *c) for c in w.constant_policies]
    if w.evaluate_optimal:
        policies.append(best)
    values = [confgame.exact_policy_value(spec, p) for p in policies]
    return Targets(
        spec=spec,
        basis=basis,
        pairs=pairs,
        j_star=j_star,
        policies=policies,
        values=values,
        columns=column_moments(spec),
    )


def setup_problems(w: Workload, targets: Targets) -> list[str]:
    """Checks that need no data: population-mode OPE and the t1 hand values."""
    problems = []
    population = confgame.PopulationSource(targets.spec)
    for policy, (ja, jb) in zip(targets.policies, targets.values):
        res = confgame.evaluate_policy(population, policy, targets.basis)
        err = max(abs(res.j_alice - ja), abs(res.j_bob - jb))
        if not err <= POPULATION_TOL:
            problems.append(f"population-mode OPE differs from the oracle by {err:.3e}")
    if w.fixture == "t1" and w.constant_policies[0] == (1.0, 0.5, 0.5):
        got = targets.values[0]
        if max(abs(g - e) for g, e in zip(got, T1_CONSTANT_VALUES)) > 1e-12:
            problems.append(f"t1 oracle values {got} differ from {T1_CONSTANT_VALUES}")
    return problems


# ---------------------------------------------------------------------------
# one round: every phase on every dataset of the round
# ---------------------------------------------------------------------------


class _OpFailed(Exception):
    """A phase call raised; the rest of its dataset cannot run."""


class Runner:
    """Runs rounds of a workload, counting operations and check failures.

    One operation is one phase call plus its check.  A call that raises is a
    failed operation, and so is every later operation of its dataset.
    """

    def __init__(self, w: Workload, targets: Targets, workdir: str, tracer):
        self.w = w
        self.t = targets
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.c = TOLERANCE_C[w.fixture]

    # -- bookkeeping --------------------------------------------------------

    def _op(self, times: dict, phase: str, call, check):
        self.attempted += 1
        self._done += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(f"bench.{phase}"):
                result = call()
        except Exception as exc:  # counted and reported; the run goes on
            self.failed += 1
            self.errors.append(f"{phase}: {type(exc).__name__}: {exc}")
            raise _OpFailed from exc
        times[phase] = times.get(phase, 0.0) + time.perf_counter() - t0
        t1 = time.perf_counter()
        with self.tracer.paused():
            problem = check(result)
        self._check_s += time.perf_counter() - t1
        if problem:
            self.problems.append(f"{phase}: {problem}")
        return result

    def run_round(self, seed: int, round_index: int) -> dict:
        """Per-dataset phase seconds, and the round's wall time less its checks."""
        datasets = []
        self._check_s = 0.0
        t0 = time.perf_counter()
        for i in range(self.w.datasets):
            times: dict = {}
            self._done = 0
            try:
                self._dataset(times, dataset_seed(seed, round_index, i), i)
            except _OpFailed:
                rest = self.w.ops(i) - self._done
                self.attempted += rest
                self.failed += rest
            datasets.append(times)
        return {"datasets": datasets, "total": time.perf_counter() - t0 - self._check_s}

    # -- phases -------------------------------------------------------------

    def _dataset(self, times, ds_seed: int, i: int) -> None:
        w, t = self.w, self.t
        n = w.n
        tol = self.c / math.sqrt(n)
        path = os.path.join(self.workdir, f"dataset{i}.csv")

        ds = self._op(
            times,
            "simulate",
            lambda: confgame.simulate_dataset(t.spec, n=n, seed=ds_seed),
            self._check_columns,
        )
        self._op(times, "write", lambda: confgame.write_dataset(ds, path), lambda _: self._check_file(path, ds))
        back = self._op(
            times,
            "read",
            lambda: confgame.read_dataset(path),
            lambda r: None if r == ds else "read_dataset(write_dataset(ds)) != ds",
        )
        truth = REWARD_TRIPLES[w.fixture]
        for stage, side in ((0, "alice"), (1, "bob")):
            self._op(
                times,
                "identify",
                lambda: self._reward_fit(back, stage),
                lambda f: _max_err(f.coef_table().reshape(-1, 3), truth[side], tol, f"{side} reward triple"),
            )
        for policy, (ja, jb) in zip(t.policies, t.values):
            self._op(
                times,
                "evaluate",
                lambda: confgame.evaluate_policy(back, policy, t.basis),
                lambda r: _max_err([r.j_total], [ja + jb], tol, "sample-mode policy value"),
            )
        if w.learns(i):
            self._op(
                times,
                "learn",
                lambda: confgame.learn_policy_pair(back, t.pairs, t.basis),
                lambda r: self._check_learned(*r, 2.0 * tol),
            )

    def _reward_fit(self, ds, stage: int):
        """Stage-0 reward fit of one player, as ``confgame identify`` does it."""
        if stage == 0:
            data = confgame.MomentData(
                y=ds.r_a[:, 0], s=ds.s[:, 0], u=ds.u[:, 0], act=ds.a[:, 0], iv=ds.b_init
            )
        else:
            data = confgame.MomentData(
                y=ds.r_b[:, 0], s=ds.s_half[:, 0], u=ds.u_half[:, 0], act=ds.b[:, 0], iv=ds.a[:, 0]
            )
        nuis = confgame.estimate_nuisances(data, self.t.basis)
        system = confgame.assemble_system(data, nuis, n_states=ds.n_states, n_u=ds.n_u)
        return confgame.fit_smd(system, self.t.basis)

    # -- checks -------------------------------------------------------------

    def _check_columns(self, ds):
        if ds.n != self.w.n or ds.horizon != self.t.spec.horizon:
            return f"dataset shape ({ds.n}, {ds.horizon}) is wrong"
        for name, (means, variances) in self.t.columns.items():
            col = getattr(ds, name)
            for h, (m, var) in enumerate(zip(means, variances)):
                got = float(col[:, h].mean())
                se = math.sqrt(var / ds.n)
                if abs(got - m) > max(COLUMN_Z * se, 1e-12):
                    return f"mean of {name}[:, {h}] is {got:.6f}, exact {m:.6f} (se {se:.2e})"
        return None

    def _check_file(self, path, ds):
        with open(path, "rb") as fh:
            lines = fh.read().count(b"\n")
        expected = 1 + ds.n * (ds.horizon + 2)  # header, init row, steps, term row
        return None if lines == expected else f"{lines} lines written, expected {expected}"

    def _check_learned(self, best, pv, tol):
        if not any(best is p for p in self.t.pairs):
            return "learned pair is not a member of the class"
        if not pv.value <= pv.plug_in + 1e-12:
            return f"pessimistic value {pv.value} exceeds plug-in {pv.plug_in}"
        regret = self.t.j_star - sum(confgame.exact_policy_value(self.t.spec, best))
        if not -1e-10 <= regret <= tol:
            return f"oracle regret {regret:.4f} outside [0, {tol:.4f}]"
        return None


def _max_err(got, expected, tol, what):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(expected, dtype=float))))
    return None if err <= tol else f"{what} off by {err:.4f} > {tol:.4f}"
