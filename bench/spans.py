"""Spans recorded around calls into confgame's layers, from outside the package.

A :class:`Tracer` keeps spans in memory: name, start, end, parent span and
an optional work count.  :meth:`Tracer.instrument` wraps the public
functions listed in ``TRACED`` wherever a ``confgame`` module holds a
reference to them (``ope`` and ``learner`` import ``estimate_nuisances``,
``fit_smd`` and friends by name), so the spans cover both the benchmark's
direct calls and the calls one layer makes into another.  A module or name
that no longer exists is skipped: it reports no span and fails nothing.

Wrappers are not thread-safe; instrument only single-threaded code.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from contextlib import contextmanager


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    hidden = f"{path}.hidden"
    return os.path.getsize(path) + (os.path.getsize(hidden) if os.path.exists(hidden) else 0)


def _initial_rows(args, kwargs, result):
    return len(args[0].initial_cells()[0])


# (module, attribute, span name, work count of one call)
TRACED = (
    ("confgame.game", "simulate_dataset", "game.simulate", lambda a, k, r: r.n * r.horizon),
    ("confgame.gameio", "write_dataset", "gameio.write", _file_bytes),
    ("confgame.gameio", "read_dataset", "gameio.read", None),
    ("confgame.oracle", "exact_q", "oracle.exact_q", None),
    ("confgame.oracle", "exact_policy_value", "oracle.exact_policy_value", None),
    ("confgame.oracle", "exact_optimal_pair", "oracle.exact_optimal_pair", lambda a, k, r: len(a[1])),
    ("confgame.sieve", "project_conditional_mean", "sieve.project", None),
    ("confgame.moments", "estimate_nuisances", "moments.nuisance", None),
    ("confgame.moments", "assemble_system", "moments.assemble", lambda a, k, r: r.n),
    ("confgame.smd", "fit_smd", "smd.fit", None),
    ("confgame.ope", "evaluate_policy", "ope.evaluate", None),
    ("confgame.ope", "value_weight_tables", "ope.value_weight", _initial_rows),
    ("confgame.learner", "LearnerEngine.__init__", "learner.engine", None),
    ("confgame.learner", "learn_policy_pair", "learner.learn", lambda a, k, r: len(a[1])),
)

NAME, START, END, PARENT, COUNT, GROUP = range(6)


class Tracer:
    """In-memory span recorder; spans of one round share a group id."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.group = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None, self.group])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def recording(self, group):
        """Record spans into ``group`` for the duration of the block."""
        self.enabled, self.group = True, group
        try:
            yield
        finally:
            self.enabled, self.group = False, None

    @contextmanager
    def paused(self):
        """Correctness checks call the oracle too; keep them out of the spans."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                try:
                    self.spans[idx][COUNT] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the count, not the call
            return result

        return wrapper

    @contextmanager
    def instrument(self):
        """Patch every reference to the traced functions; restore on exit."""
        try:
            for module_name, attr, span_name, count in TRACED:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    original = getattr(owner, method, None) if owner is not None else None
                    if original is None:
                        continue
                    self._patch(owner, method, self._wrap(original, span_name, count))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, span_name, count)
                for mod in list(sys.modules.values()):
                    if mod is None or not getattr(mod, "__name__", "").startswith("confgame"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(self._patches):
                setattr(owner, key, original)
            self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def group_spans(self, group) -> list[list]:
        return [s for s in self.spans if s[GROUP] == group]

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "parent": s[PARENT],
                "count": s[COUNT],
                "group": s[GROUP],
            }
            for s in self.spans
        ]


def layer_metrics(all_spans: list[list], group_spans: list[list]) -> dict:
    """Per-layer figures of one round, from its spans.

    ``all_spans`` is the tracer's full list (parents are indices into it);
    ``group_spans`` the spans of the round.
    """
    dur: dict = {}
    calls: dict = {}
    counts: dict = {}
    child_time: dict = {}
    for s in group_spans:
        d = s[END] - s[START]
        dur[s[NAME]] = dur.get(s[NAME], 0.0) + d
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        if s[COUNT] is not None:
            counts[s[NAME]] = counts.get(s[NAME], 0) + s[COUNT]
        if s[PARENT] >= 0:
            parent = all_spans[s[PARENT]]
            key = (parent[NAME], s[NAME])
            child_time[key] = child_time.get(key, 0.0) + d

    def children_of(parent_name, child_name=None):
        return sum(
            v
            for (p, c), v in child_time.items()
            if p == parent_name and (child_name is None or c == child_name)
        )

    scan = dur.get("learner.learn", 0.0) - children_of("learner.learn", "learner.engine")
    candidates = counts.get("learner.learn", 0)
    vw_calls = calls.get("ope.value_weight", 0)
    return {
        "game.simulate_s": dur.get("game.simulate", 0.0),
        "game.trajectory_steps": counts.get("game.simulate", 0),
        "gameio.write_s": dur.get("gameio.write", 0.0),
        "gameio.read_s": dur.get("gameio.read", 0.0),
        "gameio.bytes": counts.get("gameio.write", 0),
        "sieve.project_s": dur.get("sieve.project", 0.0),
        "sieve.project_calls": calls.get("sieve.project", 0),
        "moments.nuisance_s": dur.get("moments.nuisance", 0.0),
        "moments.nuisance_calls": calls.get("moments.nuisance", 0),
        "moments.assemble_s": dur.get("moments.assemble", 0.0),
        "moments.assemble_calls": calls.get("moments.assemble", 0),
        "moments.rows_assembled": counts.get("moments.assemble", 0),
        "smd.fit_s": dur.get("smd.fit", 0.0),
        "smd.fit_calls": calls.get("smd.fit", 0),
        "ope.evaluate_s": dur.get("ope.evaluate", 0.0),
        "ope.self_s": dur.get("ope.evaluate", 0.0) - children_of("ope.evaluate"),
        "ope.value_weight_calls": vw_calls,
        "ope.value_weight_rows": counts.get("ope.value_weight", 0) / vw_calls if vw_calls else 0.0,
        "learner.engine_s": dur.get("learner.engine", 0.0),
        "learner.scan_s": scan,
        "learner.candidates": candidates,
        "learner.scan_ms_per_candidate": 1000.0 * scan / candidates if candidates else 0.0,
    }


def oracle_metrics(group_spans: list[list]) -> dict:
    """Oracle figures of one set-up pass."""
    dur: dict = {}
    candidates = 0
    for s in group_spans:
        dur[s[NAME]] = dur.get(s[NAME], 0.0) + (s[END] - s[START])
        if s[NAME] == "oracle.exact_optimal_pair":
            candidates += s[COUNT] or 0
    return {
        "oracle.exact_q_s": dur.get("oracle.exact_q", 0.0),
        "oracle.exact_optimal_pair_s": dur.get("oracle.exact_optimal_pair", 0.0),
        "oracle.exact_policy_value_s": dur.get("oracle.exact_policy_value", 0.0),
        "oracle.candidates": candidates,
    }


def median_by_key(rows: list[dict]) -> dict:
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}
