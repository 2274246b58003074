"""confgame benchmark: one workload, closed loop, one process, one thread.

    python3 bench/run.py --workload rows-t2h3 --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout without installing the package.  It
times ``import confgame`` in five fresh interpreters and three set-ups (spec,
candidate class, oracle targets), then runs whole rounds of the workload's
phases until ``--seconds`` have passed, checking every output.  With
``--trace 0`` it reports the end-to-end metrics (each phase's median time
per dataset, the median round time); with ``--trace 1`` each round runs
twice on the same inputs, untraced and traced, and it reports the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object.  Reports and spans land in
``bench/out``.  ``--selftest`` shrinks every workload to seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "write_s": "s",
    "read_s": "s",
    "identify_s": "s",
    "evaluate_s": "s",
    "learn_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_per_candidate"):
        return "ms"
    if name == "gameio.bytes":
        return "bytes"
    return "count"


def load_confgame():
    """Import confgame from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "confgame" / "__init__.py").is_file():
        sys.exit(f"error: no confgame package under {src}")
    sys.path.insert(0, str(src))
    import confgame

    if not Path(confgame.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported confgame from {confgame.__file__}, not from {src}")
    return confgame


def fresh_import_s() -> float:
    """Wall time of ``import confgame`` in a new interpreter.

    numpy is imported first, untimed: interpreter start-up and numpy's own
    import are not the package's cost and swing with the host's file cache.
    """
    code = (
        "import sys, time, numpy\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "t0 = time.perf_counter()\n"
        "import confgame\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(out.stdout)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def harness_check(workdir: str, seed: int) -> str | None:
    """Replication grid at 1 and 2 threads: byte-identical reports, no failed cell."""
    from confgame import harness

    texts = {}
    for threads in ("1", "2"):
        old = os.environ.get("CONFGAME_THREADS")
        os.environ["CONFGAME_THREADS"] = threads
        try:
            paths = harness.run_experiment(
                harness.ExperimentConfig(
                    fixture="t1",
                    n_grid=(500, 1000),
                    seeds=(seed, seed + 1),
                    out_dir=os.path.join(workdir, f"harness-{threads}"),
                )
            )
        finally:
            if old is None:
                del os.environ["CONFGAME_THREADS"]
            else:
                os.environ["CONFGAME_THREADS"] = old
        texts[threads] = [Path(paths[k]).read_bytes() for k in ("report", "summary")]
        if b",failed" in texts[threads][0]:
            return f"harness: a cell failed with CONFGAME_THREADS={threads}"
    if texts["1"] != texts["2"]:
        return "harness: report.csv or summary.csv differs between 1 and 2 threads"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="tiny sizes, one set-up")
    args = parser.parse_args(argv)

    confgame = load_confgame()
    import numpy as np

    import spans as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.selftest:
        w = workloads.selftest_variant(w)
    import_s = statistics.median(fresh_import_s() for _ in range(1 if args.selftest else IMPORT_REPEATS))
    tracer = tracing.Tracer()

    setup_times, oracle_rows = [], []
    for k in range(1 if args.selftest else SETUP_REPEATS):
        t0 = time.perf_counter()
        if args.trace:
            with tracer.instrument(), tracer.recording(("setup", k)):
                targets = workloads.setup(w)
            oracle_rows.append(tracing.oracle_metrics(tracer.group_spans(("setup", k))))
        else:
            targets = workloads.setup(w)
        setup_times.append(time.perf_counter() - t0)
    problems = workloads.setup_problems(w, targets)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    rounds, traced, layer_rows = [], [], []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        runner = workloads.Runner(w, targets, workdir, tracer)
        start = time.perf_counter()
        while True:
            r = len(rounds)
            rounds.append(runner.run_round(args.seed, r))
            if args.trace:
                with tracer.instrument(), tracer.recording(r):
                    traced.append(runner.run_round(args.seed, r))
                layer_rows.append(tracing.layer_metrics(tracer.spans, tracer.group_spans(r)))
            elapsed = time.perf_counter() - start
            # stop before a round that would end past --seconds
            if elapsed * (r + 2) / (r + 1) > args.seconds:
                break
        measured_s = time.perf_counter() - start
        if args.trace and w.fixture == "t1":
            runner.attempted += 1
            problem = harness_check(workdir, args.seed)
            if problem:
                problems.append(problem)
    problems += runner.problems

    def median_total(rs):
        return statistics.median(r["total"] for r in rs)

    def median_per_dataset(phase):
        values = [d[phase] for r in rounds for d in r["datasets"] if phase in d]
        return statistics.median(values) if values else 0.0

    if args.trace:
        metrics = tracing.median_by_key(layer_rows)
        metrics.update(tracing.median_by_key(oracle_rows))
        metrics["trace.overhead_s"] = median_total(traced) - median_total(rounds)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {f"{p}_s": median_per_dataset(p) for p in workloads.PHASES}
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        metrics["total_s"] = median_total(rounds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        metrics = {k: metrics[k] for k in END_TO_END}

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "confgame": confgame.__version__,
        "git_sha": git_sha(),
    }
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    label = f"{w.name}_seed{args.seed}_trace{args.trace}"
    report = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "selftest": args.selftest,
        "n": w.n,
        "datasets_per_round": w.datasets,
        "rounds": len(rounds),
        "measured_s": measured_s,
        "env": env,
        "result": result,
        "round_times": rounds,
        "setup_times": setup_times,
        "import_s": import_s,
        "problems": problems,
        "errors": runner.errors,
    }
    (OUT_DIR / f"BENCH_{label}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"trace_{label}.json").write_text(
            json.dumps({"per_layer": metrics, "spans": tracer.to_json()}) + "\n"
        )

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  n {w.n}  "
          f"datasets/round {w.datasets}  rounds {len(rounds)}  measured {measured_s:.1f} s")
    print("  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"attempted {runner.attempted}  failed {runner.failed}  correct {not problems}")
    for name, v in metrics.items():
        print(f"  {name:34s} {v:14.6g} {units[name]}")
    for line in problems[:10] + runner.errors[:10]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
