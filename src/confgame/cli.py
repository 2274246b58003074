"""Command-line interface.

Subcommands: ``validate``, ``simulate``, ``identify``, ``evaluate``,
``learn``, ``benchmark``.  Exit codes: 0 success, 1 validation failure,
2 runtime error, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfgameError
from .fixtures import FIXTURES, get_fixture
from .game import check_spec_grid, simulate_dataset, stationary_deterministic_pairs, validate_spec
from .gameio import (
    export_policy_csv,
    read_dataset,
    read_policy,
    read_spec,
    write_dataset,
)
from .harness import ExperimentConfig, run_experiment
from .learner import EtaConfig, compute_gap, learn_policy_pair
from .ope import SampleSource, build_stages, evaluate_policy
from . import oracle
from .sieve import build_basis

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="confgame")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        p.add_argument("--spec", help="path to a game spec file")
        p.add_argument(
            "--fixture", choices=sorted(FIXTURES), help="name of a built-in game"
        )

    p = sub.add_parser("validate", help="run exact identification checks on a spec")
    add_spec_args(p)

    p = sub.add_parser("simulate", help="simulate an offline dataset")
    add_spec_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seeds", type=int, default=0, help="simulation seed")
    p.add_argument("--out", required=True)

    p = sub.add_parser("identify", help="fit reward-block coefficients from data")
    p.add_argument("--data", required=True)
    add_spec_args(p)

    p = sub.add_parser("evaluate", help="off-policy evaluation of a policy file")
    p.add_argument("--data", required=True)
    p.add_argument("--policy", required=True)
    add_spec_args(p)

    p = sub.add_parser("learn", help="pessimistic policy learning")
    p.add_argument("--data", required=True)
    add_spec_args(p)
    p.add_argument("--out", required=True, help="CSV export of the learned pair")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--varsigma", type=float, default=0.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--c-eta", type=float, default=2.0, dest="c_eta")

    p = sub.add_parser("benchmark", help="run a replication experiment")
    p.add_argument("--config", help="JSON config file")
    add_spec_args(p)
    p.add_argument("--n", type=int, nargs="+", default=[1000])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--varsigma", type=float, default=0.0)
    p.add_argument("--c-eta", type=float, default=2.0, dest="c_eta")
    p.add_argument("--out", default="results")
    return parser


def _load_spec(args):
    if getattr(args, "spec", None):
        return read_spec(args.spec)
    if getattr(args, "fixture", None):
        return get_fixture(args.fixture)
    return None


def _require_spec(args):
    spec = _load_spec(args)
    if spec is None:
        raise _UsageError("one of --spec or --fixture is required")
    return spec


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr)
        return USAGE_EXIT
    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ConfgameError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "validate":
        spec = _require_spec(args)
        report = validate_spec(spec)
        print(report.summary())
        if report.ok:
            print("all checks passed")
            return 0
        print(f"{len(report.violations)} violations")
        return 1

    if args.command == "simulate":
        spec = _require_spec(args)
        ds = simulate_dataset(spec, n=args.n, seed=args.seeds)
        write_dataset(ds, args.out)
        print(f"wrote {args.out} ({ds.n} trajectories, horizon {ds.horizon})")
        return 0

    if args.command == "identify":
        ds = read_dataset(args.data)
        spec = _load_spec(args)
        if spec is not None:
            check_spec_grid(spec, ds.horizon, ds.n_states, ds.n_u)
        basis = build_basis("saturated", ds.n_states, ds.n_u)
        fit_a, fit_b = (st.reward_fit() for st in build_stages(SampleSource(ds), (0, 1), basis))
        print("alice reward block (per cell: action, instrument, interaction):")
        print(np.array_str(fit_a.coef_table(), precision=4))
        print("bob reward block:")
        print(np.array_str(fit_b.coef_table(), precision=4))
        if spec is not None:
            truths = oracle.true_coefficients(spec)
            for name, fit in (("alice_reward", fit_a), ("bob_reward", fit_b)):
                err = np.abs(fit.coef_table() - truths[name].stack()).max()
                print(f"max error vs oracle [{name}]: {err:.5f}")
        return 0

    if args.command == "evaluate":
        ds = read_dataset(args.data)
        policy = read_policy(args.policy)
        basis = build_basis("saturated", ds.n_states, ds.n_u)
        res = evaluate_policy(ds, policy, basis)
        print(f"estimated values: alice {res.j_alice:.5f}  bob {res.j_bob:.5f}  total {res.j_total:.5f}")
        spec = _load_spec(args)
        if spec is not None:
            ja, jb = oracle.exact_policy_value(spec, policy)
            print(f"oracle values:    alice {ja:.5f}  bob {jb:.5f}  total {ja + jb:.5f}")
            print(f"absolute error:   {abs(res.j_total - ja - jb):.5f}")
        return 0

    if args.command == "learn":
        ds = read_dataset(args.data)
        basis = build_basis("saturated", ds.n_states, ds.n_u)
        eta = EtaConfig(alpha=args.alpha, varsigma=args.varsigma, d=args.d, c_eta=args.c_eta)
        spec = _load_spec(args)
        if spec is None:
            raise _UsageError("learn needs --spec or --fixture to enumerate the policy class")
        pairs = stationary_deterministic_pairs(spec)
        best, pv = learn_policy_pair(ds, pairs, basis, eta)
        export_policy_csv(best, args.out)
        print(f"wrote {args.out}; pessimistic value {pv.value:.5f} (plug-in {pv.plug_in:.5f})")
        print(f"oracle gap: {compute_gap(spec, best, pairs):.5f}")
        return 0

    if args.command == "benchmark":
        if args.config:
            config = ExperimentConfig.from_json(args.config)
        else:
            kwargs = dict(
                n_grid=tuple(args.n),
                seeds=tuple(args.seeds),
                alpha=args.alpha,
                varsigma=args.varsigma,
                c_eta=args.c_eta,
                out_dir=args.out,
            )
            if args.spec:
                kwargs["spec_path"] = args.spec
            elif args.fixture:
                kwargs["fixture"] = args.fixture
            config = ExperimentConfig(**kwargs)
        paths = run_experiment(config)
        for k, v in paths.items():
            print(f"{k}: {v}")
        return 0

    raise _UsageError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
