"""Command-line interface.

Subcommands: simulate, check, synthesize, repro, necessity, sweep.
Exit codes: 0 pass, 1 condition failure, 2 input error, 3 internal or
inconclusive.  Output goes through `jsonio.dump`, so a rerun with identical
flags produces byte-identical files (an unwritable `--out` exits 2 first).
"""
from __future__ import annotations

import argparse
import sys

from .algorithms import AlgorithmSpec, HALT, HULL_CONTRACTION, as_controller
from .checker import DEFAULT_NODE_BUDGET, FAIL, check_all
from .engine import Adversary, NONRIGID, Trace, simulate
from .errors import InputError, SimulationError
from .experiments import (
    NECESSITY_NODE_BUDGET,
    necessity_experiment,
    repro_colorbased,
    repro_greedy_trap,
    synchronizer_end_to_end,
)
from .jsonio import check_writable, dump, load
from .scheduling import (
    Schedule,
    check_fairness_prefix,
    make_fsync_schedule,
    sample_async_schedule,
)
from .scenarios import NECESSITY_TEMPLATES, builtin_bundle, bundle_from_json
from .synchronizer import MACHINES, SVP, run_synchronized
from .synthesis import DEFAULT_ORDER_BUDGET, build_plan, replay_plan, similar

EXIT_PASS = 0
EXIT_CONDITION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_bundle(ref: str) -> dict:
    if ref.startswith("builtin:"):
        return bundle_from_json(builtin_bundle(ref[len("builtin:"):]))
    return load(ref, bundle_from_json)


def _number(text: str, kind: type, flag: str):
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{flag}: cannot read {text!r} as {kind.__name__}") from None


def _parse_schedule(spec: str | None, bundle: dict, n: int, seed: int) -> Schedule:
    if spec is None:
        if bundle["schedule"] is None:
            raise InputError("no schedule: pass --schedule or embed one in the scenario")
        return bundle["schedule"]
    if spec.startswith("fsync:"):
        return make_fsync_schedule(_number(spec.split(":", 1)[1], int, "--schedule"), n)
    if spec.startswith("async:"):
        return sample_async_schedule(seed, n, _number(spec.split(":", 1)[1], float, "--schedule"))
    return load(spec, Schedule.from_json)


def _parse_algorithm(spec: str | None, bundle: dict) -> AlgorithmSpec:
    if spec is None:
        if bundle["algorithm"] is None:
            raise InputError("no algorithm: pass --algo or embed one in the scenario")
        return bundle["algorithm"]
    if spec == HALT:
        return AlgorithmSpec(HALT)
    if spec.startswith("hull:"):
        return AlgorithmSpec(HULL_CONTRACTION,
                             contraction=_number(spec.split(":", 1)[1], float, "--algo"))
    return load(spec, AlgorithmSpec.from_json)


def cmd_simulate(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args.scenario)
    scenario = bundle["scenario"]
    schedule = _parse_schedule(args.schedule, bundle, scenario.n, args.seed)
    if args.fairness_window is not None:
        verdicts = check_fairness_prefix(schedule, args.fairness_window)
        if not all(verdicts):
            lazy = [i for i, ok in enumerate(verdicts) if not ok]
            print(f"schedule fails the fairness proxy for robots {lazy} "
                  f"(window {args.fairness_window})", file=sys.stderr)
            return EXIT_CONDITION
    algorithm = _parse_algorithm(args.algo, bundle)
    adversary = Adversary(args.seed, bundle["adversary_mode"] or NONRIGID)
    if args.machine is None:
        machine = bundle["machine"]
    else:
        machine = None if args.machine == "none" else args.machine
    if machine:
        trace = run_synchronized(scenario, algorithm, schedule, adversary, machine)
    else:
        trace = simulate(scenario, schedule, as_controller(algorithm), adversary)
    dump(trace.to_json(), args.out)
    return EXIT_PASS


def _report_exit(report) -> int:
    if report.all_pass:
        return EXIT_PASS
    if any(r.verdict == FAIL for r in report.results.values()):
        return EXIT_CONDITION
    return EXIT_INTERNAL  # only open-at-horizon verdicts


def cmd_check(args: argparse.Namespace) -> int:
    trace = load(args.trace, Trace.from_json)
    report = check_all(trace, node_budget=args.budget)
    dump(report.to_json(), args.out)
    return _report_exit(report)


def cmd_synthesize(args: argparse.Namespace) -> int:
    trace = load(args.trace, Trace.from_json)
    report = check_all(trace, node_budget=args.budget)
    if not report.all_pass:
        dump({"schema": 1, "refused": True, "report": report.to_json()}, args.out)
        return _report_exit(report)
    plan = build_plan(trace, report.natural_order)
    replayed = replay_plan(trace.scenario, plan)
    verdict = similar(trace, replayed)
    dump({
        "schema": 1,
        "refused": False,
        "plan": plan.to_json(),
        "replay": replayed.to_json(),
        "similar": verdict.to_json(),
    }, args.out)
    return EXIT_PASS if verdict.ok else EXIT_CONDITION


def cmd_repro(args: argparse.Namespace) -> int:
    if args.name == "greedy-lemma":
        if args.machine is not None:
            raise InputError("greedy-lemma always runs the greedy machine; "
                             "--machine applies to colorbased-theorem")
        result = repro_greedy_trap()
    else:  # colorbased-theorem: argparse's choices allow no other name
        result = repro_colorbased(machine=args.machine or SVP)
    dump(result, args.out)
    return EXIT_PASS if result["ok"] else EXIT_CONDITION


def _necessity_exit(result: dict) -> int:
    if result["materialized"]:
        if result["found_given_violation"]:
            return EXIT_CONDITION
        if result["inconclusive_rate"] and result["inconclusive_rate"] >= 0.05:
            return EXIT_INTERNAL
    return EXIT_PASS


def cmd_necessity(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise InputError("necessity sweeps need at least one seed")
    names = sorted(NECESSITY_TEMPLATES) if args.template == "all" else [args.template]
    results = {name: necessity_experiment(name, args.seeds,
                                          order_budget=args.order_budget,
                                          node_budget=args.budget)
               for name in names}
    dump({"schema": 1, "aggregates": results} if args.template == "all"
         else results[args.template], args.out)
    codes = {_necessity_exit(result) for result in results.values()}
    return EXIT_CONDITION if EXIT_CONDITION in codes else max(codes)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise InputError("synchronizer sweeps need at least one seed")
    results = [synchronizer_end_to_end(seed, horizon=args.horizon, machine=args.machine)
               for seed in range(args.seeds)]
    dump({"schema": 1, "results": results}, args.out)
    ok = all(r["all_checks_pass"] and r["similar"] for r in results)
    return EXIT_PASS if ok else EXIT_CONDITION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robosync",
        description="Simulate Look-Compute-Move robot systems, check whether an "
                    "asynchronous trace admits a similar semi-synchronous replay, "
                    "and exercise the luminous cycle synchronizers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output path (default: stdout)")

    def budget(p: argparse.ArgumentParser, default: int = DEFAULT_NODE_BUDGET) -> None:
        p.add_argument("--budget", type=int, default=default,
                       help="node budget for order enumeration")

    p = sub.add_parser("simulate", help="run one simulation and write its trace")
    p.add_argument("--scenario", required=True,
                   help="scenario JSON path or builtin:<name>")
    p.add_argument("--schedule", help="fsync:N, async:H, or a schedule JSON path")
    p.add_argument("--algo", help="halt, hull:<lambda>, or an algorithm JSON path")
    p.add_argument("--machine", choices=["none", *MACHINES],
                   help="'none' forces a plain run even if the scenario embeds a machine")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fairness-window", type=float,
                   help="refuse schedules where some robot has a look-free "
                        "window of this length")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run the five conditions on a trace")
    p.add_argument("trace")
    common(p)
    budget(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize",
                       help="build and verify the normal-form replay of a trace")
    p.add_argument("trace")
    common(p)
    budget(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("repro", help="run a built-in counterexample reproduction")
    p.add_argument("name", choices=["greedy-lemma", "colorbased-theorem"])
    p.add_argument("--machine", choices=list(MACHINES))
    common(p)
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("necessity", help="Monte Carlo violation sweep")
    p.add_argument("--template", required=True,
                   choices=[*sorted(NECESSITY_TEMPLATES), "all"],
                   help="one violation template, or 'all' for one aggregate per template")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--order-budget", type=int, default=DEFAULT_ORDER_BUDGET)
    common(p)
    budget(p, NECESSITY_NODE_BUDGET)
    p.set_defaults(func=cmd_necessity)

    p = sub.add_parser("sweep", help="synchronizer pipeline over random clique-cluster "
                                     "scenarios, one seed each")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--horizon", type=float, default=200.0)
    p.add_argument("--machine", choices=list(MACHINES), default=SVP)
    common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("budget", "order_budget"):
            value = getattr(args, flag, 0)
            if value < 0:
                raise InputError(f"--{flag.replace('_', '-')} must not be negative, "
                                 f"got {value}")
        check_writable(args.out)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SimulationError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # exit 1 is reserved for failed conditions
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
