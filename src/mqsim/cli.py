"""Command-line front end: simulate, verify, bound, search.

Every command is deterministic given its flags; rationals print exactly as
p/q (or p), never as decimals.  Exit codes: 0 success, 1 a verification
verdict came back false, 2 parse/config errors, 3 a search or state-space
budget was exceeded, 4 the ratio bound was beaten (never expected).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .adversary import BoundFalsified, BudgetExceeded, exhaustive_worst, random_worst
from .analysis import check_ratio, verify_all
from .engine import check_at_least, run_greedy
from .model import (
    MQSimError,
    QueueCapacities,
    Trace,
    ValueProfile,
    append_drain,
    ascii_int,
    compute_c,
    matches_recurrence,
    parse_config,
    parse_trace,
    trace_to_text,
    validate_profile,
)
from .opt import DEFAULT_STATE_CAP, StateSpaceExceeded, opt_search

RANDOM_DEFAULT_LEN = 12


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqsim",
        description="Exact greedy-vs-optimal verification for class-segregated "
        "multi-queue buffer management.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, with_caps=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--values", nargs="+", metavar="V",
                       help="class values, ascending, as p or p/q")
        if with_caps:
            p.add_argument("--caps", nargs="+", type=ascii_int, metavar="B",
                           help="queue capacities, one per class")
        p.add_argument("--config", metavar="FILE",
                       help="config file with values:/capacities: lines")
        if with_caps:  # only the commands with capacities run the optimum's DP
            p.add_argument("--state-cap", type=ascii_int, default=DEFAULT_STATE_CAP,
                           help="cap on offline-optimum DP cells; a cell is one "
                           "state at one event, in 64-bit words of its field")
        return p

    p_sim = command("simulate", cmd_simulate, "run greedy and the offline optimum on a trace")
    p_sim.add_argument("--trace", required=True, metavar="FILE")
    p_ver = command("verify", cmd_verify, "check every counter identity and bound on a trace")
    p_ver.add_argument("--trace", required=True, metavar="FILE")
    command("bound", cmd_bound, "print the closed-form bound constants", with_caps=False)

    p_search = command("search", cmd_search, "search traces for the worst ratio")
    p_search.add_argument("--max-len", type=ascii_int, metavar="N",
                          help="exhaustive: maximum raw string length "
                          "(random: sampled string length)")
    p_search.add_argument("--samples", type=ascii_int, metavar="N",
                          help="random mode: number of sampled strings")
    p_search.add_argument("--seed", type=ascii_int, metavar="N",
                          help="random mode: RNG seed (required with --samples)")
    p_search.add_argument("--budget", type=ascii_int, default=None,
                          help="exhaustive mode: max raw strings enumerated")
    p_search.add_argument("--jobs", type=ascii_int, default=None, metavar="N",
                          help="exhaustive mode: worker processes (default 1)")

    return parser


def _load_profile(args) -> ValueProfile:
    if args.config and args.values:
        raise MQSimError("give either --config or --values, not both")
    if args.config:
        profile, _ = parse_config(Path(args.config).read_text())
        return profile
    if not args.values:
        raise MQSimError("need --values or --config")
    return validate_profile(args.values)


def _load_profile_caps(args) -> tuple[ValueProfile, QueueCapacities]:
    if args.config:
        if args.values or args.caps:
            raise MQSimError("give either --config or --values/--caps, not both")
        return parse_config(Path(args.config).read_text())
    if not args.values or not args.caps:
        raise MQSimError("need --values and --caps (or --config)")
    return validate_profile(args.values), QueueCapacities(args.caps)


def _load_trace(args) -> Trace:
    trace = parse_trace(Path(args.trace).read_text())
    if not trace.drained:
        print(f"note: trace auto-drained ({trace.arrivals} sends appended)", file=sys.stderr)
        return append_drain(trace)
    return trace


def cmd_simulate(args) -> int:
    profile, caps = _load_profile_caps(args)
    trace = _load_trace(args)
    greedy_ledger, greedy_schedule = run_greedy(trace, caps, profile)
    opt_result = opt_search(trace, caps, profile, state_cap=args.state_cap)
    g = greedy_ledger.benefit_transmitted
    o = opt_result.benefit
    ratio, _ = check_ratio(o, g, compute_c(profile).upper)
    print("greedy accepted:", ",".join(str(row[-1]) for row in greedy_ledger.accepted))
    print("greedy transmitted:", ",".join(str(row[-1]) for row in greedy_ledger.transmitted))
    print("greedy schedule:", greedy_schedule.to_text())
    print("opt schedule:", opt_result.schedule.to_text())
    print(f"greedy={g} opt={o} ratio={ratio}")
    return 0


def cmd_verify(args) -> int:
    profile, caps = _load_profile_caps(args)
    trace = _load_trace(args)
    report = verify_all(trace, caps, profile, state_cap=args.state_cap)
    for line in report.verdict_lines():
        print(line)
    return 0 if report.all_ok else 1


def cmd_bound(args) -> int:
    profile = _load_profile(args)
    report = compute_c(profile)
    print("c:", ",".join(map(str, report.c)))
    print(f"c*={report.c_star} upper={report.upper} lower={report.abs_lower}")
    if matches_recurrence(profile.values):
        print(
            "note: values follow v[i+1] = v[i] + sum(2^(j-1) v[i-j]); this "
            f"sequence gives c*={report.c_star}, not 1/2. The doubled variant "
            "v[i+1] = 2 v[i] + sum(2^(j-1) v[i-j]) (1, 2, 5, 14, ...) makes "
            "every c_i exactly 1/2."
        )
    return 0


def cmd_search(args) -> int:
    profile, caps = _load_profile_caps(args)
    for flag, value, least in (("--max-len", args.max_len, 0),
                               ("--samples", args.samples, 0), ("--jobs", args.jobs, 1)):
        if value is not None:
            check_at_least(flag, value, least)
    if args.samples is not None:
        if args.seed is None:
            raise MQSimError("random mode needs --seed")
        for flag, value in (("--jobs", args.jobs), ("--budget", args.budget)):
            if value is not None:
                raise MQSimError(f"{flag} applies to exhaustive mode only")
        length = args.max_len if args.max_len is not None else RANDOM_DEFAULT_LEN
        result = random_worst(profile, caps, length, args.samples, args.seed,
                              state_cap=args.state_cap)
        seed_field = f" seed={result.seed}"
    else:
        if args.max_len is None:
            raise MQSimError("need --max-len (exhaustive) or --samples with --seed")
        if args.seed is not None:
            raise MQSimError("--seed applies to random mode only")
        kwargs = {k: v for k, v in (("budget", args.budget), ("jobs", args.jobs))
                  if v is not None}
        result = exhaustive_worst(profile, caps, args.max_len,
                                  state_cap=args.state_cap, **kwargs)
        seed_field = ""
    print(
        f"# worst_ratio={result.worst_ratio} bound={compute_c(profile).upper} "
        f"evaluated={result.traces_evaluated}{seed_field}"
    )
    text = trace_to_text(result.worst_trace)
    if text:
        print(text, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, StateSpaceExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BoundFalsified as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 4
    except (MQSimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
