"""mqsim benchmark: four seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  mqsim is imported from the checkout's
`src/` and driven only through its public entry points: `mqsim.cli.main`
in-process, and `mqsim.parse_trace` plus `mqsim.verify_all`.

With `--trace 0` the workload runs in rounds until `--seconds` have passed
(at least MIN_ROUNDS).  One round is the workload's fixed input set -- one
search command, or one pass over the verify batch -- followed, for searches,
by verifying the printed witness once as its output check and then, as its
latency samples, for about WITNESS_S more.  Every timed block is scaled to a
nominal host speed with hostspeed.py, because the machine this was built on
runs the same call up to 2.2x slower in phases lasting tens of seconds.

With `--trace 1` the input set runs once untraced and once with spans
recorded around the calls between mqsim's modules (spans.py); the per-layer
metrics come from the traced pass.

Every output is checked.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 0 only when
every check held.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import spans
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_ROUNDS = 3
SETUPS_PER_ROUND = 3
CHUNK = 1000  # verify-mixed calls per timed block

# verify-mixed: the three configurations of the tier-1 invariant suite.
MIXED_CONFIGS = (
    ((1, 2), (1, 1)),
    ((1, 2, 5), (1, 1, 1)),
    ((1, 3, 4, 10), (2, 1, 2, 1)),
)
MIXED_PER_CONFIG = 3000
MIXED_MAX_RAW_LEN = 12

RANDOM_WIDE_SAMPLES = 250
RANDOM_WIDE_LEN = 40

# Search workloads.  `max_len` is set for exhaustive mode and None for random
# mode, which takes the workload seed as `--seed`.  `expect` is the whole
# first stdout line where it does not depend on the seed.
SEARCHES = {
    "exhaustive-m3": {
        "values": (1, 2, 5), "caps": (1, 1, 1), "jobs": 1, "max_len": 9,
        "flags": ("--max-len", 9, "--budget", 10_000_000),
        "expect": "# worst_ratio=11/8 bound=3/2 evaluated=65536",
    },
    "exhaustive-m2-j2": {
        "values": (1, 2), "caps": (1, 1), "jobs": 2, "max_len": 12,
        "flags": ("--max-len", 12),
        "expect": "# worst_ratio=4/3 bound=3/2 evaluated=177147",
    },
    "random-wide": {
        "values": (1, 3, 4, 10), "caps": (4, 3, 4, 3), "jobs": 1, "max_len": None,
        "flags": ("--samples", RANDOM_WIDE_SAMPLES, "--max-len", RANDOM_WIDE_LEN),
        "expect": None,
    },
}
WORKLOADS = ("verify-mixed", *SEARCHES)

# Seconds of timed verifies of the printed witness per round of a search
# workload, after the one that checks it with the caches cold from the search:
# the latency samples that workload reports, because every end-to-end metric
# is reported on every workload.  The count is this over the check's latency:
# ~300-500 calls on the exhaustive searches, ~12 on random-wide.
WITNESS_S = 0.25

# A per-layer count that no longer matches its model of today's algorithm is
# dropped together with the ratios built on it.
DERIVED = {
    "opt.dp_cells": ("opt.dp_ns_per_cell",),
    "adversary.enumerated": ("adversary.useful_frac",),
}


class SetupError(Exception):
    """The checkout does not hold a usable mqsim."""


class Tally:
    """Operations attempted and failed; an operation is one verify_all call
    or one search command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED: {note}", file=sys.stderr)
        return ok

    def error(self, exc: Exception, what: str) -> None:
        if self.failed == 0:
            traceback.print_exception(exc, file=sys.stderr)
        self.op(False, f"{what}: {type(exc).__name__}: {exc}")


# --- set-up ----------------------------------------------------------------

def setup(configs):
    """Import mqsim from the checkout, build each (profile, capacities) and
    compute its bound constants.  Returns the set-up time, the package, its
    cli module and the (profile, capacities) pairs."""
    src = ROOT / "src"
    if not (src / "mqsim" / "__init__.py").is_file():
        raise SetupError(f"no mqsim package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    pkg = importlib.import_module("mqsim")
    cli = importlib.import_module("mqsim.cli")
    built = []
    for values, caps in configs:
        profile = pkg.validate_profile(values)
        pkg.compute_c(profile)
        built.append((profile, pkg.QueueCapacities(tuple(caps))))
    elapsed = time.perf_counter() - t0
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"mqsim imported from {pkg.__file__}, not from {src}")
    return elapsed, pkg, cli, built


def setup_again(configs) -> float:
    """Time one more set-up from a fresh module table, then put the modules
    in use back."""
    in_use = mqsim_modules()
    for name in in_use:
        del sys.modules[name]
    try:
        return setup(configs)[0]
    finally:
        for name in mqsim_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


def mqsim_modules():
    return {n: m for n, m in sys.modules.items() if n == "mqsim" or n.startswith("mqsim.")}


@contextlib.contextmanager
def recording(rec: spans.Recorder):
    saved = rec.install(mqsim_modules())
    try:
        yield
    finally:
        spans.Recorder.restore(saved)


def state_count(caps) -> int:
    size = 1
    for b in caps:
        size *= b + 1
    return size


# --- verify-mixed ----------------------------------------------------------

def mixed_inputs(seed: int) -> list[tuple[int, str]]:
    """Seeded drained traces, as trace text, tagged with their config index."""
    rng = random.Random(seed)
    inputs = []
    for ci, (values, _) in enumerate(MIXED_CONFIGS):
        m = len(values)
        for _ in range(MIXED_PER_CONFIG):
            raw = [f"A {rng.randint(1, m)}" if rng.random() < 0.5 else "S"
                   for _ in range(rng.randint(0, MIXED_MAX_RAW_LEN))]
            raw += ["S"] * sum(1 for ev in raw if ev != "S")
            inputs.append((ci, "".join(ev + "\n" for ev in raw)))
    return inputs


def mixed_calls(built, inputs):
    return [(*built[ci], text, None) for ci, text in inputs]


def verify_block(pkg, calls, tally, ticks, digest=None) -> tuple[float, list[float | None]]:
    """parse_trace + verify_all on each call, one at a time.  A call is
    (profile, caps, trace text, expected ratio): the report must hold every
    verdict and have that ratio, or, when it is None, a ratio within the
    bound.  Returns the block's wall time and each call's latency (None when
    it raised), less the host-speed readings taken during the call (`ticks`
    is HostSpeed.walls)."""
    clock = time.perf_counter
    latencies = []
    t_block = clock()
    for profile, caps, text, expected in calls:
        # a reading between the clock and the count is kept in the latency,
        # never subtracted from a call it did not interrupt
        t0 = clock()
        seen = len(ticks)
        try:
            report = pkg.verify_all(pkg.parse_trace(text), caps, profile)
        except Exception as exc:  # counted as a failed operation, run continues
            tally.error(exc, f"verify_all on {text!r}")
            latencies.append(None)
            continue
        done = len(ticks)
        latencies.append(clock() - t0 - sum(ticks[seen:done]))
        ratio_ok = report.ratio <= report.bound if expected is None else report.ratio == expected
        ok = report.all_ok and ratio_ok
        tally.op(ok, "" if ok else f"verify_all: all_ok={report.all_ok} ratio={report.ratio} "
                                   f"bound={report.bound} expected={expected} on {text!r}")
        if digest is not None:
            digest.update(f"{report.ratio}|{';'.join(report.verdict_lines())}\n".encode())
    return clock() - t_block, latencies


def mixed_dp_cells(inputs) -> int:
    """One backward table per verify_all call: |states| x |events|."""
    sizes = [state_count(caps) for _, caps in MIXED_CONFIGS]
    return sum(sizes[ci] * text.count("\n") for ci, text in inputs)


# --- search workloads --------------------------------------------------------

def search_argv(spec, seed, jobs) -> list[str]:
    argv = ["search", "--values", *spec["values"], "--caps", *spec["caps"], *spec["flags"]]
    argv += ["--seed", seed] if spec["max_len"] is None else ["--jobs", jobs]
    return [str(a) for a in argv]


def run_search(cli, argv, tally) -> tuple[float, str | None]:
    """One search command in-process; returns its wall time and stdout, or
    None for the stdout when it failed."""
    gc.collect()
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # counted as a failed operation, run continues
        tally.error(exc, "search command")
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    return wall, buf.getvalue() if tally.op(rc == 0, f"search exit code {rc}") else None


def header_fields(out: str) -> dict[str, str]:
    first = out.split("\n", 1)[0]
    if not first.startswith("# "):
        return {}
    return dict(tok.split("=", 1) for tok in first[2:].split() if "=" in tok)


def check_header(spec, out, tally) -> Fraction | None:
    """The header must match the expected one, where there is one, and its
    worst_ratio must not exceed its bound.  Returns the worst ratio, which
    the printed witness must then reproduce under verify_all."""
    first_line = out.split("\n", 1)[0]
    if spec["expect"] is not None and first_line != spec["expect"]:
        tally.op(False, f"stdout header {first_line!r}, expected {spec['expect']!r}")
        return None
    fields = header_fields(out)
    try:
        worst, bound = Fraction(fields["worst_ratio"]), Fraction(fields["bound"])
    except (KeyError, ValueError):
        tally.op(False, f"unreadable stdout header {first_line!r}")
        return None
    return worst if tally.op(worst <= bound, f"worst_ratio {worst} exceeds bound {bound}") else None


def exhaustive_counts(m: int, size: int, max_len: int) -> tuple[int, int]:
    """(strings enumerated, DP cells) of an exhaustive search up to max_len.

    Every raw string is decoded.  Kept are the empty string (zero benefit,
    no DP) and, for length L >= 2, strings that start with an arrival and end
    with a send: m (m+1)^(L-2) of them, drained to L + 1 + (middle arrivals)
    events.  Each kept nonempty string runs one |states| x |events| DP."""
    enumerated = sum((m + 1) ** length for length in range(max_len + 1))
    events = 0
    for length in range(2, max_len + 1):
        events += m * (m + 1) ** (length - 2) * (length + 1)
        if length >= 3:
            events += m * (length - 2) * m * (m + 1) ** (length - 3)
    return enumerated, size * events


def random_dp_cells(pkg, spec, seed, size) -> int | None:
    """DP cells of a random search: the sampled strings are redrawn with the
    package's public sampler (None without one); strings without arrivals
    need no DP."""
    if not hasattr(pkg, "random_trace"):
        return None
    rng = random.Random(seed)
    m = len(spec["values"])
    cells = 0
    for _ in range(RANDOM_WIDE_SAMPLES):
        arrivals = pkg.random_trace(rng, m, RANDOM_WIDE_LEN).arrivals
        if arrivals:
            cells += size * (RANDOM_WIDE_LEN + arrivals)
    return cells


# --- the two kinds of run ----------------------------------------------------

def nominal(wall, factor, inside):
    """A block's wall time less the readings taken inside it, at the nominal
    host speed."""
    return (wall - inside) * factor


def scale(latencies, factor):
    return [None if x is None else x * factor for x in latencies]


def per_position_median(rounds) -> list[float]:
    """Per call position that every round has, the median latency over its
    samples (one per round), so that an interrupt or a collection of other
    calls' garbage that hits a call once does not count as the call's cost."""
    out = []
    for column in zip(*(r for r in rounds if r)):
        values = [v for v in column if v is not None]
        if values:
            out.append(statistics.median(values))
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (a pool
    worker); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def end_to_end(name, seed, seconds, tally, report) -> dict[str, float]:
    """Rounds of the workload until `seconds` have passed; every time is
    scaled to the nominal host (hostspeed.py) block by block."""
    spec = SEARCHES.get(name)
    configs = MIXED_CONFIGS if spec is None else [(spec["values"], spec["caps"])]
    host = HostSpeed()
    (first_setup, pkg, cli, built), factor, _ = host.timed(lambda: setup(configs))
    setups = [first_setup * factor]

    def more_setups():
        for _ in range(SETUPS_PER_ROUND):
            elapsed, factor, inside = host.timed(lambda: setup_again(configs))
            setups.append(nominal(elapsed, factor, inside))

    if spec is None:
        calls = mixed_calls(built, mixed_inputs(seed))
        what = f"{len(calls)} verify calls in blocks of {CHUNK}"

        def one_round():
            gc.collect()
            wall, latencies = 0.0, []
            for lo in range(0, len(calls), CHUNK):
                (block_wall, block), factor, inside = host.timed(
                    lambda: verify_block(pkg, calls[lo:lo + CHUNK], tally, host.walls))
                wall += nominal(block_wall, factor, inside)
                latencies += scale(block, factor)
            return wall, [latencies]
    else:
        argv = search_argv(spec, seed, spec["jobs"])
        what = "mqsim " + " ".join(argv)
        outputs = []

        def one_round():
            (wall, out), factor, inside = host.timed(lambda: run_search(cli, argv, tally))
            if out is None:
                return None, []
            if outputs and not tally.op(out == outputs[0], "stdout differs from the first round's"):
                return None, []
            outputs.append(out)
            worst = check_header(spec, out, tally)
            if worst is None:
                return nominal(wall, factor, inside), []
            witness = [(*built[0], out, worst)]
            _, (cold,) = verify_block(pkg, witness, tally, host.walls)
            if cold is None:
                return nominal(wall, factor, inside), []
            gc.collect()
            (_, latencies), factor_v, _ = host.timed(lambda: verify_block(
                pkg, witness * max(2, round(WITNESS_S / cold)), tally, host.walls))
            return nominal(wall, factor, inside), [scale(latencies, factor_v)]

    walls, latency_rounds = [], []
    t_start = time.perf_counter()
    with host:
        more_setups()
        while len(walls) < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
            wall, latencies = one_round()
            walls.append(wall)
            latency_rounds += latencies
            more_setups()
    report(f"{len(walls)} rounds of {what}; {len(setups)} set-ups")
    shown = ", ".join("-" if w is None else f"{w:.4f}" for w in walls)
    report(f"round wall times, scaled: {shown} s")
    factors = sorted(host.factors)
    report(f"host factors: {len(factors)}, median {statistics.median(factors):.3f}, "
           f"range {factors[0]:.3f}-{factors[-1]:.3f}")
    walls = [w for w in walls if w is not None]
    latencies = per_position_median(latency_rounds)
    if not walls or len(latencies) < 2:  # quantiles need two
        return {}
    beyond = len(latencies) - int(0.99 * len(latencies))
    report(f"latency: {len(latencies)} call positions, each the median of its "
           f"{len(latency_rounds)} scaled samples; {beyond} beyond p99")
    us = [x * 1e6 for x in latencies]
    return {
        "wall_s": statistics.median(walls),
        "verify_p50_us": statistics.median(us),
        "verify_p99_us": statistics.quantiles(us, n=100)[98],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(name, seed, tally, report) -> dict[str, float]:
    """The fixed input set once untraced and once traced; per-layer times are
    scaled with the traced pass's host factor.  The periodic readings run in
    both passes, and in the traced one their ~2% of the time lands in the
    self time of whichever span is open."""
    spec = SEARCHES.get(name)
    configs = MIXED_CONFIGS if spec is None else [(spec["values"], spec["caps"])]
    host = HostSpeed()
    _, pkg, cli, built = setup(configs)
    rec = spans.Recorder()
    pool_speedup = 0.0
    gc.collect()
    with host:
        if spec is None:
            inputs = mixed_inputs(seed)
            calls = mixed_calls(built, inputs)
            plain, with_spans = hashlib.sha256(), hashlib.sha256()
            (wall_plain, _), f_plain, in_plain = host.timed(
                lambda: verify_block(pkg, calls, tally, host.walls, plain))
            gc.collect()
            with recording(rec):
                (wall_traced, _), f_traced, in_traced = host.timed(
                    lambda: verify_block(pkg, calls, tally, host.walls, with_spans))
            tally.op(plain.digest() == with_spans.digest(), "traced reports differ from untraced")
            expected = {"opt.dp_cells": mixed_dp_cells(inputs)}
        else:
            argv1 = search_argv(spec, seed, 1)
            (wall_plain, out), f_plain, in_plain = host.timed(
                lambda: run_search(cli, argv1, tally))
            if out is None:
                return {}
            worst = check_header(spec, out, tally)
            if worst is not None:
                verify_block(pkg, [(*built[0], out, worst)], tally, host.walls)
            if spec["jobs"] > 1:
                argv = search_argv(spec, seed, spec["jobs"])
                (wall_pool, out_pool), f_pool, in_pool = host.timed(
                    lambda: run_search(cli, argv, tally))
                tally.op(out_pool == out, "pool stdout differs from --jobs 1 stdout")
                pool_speedup = (nominal(wall_plain, f_plain, in_plain)
                                / nominal(wall_pool, f_pool, in_pool))
            # spans recorded in forked workers would not return: trace at --jobs 1
            with recording(rec):
                (wall_traced, out_traced), f_traced, in_traced = host.timed(
                    lambda: run_search(cli, argv1, tally))
            tally.op(out_traced == out, "traced stdout differs from untraced stdout")
            m, size = len(spec["values"]), state_count(spec["caps"])
            if spec["max_len"] is not None:
                enumerated, cells = exhaustive_counts(m, size, spec["max_len"])
            else:
                enumerated, cells = 0, random_dp_cells(pkg, spec, seed, size)
            expected = {
                "adversary.evaluated": int(header_fields(out).get("evaluated", -1)),
                "adversary.enumerated": enumerated,
                "opt.dp_cells": cells,
            }
    metrics = spans.layer_metrics(rec)
    for key in metrics:
        if key.endswith("_s") or key == "opt.dp_ns_per_cell":
            metrics[key] *= f_traced
    metrics["adversary.pool_speedup"] = pool_speedup
    metrics["trace.overhead_frac"] = (nominal(wall_traced, f_traced, in_traced)
                                      / nominal(wall_plain, f_plain, in_plain) - 1)
    report(f"traced pass: {len(rec.start)} spans, {wall_traced:.3f} s (host factor "
           f"{f_traced:.3f}) vs {wall_plain:.3f} s untraced (host factor {f_plain:.3f})")
    for key, want in expected.items():
        if key not in metrics or want is None:
            continue
        ok = metrics[key] == want
        if key == "adversary.evaluated":
            # the header's count is the program's own output, so a mismatch
            # is a wrong output and fails the run
            report(f"xcheck {key}: header says {want}, counted {metrics[key]}: "
                   f"{'ok' if ok else 'MISMATCH'}")
            tally.op(ok, f"{metrics[key]} _evaluate calls, header says evaluated={want}")
            continue
        report(f"xcheck {key}: expected {want}, counted {metrics[key]}: "
               f"{'ok' if ok else 'MISMATCH, dropped'}")
        # The other models are of today's algorithm, which later changes may
        # legitimately replace (a shared-prefix search decodes fewer strings
        # and fills fewer DP cells): a count off its model is not what its
        # name claims, so it is dropped, and the run is judged by its outputs.
        if not ok:
            for k in (key, *DERIVED.get(key, ())):
                metrics.pop(k, None)
    rec.write(OUT_DIR, f"spans-{name}", {"workload": name, "seed": seed, "metrics": metrics})
    return metrics


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    def report(line):
        print(f"# {line}", flush=True)

    report(f"env {json.dumps(environment())}")
    report(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(args.workload, args.seed, tally, report)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, tally, report)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = [n for n in units if n not in metrics]
    if missing:
        report(f"absent metrics: {', '.join(missing)}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {unit}")
    # 0 on a correct run, so it is printed here and carried as attempted and
    # failed, not listed as a metric whose spread is taken against its median
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_frac {failed_frac:.6g} frac ({tally.failed}/{tally.attempted})")
    correct = tally.attempted > 0 and tally.failed == 0 and (args.trace == 1 or not missing)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
