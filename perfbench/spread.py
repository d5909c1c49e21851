"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py [--out FILE]

Runs BENCHMARK.json's command once per (seed, workload), seeds 1..SEEDS,
one process at a time, rotating the workload order from seed to seed so that
slow phases of the machine do not land on one workload.  For every metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound; a spread at or above a third of
the bound is flagged, except for setup_s, whose spread is not bounded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    runs: dict[str, list[dict]] = {n: [] for n in names}
    ok = True
    for seed in range(1, SEEDS + 1):
        order = names[seed % len(names):] + names[: seed % len(names)]
        for name in order:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"seed {seed} {name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            log = [ln for ln in lines if ln.startswith("#")]
            runs[name].append({"seed": seed, "log": log, **result})
            metrics = result.get("metrics", {})
            shown = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
            attempted, failed = result.get("attempted", 0), result.get("failed", 0)
            shown.append(f"failed_frac {failed / attempted if attempted else 1:.6g} frac")
            print(f"seed {seed} {name}: {', '.join(shown)}", flush=True)

    for name in names:
        print(f"\n{name} ({len(runs[name])} runs)")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]
                      if metric["name"] in r.get("metrics", {})]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            flag = "" if steady else "  <-- wide"
            print(f"  {metric['name']:14s} {metric['unit']:3s} median {med:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.3f} bound {metric['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
