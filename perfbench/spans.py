"""Span recorder for the traced run, installed from outside the package.

Each seam is a function name bound in one or more *caller* modules.  The
recorder replaces the binding the caller looks up at call time, so a caller
that took a `from` import is traced too; patching only the defining module
would miss it.  A binding that no longer exists is skipped, and every metric
that needs it is left out of the report instead of failing the run.

Spans live in flat arrays (name, parent, start, end) until the run ends.  A
span's self time is its duration minus the durations of its direct children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

# (span name, ((module, attribute), ...)).  The layer is the part before the
# first dot: the module that defines the function, not the one calling it.
SEAMS = (
    ("model.parse_trace", (("mqsim", "parse_trace"), ("mqsim.cli", "parse_trace"))),
    ("model.validate_profile", (("mqsim.cli", "validate_profile"),)),
    ("model.compute_c", (("mqsim.analysis", "compute_c"), ("mqsim.adversary", "compute_c"),
                         ("mqsim.cli", "compute_c"))),
    ("model.doubling_tail", (("mqsim.model", "doubling_tail"),
                             ("mqsim.analysis", "doubling_tail"))),
    ("engine.run_greedy", (("mqsim.analysis", "run_greedy"), ("mqsim.cli", "run_greedy"))),
    ("engine.replay_schedule", (("mqsim.analysis", "replay_schedule"),)),
    ("engine.greedy_transmit_counts", (("mqsim.adversary", "greedy_transmit_counts"),)),
    ("opt.opt_search", (("mqsim.analysis", "opt_search"), ("mqsim.cli", "opt_search"))),
    ("opt._StateSpace", (("mqsim.opt", "_StateSpace"), ("mqsim.adversary", "_StateSpace"))),
    ("analysis.verify_all", (("mqsim", "verify_all"), ("mqsim.cli", "verify_all"))),
    ("analysis.compute_delta", (("mqsim.analysis", "compute_delta"),)),
    ("analysis.check_coefficient_signs", (("mqsim.analysis", "check_coefficient_signs"),)),
    ("adversary.exhaustive_worst", (("mqsim.cli", "exhaustive_worst"),)),
    ("adversary.random_worst", (("mqsim.cli", "random_worst"),)),
    ("adversary._scan_range", (("mqsim.adversary", "_scan_range"),)),
    ("adversary._decode", (("mqsim.adversary", "_decode"),)),
    ("adversary._drain_events", (("mqsim.adversary", "_drain_events"),)),
    ("adversary._evaluate", (("mqsim.adversary", "_evaluate"),)),
    ("cli.main", (("mqsim.cli", "main"),)),
)

# Methods are looked up on the class, so they are patched there.  The class
# is the one `mqsim.opt` defines, read before its name is wrapped.
METHOD_SEAMS = (
    ("opt.best_scaled", "mqsim.opt", "_StateSpace", "best_scaled"),
    ("opt.tables", "mqsim.opt", "_StateSpace", "tables"),
)


class Recorder:
    """Spans of one traced pass plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.installed: set[str] = set()
        self.dp_cells = 0
        self.zero_benefit = 0

    def wrap(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _count_cells(self, args, result):
        space, events = args[0], args[1]
        self.dp_cells += space.size * len(events)

    def _count_zero(self, args, result):
        if result is None:
            self.zero_benefit += 1

    def install(self, modules) -> list[tuple[object, str, object]]:
        """Patch every seam that exists; return what to restore."""
        saved = []

        def patch(owner, attr, name, observe=None):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))
            self.installed.add(name)

        observers = {"adversary._evaluate": self._count_zero}
        for name, module_name, cls_name, method in METHOD_SEAMS:
            cls = getattr(modules.get(module_name), cls_name, None)
            if cls is not None and method in vars(cls):
                patch(cls, method, name, self._count_cells)
        for name, bindings in SEAMS:
            for module_name, attr in bindings:
                module = modules.get(module_name)
                if module is not None and hasattr(module, attr):
                    patch(module, attr, name, observers.get(name))
        return saved

    @staticmethod
    def restore(saved) -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        span_name = self.span_name
        for i in range(n):
            k = span_name[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        out: dict[str, tuple[int, float]] = {}
        for k, name in enumerate(self.names):
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls[k], s + self_s[k])
        return out

    def write(self, directory: Path, stem: str, extra: dict) -> None:
        """Spans as four binary arrays (int32, int32, float64, float64) plus a
        JSON index naming the span ids."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.bin", "wb") as fh:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
        index = {
            "spans": len(self.start),
            "layout": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"],
            "names": self.names,
            **extra,
        }
        (directory / f"{stem}.json").write_text(json.dumps(index, indent=1) + "\n")


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics from one traced pass; a metric whose seams were not
    all installed is left out.  "Per trace" means per `verify_all` call."""
    totals = rec.totals()
    have = rec.installed

    def calls(*names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    verify_calls = calls("analysis.verify_all")

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}

    def put(key, needs, value):
        if all(n in have for n in needs):
            m[key] = value

    dec, drn, ev, scan = ("adversary._decode", "adversary._drain_events",
                          "adversary._evaluate", "adversary._scan_range")
    put("adversary.enumerated", [dec], calls(dec))
    put("adversary.evaluated", [ev], calls(ev))
    put("adversary.zero_benefit", [ev], rec.zero_benefit)
    put("adversary.useful_frac", [dec, ev], ratio(calls(ev) - rec.zero_benefit, calls(dec)))
    put("adversary.decode_s", [dec, drn], self_s(dec, drn))
    put("adversary.scan_s", [scan], self_s(scan))

    space, best, tables, search = ("opt._StateSpace", "opt.best_scaled", "opt.tables",
                                   "opt.opt_search")
    put("opt.space_builds", [space], calls(space))
    put("opt.space_build_s", [space], self_s(space))
    put("opt.dp_cells", [best, tables], rec.dp_cells)
    put("opt.dp_s", [best, tables], self_s(best, tables))
    put("opt.dp_ns_per_cell", [best, tables], ratio(self_s(best, tables) * 1e9, rec.dp_cells))
    put("opt.extract_s", [search], self_s(search))

    greedy, replay, fast = ("engine.run_greedy", "engine.replay_schedule",
                            "engine.greedy_transmit_counts")
    put("engine.ledger_runs", [greedy, replay], calls(greedy, replay))
    put("engine.ledger_s", [greedy, replay], self_s(greedy, replay))
    put("engine.fast_greedy_s", [fast], self_s(fast))

    va, cd, cs, cc = ("analysis.verify_all", "analysis.compute_delta",
                      "analysis.check_coefficient_signs", "model.compute_c")
    put("analysis.checks_s", [va, cd, cs], self_s(va, cd, cs))
    put("analysis.compute_c_per_trace", [va, cc], ratio(calls(cc), verify_calls))
    put("analysis.compute_delta_per_trace", [va, cd], ratio(calls(cd), verify_calls))
    put("analysis.sign_checks_per_trace", [va, cs], ratio(calls(cs), verify_calls))

    parse = ("model.parse_trace", "model.validate_profile")
    put("model.parse_s", parse, self_s(*parse))
    put("model.bound_s", [cc, "model.doubling_tail"], self_s(cc, "model.doubling_tail"))

    put("cli.self_s", ["cli.main"], self_s("cli.main"))
    return m
