"""The benchmark's traced run still finds every function it wraps.

`perfbench/spans.py` times and counts calls by rebinding function names in
the modules that call them (its `SEAMS`) and methods on their class (its
`METHOD_SEAMS`).  A binding that no longer exists is skipped silently, and
every metric that needs it is left out of the traced result line, which then
lacks metrics that `BENCHMARK.json` lists.  This happens, for example, when
a caller stops importing a function it used to call.  These tests read the
two lists at run time, so they follow any change the benchmark makes to them.
A seam that resolves but is no longer called loses its metric just as
silently, so the last three tests count the calls of small traced runs.
The last one checks the two counts that `perfbench/run.py` drops when they
miss its model of the exhaustive scan: `adversary.enumerated` and
`opt.dp_cells`.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from itertools import product
from pathlib import Path

import mqsim
import mqsim.cli
from mqsim.model import QueueCapacities, SEND, Trace, append_drain, validate_profile

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_seam_binding_resolves():
    missing = [
        f"{name}: {module}.{attr}"
        for name, bindings in spans.SEAMS
        for module, attr in bindings
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_every_method_seam_is_on_its_class():
    missing = [
        f"{name}: {module}.{cls}.{method}"
        for name, module, cls, method in spans.METHOD_SEAMS
        if method not in vars(getattr(importlib.import_module(module), cls))
    ]
    assert missing == []


def test_engine_seams_are_called_once_per_caller_call(capsys):
    rng = random.Random(7)
    batch = []
    for values, caps in (((1, 2, 5), (1, 1, 1)), ((1, 2), (1, 1)), ((1, 3, 4, 10), (2, 1, 2, 1))):
        profile = validate_profile(values)
        for _ in range(10):
            raw = Trace(tuple(rng.choice((SEND, *range(1, profile.m + 1)))
                              for _ in range(rng.randint(0, 8))))
            batch.append((append_drain(raw), QueueCapacities(caps), profile))
    rec = spans.Recorder()
    saved = rec.install(sys.modules)
    try:
        for trace, caps, profile in batch:
            mqsim.verify_all(trace, caps, profile)
        assert mqsim.cli.main(["search", "--values", "1", "2", "5", "--caps", "1", "1", "1",
                               "--max-len", "5"]) == 0
    finally:
        spans.Recorder.restore(saved)
    header = capsys.readouterr().out.splitlines()[0]
    evaluated = int(header.rsplit("evaluated=", 1)[1])
    calls = {name: count for name, (count, _) in rec.totals().items()}
    assert calls["analysis.verify_all"] == len(batch)
    assert calls["engine.run_greedy"] + calls["engine.replay_schedule"] == 2 * len(batch)
    assert calls["engine.greedy_transmit_counts"] == calls["adversary._evaluate"] == evaluated > 0


def test_one_dp_per_verify():
    """`opt.dp_cells` is modelled as one backward table per `verify_all` call:
    each verify runs `opt_search` once, and it builds its tables once."""
    rng = random.Random(11)
    profile, caps = validate_profile((1, 3, 4, 10)), QueueCapacities((2, 1, 2, 1))
    traces = [append_drain(Trace(tuple(rng.choice((SEND, 1, 2, 3, 4))
                                       for _ in range(rng.randint(0, 10)))))
              for _ in range(12)]
    rec = spans.Recorder()
    saved = rec.install(sys.modules)
    try:
        for trace in traces:
            mqsim.verify_all(trace, caps, profile)
    finally:
        spans.Recorder.restore(saved)
    calls = {name: count for name, (count, _) in rec.totals().items()}
    assert calls["analysis.verify_all"] == len(traces)
    assert calls["opt.opt_search"] == calls["opt.tables"] == len(traces)
    assert rec.dp_cells == sum(3 * 2 * 3 * 2 * len(t.events) for t in traces)


def test_exhaustive_scan_decodes_every_string_and_runs_one_dp_per_kept_one(capsys):
    """Every raw string up to the length bound is decoded exactly once, and
    each kept nonempty string (an arrival first, a send last) runs one
    |states| x |drained events| DP; the empty string earns nothing and runs none."""
    m, max_len = 3, 6
    rec = spans.Recorder()
    saved = rec.install(sys.modules)
    try:
        assert mqsim.cli.main(["search", "--values", "1", "2", "5", "--caps", "1", "1", "1",
                               "--max-len", str(max_len)]) == 0
    finally:
        spans.Recorder.restore(saved)
    capsys.readouterr()
    calls = {name: count for name, (count, _) in rec.totals().items()}
    assert calls["adversary._decode"] == sum((m + 1) ** length for length in range(max_len + 1))
    drained_lengths = sum(
        length + sum(ev != SEND for ev in raw)
        for length in range(2, max_len + 1)
        for raw in product((*range(1, m + 1), SEND), repeat=length)
        if raw[0] != SEND and raw[-1] == SEND
    )
    assert rec.dp_cells == 2 * 2 * 2 * drained_lengths
