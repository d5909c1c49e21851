"""Worst-case search for the greedy policy's empirical competitive ratio.

Exhaustive mode enumerates event strings over {A1..Am, S} up to a length
bound (`exhaustive_worst` states the exact set); random mode samples seeded
uniform strings.  Exhaustive mode decodes each raw string from its index, in
index order, out of cached tables of half-length words, and keeps a
candidate by its index alone.  Each candidate is
drained before evaluation so benefits are well-defined totals.  Both modes
feed their candidates through one scan loop.
Any ratio above the proven bound aborts the search with a falsification
report; it is never silently clamped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, cycle, islice, product, repeat
from multiprocessing import get_context
from operator import mul
from typing import Iterable

from .engine import check_at_least, check_dims, greedy_transmit_counts
from .model import (
    MQSimError,
    QueueCapacities,
    SEND,
    Trace,
    ValueProfile,
    compute_c,
    trace_to_text,
)
from .opt import DEFAULT_STATE_CAP, _StateSpace, _state_space

DEFAULT_BUDGET = 2_000_000
_CHUNK = 20_000  # raw indices per task; fixed so chunking is jobs-independent


class BudgetExceeded(MQSimError):
    def __init__(self, budget: int, needed: int):
        super().__init__(f"enumeration needs {needed} strings, budget is {budget}")
        self.budget = budget
        self.needed = needed


class BoundFalsified(MQSimError):
    """A concrete trace beat the proven ratio bound.  Never expected."""

    def __init__(self, trace: Trace, ratio: Fraction, bound: Fraction):
        super().__init__(
            f"ratio {ratio} exceeds bound {bound} on trace:\n{trace_to_text(trace)}"
        )
        self.trace = trace
        self.ratio = ratio
        self.bound = bound


@dataclass(frozen=True)
class SearchResult:
    worst_trace: Trace
    worst_ratio: Fraction
    traces_evaluated: int
    seed: int | None = None


def _evaluate(
    events: tuple[int, ...],
    caps: tuple[int, ...],
    weights: tuple[int, ...],
    space: _StateSpace,
) -> tuple[int, int] | None:
    """(opt, greedy) scaled benefits of a drained event tuple; None when
    greedy earns nothing (the optimum is then also zero)."""
    m = len(caps)
    tx = greedy_transmit_counts(events, caps, m)
    g = sum(map(mul, weights, tx))
    if g == 0:
        return None
    return space.best_scaled(events), g


_WORDS: dict[tuple[int, int], tuple[int, tuple, tuple]] = {}  # (length, m) -> halves


def _decode(index: int, length: int, m: int) -> tuple[int, ...]:
    """Raw string for a base-(m+1) index, most significant digit first.

    Digits 0..m-1 are arrivals of classes 1..m, digit m is a send, so numeric
    order equals lexicographic order over (A1 < ... < Am < S).  The index
    splits into its high and low halves, each read from a cached table of
    every word of that many digits; `product` lists them in index order.
    """
    words = _WORDS.get((length, m))
    if words is None:
        half, digits = length // 2, (*range(1, m + 1), SEND)
        words = _WORDS[length, m] = ((m + 1) ** half, tuple(product(digits, repeat=length - half)),
                                     tuple(product(digits, repeat=half)))
    base, high, low = words
    hi, lo = divmod(index, base)
    return high[hi] + low[lo]


def _drain_events(events: tuple[int, ...]) -> tuple[int, ...]:
    return events + (SEND,) * (len(events) - events.count(SEND))


Scored = tuple[int, int, tuple[int, ...]]  # (opt, greedy, drained events)
Scan = tuple[Scored | None, int, Scored | None]  # (best, counted, falsifier)


def _scan(
    candidates: Iterable[tuple[int, ...]], space: _StateSpace, bound: Fraction
) -> Scan:
    """Best ratio over drained candidates (the first maximum in order), the
    number of candidates, and the first candidate whose ratio exceeds
    `bound`, at which the scan stops.  Compares in integers only."""
    bn, bd = bound.numerator, bound.denominator
    best: Scored | None = None
    count = 0
    for drained in candidates:
        count += 1
        scored = _evaluate(drained, space.caps, space.weights, space)
        if scored is None:
            continue
        o, g = scored
        if o * bd > bn * g:
            return best, count, (o, g, drained)
        if best is None or o * best[1] > best[0] * g:
            best = (o, g, drained)
    return best, count, None


def _scan_range(
    length: int,
    start: int,
    stop: int,
    m: int,
    caps: tuple[int, ...],
    weights: tuple[int, ...],
    bound: Fraction,
    state_cap: int,
) -> Scan:
    """`_scan` over one index range of raw strings of a fixed length.

    Pruning: strings starting with a send or ending with an arrival are
    skipped; their drained behavior is covered by shorter or send-terminated
    strings.  Both are read off the index: a string ends with a send iff its
    index is m mod m+1, and starts with an arrival iff its index is below
    m (m+1)^(length-1).  Every index is still decoded.
    """
    raws = map(_decode, range(start, stop), repeat(length), repeat(m))
    if length:
        kept = max(min(stop, m * (m + 1) ** (length - 1)) - start, 0)
        phase = start % (m + 1)
        flags = chain(islice(cycle((False,) * m + (True,)), phase, phase + kept), repeat(False))
        raws = compress(raws, flags)
    candidates = map(_drain_events, raws)
    space = _state_space(caps, weights, max(2 * length - 1, 0), state_cap)
    return _scan(candidates, space, bound)


def _result(scan: Scan, bound: Fraction, seed: int | None = None) -> SearchResult:
    best, evaluated, falsifier = scan
    if falsifier is not None:
        o, g, events = falsifier
        raise BoundFalsified(Trace(events), Fraction(o, g), bound)
    if best is None:
        return SearchResult(Trace(()), Fraction(1), evaluated, seed)
    o, g, events = best
    return SearchResult(Trace(events), Fraction(o, g), evaluated, seed)


def exhaustive_worst(
    profile: ValueProfile,
    caps: QueueCapacities,
    max_len: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SearchResult:
    """Maximum drained ratio over the drained forms of the empty string and
    of every raw string of length 2..max_len that starts with an arrival and
    ends with a send.

    In ratio this covers every raw string of length <= max_len - 1 and the
    length-max_len strings that end in a send; it does not cover the
    length-max_len strings that end in an arrival (their drained forms first
    appear at max_len + 1).  Deterministic: the reported trace is the first
    maximum achiever in length-then-lexicographic order, independent of
    `jobs`.  `traces_evaluated` counts the candidates above (including
    zero-benefit ones).  `budget` caps the raw strings enumerated and
    `state_cap` the DP cells of the longest candidate.
    """
    check_dims(caps, profile)
    check_at_least("max_len", max_len, 0)
    check_at_least("jobs", jobs, 1)
    m = profile.m
    total = sum((m + 1) ** length for length in range(max_len + 1))
    if total > budget:
        raise BudgetExceeded(budget, total)
    # guard the longest candidate; the memoized space is then shared by forks
    _state_space(caps.caps, profile.weights, max(2 * max_len - 1, 0), state_cap)
    bound = compute_c(profile).upper

    tasks = []
    for length in range(max_len + 1):
        span = (m + 1) ** length
        for start in range(0, span, _CHUNK):
            tasks.append(
                (length, start, min(start + _CHUNK, span), m, caps.caps,
                 profile.weights, bound, state_cap)
            )

    if jobs > 1:
        with get_context("fork").Pool(jobs) as pool:
            results = pool.starmap(_scan_range, tasks, chunksize=1)
    else:
        results = [_scan_range(*task) for task in tasks]

    best: Scored | None = None
    falsifier: Scored | None = None
    evaluated = 0
    for chunk_best, chunk_count, chunk_falsifier in results:
        evaluated += chunk_count
        falsifier = falsifier or chunk_falsifier
        if chunk_best is not None and (
            best is None or chunk_best[0] * best[1] > best[0] * chunk_best[1]
        ):
            best = chunk_best
    return _result((best, evaluated, falsifier), bound)


def random_trace(rng: random.Random, m: int, length: int) -> Trace:
    """Uniform raw event string: each event is an arrival with the fixed
    probability 1/2 (class uniform in [1, m]), a send otherwise.  Not drained."""
    events = tuple(
        rng.randint(1, m) if rng.random() < 0.5 else SEND for _ in range(length)
    )
    return Trace(events)


def random_worst(
    profile: ValueProfile,
    caps: QueueCapacities,
    length: int,
    samples: int,
    seed: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SearchResult:
    """Maximum drained ratio over `samples` seeded random strings of `length`
    events.  Identical seed and parameters give an identical result.
    `state_cap` caps the DP cells of the longest possible drained string."""
    check_dims(caps, profile)
    check_at_least("length", length, 0)
    check_at_least("samples", samples, 0)
    rng = random.Random(seed)
    space = _state_space(caps.caps, profile.weights, 2 * length, state_cap)
    bound = compute_c(profile).upper
    raws = (random_trace(rng, profile.m, length) for _ in range(samples))
    return _result(_scan((_drain_events(r.events) for r in raws), space, bound), bound, seed)
