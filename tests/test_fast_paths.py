"""The search's per-candidate fast paths against plain oracles.

`adversary._decode` reads each raw string's two index halves from cached
tables; `divmod_decode` below peels one base-(m+1) digit at a time.
`adversary._scan_range` keeps candidates by their index; `kept_by_predicate`
keeps them by the decoded string, as the scan did before.
`engine._greedy` finds the top nonempty class from a bitmask;
`scan_greedy_schedule` scans the classes from the top.  `greedy_transmit_counts`
counts greedy's transmissions as it goes; `counts_from_schedule` counts each
class in greedy's schedule afterwards.  `random_trace` draws a class from
`getrandbits`; `randint_events` draws it with `randint`.  `best_scaled` and
`tables` run one backward fold, keeping no layers and every layer; it looks
every step up in its width's step memo, which starts with the drain chain, and
`fold_oracle` is that fold with no cache: every step computed from `packed.base`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mqsim.adversary as adversary
import mqsim.opt as opt
from mqsim.adversary import _decode, random_trace, random_worst
from mqsim.engine import _greedy, greedy_transmit_counts
from mqsim.model import (QueueCapacities, SEND, Trace, ValueProfile, _drain_events, append_drain,
                         validate_profile)
from mqsim.opt import _StateSpace, _state_space, opt_bruteforce


def divmod_decode(index, length, m):
    """Raw string for a base-(m+1) index, most significant digit first:
    digits 0..m-1 are arrivals of classes 1..m, digit m is a send."""
    events = [0] * length
    for pos in range(length - 1, -1, -1):
        index, digit = divmod(index, m + 1)
        events[pos] = SEND if digit == m else digit + 1
    return tuple(events)


def greedy_schedule(events, caps):
    """Greedy's class at each send (None: idle), as `run_greedy` collects them."""
    choices = []
    _greedy(events, caps, choices)
    return choices


def scan_greedy_schedule(events, caps, m):
    """Greedy's class at each send (None: idle), scanning the queues from
    the highest class down."""
    q = [0] * m
    choices = []
    for ev in events:
        if ev == SEND:
            for c in range(m - 1, -1, -1):
                if q[c]:
                    q[c] -= 1
                    choices.append(c + 1)
                    break
            else:
                choices.append(None)
        elif q[ev - 1] < caps[ev - 1]:
            q[ev - 1] += 1
    return choices


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_decode_matches_divmod_on_every_index(m):
    for length in range(8):
        for index in range((m + 1) ** length):
            assert _decode(index, length, m) == divmod_decode(index, length, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_decode_matches_divmod_on_long_strings(m):
    rng = random.Random(m)
    for length in range(8, 15):
        span = (m + 1) ** length
        for index in (0, span - 1, *(rng.randrange(span) for _ in range(200))):
            assert _decode(index, length, m) == divmod_decode(index, length, m)


def kept_by_predicate(start, stop, length, m):
    """Indices whose decoded string is empty, or starts with an arrival and
    ends with a send."""
    kept = []
    for index in range(start, stop):
        raw = divmod_decode(index, length, m)
        if not raw or (raw[0] != SEND and raw[-1] == SEND):
            kept.append(index)
    return kept


def kept_by_scan_range(start, stop, length, m):
    """The indices `_scan_range` hands to the scan, in order, read back from
    the raw strings it drains (the caller makes draining and scanning pass
    them through)."""
    raws, _, _ = adversary._scan_range(length, start, stop, (1,) * m, tuple(range(1, m + 1)),
                                       Fraction(2), 10**7)
    kept = []
    for raw in raws:
        index = 0
        for ev in raw:
            index = index * (m + 1) + (m if ev == SEND else ev - 1)
        kept.append(index)
    return kept


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_scan_range_keeps_the_predicates_indices(m, monkeypatch):
    """Chunks of 1, 7 and 13 indices start at every phase mod m+1, and none
    of those sizes is a multiple of m+1."""
    monkeypatch.setattr(adversary, "_drain_events", lambda raw: raw)
    monkeypatch.setattr(adversary, "_scan", lambda candidates, space, bound: (list(candidates), 0, None))
    for length in range(7):
        span = (m + 1) ** length
        for step in (1, 7, 13, span):
            for start in range(0, span, step):
                stop = min(start + step, span)
                assert (kept_by_scan_range(start, stop, length, m)
                        == kept_by_predicate(start, stop, length, m))


@st.composite
def greedy_inputs(draw):
    m = draw(st.integers(1, 5))
    caps = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    events = tuple(draw(st.lists(st.integers(0, m), max_size=30)))
    return events, caps, m


@settings(derandomize=True, max_examples=500, deadline=None)
@given(greedy_inputs())
def test_greedy_schedule_matches_class_scan(instance):
    events, caps, m = instance
    assert greedy_schedule(events, caps) == scan_greedy_schedule(events, caps, m)


def counts_from_schedule(events, caps):
    """Greedy's per-class transmission counts, counted off its schedule."""
    choices = greedy_schedule(events, caps)
    return list(map(choices.count, range(1, len(caps) + 1)))


@st.composite
def count_inputs(draw):
    """Any events, drained or not, over m = 2..5 classes with caps 1..4."""
    m = draw(st.integers(2, 5))
    caps = tuple(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)))
    events = tuple(draw(st.lists(st.integers(0, m), max_size=30)))
    return events, caps


@settings(derandomize=True, max_examples=500, deadline=None)
@given(count_inputs())
def test_greedy_transmit_counts_match_the_schedules_class_counts(instance):
    events, caps = instance
    assert greedy_transmit_counts(events, caps) == counts_from_schedule(events, caps)


def randint_events(rng, m, length):
    """A uniform raw event string, drawing each class with `rng.randint(1, m)`."""
    return tuple(rng.randint(1, m) if rng.random() < 0.5 else SEND for _ in range(length))


def test_random_trace_draws_what_randint_draws():
    """Same events and same generator state after, for every length 0..40
    drawn in turn from one stream per seed and class count."""
    for seed in range(200):
        for m in range(2, 10):
            rng, oracle = random.Random(seed), random.Random(seed)
            for length in range(41):
                assert random_trace(rng, m, length).events == randint_events(oracle, m, length)
                assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("values, caps", [((1, 2), (1, 1)), ((1, 3, 4, 10), (2, 1, 2, 1))])
def test_random_worst_scores_the_drained_random_traces(values, caps, monkeypatch):
    scored = []

    def record(candidates, space, bound):
        scored.extend(candidates)
        return None, len(scored), None

    monkeypatch.setattr(adversary, "_scan", record)
    profile = validate_profile(values)
    result = random_worst(profile, QueueCapacities(caps), 20, 300, seed=7)
    rng = random.Random(7)
    drawn = [_drain_events(random_trace(rng, profile.m, 20).events) for _ in range(300)]
    assert scored == drawn
    assert result.traces_evaluated == 300


@st.composite
def dp_inputs(draw):
    m = draw(st.integers(2, 4))
    values = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 6), max_value=10, max_denominator=6),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    caps = draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
    events = tuple(draw(st.lists(st.integers(0, m), max_size=9)))
    if draw(st.booleans()):
        events = append_drain(Trace(events)).events
    return ValueProfile(tuple(sorted(values))), QueueCapacities(tuple(caps)), events


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dp_inputs())
def test_best_scaled_is_the_first_table_and_the_optimum(instance):
    profile, caps, events = instance
    space = _state_space(caps.caps, profile.weights, len(events))
    tables = space.tables(events)
    assert len(tables) == len(events) + 1
    field = space.packing(len(events) - events.count(SEND)).field
    scaled = space.best_scaled(events)
    assert scaled == (tables[0] & field) - space.offset
    assert scaled == opt_bruteforce(Trace(events), caps, profile) * profile.scale


def fold_oracle(space, events):
    """Every packed layer of the backward DP, by event position, computing
    each step from `packed.base`: the fold with no cache."""
    packed = space.packing(len(events) - events.count(SEND))
    send, arrive = packed.send, packed.arrive
    val = packed.base
    layers = [val]
    for ev in reversed(events):
        if ev == SEND:
            val = send(val)
        else:
            shift, ok, adm = arrive[ev - 1]
            val = (val ^ ((val ^ (val >> shift)) & ok)) + adm
        layers.append(val)
    layers.reverse()
    return layers


def assert_memos_within_bounds(space):
    """Each width's memo holds at most its drain chain's sum(caps) + 1 sends and
    its budget, and no two widths share one (a layer's int means a different
    array at another width)."""
    packings = {id(p): p for p in space._packings.values()}.values()
    for p in packings:
        budget = min(opt._MEMO_CAP, opt._MEMO_BITS // (2 * space.size * p.width))
        assert sum(map(len, p.memo)) <= sum(space.caps) + 1 + budget
    assert len({id(p.memo) for p in packings}) == len(packings)


@st.composite
def memo_inputs(draw):
    profile, caps, _ = draw(dp_inputs())
    raw = draw(st.lists(st.integers(0, profile.m), max_size=8))
    return profile, caps, append_drain(Trace(tuple(raw))).events


def assert_fold_matches_oracle(space, events):
    layers = fold_oracle(_StateSpace(space.caps, space.weights), events)
    field = space.packing(len(events) - events.count(SEND)).field
    assert space.tables(events) == layers
    assert space.best_scaled(events) == (layers[0] & field) - space.offset


@settings(derandomize=True, max_examples=300, deadline=None)
@given(memo_inputs())
def test_memoized_fold_matches_the_oracle(instance):
    profile, caps, events = instance
    weights = profile.weights
    # cold: a fresh space's memos hold only their drain chains
    assert_fold_matches_oracle(_StateSpace(caps.caps, weights), events)
    # warm: the cached space, after folding this trace, its prefixes (other
    # widths) and their reversals (other steps from the same layers)
    space = _state_space(caps.caps, weights, len(events))
    for k in range(len(events) + 1):
        space.best_scaled(events[:k])
        space.best_scaled(events[:k][::-1])
    assert_fold_matches_oracle(space, events)
    assert_memos_within_bounds(space)
    # full: a budget of 3 steps fills each memo, which keeps serving hits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opt, "_MEMO_CAP", 3)
        space = _StateSpace(caps.caps, weights)
        for _ in range(2):
            assert_fold_matches_oracle(space, events)
        assert_memos_within_bounds(space)


def test_wide_packings_bound_their_memo():
    """Layers of 400 states: the bit budget, not the step cap, bounds the memo,
    which fills and then serves hits alone."""
    space = _StateSpace((4, 3, 4, 3), (1, 3, 4, 10))
    rng = random.Random(5)
    for _ in range(80):  # 12 arrivals each, so one width
        raw = [rng.randint(1, 4) for _ in range(12)] + [SEND] * 12
        rng.shuffle(raw)
        assert_fold_matches_oracle(space, tuple(raw))
    packed, = space._packings.values()
    assert opt._MEMO_BITS // (2 * space.size * packed.width) < opt._MEMO_CAP
    assert packed.room == 0
    assert_memos_within_bounds(space)


@pytest.mark.parametrize("values, caps", [
    ((1, 2), (1, 1)),
    ((1, 3, 4, 10), (2, 1, 2, 1)),
    ((1, 3, 4, 10), (12, 12, 12, 12)),  # 28,561 states: a budget of 6-8 steps per width
])
def test_final_send_runs_cost_no_send(values, caps, monkeypatch):
    """At every width, once its packing is built, a trace's final run of sends,
    shorter or longer than sum(caps), is served from the drain chain: the fold
    computes a send only for a send before the last arrival."""
    profile = validate_profile(values)
    space = _StateSpace(caps, profile.weights)
    m, drain = len(caps), sum(caps)
    rng = random.Random(7)
    computed = []
    for arrivals in (0, 1, 2, 6, 24, 60):
        packed = space.packing(arrivals)
        if "step" not in vars(packed):  # widths share a packing; count each step once
            monkeypatch.setattr(packed, "step", lambda ev, v, step=packed.step:
                                computed.append(ev) or step(ev, v))
        for run in (0, 1, drain - 1, drain, drain + 3):
            head = [rng.randint(1, m) for _ in range(arrivals)]
            for i in rng.sample(range(arrivals), arrivals // 3):  # sends before arrivals
                head.insert(i, SEND)
            events = (*head, *(SEND,) * run)
            computed.clear()
            layers = space.tables(events)
            assert computed.count(SEND) <= head.count(SEND)
            if head.count(SEND) == 0:
                assert SEND not in computed
            assert layers == fold_oracle(space, events)
        assert_memos_within_bounds(space)
    assert len({id(p) for p in space._packings.values()}) >= 2
