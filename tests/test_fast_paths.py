"""The search's per-candidate fast paths against plain oracles.

`adversary._decode` reads each raw string's two index halves from cached
tables; `divmod_decode` below peels one base-(m+1) digit at a time.
`adversary._scan_range` keeps candidates by their index; `kept_by_predicate`
keeps them by the decoded string, as the scan did before.
`engine.greedy_schedule` finds the top nonempty class from a bitmask;
`scan_greedy_schedule` scans the classes from the top.  `best_scaled` and
`tables` run one backward fold, keeping no layers and every layer; on small
state spaces it serves steps from each packing's transition memo, and
`fold_oracle` is that fold without the memo.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mqsim.adversary as adversary
import mqsim.opt as opt
from mqsim.adversary import _decode
from mqsim.engine import greedy_schedule
from mqsim.model import QueueCapacities, SEND, Trace, ValueProfile, append_drain
from mqsim.opt import _StateSpace, _state_space, opt_bruteforce


def divmod_decode(index, length, m):
    """Raw string for a base-(m+1) index, most significant digit first:
    digits 0..m-1 are arrivals of classes 1..m, digit m is a send."""
    events = [0] * length
    for pos in range(length - 1, -1, -1):
        index, digit = divmod(index, m + 1)
        events[pos] = SEND if digit == m else digit + 1
    return tuple(events)


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
    raws, _, _ = adversary._scan_range(length, start, stop, m, (1,) * m, tuple(range(1, m + 1)),
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
    assert greedy_schedule(*instance) == scan_greedy_schedule(*instance)


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
    each step: the fold as it was before the transition memo."""
    packed = space.packing(len(events) - events.count(SEND))
    tail, send, arrive = packed.tail, packed.send, packed.arrive
    run = 0
    while run < len(events) and events[-1 - run] == SEND:
        run += 1
    top = min(run, sum(space.caps))
    while len(tail) <= top:
        tail.append(send(tail[-1]))
    val = tail[top]
    layers = tail[:top] + [val] * (run - top + 1)
    for ev in reversed(events[: len(events) - run]):
        if ev == SEND:
            val = send(val)
        else:
            shift, ok, adm = arrive[ev - 1]
            val = (val ^ ((val ^ (val >> shift)) & ok)) + adm
        layers.append(val)
    layers.reverse()
    return layers


def memo_sizes(space):
    """Transitions held per width; asserts that no two widths share a memo (a
    layer's int means a different array at another width)."""
    memos = {id(p): p.memo for p in space._packings.values() if p.memo is not None}
    assert len({id(memo) for memo in memos.values()}) == len(memos)
    return [sum(map(len, memo)) for memo in memos.values()]


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
    # cold: a fresh space's memos are empty
    assert_fold_matches_oracle(_StateSpace(caps.caps, weights), events)
    # warm: the cached space, after folding this trace, its prefixes (other
    # widths) and their reversals (other steps from the same layers)
    space = _state_space(caps.caps, weights, len(events))
    for k in range(len(events) + 1):
        space.best_scaled(events[:k])
        space.best_scaled(events[:k][::-1])
    assert_fold_matches_oracle(space, events)
    assert all(size <= opt._MEMO_CAP for size in memo_sizes(space))
    # full: a cap of 3 transitions fills each memo, which keeps serving hits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opt, "_MEMO_CAP", 3)
        space = _StateSpace(caps.caps, weights)
        for _ in range(2):
            assert_fold_matches_oracle(space, events)
        assert all(size <= 3 for size in memo_sizes(space))


def test_wide_packings_keep_no_memo():
    space = _StateSpace((4, 3, 4, 3), (1, 3, 4, 10))
    events = append_drain(Trace((1, 2, 3, 4, SEND, 4, 4, 1))).events
    assert_fold_matches_oracle(space, events)
    packed = space.packing(len(events) - events.count(SEND))
    assert space.size * packed.width > opt._MEMO_BITS
    assert packed.memo is None
