"""Differential test of the packed optimum DP.

`_StateSpace.tables` packs each DP layer into one int: state s's field holds
val - phi + P, where phi[s] = sum_c w_c q_c(s) and P is the full state's
phi.  Each field width's constants and trailing-send layers are cached on
the (memoized) space.  The oracle below is the plain backward DP: one
Python generator per send state, `w + val[s2]` at every move, and the same
`w +` in the schedule extraction.  Its transitions are rebuilt
here from the occupancy vectors alone, and every field of every packed
layer is unpacked and compared with it.  The send's SWAR max is also
checked alone, at widths of 2-70 bits, against a per-field Python max.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mqsim.engine import Schedule
from mqsim.model import QueueCapacities, SEND, Trace, ValueProfile, append_drain
from mqsim.opt import (
    StateSpaceExceeded,
    _Packed,
    _StateSpace,
    _state_space,
    opt_bruteforce,
    opt_search,
)


def oracle_transitions(space):
    """(arrive_to, send_moves) with send moves as (weight, successor, class)."""
    index = {q: s for s, q in enumerate(space.states)}
    m = len(space.caps)

    def moved(q, c, d):
        return index[q[:c] + (q[c] + d,) + q[c + 1 :]]

    arrive_to = [
        [moved(q, c, 1) if q[c] < space.caps[c] else s for s, q in enumerate(space.states)]
        for c in range(m)
    ]
    send_moves = [
        [(space.weights[c], moved(q, c, -1), c + 1) for c in range(m) if q[c] > 0]
        for q in space.states
    ]
    return arrive_to, send_moves


def oracle_layers(space, events):
    """The plain backward DP: val[i] for i = n, n-1, ..., 0."""
    arrive_to, send_moves = oracle_transitions(space)
    val = [0] * len(space.states)
    yield val
    for ev in reversed(events):
        if ev == SEND:
            val = [
                max(w + val[s2] for w, s2, _ in moves) if moves else val[s]
                for s, moves in enumerate(send_moves)
            ]
        else:
            val = [val[s2] for s2 in arrive_to[ev - 1]]
        yield val


def oracle_search(space, events, scale):
    """Benefit and schedule extracted from the oracle's layers."""
    arrive_to, send_moves = oracle_transitions(space)
    tables = list(oracle_layers(space, events))[::-1]
    choices = []
    s = 0
    for i, ev in enumerate(events):
        if ev == SEND:
            moves = send_moves[s]
            if not moves:
                choices.append(None)
                continue
            nxt = tables[i + 1]
            _, cls, s = max((w + nxt[s2], cls, s2) for w, s2, cls in moves)
            choices.append(cls)
        else:
            s = arrive_to[ev - 1][s]
    return Fraction(tables[0][0], scale), Schedule(tuple(choices))


def phi(space):
    return [sum(w * q for w, q in zip(space.weights, qs)) for qs in space.states]


def arrivals(events):
    return len(events) - events.count(SEND)


def unpack(space, events, layer):
    """Every field of one packed layer, as val - phi + P.  The width is
    exactly one bit more than P + (weight of every arrival at the top class)
    needs, and nothing may sit above the last state's field."""
    width = space.packing(arrivals(events)).width
    assert width == (space.offset + arrivals(events) * max(space.weights)).bit_length() + 1
    assert layer >= 0 and layer >> space.size * width == 0
    return [(layer >> s * width) & ((1 << width) - 1) for s in range(space.size)]


def assert_layers_match(space, events):
    pot = space.tables(events)[::-1]  # val[n], ..., val[0], the oracle's order
    want = list(oracle_layers(space, events))
    assert len(pot) == len(want) == len(events) + 1
    p = phi(space)
    for got, expected in zip(pot, want):
        assert [u + f - space.offset for u, f in zip(unpack(space, events, got), p)] == expected
    assert space.best_scaled(events) == want[-1][0]


@st.composite
def profiles(draw):
    m = draw(st.integers(2, 4))
    values = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 6), max_value=10, max_denominator=6),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    caps = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    return ValueProfile(tuple(sorted(values))), QueueCapacities(tuple(caps))


@st.composite
def instances(draw):
    profile, caps = draw(profiles())
    m = profile.m
    raw = tuple(draw(st.lists(st.integers(0, m), max_size=10)))
    shape = draw(st.sampled_from(["drained", "raw", "arrival_last", "empty"]))
    if shape == "drained":
        events = append_drain(Trace(raw)).events
    elif shape == "arrival_last":
        events = raw + (draw(st.integers(1, m)),)
    elif shape == "empty":
        events = ()
    else:
        events = raw
    return profile, caps, events


@settings(derandomize=True, max_examples=300, deadline=None)
@given(instances())
def test_potential_layers_match_oracle(instance):
    profile, caps, events = instance
    space = _state_space(caps.caps, profile.weights, len(events))
    assert_layers_match(space, events)
    trace = Trace(events)
    if trace.drained:
        result = opt_search(trace, caps, profile)
        benefit, schedule = oracle_search(space, events, profile.scale)
        assert result.benefit == benefit
        assert result.schedule == schedule


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    profiles(),
    st.data(),
    st.lists(st.integers(0, 14), min_size=2, max_size=6),
)
def test_shared_tail_cache_grows_and_shrinks(profile_caps, data, runs):
    """Calls on one memoized space whose trailing send runs grow and shrink,
    past sum(caps) too, each agree with the oracle."""
    profile, caps = profile_caps
    m = profile.m
    head = tuple(data.draw(st.lists(st.integers(0, m), max_size=6)))
    space = _state_space(caps.caps, profile.weights, len(head) + max(runs) + 1)
    for run in runs:
        events = head + (SEND,) * run
        assert_layers_match(space, events)
        trace = Trace(events)
        if trace.drained:
            result = opt_search(trace, caps, profile)
            benefit, schedule = oracle_search(space, events, profile.scale)
            assert (result.benefit, result.schedule) == (benefit, schedule)


@st.composite
def small_weight_profiles(draw):
    """Integer values 1-4 and caps 1-2: fields of a few bits, so a few more
    arrivals at the top class need a wider one."""
    m = draw(st.integers(2, 4))
    values = sorted(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m, unique=True)))
    caps = draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
    return ValueProfile(tuple(Fraction(v) for v in values)), QueueCapacities(tuple(caps))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    small_weight_profiles(),
    st.data(),
    st.lists(st.integers(0, 14), min_size=2, max_size=6),
)
def test_shared_packings_interleave_widths(profile_caps, data, runs):
    """Calls on one memoized space alternate between at least two field
    widths, and each width's constants and trailing-send layers agree with
    the oracle.  The long traces serve the top class often enough to need a
    wider field."""
    profile, caps = profile_caps
    m = profile.m
    head = tuple(data.draw(st.lists(st.integers(0, m), max_size=6)))
    space = _state_space(caps.caps, profile.weights, 200)
    narrow = space.packing(arrivals(head)).width
    pairs = next(j for j in range(100) if space.packing(arrivals(head) + j).width > narrow)
    widths = set()
    for run in runs:
        for events in (head + (SEND,) * run, head + (m, SEND) * pairs + (SEND,) * run):
            widths.add(space.packing(arrivals(events)).width)
            assert_layers_match(space, events)
            trace = Trace(events)
            if trace.drained:
                result = opt_search(trace, caps, profile)
                benefit, schedule = oracle_search(space, events, profile.scale)
                assert (result.benefit, result.schedule) == (benefit, schedule)
    assert len(widths) >= 2


@st.composite
def large_weight_instances(draw):
    """Values with numerators up to 10**12 and denominators up to 10**3, so
    that weights, and with them field widths, run past 30 and 64 bits."""
    m = draw(st.integers(2, 4))
    values = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 1000), max_value=10**12, max_denominator=1000),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    caps = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    length = draw(st.integers(0, 40))
    raw = tuple(draw(st.lists(st.integers(0, m), min_size=length, max_size=length)))
    return ValueProfile(tuple(sorted(values))), QueueCapacities(tuple(caps)), raw


# one instance below 30-bit fields, one between 30 and 64, one above 64
WIDTH_EXAMPLES = [
    (ValueProfile((Fraction(1), Fraction(2), Fraction(5))), QueueCapacities((1, 1, 1)),
     (1, 2, 3, SEND, 3, 3, SEND, 2, 1, SEND)),
    (ValueProfile((Fraction(10**9 + 7, 3), Fraction(10**12 - 11, 7))), QueueCapacities((2, 3)),
     (1, 2, 2, SEND, 1, 2, SEND, 2, 1, 1, SEND, SEND, 2)),
    (ValueProfile(tuple(Fraction(10**12 - k, d)
                        for k, d in ((9, 997), (5, 991), (3, 983), (1, 977)))),
     QueueCapacities((1, 2, 1, 2)),
     (4, 1, 2, SEND, 3, 4, 4, SEND, 2, 1, 3, SEND, 4, 2)),
]


def field_width(profile, caps, raw):
    space = _state_space(caps.caps, profile.weights, 2 * len(raw))
    return space.packing(arrivals(append_drain(Trace(raw)).events)).width


def test_width_examples_cross_word_boundaries():
    widths = [field_width(*instance) for instance in WIDTH_EXAMPLES]
    assert widths[0] < 30 <= widths[1] <= 64 < widths[2]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(large_weight_instances())
@example(WIDTH_EXAMPLES[0])
@example(WIDTH_EXAMPLES[1])
@example(WIDTH_EXAMPLES[2])
def test_large_weights_match_oracle_and_bruteforce(instance):
    """Every packed field against the oracle, the optimum against the oracle's,
    and against brute force when the trace has at most 12 sends."""
    profile, caps, raw = instance
    trace = append_drain(Trace(raw))
    space = _state_space(caps.caps, profile.weights, len(trace.events))
    assert_layers_match(space, trace.events)
    result = opt_search(trace, caps, profile)
    assert (result.benefit, result.schedule) == oracle_search(space, trace.events, profile.scale)
    if trace.events.count(SEND) <= 12:
        assert result.benefit == opt_bruteforce(trace, caps, profile)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(large_weight_instances())
@example(WIDTH_EXAMPLES[2])
def test_width_is_exact_for_the_arrival_count(instance):
    """A trace of a arrivals packs at bit_length(P + a * max w) + 1 bits, and
    the guard charges each cell that width for n_events arrivals, in 64-bit
    words."""
    profile, caps, raw = instance
    events = append_drain(Trace(raw)).events
    n = len(events)
    space = _state_space(caps.caps, profile.weights, n)
    for a in (0, 1, arrivals(events), n):
        assert space.packing(a).width == (space.offset + a * max(space.weights)).bit_length() + 1
    words = -(-space.packing(n).width // 64)
    needed = space.size * max(n, 1) * words
    _state_space(caps.caps, profile.weights, n, state_cap=needed)
    with pytest.raises(StateSpaceExceeded) as exc:
        _state_space(caps.caps, profile.weights, n, state_cap=needed - 1)
    assert exc.value.needed == needed


@st.composite
def send_inputs(draw):
    """A space, a field width of 2-70 bits (7 in 8 not a multiple of 8) and
    one packed layer of fields below 2^(W-1), with many ties, zeros and
    fields at 2^(W-1) - 1."""
    m = draw(st.integers(2, 4))
    caps = tuple(draw(st.lists(st.integers(1, 2), min_size=m, max_size=m)))
    space = _StateSpace(caps, (1,) * m)
    width = draw(st.integers(max(2, space.offset.bit_length()), 70))
    top = (1 << width - 1) - 1
    field = st.one_of(st.sampled_from((0, 1, top - 1, top)), st.integers(0, top))
    fields = draw(st.lists(field, min_size=space.size, max_size=space.size))
    return space, width, fields


@settings(derandomize=True, max_examples=300, deadline=None)
@given(send_inputs())
def test_send_is_a_per_field_max(instance):
    """`_Packed.send` against a per-field Python max over the oracle's send
    moves: state s takes the largest field s - e_c over its nonempty classes,
    and state 0 keeps its own."""
    space, width, fields = instance
    _, send_moves = oracle_transitions(space)
    want = [max(fields[s2] for _, s2, _ in moves) if moves else fields[s]
            for s, moves in enumerate(send_moves)]
    out = _Packed(space, width).send(sum(x << s * width for s, x in enumerate(fields)))
    assert out >> space.size * width == 0
    assert [(out >> s * width) & ((1 << width) - 1) for s in range(space.size)] == want
