"""Differential test of the packed optimum DP.

`_StateSpace.tables` packs each DP layer into one int: state s's field holds
val - phi + P, where phi[s] = sum_c w_c q_c(s) and P is the full state's
phi.  Each field width's constants and trailing-send layers are cached on
the (memoized) space.  The oracle below is the plain backward DP: one
Python generator per send state, `w + val[s2]` at every move, and the same
`w +` in the schedule extraction.  Its transitions are rebuilt
here from the occupancy vectors alone, and every field of every packed
layer is unpacked and compared with it.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from mqsim.engine import Schedule
from mqsim.model import QueueCapacities, SEND, Trace, ValueProfile, append_drain
from mqsim.opt import _state_space, opt_bruteforce, opt_search


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


def unpack(space, events, layer):
    """Every field of one packed layer, as val - phi + P.  The width must hold
    P + (weight of every event as an arrival) with a clear top bit, and
    nothing may sit above the last state's field."""
    width = space.packing(len(events)).width
    assert (space.offset + len(events) * max(space.weights)).bit_length() < width
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
    """Integer values 1-4 and caps 1-2: a trace of 20 events needs 8-bit
    fields, and a few dozen more events need 16."""
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
    """Calls on one memoized space alternate between two field widths, and
    each width's constants and trailing-send layers agree with the oracle.
    The long traces serve the top class often enough to need the wider
    field."""
    profile, caps = profile_caps
    m = profile.m
    head = tuple(data.draw(st.lists(st.integers(0, m), max_size=6)))
    space = _state_space(caps.caps, profile.weights, 200)
    narrow = space.packing(20).width
    pairs = next(j for j in range(100) if space.packing(len(head) + 2 * j).width > narrow)
    widths = set()
    for run in runs:
        for events in (head + (SEND,) * run, head + (m, SEND) * pairs + (SEND,) * run):
            widths.add(space.packing(len(events)).width)
            assert_layers_match(space, events)
            trace = Trace(events)
            if trace.drained:
                result = opt_search(trace, caps, profile)
                benefit, schedule = oracle_search(space, events, profile.scale)
                assert (result.benefit, result.schedule) == (benefit, schedule)
    assert len(widths) == 2


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
    return space.packing(len(append_drain(Trace(raw)).events)).width


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
