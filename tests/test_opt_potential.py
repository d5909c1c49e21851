"""Differential test of the potential-form DP kernel.

`_StateSpace.layers` holds val - phi, where phi[s] = sum_c w_c q_c(s), runs
every layer as C-level gathers, and caches the layers of a trace's trailing
send run on the (memoized) space.  The oracle below is the plain backward DP
it replaced: one Python generator per send state, `w + val[s2]` at every
move, and the same `w +` in the schedule extraction.  Its transitions are
rebuilt here from the occupancy vectors alone.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mqsim.engine import Schedule
from mqsim.model import QueueCapacities, SEND, Trace, ValueProfile, append_drain
from mqsim.opt import _state_space, opt_search


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


def assert_layers_match(space, events):
    pot = list(space.layers(events))
    want = list(oracle_layers(space, events))
    assert len(pot) == len(want) == len(events) + 1
    p = phi(space)
    for got, expected in zip(pot, want):
        assert [u + f for u, f in zip(got, p)] == expected
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
