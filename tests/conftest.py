from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from mqsim.engine import Schedule, replay_schedule
from mqsim.model import (
    QueueCapacities,
    SEND,
    Trace,
    ValueProfile,
    append_drain,
    parse_trace,
    validate_profile,
)


@pytest.fixture
def two_class() -> tuple[ValueProfile, QueueCapacities]:
    return validate_profile((1, 2)), QueueCapacities((1, 1))


@pytest.fixture
def three_class() -> tuple[ValueProfile, QueueCapacities]:
    return validate_profile((1, 2, 5)), QueueCapacities((1, 1, 1))


@pytest.fixture
def witness() -> Trace:
    # Hand-simulated reference trace: greedy earns 3, the optimum earns 4.
    return parse_trace("A 1\nA 2\nS\nA 1\nS\nS\n")


def all_diligent_schedules(
    trace: Trace, caps: QueueCapacities, profile: ValueProfile
) -> list[Schedule]:
    """Every diligent schedule of a trace, by recursion over send choices.

    Exponential; only for small traces in tests.
    """
    m = profile.m
    B = caps.caps
    out: list[Schedule] = []

    def walk(i: int, q: list[int], choices: list[int | None]):
        if i == len(trace.events):
            out.append(Schedule(tuple(choices)))
            return
        ev = trace.events[i]
        if ev != SEND:
            c = ev - 1
            took = q[c] < B[c]
            if took:
                q[c] += 1
            walk(i + 1, q, choices)
            if took:
                q[c] -= 1
            return
        if not any(q):
            choices.append(None)
            walk(i + 1, q, choices)
            choices.pop()
            return
        for c in range(m):
            if q[c]:
                q[c] -= 1
                choices.append(c + 1)
                walk(i + 1, q, choices)
                choices.pop()
                q[c] += 1

    walk(0, [0] * m, [])
    return out


def replay_all(trace, caps, profile):
    return [
        (s, replay_schedule(trace, caps, profile, s))
        for s in all_diligent_schedules(trace, caps, profile)
    ]


@st.composite
def instances(draw, max_cap=3, max_len=12):
    """(profile, caps, trace): m = 2..5 fractional values, caps 1..max_cap, and
    a raw string of up to max_len events, drained or left raw."""
    m = draw(st.integers(2, 5))
    steps = draw(st.lists(
        st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6),
        min_size=m, max_size=m))
    values = [sum(steps[: i + 1]) for i in range(m)]  # strictly increasing, positive
    caps = draw(st.lists(st.integers(1, max_cap), min_size=m, max_size=m))
    raw = Trace(tuple(draw(st.lists(st.integers(0, m), max_size=max_len))))
    trace = append_drain(raw) if draw(st.booleans()) else raw
    return ValueProfile(tuple(values)), QueueCapacities(tuple(caps)), trace
