"""Differential property test of the backward DP.

The search reads the DP as one rolling scaled optimum (`best_scaled` on the
guarded, memoized state space); `opt_search` reads every layer to extract a
schedule.  Both must agree with the independent brute-force oracle.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mqsim.model import QueueCapacities, Trace, ValueProfile, append_drain
from mqsim.opt import _state_space, opt_bruteforce, opt_search


@st.composite
def instances(draw):
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
    raw = draw(st.lists(st.integers(0, m), max_size=8))
    return (
        ValueProfile(tuple(sorted(values))),
        QueueCapacities(tuple(caps)),
        append_drain(Trace(tuple(raw))),
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(instances())
def test_search_dp_matches_bruteforce_and_opt_search(instance):
    profile, caps, trace = instance
    space = _state_space(caps.caps, profile.weights, len(trace.events))
    scaled = space.best_scaled(trace.events)
    assert scaled == opt_bruteforce(trace, caps, profile) * profile.scale
    assert scaled == opt_search(trace, caps, profile).benefit * profile.scale
