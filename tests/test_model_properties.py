"""Property tests of the trace and config grammars: round trips and the
1-based physical line number of the first bad line."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mqsim.model import (
    ConfigError,
    QueueCapacities,
    Trace,
    TraceSyntaxError,
    ValueProfile,
    parse_config,
    parse_trace,
    trace_to_text,
)

FILLER = st.sampled_from(["", "   ", "# comment", "  # A 1", "\t"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=30))
def test_trace_text_round_trip(events):
    trace = Trace(tuple(events))
    assert parse_trace(trace_to_text(trace)) == trace


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 9), max_value=50, max_denominator=9),
        min_size=2,
        max_size=6,
        unique=True,
    ),
    st.data(),
)
def test_config_text_round_trip(values, data):
    values = tuple(sorted(values))
    caps = tuple(data.draw(st.lists(st.integers(1, 40), min_size=len(values),
                                    max_size=len(values))))
    lines = [f"values: {' '.join(map(str, values))}",
             f"capacities: {' '.join(map(str, caps))}  # trailing comment"]
    if data.draw(st.booleans()):
        lines.reverse()
    lines[1:1] = data.draw(st.lists(FILLER, max_size=3))
    text = "\n".join(lines) + "\n"
    assert parse_config(text) == (ValueProfile(values), QueueCapacities(caps))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(FILLER, max_size=8),
    st.sampled_from(["X 1", "A", "A 1 2", "A x", "A 0", "A -3", "S 2", "send"]),
)
def test_trace_bad_line_number(prefix, bad):
    text = "\n".join(prefix + [bad, "A 1", "S"]) + "\n"
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace(text)
    assert exc.value.line == len(prefix) + 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(FILLER, max_size=8),
    st.sampled_from(["bogus: 1", "values 1 2", "values: 1 x", "values: 1.5 2",
                     "capacities: 1 y", "capacities: 2/3"]),
)
def test_config_bad_line_number(prefix, bad):
    text = "\n".join(prefix + [bad, "values: 1 2", "capacities: 1 1"]) + "\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"line {len(prefix) + 1}:")
