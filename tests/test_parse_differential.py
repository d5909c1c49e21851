"""`parse_trace` and `Trace`'s event check against the loops they replaced.

`parse_trace_loop` is the parser as it was before the ASCII-digit fix: one pass
over the lines that splits, strips and checks each one.  `check_events_loop`
is `Trace`'s per-event check before the C-level pass, and `drained_loop` the
suffix-balance loop that `Trace.drained` ran on its first read.  The tests
build texts from the grammar's alphabet and the characters around it, and
assert the same events, or the same exception type, message and line.

Two kinds of line differ on purpose, because the loop handled them wrongly, and
are asserted as such.  A class index that `str.isdigit` accepts but `int`
rejects (`A ²`, `A --3`) made the loop raise a bare ValueError with no line
number.  A class index with a non-ASCII decimal digit (`A ٣`) was read as that
digit's value.  Both are now a TraceSyntaxError on their line.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from mqsim.model import SEND, BadClassIndex, Trace, TraceSyntaxError, parse_trace


def parse_trace_loop(text: str) -> Trace:
    events = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "S":
            if len(tokens) != 1:
                raise TraceSyntaxError(lineno, f"send takes no argument: {raw_line!r}")
            events.append(SEND)
        elif tokens[0] == "A":
            if len(tokens) != 2 or not tokens[1].lstrip("-").isdigit():
                raise TraceSyntaxError(lineno, f"expected 'A <class-index>': {raw_line!r}")
            cls = int(tokens[1])
            if cls < 1:
                raise BadClassIndex(lineno, f"class index {cls} is not >= 1")
            events.append(cls)
        else:
            raise TraceSyntaxError(lineno, f"unknown event {raw_line!r}")
    return Trace(tuple(events))


def check_events_loop(events) -> None:
    for ev in events:
        if not isinstance(ev, int) or isinstance(ev, bool) or ev < 0:
            raise TraceSyntaxError(0, f"bad event encoding {ev!r}")


def outcome(run, arg):
    """What a call returns, or its error's type, text and line."""
    try:
        return run(arg)
    except Exception as exc:  # a bare ValueError is one of the outcomes compared
        return type(exc), str(exc), getattr(exc, "line", None)


def index_the_loop_misread(raw_line: str) -> bool:
    """An `A` line whose class index passed the loop's `isdigit` test but is not
    ASCII: the loop read it as a number or raised a bare ValueError."""
    tokens = raw_line.split("#", 1)[0].split()
    return (len(tokens) == 2 and tokens[0] == "A" and tokens[1].lstrip("-").isdigit()
            and not tokens[1].isascii())


def expected(text: str):
    """The loop's outcome, with the two grammar fixes applied at the first
    line where either one decides the result."""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        fixed = (TraceSyntaxError, f"line {lineno}: expected 'A <class-index>': {raw_line!r}",
                 lineno)
        if index_the_loop_misread(raw_line):
            return fixed
        result = outcome(parse_trace_loop, raw_line)
        if not isinstance(result, Trace):
            if issubclass(result[0], TraceSyntaxError):
                break  # the loop's own error on this line stands
            return fixed  # int() raised on what isdigit accepted: `A --3`
    result = outcome(parse_trace_loop, text)
    return result.events if isinstance(result, Trace) else result


PIECES = st.sampled_from(
    ["A", "S", *"0123456789", "²", "٣", "-", "+", "#", " ", "\t", "# note"])
LINES = st.one_of(
    st.lists(PIECES, max_size=6).map("".join),
    st.sampled_from(["", "A 1", "A 12", "A 03", "S", " A 2 # c", "S\t# x", "A -3", "A --3",
                     "A ²", "A ٣", "A -٣", "A +3", "A 0"]),
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.lists(st.tuples(LINES, st.sampled_from(["\n", "\r\n"])), max_size=8))
def test_parse_matches_the_loop(lines):
    text = "".join(line + end for line, end in lines)
    want = expected(text)
    got = outcome(parse_trace, text)
    assert (got.events if isinstance(got, Trace) else got) == want


@pytest.mark.parametrize("text, line", [("A ²\n", 1), ("S\n\nA ٣\n", 3),
                                        ("A --3\n", 1), ("A -٣\n", 1)])
def test_grammar_fixes(text, line):
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: expected 'A <class-index>'")


class Int(int):
    pass


@pytest.mark.parametrize("events", [(True,), (-1,), (1.0,), ("1",), (1, 0, False),
                                    (2, -5, "x"), (), (0, 3, Int(2))])
def test_trace_check_matches_the_loop(events):
    def build(evs):
        return Trace(evs).events

    def loop(evs):
        check_events_loop(evs)
        return evs

    assert outcome(build, events) == outcome(loop, events)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-2, 6), st.booleans(), st.just(1.0), st.just("1"),
                          st.builds(Int, st.integers(0, 3))), max_size=6))
def test_trace_check_matches_the_loop_on_mixed_events(events):
    events = tuple(events)
    got = outcome(lambda evs: Trace(evs).events, events)
    want = outcome(lambda evs: (check_events_loop(evs), evs)[1], events)
    assert got == want


def drained_loop(events) -> bool:
    balance = 0
    for ev in reversed(events):
        balance += 1 if ev == SEND else -1
        if balance < 0:
            return False
    return True


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=14))
def test_derived_fields_match_their_loops(events):
    trace = Trace(tuple(events))
    assert trace.drained == drained_loop(events)
    assert trace.max_class == max(events, default=0)
