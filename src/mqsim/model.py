"""Value profiles, queue capacities, event traces, and closed-form bound constants.

All arithmetic is exact: class values are `fractions.Fraction`, counters are
ints, and every derived bound is a Fraction.  Floats are rejected on input so
that no inequality check ever depends on rounding.  `parse_trace` looks each
line up in a table from line text to its event (or to nothing, for a blank or
comment line) and tokenizes only the lines it misses; the table keeps only
lines that parsed, at most 1,024 of them, each at most 32 characters long.
`Trace` checks its events in one C-level pass.

`ValueProfile`, `QueueCapacities`, `Trace` and `BoundReport` are immutable
value classes on one slotted base, `_Value`: each validates and stores its
arguments once, derives what it needs in `__new__`, and equals only an
instance of its own type.  The package's records (`engine.Ledger`,
`engine.Schedule`, `opt.OptResult`, `analysis.Verdict`,
`analysis.ComparativeReport`, `adversary.SearchResult`) are
`typing.NamedTuple`s.  Neither kind generates code at import, as a dataclass
does, so `import mqsim` loads no `dataclasses` machinery.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]

# Event encoding: SEND is 0, an arrival of class k (1-based) is the int k.
Event = int
SEND: Event = 0


class MQSimError(Exception):
    """Base class for every error raised by this package."""


class ProfileError(MQSimError):
    pass


class TooFewClasses(ProfileError):
    pass


class NonPositiveValue(ProfileError):
    pass


class NotIncreasing(ProfileError):
    pass


class BadCapacity(MQSimError):
    pass


class TraceSyntaxError(MQSimError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BadClassIndex(TraceSyntaxError):
    pass


class ConfigError(MQSimError):
    pass


def as_rational(raw: RationalLike) -> Fraction:
    """Coerce to an exact Fraction; floats are rejected to preserve exactness."""
    if isinstance(raw, bool) or isinstance(raw, float):
        raise TypeError(f"exact rational required, got {raw!r}")
    if isinstance(raw, (int, Fraction)):
        return Fraction(raw)
    if isinstance(raw, str):
        return _parse_rational_text(raw)
    raise TypeError(f"exact rational required, got {type(raw).__name__}")


def ascii_int(text: str) -> int:
    """The one integer grammar of values, capacities and class indices: ASCII
    decimal digits with an optional leading '-'.  `int` alone would also read
    '1_0', other scripts' digits and surrounding spaces."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _parse_rational_text(text: str) -> Fraction:
    # Grammar: "p" or "p/q" with `ascii_int` integers; no decimal points, no spaces.
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(ascii_int(parts[0]))
        if len(parts) == 2:
            return Fraction(ascii_int(parts[0]), ascii_int(parts[1]))
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"bad value {text!r}: expected p or p/q")


class _Value:
    """Base of the immutable value types.  A subclass's `__new__` validates its
    constructor arguments and stores them, named by `_fields`, and what it
    derives from them in slots, through `_filled`.  It defines no `__init__`, so calling
    `__init__` again on an instance changes nothing.  Equality, hash, repr,
    pickling and copying read the arguments only; pickling and copying
    rebuild through `__new__`, which validates the arguments again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _args(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self) -> int:
        return hash(self._args())

    def __repr__(self) -> str:
        args = ", ".join(map("{}={!r}".format, self._fields, self._args()))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._args()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r} to {value!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


def _filled(cls: type, **slots) -> _Value:
    """A new `cls` with each of `slots` set: how a value type's `__new__` fills
    its slots past `_Value.__setattr__`."""
    self = object.__new__(cls)
    for name, value in slots.items():
        object.__setattr__(self, name, value)
    return self


class ValueProfile(_Value):
    """Strictly increasing positive class values v_1 < v_2 < ... < v_m, m >= 2.

    `values` may be given as any iterable; it is stored as a tuple.  Set on
    construction: `m`; `scale`, the common denominator turning every class
    value into an integer weight; `weights`, the integer weights w_i with
    v_i = w_i / scale, used by the fast paths; and the hash, which every
    `lru_cache` keyed on a profile reads (hashing Fractions is slow).
    """

    __slots__ = ("values", "m", "scale", "weights", "_hash")
    _fields = ("values",)

    def __new__(cls, values: Iterable[Fraction]):
        values = tuple(values)
        if len(values) < 2:
            raise TooFewClasses(f"need at least 2 class values, got {len(values)}")
        for v in values:
            if v <= 0:
                raise NonPositiveValue(f"class value {v} is not positive")
        for lo, hi in zip(values, values[1:]):
            if lo >= hi:
                raise NotIncreasing(f"values must be strictly increasing: {lo} >= {hi}")
        scale = lcm(*(v.denominator for v in values))
        weights = tuple(v.numerator * (scale // v.denominator) for v in values)
        # equal profiles have equal values, as __eq__ compares, so hash those
        return _filled(cls, values=values, m=len(values), scale=scale, weights=weights,
                       _hash=hash(values))

    def __hash__(self) -> int:
        return self._hash

    def benefit(self, counts: Sequence[int]) -> Fraction:
        """Exact value total of `counts[i]` packets of each class i+1."""
        return Fraction(sum(map(mul, self.weights, counts)), self.scale)


def validate_profile(raw_values: Iterable[RationalLike]) -> ValueProfile:
    """Build a ValueProfile from rationals given as int, Fraction, or 'p'/'p/q' text."""
    return ValueProfile(as_rational(v) for v in raw_values)


class QueueCapacities(_Value):
    """Per-class queue capacities B_1..B_m, each at least 1 packet.  `caps`
    may be given as any iterable; it is stored as a tuple, and `m` is set on
    construction."""

    __slots__ = ("caps", "m")
    _fields = ("caps",)

    def __new__(cls, caps: Iterable[int]):
        caps = tuple(caps)
        if not caps:
            raise BadCapacity("need at least one capacity")
        for b in caps:
            if not isinstance(b, int) or isinstance(b, bool) or b < 1:
                raise BadCapacity(f"capacity {b!r} is not an integer >= 1")
        return _filled(cls, caps=caps, m=len(caps))


class Trace(_Value):
    """An ordered sequence of arrive/send events.

    Order is the authoritative total order; absolute timestamps play no role.
    `drained` is true when every suffix contains at least as many sends as
    arrivals; that guarantees every diligent policy, under any capacities,
    ends with all queues empty (so accepted = transmitted per class).
    `drained` and `max_class` are set on construction.  `events` may be
    given as any iterable; it is stored as a tuple.
    """

    __slots__ = ("events", "drained", "max_class")
    _fields = ("events",)

    def __new__(cls, events: Iterable[Event]):
        events = tuple(events)  # no copy of a tuple; a list would leave the trace unhashable
        if not (set(map(type, events)) <= {int} and min(events, default=0) >= 0):
            for ev in events:  # the check above is in C; this loop finds the bad event
                if not isinstance(ev, int) or isinstance(ev, bool) or ev < 0:
                    raise TraceSyntaxError(0, f"bad event encoding {ev!r}")
        balance = 0  # sends minus arrivals in the suffix read so far
        for ev in reversed(events):
            balance += 1 if ev == SEND else -1
            if balance < 0:
                break
        return _filled(cls, events=events, drained=balance >= 0, max_class=max(events, default=0))

    @property
    def arrivals(self) -> int:
        return len(self.events) - self.sends

    @property
    def sends(self) -> int:
        return self.events.count(SEND)


def _drain_events(events: tuple[Event, ...]) -> tuple[Event, ...]:
    """`events` with one trailing send appended per arrival."""
    return events + (SEND,) * (len(events) - events.count(SEND))


def append_drain(trace: Trace) -> Trace:
    """Append one trailing send per arrival so every diligent policy ends empty."""
    return Trace(_drain_events(trace.events))


def _lines(text: str) -> list[str]:
    """The lines of a trace or config text.  A line ends at `\n`, `\r\n` or `\r`
    and nowhere else: `str.splitlines` also ends one at `\v`, `\f`, `\x1c`,
    `\x1d`, `\x1e`, `\x85`, U+2028 and U+2029, and so would read the text after
    one of them inside a `#` comment as code.  A text ending in a line break
    gets a last, blank line."""
    if "\r" in text:  # only a text holding a CR pays for the two replaces
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


# line -> (event,), or () to skip it; it starts with the blank line that ends every
# text ending in a line break, so a table that fills first still serves that line
_LINE_EVENTS: dict[str, tuple[Event, ...]] = {"": ()}
_LINE_CAP, _LINE_LEN = 1024, 32


def parse_trace(text: str) -> Trace:
    """Parse the line-based trace grammar.

    One event per line: `A <class-index>` (1-based, ASCII decimal digits,
    leading zeros allowed) or `S`.  `#` starts a comment, blank lines are
    ignored.  Line numbers in errors are 1-based and count every line, as
    `_lines` ends them.
    """
    lines = _lines(text)
    # tuple() of a list, not of the chain: a tuple built from an unsized iterator is
    # over-allocated and shrunk, and CPython's tuple free lists keep such blocks, which
    # raised in-process peak RSS by 2.6 MB over six passes of the 9,000 verify-mixed traces
    try:
        events = tuple([*chain.from_iterable(map(_LINE_EVENTS.__getitem__, lines))])
    except KeyError:  # tokenize each line the table misses, in order, so the first bad one raises
        found = []
        for lineno, line in enumerate(lines, start=1):
            if (event := _LINE_EVENTS.get(line)) is None:
                event = _tokenize(lineno, line)
                if len(_LINE_EVENTS) < _LINE_CAP and len(line) <= _LINE_LEN:
                    _LINE_EVENTS[line] = event
            found += event
        events = tuple(found)
    return Trace(events)


def _tokenize(lineno: int, raw_line: str) -> tuple[Event, ...]:
    """One line's event as a 1-tuple, or () for a blank or comment line."""
    tokens = raw_line.split("#", 1)[0].split()
    if not tokens:
        return ()
    if tokens[0] == "S":
        if len(tokens) != 1:
            raise TraceSyntaxError(lineno, f"send takes no argument: {raw_line!r}")
        return (SEND,)
    if tokens[0] != "A":
        raise TraceSyntaxError(lineno, f"unknown event {raw_line!r}")
    try:
        (cls,) = map(ascii_int, tokens[1:])
    except ValueError:  # not exactly one index, or not `ascii_int`'s grammar
        raise TraceSyntaxError(lineno, f"expected 'A <class-index>': {raw_line!r}") from None
    if cls < 1:
        raise BadClassIndex(lineno, f"class index {cls} is not >= 1")
    return (cls,)


def trace_to_text(trace: Trace) -> str:
    """Render a trace in the line-based grammar (round-trips with parse_trace)."""
    lines = ["S" if ev == SEND else f"A {ev}" for ev in trace.events]
    return "\n".join(lines) + ("\n" if lines else "")


class BoundReport(_Value):
    """Closed-form constants of a value profile.

    `c` holds c_1..c_{m-1}, `c_star` their maximum, `upper` the proven
    competitive ratio 1 + c_star of the greedy policy, and `abs_lower`
    2 - v_m / (v_1 + ... + v_m).  `abs_lower` is not a lower bound at every
    capacity vector: for values (1, 2) it is 4/3, and greedy's worst ratio
    over max-len 8 is 5/4 at caps (2, 1), 4/3 at (1, 1) and 7/5 at (1, 2).
    """

    __slots__ = _fields = ("c", "abs_lower")

    def __new__(cls, c: Iterable[Fraction], abs_lower: Fraction):
        c = tuple(c)
        if not c:  # c_star = max(c) needs one c_i
            raise MQSimError("c is empty")
        if bad := [ci for ci in c if not 0 < ci < 1]:
            raise MQSimError(f"c_i out of (0,1): {bad[0]}")
        return _filled(cls, c=c, abs_lower=abs_lower)

    @property
    def c_star(self) -> Fraction:
        return max(self.c)

    @property
    def upper(self) -> Fraction:
        return 1 + self.c_star


def doubling_tail(values: Sequence[Fraction], i: int) -> Fraction:
    """Sum of 2^(j-1) * v_{i-j} for j = 1..i-1 (1-based i; 0 when i <= 1)."""
    return sum(((2 ** (j - 1)) * values[i - j - 1] for j in range(1, i)), Fraction(0))


def compute_c(profile: ValueProfile) -> BoundReport:
    """Exact bound constants: c_i = (v_i + T_i) / (v_{i+1} + T_i) with
    T_i the doubling-weighted tail of earlier values."""
    v = profile.values
    c = []
    for i in range(1, profile.m):
        tail = doubling_tail(v, i)
        c.append((v[i - 1] + tail) / (v[i] + tail))
    return BoundReport(c=c, abs_lower=2 - v[-1] / sum(v))


def recurrence_values(m: int, doubled: bool = False) -> tuple[Fraction, ...]:
    """Value sequence starting 1, 2 and continuing with
    v_{i+1} = v_i + T_i (doubled=False) or v_{i+1} = 2*v_i + T_i (doubled=True),
    where T_i is the doubling-weighted tail.  The doubled variant makes every
    c_i exactly 1/2; the plain variant does not (c_2 is already 3/4).
    """
    if m < 2:
        raise TooFewClasses(f"need m >= 2, got {m}")
    values = [Fraction(1), Fraction(2)]
    while len(values) < m:
        i = len(values)
        head = 2 * values[-1] if doubled else values[-1]
        values.append(head + doubling_tail(values, i))
    return tuple(values)


def matches_recurrence(values: Sequence[Fraction]) -> bool:
    """True iff v_{i+1} = v_i + T_i holds for every i in [2, m-1].

    Sequences with m < 3 have no constrained terms and never match.
    """
    for i in range(2, len(values)):
        if values[i] != values[i - 1] + doubling_tail(values, i):
            return False
    return len(values) >= 3


def parse_config(text: str) -> tuple[ValueProfile, QueueCapacities]:
    """Parse the key-per-line config grammar:

        values: <rational> <rational> ...
        capacities: <int> <int> ...

    Rationals are `p` or `p/q`.  Each key appears exactly once and both lists
    must have equal length.  `#` comments and blank lines are allowed.
    """
    values: tuple[Fraction, ...] | None = None
    caps: tuple[int, ...] | None = None
    for lineno, raw_line in enumerate(_lines(text), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key: ...', got {raw_line!r}")
        key = key.strip()
        tokens = rest.split()
        if (key == "values" and values is not None) or (key == "capacities" and caps is not None):
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        if key == "values":
            try:
                values = tuple(map(_parse_rational_text, tokens))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        elif key == "capacities":
            try:
                caps = tuple(map(ascii_int, tokens))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad capacity in {rest!r}") from exc
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if values is None or caps is None:
        raise ConfigError("config needs both 'values:' and 'capacities:' lines")
    if len(values) != len(caps):
        raise ConfigError(
            f"values ({len(values)}) and capacities ({len(caps)}) differ in length"
        )
    try:
        profile = ValueProfile(values)
        capacities = QueueCapacities(caps)
    except MQSimError as exc:
        raise ConfigError(str(exc)) from exc
    return profile, capacities
