"""Value profiles, queue capacities, event traces, and closed-form bound constants.

All arithmetic is exact: class values are `fractions.Fraction`, counters are
ints, and every derived bound is a Fraction.  Floats are rejected on input so
that no inequality check ever depends on rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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
        return _parse_rational_text(raw, where="value")
    raise TypeError(f"exact rational required, got {type(raw).__name__}")


def _parse_rational_text(text: str, where: str) -> Fraction:
    # Grammar: "p" or "p/q" with decimal integers; no decimal points, no spaces.
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"bad {where} {text!r}: expected p or p/q")


@dataclass(frozen=True)
class ValueProfile:
    """Strictly increasing positive class values v_1 < v_2 < ... < v_m, m >= 2."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise TooFewClasses(f"need at least 2 class values, got {len(self.values)}")
        for v in self.values:
            if v <= 0:
                raise NonPositiveValue(f"class value {v} is not positive")
        for lo, hi in zip(self.values, self.values[1:]):
            if lo >= hi:
                raise NotIncreasing(f"values must be strictly increasing: {lo} >= {hi}")

    def __hash__(self) -> int:  # once per profile, not per lru_cache lookup (compute_c, ...)
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.values)  # equal profiles have equal values, as __eq__ compares

    @cached_property
    def m(self) -> int:
        return len(self.values)

    def value(self, cls: int) -> Fraction:
        """Value of class `cls` (1-based)."""
        return self.values[cls - 1]

    @cached_property
    def scale(self) -> int:
        """Common denominator turning every class value into an integer weight."""
        return lcm(*(v.denominator for v in self.values))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Integer weights w_i with v_i = w_i / scale; used by the fast paths."""
        return tuple(v.numerator * (self.scale // v.denominator) for v in self.values)

    def benefit(self, counts: Sequence[int]) -> Fraction:
        """Exact value total of `counts[i]` packets of each class i+1."""
        return Fraction(sum(map(mul, self.weights, counts)), self.scale)


def validate_profile(raw_values: Iterable[RationalLike]) -> ValueProfile:
    """Build a ValueProfile from rationals given as int, Fraction, or 'p'/'p/q' text."""
    return ValueProfile(tuple(as_rational(v) for v in raw_values))


@dataclass(frozen=True)
class QueueCapacities:
    """Per-class queue capacities B_1..B_m, each at least 1 packet."""

    caps: tuple[int, ...]

    def __post_init__(self):
        if not self.caps:
            raise BadCapacity("need at least one capacity")
        for b in self.caps:
            if not isinstance(b, int) or isinstance(b, bool) or b < 1:
                raise BadCapacity(f"capacity {b!r} is not an integer >= 1")

    @cached_property
    def m(self) -> int:
        return len(self.caps)


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of arrive/send events.

    Order is the authoritative total order; absolute timestamps play no role.
    `drained` is true when every suffix contains at least as many sends as
    arrivals; that guarantees every diligent policy, under any capacities,
    ends with all queues empty (so accepted = transmitted per class).
    `drained` and `max_class` are set on construction.
    """

    events: tuple[Event, ...]

    def __post_init__(self):
        events = self.events
        if not (set(map(type, events)) <= {int} and min(events, default=0) >= 0):
            for ev in events:  # the check above is in C; this loop finds the bad event
                if not isinstance(ev, int) or isinstance(ev, bool) or ev < 0:
                    raise TraceSyntaxError(0, f"bad event encoding {ev!r}")
        balance = 0  # sends minus arrivals in the suffix read so far
        for ev in reversed(events):
            balance += 1 if ev == SEND else -1
            if balance < 0:
                break
        object.__setattr__(self, "drained", balance >= 0)
        object.__setattr__(self, "max_class", max(events, default=0))

    @property
    def arrivals(self) -> int:
        return len(self.events) - self.sends

    @property
    def sends(self) -> int:
        return self.events.count(SEND)

    def __len__(self) -> int:
        return len(self.events)


def append_drain(trace: Trace) -> Trace:
    """Append one trailing send per arrival so every diligent policy ends empty."""
    k = trace.arrivals
    if k == 0:
        return trace
    return Trace(trace.events + (SEND,) * k)


def parse_trace(text: str) -> Trace:
    """Parse the line-based trace grammar.

    One event per line: `A <class-index>` (1-based, ASCII decimal digits,
    leading zeros allowed) or `S`.  `#` starts a comment, blank lines are
    ignored.  Line numbers in errors are 1-based and count every physical line.
    """
    events: list[Event] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        tokens = raw_line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "S":
            if len(tokens) != 1:
                raise TraceSyntaxError(lineno, f"send takes no argument: {raw_line!r}")
            events.append(SEND)
        elif tokens[0] == "A":
            digits = tokens[-1].removeprefix("-")
            if len(tokens) != 2 or not (digits.isascii() and digits.isdigit()):
                raise TraceSyntaxError(lineno, f"expected 'A <class-index>': {raw_line!r}")
            cls = int(tokens[1])
            if cls < 1:
                raise BadClassIndex(lineno, f"class index {cls} is not >= 1")
            events.append(cls)
        else:
            raise TraceSyntaxError(lineno, f"unknown event {raw_line!r}")
    return Trace(tuple(events))


def trace_to_text(trace: Trace) -> str:
    """Render a trace in the line-based grammar (round-trips with parse_trace)."""
    lines = ["S" if ev == SEND else f"A {ev}" for ev in trace.events]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class BoundReport:
    """Closed-form constants of a value profile.

    `c` holds c_1..c_{m-1}, `c_star` their maximum, `upper` the proven
    competitive ratio 1 + c_star of the greedy policy, and `abs_lower`
    2 - v_m / (v_1 + ... + v_m).  `abs_lower` is not a lower bound at every
    capacity vector: for values (1, 2) it is 4/3, and greedy's worst ratio
    over max-len 8 is 5/4 at caps (2, 1), 4/3 at (1, 1) and 7/5 at (1, 2).
    """

    c: tuple[Fraction, ...]
    c_star: Fraction
    upper: Fraction
    abs_lower: Fraction

    def __post_init__(self):
        for ci in self.c:
            if not 0 < ci < 1:
                raise MQSimError(f"c_i out of (0,1): {ci}")
        if self.c_star != max(self.c):
            raise MQSimError("c_star is not max(c)")
        if self.upper != 1 + self.c_star:
            raise MQSimError("upper is not 1 + c_star")


def doubling_tail(values: Sequence[Fraction], i: int) -> Fraction:
    """Sum of 2^(j-1) * v_{i-j} for j = 1..i-1 (1-based i; 0 when i <= 1)."""
    return sum(((2 ** (j - 1)) * values[i - j - 1] for j in range(1, i)), Fraction(0))


@lru_cache(maxsize=64)
def compute_c(profile: ValueProfile) -> BoundReport:
    """Exact bound constants: c_i = (v_i + T_i) / (v_{i+1} + T_i) with
    T_i the doubling-weighted tail of earlier values.  Memoized per profile."""
    v = profile.values
    c = []
    for i in range(1, profile.m):
        tail = doubling_tail(v, i)
        c.append((v[i - 1] + tail) / (v[i] + tail))
    c_star = max(c)
    abs_lower = 2 - v[-1] / sum(v)
    return BoundReport(c=tuple(c), c_star=c_star, upper=1 + c_star, abs_lower=abs_lower)


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
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
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
                values = tuple(_parse_rational_text(t, where="value") for t in tokens)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        elif key == "capacities":
            try:
                caps = tuple(int(t) for t in tokens)
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
