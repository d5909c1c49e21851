"""Exact offline-optimal benefit and schedule for a trace.

Admission is forced for every diligent policy, so the offline optimum only
chooses which nonempty queue to serve at each send.  Future benefit depends
only on the remaining events and the current occupancy vector, which makes a
layered dynamic program over (event index, occupancy) exact.  Benefit-equal
choices are broken toward the highest class index, which makes the returned
schedule deterministic.  The tie-break changes no end-of-trace quantity:
every optimal schedule accepts the same per-class vector A*.
`tests/test_all_optima.py` checks that, and that every checker holds, over
every optimal schedule of seeded short traces.  (The optimum's accepted set
is a max-weight basis of a gammoid, and with positive weights such a basis
meets each threshold set "class >= h" in its rank, so A* is unique; the step
from the diligent model to the gammoid is measured, not proved.)

A DP layer is one int of packed fields.  State s's field holds val[s] -
phi[s] + P, where phi[s] = sum_c w_c q_c(s) is the weight s buffers and P
that of the full state; no field is negative.  A field is bit_length(P + a
* max w) + 1 bits wide for a trace of a arrivals, which keeps each top bit
clear.  An arrival is a shift, a mask select and an add; a send merges each
class's shifted successor fields with a 7-op SWAR max.  Both are O(m)
big-int operations.  One loop folds the layers: `best_scaled` keeps none of
them, `tables` keeps all.

A step is a pure function of (event, layer) at a given width, so each width
keeps one cache, its step memo, shared across calls and looked up at every
step.  It starts with the drain chain: sum(caps) + 1 sends from the base
layer, the last of which maps its layer to itself, because after sum(caps)
sends every state is empty; so a trace's final run of sends costs lookups
only, however long it is.  Beyond the chain a width stores at most
min(4,096, 2^22 / (2 x states x width)) steps, each charged its two layers:
512 KB of layers.  A full memo still serves hits.  Measured working sets
(distinct steps a run takes, chains included): `exhaustive-m3` 936 and
`verify-mixed` 5,617 over its widths, both held whole; `random-wide` (400
states) takes 7,622, so its memo fills at 1,106 steps beyond its two widths'
chains, 1.1 MB of layers.

The state space is built once per (caps, weights) and memoized behind one
size guard, `_state_space`.  A traced run's `opt.dp_cells` (states x events
per call) counts the cells a call covers, including those served from the
memo, not the cells computed.

`opt_bruteforce` is the independent oracle: plain recursion over every
diligent choice, no shared state machinery, Fraction arithmetic throughout.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from operator import mul
from typing import NamedTuple

from .engine import Schedule, check_inputs
from .model import MQSimError, QueueCapacities, SEND, Trace, ValueProfile

DEFAULT_STATE_CAP = 10**7

# Each width's step memo stores at most min(_MEMO_CAP, _MEMO_BITS // (2 x
# states x width)) steps beyond its drain chain: each step is charged its two
# layers against 2^22 bits, and tiny layers hold no more than 4,096 steps.
_MEMO_BITS = 1 << 22
_MEMO_CAP = 4096


class StateSpaceExceeded(MQSimError):
    def __init__(self, limit: int, needed: int):
        super().__init__(f"needs {needed} DP cells, cap is {limit}")
        self.limit = limit
        self.needed = needed


class OptResult(NamedTuple):
    benefit: Fraction
    schedule: Schedule


class _StateSpace:
    """Occupancy vectors of one capacity profile, with precomputed transitions.

    States are mixed-radix indices over [0, B_1] x ... x [0, B_m]; index 0 is
    the all-empty vector.  Benefits are scaled integers (profile weights), so
    comparisons are exact and cheap.
    """

    def __init__(self, caps: tuple[int, ...], weights: tuple[int, ...]):
        self.caps, self.weights = caps, weights
        self.states = states = list(product(*(range(b + 1) for b in caps)))  # last class fastest
        self.size = len(states)
        self.stride = stride = [prod(b + 1 for b in caps[c + 1 :]) for c in range(len(caps))]
        # serve[s]: (state after the send, class) per nonempty class, highest first
        self.serve = [[(s - stride[c], c + 1) for c in reversed(range(len(caps))) if q[c]]
                      for s, q in enumerate(states)]
        self.offset = sum(map(mul, weights, caps))  # P, the full state's phi
        self._packings: dict[int, _Packed] = {}  # by arrival count, shared per width

    def packing(self, arrivals: int) -> _Packed:
        """The packing of every DP layer of a trace with `arrivals` arrivals."""
        packed = self._packings.get(arrivals)
        if packed is None:
            width = _field_width(self.offset, self.weights, arrivals)
            packed = next((p for p in self._packings.values() if p.width == width), None)
            packed = self._packings[arrivals] = packed or _Packed(self, width)
        return packed

    def _fold(self, events: tuple[int, ...], keep: list[int] | None) -> tuple[int, _Packed]:
        """The backward DP: val[i] - phi + P, packed, for i = n, ..., 0, where
        val[i][s] is the max scaled benefit of events[i:] from state s.  Returns
        the last layer and its packing; appends every layer, in that order, to
        `keep` when it is a list.  Every step goes through the width's memo."""
        packed = self.packing(len(events) - events.count(SEND))
        step, memo, val = packed.step, packed.memo, packed.base
        if keep is not None:
            keep.append(val)
        for ev in reversed(events):
            nxt = memo[ev].get(val)
            if nxt is None:
                nxt = step(ev, val)
                if packed.room:  # a full memo still serves hits
                    packed.room -= 1
                    memo[ev][val] = nxt
            val = nxt
            if keep is not None:
                keep.append(val)
        return val, packed

    def best_scaled(self, events: tuple[int, ...]) -> int:
        """Max scaled benefit over all diligent schedules (phi[0] = 0); keeps no layers."""
        val, packed = self._fold(events, None)
        return (val & packed.field) - self.offset

    def tables(self, events: tuple[int, ...]) -> list[int]:
        """Every packed DP layer, indexed by event position, for extraction."""
        layers: list[int] = []
        self._fold(events, layers)
        layers.reverse()
        return layers


class _Packed:
    """One field width's constants, each packed over every state."""

    def __init__(self, space: _StateSpace, width: int):
        def pack(xs: list[int]) -> int:  # xs[s] in bits [s*W, (s+1)*W), in linear time
            return int("".join(format(x, f"0{width}b") for x in reversed(xs)), 2)

        states, self.width, self.field = space.states, width, (1 << width) - 1  # F
        self.high = pack([1 << width - 1] * space.size)  # H
        # per class: the arrival shift, the states that admit, the weight admitted
        self.arrive = [
            (k * width, pack([self.field * (q[c] < b) for q in states]),
             pack([w * (q[c] < b) for q in states]))
            for c, (k, b, w) in enumerate(zip(space.stride, space.caps, space.weights))
        ]
        # memo[ev][layer]: the layer before event ev, from the layer after it.  It
        # starts with the drain chain from the base layer (val = 0 everywhere).
        self.base = v = pack([space.offset - sum(map(mul, space.weights, q)) for q in states])
        self.memo = [{} for _ in range(len(space.caps) + 1)]
        for _ in range(sum(space.caps) + 1):  # the last send is a fixed point
            self.memo[SEND][v] = v = self.send(v)  # keyed by v before the send
        self.room = min(_MEMO_CAP, _MEMO_BITS // (2 * space.size * width))  # beyond the chain

    def step(self, ev: int, v: int) -> int:
        """The layer before event ev, from the layer v after it."""
        if ev == SEND:
            return self.send(v)
        shift, ok, adm = self.arrive[ev - 1]  # admitting s takes field s + e_c, + w_c
        return (v ^ ((v ^ (v >> shift)) & ok)) + adm

    def send(self, v: int) -> int:
        """w_c + val[s - e_c] - phi[s] == (val - phi)[s - e_c]: class c's gather shifts
        field s - e_c to s; an impossible move gathers 0, and state 0 idles."""
        high, top, (shift, ok, _) = self.high, self.width - 1, self.arrive[0]
        best = (v & ok) << shift
        for shift, ok, _ in self.arrive[1:]:
            # SWAR max: every field is below 2^top, so no borrow or carry crosses
            # one; d's top bit is set where a >= best, and its low bits are a - best
            d = (((v & ok) << shift) | high) - best
            t = d & high
            best += d & (t - (t >> top))
        return best | (v & self.field)


def _field_width(offset: int, weights: tuple[int, ...], arrivals: int) -> int:
    # 0 <= val - phi + P <= P + (weight of the arrivals left): one bit more keeps
    # each field's top bit clear for the SWAR max
    return (offset + arrivals * max(weights)).bit_length() + 1


@lru_cache(maxsize=256)
def _cells(caps: tuple[int, ...], weights: tuple[int, ...], n_events: int) -> int:
    """A-priori DP cells of a run over at most `n_events` events, in 64-bit
    words: each state's field in each layer, at the width for `n_events`
    arrivals, counts ceil(width / 64)."""
    width = _field_width(sum(map(mul, weights, caps)), weights, n_events)
    return prod(b + 1 for b in caps) * max(n_events, 1) * -(-width // 64)


@lru_cache(maxsize=8)
def _cached_space(caps: tuple[int, ...], weights: tuple[int, ...]) -> _StateSpace:
    return _StateSpace(caps, weights)


def _state_space(
    caps: tuple[int, ...],
    weights: tuple[int, ...],
    n_events: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> _StateSpace:
    """The size guard: the (memoized) state space for DP runs over at most
    `n_events` events.  Raises StateSpaceExceeded when the a-priori cell
    count prod(B_i + 1) * max(n_events, 1) * ceil(width / 64) exceeds
    `state_cap`; the cap is a guard, never an approximation."""
    needed = _cells(caps, weights, n_events)
    if needed > state_cap:
        raise StateSpaceExceeded(state_cap, needed)
    return _cached_space(caps, weights)


def opt_search(
    trace: Trace,
    caps: QueueCapacities,
    profile: ValueProfile,
    state_cap: int = DEFAULT_STATE_CAP,
) -> OptResult:
    """Optimal benefit and one optimal diligent schedule for a drained trace.

    Ties at a send are broken toward the highest class index, so the returned
    schedule is deterministic; every optimal schedule accepts the same A*, so
    the tie-break moves no end-of-trace verdict.  Raises StateSpaceExceeded
    when the DP would exceed `state_cap` cells.
    """
    check_inputs(trace, caps, profile)
    if not trace.drained:
        raise ValueError("opt_search needs a drained trace; use append_drain first")

    events = trace.events
    space = _state_space(caps.caps, profile.weights, len(events), state_cap)
    tables = space.tables(events)

    packed = space.packing(len(events) - events.count(SEND))
    states, stride, width, field = space.states, space.stride, packed.width, packed.field
    choices: list[int | None] = []
    s = 0
    for i, ev in enumerate(events):
        if ev == SEND:
            if s == 0:
                choices.append(None)
                continue
            # field s2 is w_c + val[s2] - phi[s] + P; on ties the strict > keeps the top class
            nxt, best = tables[i + 1], -1
            for s2, c in space.serve[s]:
                u = nxt >> s2 * width & field
                if u > best:
                    best, cls, to = u, c, s2
            s = to
            choices.append(cls)
        elif states[s][ev - 1] < caps.caps[ev - 1]:
            s += stride[ev - 1]

    benefit = Fraction((tables[0] & field) - space.offset, profile.scale)  # phi[0] = 0
    return OptResult(benefit=benefit, schedule=Schedule(tuple(choices)))


def opt_bruteforce(
    trace: Trace, caps: QueueCapacities, profile: ValueProfile
) -> Fraction:
    """Independent oracle: enumerate every diligent choice at every send.

    No memoization and no shared transition tables; intended for small
    instances (roughly up to a dozen sends).
    """
    check_inputs(trace, caps, profile)
    events = trace.events
    B = caps.caps
    values = profile.values
    m = profile.m
    zero = Fraction(0)

    def best_from(i: int, q: list[int]) -> Fraction:
        if i == len(events):
            return zero
        ev = events[i]
        if ev != SEND:
            c = ev - 1
            if q[c] < B[c]:
                q[c] += 1
                result = best_from(i + 1, q)
                q[c] -= 1
                return result
            return best_from(i + 1, q)
        if not any(q):
            return best_from(i + 1, q)
        best = None
        for c in range(m):
            if q[c]:
                q[c] -= 1
                cand = values[c] + best_from(i + 1, q)
                q[c] += 1
                if best is None or cand > best:
                    best = cand
        return best

    return best_from(0, [0] * m)
