"""Exact offline-optimal benefit and schedule for a trace.

Admission is forced for every diligent policy, so the offline optimum only
chooses which nonempty queue to serve at each send.  Future benefit depends
only on the remaining events and the current occupancy vector, which makes a
layered dynamic program over (event index, occupancy) exact.  Benefit-equal
choices are broken toward the highest class index, which makes the returned
schedule deterministic.  The tie-break changes no end-of-trace quantity:
every optimal schedule accepts the same per-class vector A*.
`tests/test_all_optima.py` checks that, and that every checker holds, over
every optimal schedule of seeded short traces.  (The optimum's accepted set is a max-weight
basis of a gammoid, and with positive weights such a basis meets each
threshold set "class >= h" in its rank, so A* is unique; the step from the
diligent model to the gammoid is measured, not proved.)

A DP layer is one int of packed fields.  State s's field holds val[s] -
phi[s] + P, where phi[s] = sum_c w_c q_c(s) is the weight s buffers and P
that of the full state; no field is negative.  A field is bit_length(P + a
* max w) + 1 bits wide for a trace of a arrivals, which keeps each top bit
clear.  An arrival is a shift, a mask select and an add; a send merges each
class's shifted successor fields with a 7-op SWAR max.  Both are O(m)
big-int operations.  Each width's constants and send tails are cached.  One
loop folds the layers: `best_scaled` keeps none of them, `tables` keeps all.
A step is a pure function of (event, layer) at a given width, so a width whose
layers fit in 512 bits also keeps a memo of up to 4,096 steps, shared across
calls like the send tails: small state spaces repeat a few hundred steps.

The state space is built once per (caps, weights) and memoized behind one
size guard, `_state_space`.  A traced run's `opt.dp_cells` (states x events
per call) counts the cells a call covers, including those served from the
send tails and the memo, not the cells computed.

`opt_bruteforce` is the independent oracle: plain recursion over every
diligent choice, no shared state machinery, Fraction arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, product
from math import prod
from operator import mul

from .engine import Schedule, check_inputs
from .model import MQSimError, QueueCapacities, SEND, Trace, ValueProfile

DEFAULT_STATE_CAP = 10**7

# Step memos: only for layers of at most 512 bits (at 400 states x 10 bits,
# 7,592 of the 9,731 steps of a 250-sample random search at (1,3,4,10)/4,3,4,3,
# seed 1, are distinct, while exhaustive (1,2,5)/1,1,1 at max-len 9 takes
# 480,606 steps through 924 distinct ones), and at most 4,096 steps per width,
# which holds the largest working set measured (4,449 steps over two widths,
# exhaustive (1,3,4,10)/2,1,2,1 at max-len 8).
_MEMO_BITS = 512
_MEMO_CAP = 4096


class StateSpaceExceeded(MQSimError):
    def __init__(self, limit: int, needed: int):
        super().__init__(f"needs {needed} DP cells, cap is {limit}")
        self.limit = limit
        self.needed = needed


@dataclass(frozen=True)
class OptResult:
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
        self.drain = sum(caps)  # sends that empty every state
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
        `keep` when it is a list."""
        n = len(events)
        packed = self.packing(n - events.count(SEND))
        tail, step, memo = packed.tail, packed.step, packed.memo
        run = next(compress(count(), reversed(events)), n)  # the final run of sends
        top = min(run, self.drain)
        while len(tail) <= top:
            tail.append(packed.send(tail[-1]))
        val = tail[top]
        if keep is not None:
            keep += tail[:top]
            keep += [val] * (run - top + 1)
        body = reversed(events[: n - run])
        if memo is None:
            for ev in body:
                val = step(ev, val)
                if keep is not None:
                    keep.append(val)
            return val, packed
        for ev in body:
            nxt = memo[ev].get(val)
            if nxt is None:
                nxt = step(ev, val)
                if sum(map(len, memo)) < _MEMO_CAP:  # a full memo still serves hits
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
        # tail[r]: the layer before a final run of r sends.  After sum(caps)
        # sends every state is empty, so longer runs repeat the last layer.
        self.tail = [pack([space.offset - sum(map(mul, space.weights, q)) for q in states])]
        # memo[ev][layer]: the layer before event ev; None on wide layers
        self.memo = [{} for _ in range(len(space.caps) + 1)] if space.size * width <= _MEMO_BITS else None

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
