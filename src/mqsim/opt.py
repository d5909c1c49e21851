"""Exact offline-optimal benefit and schedule for a trace.

Admission is forced for every diligent policy, so the offline optimum only
chooses which nonempty queue to serve at each send.  Future benefit depends
only on the remaining events and the current occupancy vector, which makes a
layered dynamic program over (event index, occupancy) exact.  Benefit-equal
choices are broken toward the highest class index, which makes the returned
schedule deterministic.  Whether the tie-break matters to `top_class_equal`
is unverified: breaking ties toward the lowest class turned no verdict false
on any trace tried.

Each class has one arrival table and one send table (`arrive_to`,
`send_to`), each pointing at the state itself when the move is impossible;
the DP's gathers and the schedule extraction both read them.  Layers hold
val[s] - phi[s], phi[s] = sum_c w_c q_c(s) being the weight that state s
buffers, so each layer is C-level gathers with no Python code per state.
The layers of a trace's trailing send run depend only on the state space
and the run length; they are cached on the space and shared.

`opt_bruteforce` is the independent oracle: plain recursion over every
diligent choice, no shared state machinery, Fraction arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import prod
from operator import add, itemgetter, mul
from typing import Iterator

from .engine import Schedule, check_inputs
from .model import MQSimError, QueueCapacities, SEND, Trace, ValueProfile

DEFAULT_STATE_CAP = 10**7


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
        self.caps = caps
        self.weights = weights
        m = len(caps)
        states = list(product(*(range(b + 1) for b in caps)))  # last class fastest
        self.states = states
        self.size = len(states)

        stride = [0] * m
        acc = 1
        for c in range(m - 1, -1, -1):
            stride[c] = acc
            acc *= caps[c] + 1

        # arrive_to[c][s] / send_to[c][s]: the state after a class-(c+1)
        # arrival / send, or s itself when the move is impossible (full / empty)
        self.arrive_to = [
            [s + stride[c] if q[c] < caps[c] else s for s, q in enumerate(states)]
            for c in range(m)
        ]
        self.send_to = [
            [s - stride[c] if q[c] else s for s, q in enumerate(states)] for c in range(m)
        ]
        # per class: the arrival gather, and the weight it admits (0 when full)
        self._arrive = [
            (itemgetter(*to), [weights[c] if s2 != s else 0 for s, s2 in enumerate(to)])
            for c, to in enumerate(self.arrive_to)
        ]
        # a self column never wins a send's max: val[s] <= w_d + val[s - e_d]
        self._send = [itemgetter(*to) for to in self.send_to]
        # _tail[r]: the layer before a final run of r sends.  After sum(caps)
        # sends every state is empty, so longer runs repeat the last layer.
        self._tail = [[-sum(map(mul, weights, q)) for q in states]]

    def _send_layer(self, val: list[int]) -> list[int]:
        # w_c + val[s - e_c] - phi[s] == (val - phi)[s - e_c]: a max of gathers
        return list(map(max, *[gather(val) for gather in self._send]))

    def layers(self, events: tuple[int, ...]) -> Iterator[list[int]]:
        """The backward DP: yields val[i] - phi for i = n, n-1, ..., 0, where
        val[i][s] is the max scaled benefit of events[i:] from state s.  The
        layers of the trailing send run are shared; never mutate a layer."""
        tail, send_layer, arrive = self._tail, self._send_layer, self._arrive
        run = 0
        while run < len(events) and events[-1 - run] == SEND:
            run += 1
        top = min(run, sum(self.caps))
        while len(tail) <= top:
            tail.append(send_layer(tail[-1]))
        yield from tail[:top]
        val = tail[top]
        yield from repeat(val, run - top + 1)
        for ev in reversed(events[: len(events) - run]):
            if ev == SEND:
                val = send_layer(val)
            else:
                gather, admitted = arrive[ev - 1]
                val = list(map(add, gather(val), admitted))
            yield val

    def best_scaled(self, events: tuple[int, ...]) -> int:
        """Max scaled benefit over all diligent schedules (phi[0] = 0)."""
        for val in self.layers(events):
            pass
        return val[0]

    def tables(self, events: tuple[int, ...]) -> list[list[int]]:
        """Every DP layer, indexed by event position, for schedule extraction."""
        return list(self.layers(events))[::-1]


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
    count prod(B_i + 1) * max(n_events, 1) exceeds `state_cap`; the cap is a
    guard, never an approximation."""
    needed = prod(b + 1 for b in caps) * max(n_events, 1)
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
    schedule is deterministic; the tie-break's effect on `top_class_equal` is
    unverified.  Raises StateSpaceExceeded when the DP would exceed
    `state_cap` cells.
    """
    check_inputs(trace, caps, profile)
    if not trace.drained:
        raise ValueError("opt_search needs a drained trace; use append_drain first")

    space = _state_space(caps.caps, profile.weights, len(trace.events), state_cap)
    tables = space.tables(trace.events)

    choices: list[int | None] = []
    s = 0
    for i, ev in enumerate(trace.events):
        if ev == SEND:
            if s == 0:
                choices.append(None)
                continue
            nxt = tables[i + 1]
            # w + val[s2] - phi[s] == nxt[s2]; benefit ties go to the highest class
            _, cls, s = max(
                (nxt[to[s]], c, to[s]) for c, to in enumerate(space.send_to, 1) if to[s] != s
            )
            choices.append(cls)
        else:
            s = space.arrive_to[ev - 1][s]

    benefit = Fraction(tables[0][0], profile.scale)  # phi[0] = 0
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
