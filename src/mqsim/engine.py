"""Deterministic simulation of diligent policies over a trace.

One replay loop checks diligence and records the ledger of any schedule: per
class, its accepted, transmitted and occupancy counts after every event.  A
ledger is only those rows; `ledger_to_tsv` reads each event's action back off
the counter it moved.  `_greedy` is the only place the online greedy policy
is written: one pass that always transmits from the highest-indexed nonempty
queue and counts each class's transmissions as it goes.  `run_greedy` also
has it collect its choices, which it replays; the searches read only the
counts, through `greedy_transmit_counts`.  Admission is never a
choice: a diligent policy accepts exactly when the destination queue has a
vacancy.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import NamedTuple, Sequence

from .model import MQSimError, QueueCapacities, SEND, Trace, ValueProfile


class ClassOutOfRange(MQSimError):
    pass


class LedgerMismatch(MQSimError):
    pass


class DiligenceViolation(MQSimError):
    def __init__(self, send_index: int, message: str):
        super().__init__(f"send {send_index}: {message}")
        self.send_index = send_index


class Ledger(NamedTuple):
    """Per-event history of one diligent policy, as per-class integer rows.

    Row h-1 of `accepted` / `transmitted` / `occupancy` holds class h's count
    after each event: column 0 is the initial null entry (all zero), column i
    the state just after the i-th trace event.  The occupancy rows record the
    runner's own queue vector, not accepted - transmitted, so the conservation
    check tests the queue against the counters.
    """

    accepted: tuple[tuple[int, ...], ...]
    transmitted: tuple[tuple[int, ...], ...]
    occupancy: tuple[tuple[int, ...], ...]
    benefit_transmitted: Fraction


class Schedule(NamedTuple):
    """One class choice (or None for idle) per send event of a trace."""

    choices: tuple[int | None, ...]

    def to_text(self) -> str:
        return ",".join("-" if c is None else str(c) for c in self.choices)


def check_dims(caps: QueueCapacities, profile: ValueProfile) -> None:
    """Reject a capacity vector whose length is not the profile's class count."""
    if caps.m != profile.m:
        raise MQSimError(f"{caps.m} capacities given for {profile.m} classes")


def check_at_least(name: str, value: int, least: int) -> None:
    """Reject a size or count below `least`, naming the parameter (or CLI flag)."""
    if value < least:
        raise MQSimError(f"{name} must be >= {least}, got {value}")


def check_inputs(trace: Trace, caps: QueueCapacities, profile: ValueProfile) -> None:
    """Reject mismatched dimensions or arrival classes outside the profile."""
    check_dims(caps, profile)
    if trace.max_class > profile.m:
        raise ClassOutOfRange(
            f"trace arrives class {trace.max_class} but profile has m={profile.m}"
        )


def check_columns(trace: Trace, *rows: Sequence[int]) -> None:
    """Reject rows without one column per event of `trace` plus the null entry."""
    if cols := set(map(len, rows)) - {len(trace.events) + 1}:
        raise LedgerMismatch(f"event counts differ: {len(trace.events)} vs {min(cols) - 1}")


def _greedy(events: tuple[int, ...], caps: tuple[int, ...],
            choices: list[int | None] | None = None) -> list[int]:
    """Greedy's per-class transmission counts, appending its class at each
    send (None: idle) to `choices` when one is given: accept whenever there
    is a vacancy, transmit from the highest-indexed nonempty queue, idle only
    when all queues are empty.  Arrival classes must already be checked.
    Bit c-1 of `nonempty` is set while class c's queue holds a packet, so the
    top nonempty class is its bit length."""
    q = [0] * len(caps)
    sent = [0] * len(caps)
    nonempty = 0
    for ev in events:
        if ev == SEND:
            if nonempty:
                i = nonempty.bit_length() - 1
                q[i] -= 1
                sent[i] += 1
                if not q[i]:
                    nonempty ^= 1 << i
                if choices is not None:
                    choices.append(i + 1)
            elif choices is not None:
                choices.append(None)
        elif q[ev - 1] < caps[ev - 1]:
            q[ev - 1] += 1
            nonempty |= 1 << ev - 1
    return sent


def _run(trace: Trace, caps: QueueCapacities, profile: ValueProfile,
         choices: tuple[int | None, ...]) -> Ledger:
    """Replay one class choice per send over checked inputs, validating
    diligence at each send, and record the ledger."""
    m = profile.m
    B = caps.caps
    # class c's accepted, transmitted and queued counts sit at c-1, T+c and Q+c
    state, T, Q = [0] * (3 * m), m - 1, 2 * m - 1
    cols = [tuple(state)]  # state after every event, null entry first
    send_i = 0

    for ev in trace.events:
        if ev == SEND:
            cls = choices[send_i]
            if cls is None:
                if any(state[Q + 1 :]):
                    raise DiligenceViolation(send_i, "idle while a queue is nonempty")
            elif not 1 <= cls <= m:
                raise DiligenceViolation(send_i, f"class {cls} out of range")
            elif state[Q + cls] == 0:
                raise DiligenceViolation(send_i, f"class {cls} queue is empty")
            else:
                state[Q + cls] -= 1
                state[T + cls] += 1
            send_i += 1
        elif state[Q + ev] < B[ev - 1]:
            state[Q + ev] += 1
            state[ev - 1] += 1
        cols.append(tuple(state))

    rows = tuple([*zip(*cols)])  # all 3m rows from one zip; a sized tuple, as in parse_trace
    return Ledger(rows[:m], rows[m : 2 * m], rows[2 * m :], profile.benefit(state[m : 2 * m]))


def run_greedy(
    trace: Trace, caps: QueueCapacities, profile: ValueProfile
) -> tuple[Ledger, Schedule]:
    """Simulate the greedy policy: replay `_greedy`'s choices, checking diligence."""
    check_inputs(trace, caps, profile)
    choices: list[int | None] = []
    _greedy(trace.events, caps.caps, choices)
    schedule = Schedule(tuple(choices))
    return _run(trace, caps, profile, schedule.choices), schedule


def replay_schedule(
    trace: Trace, caps: QueueCapacities, profile: ValueProfile, schedule: Schedule
) -> Ledger:
    """Replay an explicit diligent schedule, validating diligence at each send."""
    check_inputs(trace, caps, profile)
    if len(schedule.choices) != trace.sends:
        raise MQSimError(f"schedule has {len(schedule.choices)} choices for {trace.sends} sends")
    return _run(trace, caps, profile, schedule.choices)


def greedy_transmit_counts(events: tuple[int, ...], caps: tuple[int, ...]) -> list[int]:
    """Per-class transmission counts of greedy, without building a ledger or
    a schedule."""
    return _greedy(events, caps)


def ledger_to_tsv(trace: Trace, ledger: Ledger) -> str:
    """Tab-separated per-event dump: index, event kind, action, A, delta, q.

    Each action is read off the counter its event moved: an arrival of class c
    is `accept c` when class c's accepted count rose, else `reject c`; a send
    is `transmit c` for the class whose transmitted count rose, else `idle`.
    Raises LedgerMismatch unless `ledger` was recorded over `trace`'s events
    and classes: at an arrival of class c only class c's accepted count may
    move, at a send only one transmitted count, and either by one.
    """
    check_columns(trace, *ledger.accepted, *ledger.transmitted, *ledger.occupancy)
    m = len(ledger.accepted)
    if trace.max_class > m:
        raise LedgerMismatch("class counts differ")
    acc, tx, q = (list(zip(*rows)) for rows in ledger[:3])  # one tuple per column
    lines = ["# event\tkind\taction\tA\tdelta\tq"]
    for i, ev in enumerate((None, *trace.events)):
        if ev is None:
            kind, action = "init", "idle"
        else:
            # slot h-1 is class h's accepted count, slot m+h-1 its transmitted count
            step = (*map(sub, acc[i], acc[i - 1]), *map(sub, tx[i], tx[i - 1]))
            moved = [k for k, d in enumerate(step) if d]
            if ev == SEND:
                kind, slots = "send", range(m, 2 * m)
                action = f"transmit {moved[0] - m + 1}" if moved else "idle"
            else:
                kind, slots = f"arrive {ev}", (ev - 1,)
                action = f"{'accept' if moved else 'reject'} {ev}"
            if moved and (len(moved) > 1 or step[moved[0]] != 1 or moved[0] not in slots):
                raise LedgerMismatch(f"event {i} ({kind}) does not match the ledger's counts")
        counts = (",".join(map(str, col[i])) for col in (acc, tx, q))
        lines.append("\t".join([str(i), kind, action, *counts]))
    return "\n".join(lines) + "\n"
