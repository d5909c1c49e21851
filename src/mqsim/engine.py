"""Deterministic simulation of diligent policies over a trace.

One replay loop checks diligence and records the ledger of any schedule: per
class, its accepted, transmitted and occupancy counts after every event.  A
ledger is only those rows; `ledger_to_tsv` reads each event's action back off
the counter it moved.  `greedy_schedule` is the only place the online greedy
policy is written: it yields the schedule that always transmits from the
highest-indexed nonempty queue, which `run_greedy` replays and the searches
count.  Admission is never a choice: a diligent policy accepts exactly when the
destination queue has a vacancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import lt
from typing import NamedTuple

from .model import MQSimError, QueueCapacities, SEND, Trace, ValueProfile


class ClassOutOfRange(MQSimError):
    pass


class DiligenceViolation(MQSimError):
    def __init__(self, send_index: int, message: str):
        super().__init__(f"send {send_index}: {message}")
        self.send_index = send_index


class Ledger(NamedTuple):  # not a frozen dataclass: that costs ~0.5 ms more per import
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


@dataclass(frozen=True)
class Schedule:
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


def greedy_schedule(events: tuple[int, ...], caps: tuple[int, ...], m: int) -> list[int | None]:
    """Greedy's class at each send (None: idle): accept whenever there is a
    vacancy, transmit from the highest-indexed nonempty queue, idle only when
    all queues are empty.  Arrival classes must already be checked.  Bit c-1
    of `nonempty` is set while class c's queue holds a packet, so the top
    nonempty class is its bit length."""
    q = [0] * m
    nonempty = 0
    choices: list[int | None] = []
    for ev in events:
        if ev == SEND:
            if nonempty:
                c = nonempty.bit_length()
                q[c - 1] -= 1
                if not q[c - 1]:
                    nonempty ^= 1 << c - 1
                choices.append(c)
            else:
                choices.append(None)
        elif q[ev - 1] < caps[ev - 1]:
            q[ev - 1] += 1
            nonempty |= 1 << ev - 1
    return choices


def _run(trace: Trace, caps: QueueCapacities, profile: ValueProfile,
         choices: tuple[int | None, ...]) -> Ledger:
    """Replay one class choice per send over checked inputs, validating
    diligence at each send, and record the ledger."""
    m = profile.m
    B = caps.caps
    acc, tx, q = [0] * m, [0] * m, [0] * m
    # the three vectors after every event, null entry first: row h-1 is flat[h-1::m]
    acc_flat, tx_flat, q_flat = [0] * m, [0] * m, [0] * m
    send_i = 0

    for ev in trace.events:
        if ev == SEND:
            cls = choices[send_i]
            if cls is None:
                if any(q):
                    raise DiligenceViolation(send_i, "idle while a queue is nonempty")
            elif not 1 <= cls <= m:
                raise DiligenceViolation(send_i, f"class {cls} out of range")
            elif q[cls - 1] == 0:
                raise DiligenceViolation(send_i, f"class {cls} queue is empty")
            else:
                q[cls - 1] -= 1
                tx[cls - 1] += 1
            send_i += 1
        elif q[ev - 1] < B[ev - 1]:
            q[ev - 1] += 1
            acc[ev - 1] += 1
        acc_flat.extend(acc)
        tx_flat.extend(tx)
        q_flat.extend(q)

    rows = [tuple(flat[h::m]) for flat in (acc_flat, tx_flat, q_flat) for h in range(m)]
    return Ledger(tuple(rows[:m]), tuple(rows[m : 2 * m]), tuple(rows[2 * m :]),
                  profile.benefit(tx))


def run_greedy(
    trace: Trace, caps: QueueCapacities, profile: ValueProfile
) -> tuple[Ledger, Schedule]:
    """Simulate the greedy policy: replay `greedy_schedule`, checking diligence."""
    check_inputs(trace, caps, profile)
    schedule = Schedule(tuple(greedy_schedule(trace.events, caps.caps, profile.m)))
    return _run(trace, caps, profile, schedule.choices), schedule


def replay_schedule(
    trace: Trace, caps: QueueCapacities, profile: ValueProfile, schedule: Schedule
) -> Ledger:
    """Replay an explicit diligent schedule, validating diligence at each send."""
    check_inputs(trace, caps, profile)
    if len(schedule.choices) != trace.sends:
        raise MQSimError(f"schedule has {len(schedule.choices)} choices for {trace.sends} sends")
    return _run(trace, caps, profile, schedule.choices)


def greedy_transmit_counts(events: tuple[int, ...], caps: tuple[int, ...], m: int) -> list[int]:
    """Per-class transmission counts of greedy, without building a ledger."""
    choices = greedy_schedule(events, caps, m)
    return list(map(choices.count, range(1, m + 1)))


def ledger_to_tsv(trace: Trace, ledger: Ledger) -> str:
    """Tab-separated per-event dump: index, event kind, action, A, delta, q.

    Each action is read off the counter its event moved: an arrival of class c
    is `accept c` when class c's accepted count rose, else `reject c`; a send
    is `transmit c` for the class whose transmitted count rose, else `idle`.
    """
    acc, tx, q = (list(zip(*rows)) for rows in ledger[:3])  # one tuple per column
    lines = ["# event\tkind\taction\tA\tdelta\tq"]
    for i, ev in enumerate((None, *trace.events)):
        if ev is None:
            kind, action = "init", "idle"
        elif ev == SEND:
            rose = list(map(lt, tx[i - 1], tx[i]))
            kind, action = "send", f"transmit {rose.index(True) + 1}" if True in rose else "idle"
        else:
            took = acc[i - 1][ev - 1] < acc[i][ev - 1]
            kind, action = f"arrive {ev}", f"{'accept' if took else 'reject'} {ev}"
        counts = (",".join(map(str, col[i])) for col in (acc, tx, q))
        lines.append("\t".join([str(i), kind, action, *counts]))
    return "\n".join(lines) + "\n"
