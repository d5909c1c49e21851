"""Deterministic simulation of diligent policies over a trace.

One replay loop checks diligence and records the per-event ledger, as
per-class rows, for any schedule.  `greedy_schedule` is the only place the
online greedy policy is written: it yields the schedule that always transmits
from the highest-indexed nonempty queue, which `run_greedy` replays and the
searches count.  Admission is never a choice: a diligent policy accepts
exactly when the destination queue has a vacancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, repeat
from typing import NamedTuple

from .model import MQSimError, QueueCapacities, SEND, Trace, ValueProfile

ACCEPT = "accept"
REJECT = "reject"
TRANSMIT = "transmit"
IDLE = "idle"


class ClassOutOfRange(MQSimError):
    pass


class DiligenceViolation(MQSimError):
    def __init__(self, send_index: int, message: str):
        super().__init__(f"send {send_index}: {message}")
        self.send_index = send_index


@dataclass(frozen=True)
class Action:
    kind: str
    cls: int | None = None


_IDLE = Action(IDLE)


@dataclass(frozen=True)
class LedgerEntry:
    """Cumulative counters just after one event.

    `accepted[h-1]` / `transmitted[h-1]` / `occupancy[h-1]` are the class-h
    acceptance count, transmission count, and queue occupancy; the
    conservation identity accepted = transmitted + occupancy holds per class
    at every entry.
    """

    event_index: int
    action: Action
    accepted: tuple[int, ...]
    transmitted: tuple[int, ...]
    occupancy: tuple[int, ...]


class Ledger(NamedTuple):  # not a frozen dataclass: that costs ~0.5 ms more per import
    """Per-event history of one diligent policy, as per-class integer rows.

    Row h-1 of `accepted` / `transmitted` / `occupancy` holds class h's count
    after each event: column 0 is the initial null entry (all zero), column i
    the state just after the i-th trace event.  The occupancy rows record the
    runner's own queue vector, not accepted - transmitted, so the conservation
    check tests the queue against the counters.  `actions[i-1]` is what the
    policy did at event i, from one set of `Action`s shared per m.  `entries`
    and `final` are per-event `LedgerEntry` views built from the rows on
    demand.  On a drained trace the two benefit figures coincide.
    """

    accepted: tuple[tuple[int, ...], ...]
    transmitted: tuple[tuple[int, ...], ...]
    occupancy: tuple[tuple[int, ...], ...]
    actions: tuple[Action, ...]
    benefit_transmitted: Fraction
    benefit_accepted: Fraction

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(map(LedgerEntry, count(), (_IDLE,) + self.actions, zip(*self.accepted),
                         zip(*self.transmitted), zip(*self.occupancy)))

    @property
    def final(self) -> LedgerEntry:
        return self.entries[-1]


@dataclass(frozen=True)
class Schedule:
    """One class choice (or None for idle) per send event of a trace."""

    choices: tuple[int | None, ...]

    def to_text(self) -> str:
        return ",".join("-" if c is None else str(c) for c in self.choices)

    @classmethod
    def from_text(cls, text: str) -> "Schedule":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(None if t == "-" else int(t) for t in text.split(",")))


def check_inputs(trace: Trace, caps: QueueCapacities, profile: ValueProfile) -> None:
    """Reject mismatched dimensions or arrival classes outside the profile."""
    if caps.m != profile.m:
        raise MQSimError(f"{caps.m} capacities given for {profile.m} classes")
    if trace.max_class > profile.m:
        raise ClassOutOfRange(
            f"trace arrives class {trace.max_class} but profile has m={profile.m}"
        )


@lru_cache(maxsize=64)
def _actions(kind: str, m: int) -> tuple[Action | None, ...]:
    """The `kind` actions of classes 1..m (index = class), shared by every ledger."""
    return (None, *map(Action, repeat(kind), range(1, m + 1)))


def greedy_schedule(events: tuple[int, ...], caps: tuple[int, ...], m: int) -> list[int | None]:
    """Greedy's class at each send (None: idle): accept whenever there is a
    vacancy, transmit from the highest-indexed nonempty queue, idle only when
    all queues are empty.  Arrival classes must already be checked."""
    q = [0] * m
    choices: list[int | None] = []
    for ev in events:
        if ev == SEND:
            for c in range(m - 1, -1, -1):
                if q[c]:
                    q[c] -= 1
                    choices.append(c + 1)
                    break
            else:
                choices.append(None)
        elif q[ev - 1] < caps[ev - 1]:
            q[ev - 1] += 1
    return choices


def _run(trace: Trace, caps: QueueCapacities, profile: ValueProfile,
         choices: tuple[int | None, ...]) -> Ledger:
    """Replay one class choice per send over checked inputs, validating
    diligence at each send, and record the ledger."""
    m = profile.m
    B = caps.caps
    accept, reject, transmit = _actions(ACCEPT, m), _actions(REJECT, m), _actions(TRANSMIT, m)
    acc, tx, q = [0] * m, [0] * m, [0] * m
    # the three vectors after every event, null entry first: row h-1 is flat[h-1::m]
    acc_flat, tx_flat, q_flat = [0] * m, [0] * m, [0] * m
    actions: list[Action] = []
    send_i = 0

    for ev in trace.events:
        if ev == SEND:
            cls = choices[send_i]
            if cls is None:
                if any(q):
                    raise DiligenceViolation(send_i, "idle while a queue is nonempty")
                actions.append(_IDLE)
            elif not 1 <= cls <= m:
                raise DiligenceViolation(send_i, f"class {cls} out of range")
            elif q[cls - 1] == 0:
                raise DiligenceViolation(send_i, f"class {cls} queue is empty")
            else:
                q[cls - 1] -= 1
                tx[cls - 1] += 1
                actions.append(transmit[cls])
            send_i += 1
        elif q[ev - 1] < B[ev - 1]:
            q[ev - 1] += 1
            acc[ev - 1] += 1
            actions.append(accept[ev])
        else:
            actions.append(reject[ev])
        acc_flat.extend(acc)
        tx_flat.extend(tx)
        q_flat.extend(q)

    rows = [tuple(flat[h::m]) for flat in (acc_flat, tx_flat, q_flat) for h in range(m)]
    benefit = profile.benefit(tx)  # a drained trace ends with accepted == transmitted
    return Ledger(tuple(rows[:m]), tuple(rows[m : 2 * m]), tuple(rows[2 * m :]),
                  tuple(actions), benefit, benefit if acc == tx else profile.benefit(acc))


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
    """Tab-separated per-event dump: index, event kind, action, A, delta, q."""
    lines = ["# event\tkind\taction\tA\tdelta\tq"]
    for entry in ledger.entries:
        ev = trace.events[entry.event_index - 1] if entry.event_index else None
        kind = "init" if ev is None else "send" if ev == SEND else f"arrive {ev}"
        action = entry.action.kind + ("" if entry.action.cls is None else f" {entry.action.cls}")
        lines.append("\t".join([str(entry.event_index), kind, action,
                                ",".join(map(str, entry.accepted)),
                                ",".join(map(str, entry.transmitted)),
                                ",".join(map(str, entry.occupancy))]))
    return "\n".join(lines) + "\n"
