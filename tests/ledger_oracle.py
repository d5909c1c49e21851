"""The per-event ledger path, kept as the oracle for the columnar one.

`run_entries` is the runner that built one frozen `LedgerEntry` per event,
with the `Action` taken at it and greedy's rule written into its send branch;
`transmit_counts` is the counting loop the searches used before both became
`engine.greedy_schedule`; `tsv` is the per-event dump that read those entries
before `engine.ledger_to_tsv` read the rows;
`surplus`, `check_conservation` and `check_surplus_monotonicity` are the
checkers that walked those entries; `suffix_sums`, `u_recursion`, `u_explicit`,
the end-of-trace checkers and `delta_chain` are the versions that recomputed
their tail sums per call, before `verify_all` derived them once and checked
whole rows; `verify_all_entries` is `verify_all` assembled from them.  The
differential tests assert that `mqsim.engine` and `mqsim.analysis` give the
same values, errors and verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import Sequence

from mqsim.analysis import (
    ComparativeReport,
    MTooSmall,
    Verdict,
    _coefficients,
    _Coefficients,
    _delta,
    u_candidates,
)
from mqsim.engine import DiligenceViolation, Schedule, check_inputs
from mqsim.model import MQSimError, QueueCapacities, SEND, Trace, ValueProfile, compute_c
from mqsim.opt import opt_search

ACCEPT = "accept"
REJECT = "reject"
TRANSMIT = "transmit"
IDLE = "idle"


@dataclass(frozen=True)
class Action:
    kind: str
    cls: int | None = None


@dataclass(frozen=True)
class LedgerEntry:
    """Cumulative counters just after one event, and the action taken at it."""

    event_index: int
    action: Action
    accepted: tuple[int, ...]
    transmitted: tuple[int, ...]
    occupancy: tuple[int, ...]


@dataclass(frozen=True)
class EntryLedger:
    entries: tuple[LedgerEntry, ...]
    benefit_transmitted: Fraction

    @property
    def final(self) -> LedgerEntry:
        return self.entries[-1]


def run_entries(
    trace: Trace,
    caps: QueueCapacities,
    profile: ValueProfile,
    schedule: Schedule | None,
) -> tuple[EntryLedger, Schedule]:
    check_inputs(trace, caps, profile)
    m = profile.m
    B = caps.caps
    if schedule is not None and len(schedule.choices) != trace.sends:
        raise MQSimError(
            f"schedule has {len(schedule.choices)} choices for {trace.sends} sends"
        )

    q = [0] * m
    acc = [0] * m
    tx = [0] * m
    zeros = (0,) * m
    entries = [LedgerEntry(0, Action(IDLE), zeros, zeros, zeros)]
    choices: list[int | None] = []
    send_i = 0

    for idx, ev in enumerate(trace.events, start=1):
        if ev == SEND:
            if schedule is None:
                cls = next((c for c in range(m, 0, -1) if q[c - 1]), None)
            else:
                cls = schedule.choices[send_i]
                if cls is None:
                    if any(q):
                        raise DiligenceViolation(send_i, "idle while a queue is nonempty")
                elif not 1 <= cls <= m:
                    raise DiligenceViolation(send_i, f"class {cls} out of range")
                elif q[cls - 1] == 0:
                    raise DiligenceViolation(send_i, f"class {cls} queue is empty")
            send_i += 1
            choices.append(cls)
            if cls is None:
                action = Action(IDLE)
            else:
                q[cls - 1] -= 1
                tx[cls - 1] += 1
                action = Action(TRANSMIT, cls)
        else:
            cls = ev
            if q[cls - 1] < B[cls - 1]:
                q[cls - 1] += 1
                acc[cls - 1] += 1
                action = Action(ACCEPT, cls)
            else:
                action = Action(REJECT, cls)
        entries.append(LedgerEntry(idx, action, tuple(acc), tuple(tx), tuple(q)))

    ledger = EntryLedger(tuple(entries), profile.benefit(tx))
    return ledger, Schedule(tuple(choices))


def tsv(trace: Trace, ledger: EntryLedger) -> str:
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


def transmit_counts(events: tuple[int, ...], caps: tuple[int, ...], m: int) -> list[int]:
    q = [0] * m
    tx = [0] * m
    for ev in events:
        if ev == SEND:
            for c in range(m - 1, -1, -1):
                if q[c]:
                    q[c] -= 1
                    tx[c] += 1
                    break
        elif q[ev - 1] < caps[ev - 1]:
            q[ev - 1] += 1
    return tx


def surplus(greedy: EntryLedger, opt: EntryLedger, counter: str):
    # per event: one reversed running sum gives sum(g[h-1:]) for h = 1..m-1
    columns = [
        map(sub, list(accumulate(reversed(getattr(ge, counter))))[:0:-1], getattr(oe, counter))
        for ge, oe in zip(greedy.entries, opt.entries)
    ]
    return tuple(zip(*columns))


def check_conservation(ledger: EntryLedger, name: str) -> Verdict:
    for entry in ledger.entries:
        for h in range(len(entry.accepted)):
            if entry.accepted[h] != entry.transmitted[h] + entry.occupancy[h]:
                return Verdict(name, False, h=h + 1, event=entry.event_index)
    return Verdict(name, True)


def check_surplus_monotonicity(trace, greedy: EntryLedger, opt: EntryLedger, xi):
    m = len(greedy.entries[0].accepted)
    sends = [0] + [i for i, ev in enumerate(trace.events, start=1) if ev == SEND]
    backlogged: Verdict | None = None
    opt_empty: Verdict | None = None
    for h in range(1, m):
        row = xi[h - 1]
        for j in range(1, len(sends)):
            prev, cur = sends[j - 1], sends[j]
            if j >= 2 and backlogged is None:
                if sum(greedy.entries[prev].occupancy[h - 1 :]) > 0 and row[cur] < row[prev]:
                    backlogged = Verdict(
                        "transmit_surplus_monotone_backlogged", False, h=h, event=cur
                    )
            if opt_empty is None:
                if opt.entries[prev].occupancy[h - 1] == 0 and row[cur] < row[prev]:
                    opt_empty = Verdict(
                        "transmit_surplus_monotone_opt_empty", False, h=h, event=cur
                    )
    if backlogged is None:
        backlogged = Verdict("transmit_surplus_monotone_backlogged", True)
    if opt_empty is None:
        opt_empty = Verdict("transmit_surplus_monotone_opt_empty", True)
    return backlogged, opt_empty


def check_aggregate_deficit(greedy: EntryLedger, opt: EntryLedger) -> Verdict:
    A = greedy.final.accepted
    Astar = opt.final.accepted
    for h in range(1, len(A) + 1):
        tail_a = sum(A[h - 1 :])
        tail_d = sum(Astar[h - 1 :]) - tail_a
        if tail_d > tail_a:
            return Verdict("aggregate_deficit_bound", False, h=h)
    return Verdict("aggregate_deficit_bound", True)


def matrix_nonneg(matrix, name: str) -> Verdict:
    for h, row in enumerate(matrix, 1):
        if min(row, default=0) < 0:
            flags = [0 <= x for x in row]
            return Verdict(name, False, h, flags.index(False))
    return Verdict(name, True)


def suffix_sums(A: Sequence[int]) -> tuple[int, ...]:
    return tuple(accumulate(reversed(A)))[::-1]


def check_D_bounds(D: Sequence[int], S: Sequence[int]) -> Verdict:
    m = len(D)
    for h in range(1, m):
        if D[h - 1] > S[h]:
            return Verdict("deficit_tail_bound", False, h)
    return Verdict("deficit_tail_bound", True)


def check_D_sum_bounds(D: Sequence[int], S: Sequence[int]) -> Verdict:
    m = len(D)
    for h in range(1, m - 1):
        if sum(D[h - 1 : m - 1]) > S[h - 1]:
            return Verdict("deficit_sum_bound", False, h)
    return Verdict("deficit_sum_bound", True)


def u_recursion(A: Sequence[int]) -> tuple[int, ...]:
    m = len(A)
    if m < 2:
        raise MTooSmall(f"need m >= 2, got {m}")
    S = suffix_sums(A)
    U = [0] * (m - 1)
    U[m - 2] = A[m - 1]
    for h in range(m - 2, 0, -1):
        U[h - 1] = min(A[h - 1], U[h]) + S[h]
    return tuple(U)


def u_explicit(A: Sequence[int]) -> tuple[int, ...]:
    m = len(A)
    if m < 2:
        raise MTooSmall(f"need m >= 2, got {m}")
    S = suffix_sums(A)
    return tuple(
        min(sum(S[idx - 1] for idx in cand) for cand in u_candidates(m, h))
        for h in range(1, m)
    )


def check_u_bounds(D: Sequence[int], U: Sequence[int]) -> Verdict:
    m = len(D)
    for h in range(1, m):
        if sum(D[h - 1 : m - 1]) > U[h - 1]:
            return Verdict("u_bounds_hold", False, h)
    return Verdict("u_bounds_hold", True)


def delta_chain(
    profile: ValueProfile, co: _Coefficients, A: Sequence[int], D: Sequence[int],
    U: Sequence[int], delta: Sequence[int],
) -> Verdict:
    m, w, p, q = profile.m, profile.weights, co.p, co.q
    name = "potential_chain"
    weighted_D = sum(x * d for x, d in zip(w[: m - 1], D))
    weighted_A = sum(x * a for x, a in zip(w, A))

    if m == 2:
        return Verdict(name, weighted_D <= w[0] * U[0] and q * w[0] * U[0] <= p * weighted_A)
    if not co.signs.ok or q * weighted_D > delta[0]:
        return Verdict(name, False)
    for h in range(1, m - 2):
        if delta[h - 1] > p * w[h - 1] * A[h - 1] + delta[h]:
            return Verdict(name, False, h)
    if delta[m - 3] > p * sum(x * a for x, a in zip(w[m - 3 :], A[m - 3 :])):
        return Verdict(name, False, m - 2)
    return Verdict(name, q * weighted_D <= p * weighted_A)


def check_ratio(o: Fraction, g: Fraction, bound: Fraction) -> tuple[Fraction, Verdict]:
    if g == 0:
        return Fraction(1), Verdict("ratio_bound", o == 0)
    ratio = o / g
    return ratio, Verdict("ratio_bound", ratio <= bound)


def verify_all_entries(
    trace: Trace, caps: QueueCapacities, profile: ValueProfile
) -> ComparativeReport:
    m = profile.m
    greedy_ledger, _ = run_entries(trace, caps, profile, None)
    opt_result = opt_search(trace, caps, profile)
    opt_ledger, _ = run_entries(trace, caps, profile, opt_result.schedule)

    xi = surplus(greedy_ledger, opt_ledger, "transmitted")
    phi = surplus(greedy_ledger, opt_ledger, "accepted")
    A = greedy_ledger.final.accepted
    Astar = opt_ledger.final.accepted
    D = tuple(a_star - a for a_star, a in zip(Astar, A))
    S = suffix_sums(A)
    U = u_recursion(A)
    report = compute_c(profile)
    co = _coefficients(profile, report.c_star)
    delta = _delta(co, U, S)
    g = greedy_ledger.benefit_transmitted
    o = opt_ledger.benefit_transmitted
    ratio, ratio_verdict = check_ratio(o, g, report.upper)
    backlogged, opt_empty = check_surplus_monotonicity(trace, greedy_ledger, opt_ledger, xi)
    verdicts = [
        check_conservation(greedy_ledger, "conservation_greedy"),
        check_conservation(opt_ledger, "conservation_opt"),
        matrix_nonneg(xi, "transmit_surplus_nonneg"),
        backlogged,
        opt_empty,
        matrix_nonneg(phi, "accept_surplus_nonneg"),
        check_aggregate_deficit(greedy_ledger, opt_ledger),
        Verdict("top_class_equal", A[m - 1] == Astar[m - 1]),
        check_D_bounds(D, S),
        check_D_sum_bounds(D, S),
        check_u_bounds(D, U),
        Verdict("u_forms_agree", U == u_explicit(A)),
        co.signs,
        delta_chain(profile, co, A, D, U, delta),
        ratio_verdict,
    ]
    return ComparativeReport(
        m=m, xi=xi, phi=phi, D=D, S=S, U=U,
        delta=tuple(Fraction(x, co.q * profile.scale) for x in delta),
        greedy_benefit=g, opt_benefit=o, ratio=ratio, bound=report.upper,
        verdicts={v.name: v for v in verdicts},
    )
