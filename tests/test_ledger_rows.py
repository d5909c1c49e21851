"""The columnar ledger against the per-event oracle, and checkers shown to fail.

`ledger_oracle` keeps the runner that built one `LedgerEntry` per event and
the checkers that walked those entries.  The differential test replays greedy,
random diligent schedules and broken schedules through both paths and
compares every value, error and verdict; on drained traces it compares whole
`verify_all` reports.  The falsifiability tests build ledgers straight from
rows, so that each conservation and monotonicity verdict comes back false at
a known (h, e).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ledger_oracle as oracle
from conftest import instances
from mqsim.analysis import (
    _check_conservation,
    check_aggregate_deficit,
    check_surplus_monotonicity,
    compute_phi,
    compute_xi,
    verify_all,
)
from mqsim.engine import IDLE, Action, Ledger, Schedule, replay_schedule, run_greedy
from mqsim.model import MQSimError, SEND, Trace


def diligent_schedule(draw, trace, caps, m):
    """A schedule drawn one send at a time among the classes that are nonempty."""
    q = [0] * m
    choices = []
    for ev in trace.events:
        if ev != SEND:
            q[ev - 1] += q[ev - 1] < caps.caps[ev - 1]
            continue
        nonempty = [c for c in range(1, m + 1) if q[c - 1]]
        cls = draw(st.sampled_from(nonempty)) if nonempty else None
        if cls is not None:
            q[cls - 1] -= 1
        choices.append(cls)
    return Schedule(tuple(choices))


def outcome(run):
    """The ledger and schedule a run returns, or its error's type, text and send index."""
    try:
        return run()
    except MQSimError as exc:
        return type(exc), str(exc), getattr(exc, "send_index", None)


def same_ledger(ledger: Ledger, expected: oracle.EntryLedger):
    assert ledger.entries == expected.entries
    assert ledger.final == expected.final
    assert ledger.benefit_transmitted == expected.benefit_transmitted
    assert ledger.benefit_accepted == expected.benefit_accepted


def same_checks(trace, greedy, opt, greedy_o, opt_o):
    xi = compute_xi(greedy, opt)
    assert xi == oracle.surplus(greedy_o, opt_o, "transmitted")
    assert compute_phi(greedy, opt) == oracle.surplus(greedy_o, opt_o, "accepted")
    for ledger, expected in ((greedy, greedy_o), (opt, opt_o)):
        assert _check_conservation(ledger, "c") == oracle.check_conservation(expected, "c")
    assert check_surplus_monotonicity(trace, greedy, opt, xi) == (
        oracle.check_surplus_monotonicity(trace, greedy_o, opt_o, xi))
    assert check_aggregate_deficit(greedy, opt) == oracle.check_aggregate_deficit(greedy_o, opt_o)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(instances(), st.data())
def test_rows_match_entry_oracle(instance, data):
    profile, caps, trace = instance
    m = profile.m
    greedy, greedy_schedule = run_greedy(trace, caps, profile)
    greedy_o, greedy_schedule_o = oracle.run_entries(trace, caps, profile, None)
    same_ledger(greedy, greedy_o)
    assert greedy_schedule == greedy_schedule_o

    schedule = diligent_schedule(data.draw, trace, caps, m)
    other = replay_schedule(trace, caps, profile, schedule)
    other_o, _ = oracle.run_entries(trace, caps, profile, schedule)
    same_ledger(other, other_o)
    same_checks(trace, greedy, other, greedy_o, other_o)
    same_checks(trace, other, greedy, other_o, greedy_o)

    choices = list(schedule.choices)
    if choices and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(choices) - 1))
        choices[at] = data.draw(st.sampled_from([None, *range(0, m + 2)]))
    else:
        choices = choices[:-1] if choices else [1]
    broken = Schedule(tuple(choices))
    got = outcome(lambda: replay_schedule(trace, caps, profile, broken))
    want = outcome(lambda: oracle.run_entries(trace, caps, profile, broken)[0])
    if isinstance(got, Ledger):
        same_ledger(got, want)
    else:
        assert got == want

    if trace.drained:
        report = verify_all(trace, caps, profile)
        expected = oracle.verify_all_entries(trace, caps, profile)
        assert report == expected
        assert report.verdicts == expected.verdicts
        assert report.verdict_lines() == expected.verdict_lines()


def rows_ledger(occupancy, accepted=None, transmitted=None):
    """A ledger holding the given rows (counters default to all zero)."""
    zeros = tuple(tuple(0 for _ in row) for row in occupancy)
    n = len(occupancy[0]) - 1
    return Ledger(accepted or zeros, transmitted or zeros, occupancy, (Action(IDLE),) * n,
                  Fraction(0), Fraction(0))


class TestConservationFalsifiable:
    # accepted = transmitted + occupancy is broken at (h=2, e=2) and (h=1, e=3);
    # the verdict names the first event, then its lowest class
    ACCEPTED = ((0, 1, 1, 1), (0, 0, 0, 0))
    TRANSMITTED = ((0, 0, 0, 0), (0, 0, 0, 0))
    OCCUPANCY = ((0, 1, 1, 0), (0, 0, 1, 0))

    @pytest.mark.parametrize("name", ["conservation_greedy", "conservation_opt"])
    def test_first_break_is_reported(self, name):
        ledger = rows_ledger(self.OCCUPANCY, self.ACCEPTED, self.TRANSMITTED)
        verdict = _check_conservation(ledger, name)
        assert verdict.line() == f"verdict {name} false h=2 e=2"

    def test_lowest_class_at_the_first_event(self):
        occupancy = ((0, 1, 0, 1), (0, 0, 1, 0))  # both classes break at e=2
        verdict = _check_conservation(rows_ledger(occupancy, self.ACCEPTED), "conservation_opt")
        assert (verdict.ok, verdict.h, verdict.event) == (False, 1, 2)

    def test_consistent_rows_hold(self):
        occupancy = ((0, 1, 1, 0), (0, 0, 0, 0))
        transmitted = ((0, 0, 0, 1), (0, 0, 0, 0))
        ledger = rows_ledger(occupancy, self.ACCEPTED, transmitted)
        assert _check_conservation(ledger, "conservation_greedy").ok


class TestMonotonicityFalsifiable:
    # three sends: the send pairs are (0, 1), (1, 2) and (2, 3)
    TRACE = Trace((SEND, SEND, SEND))
    NONE = ((0, 0, 0, 0),) * 3

    def verdicts(self, xi, greedy_occ, opt_occ):
        return check_surplus_monotonicity(
            self.TRACE, rows_ledger(greedy_occ), rows_ledger(opt_occ), xi)

    def test_backlogged_drop(self):
        # xi_2 drops from event 1 to 2 while greedy buffers class 3 and the
        # optimum's class-2 queue is not empty
        xi = ((0, 0, 0, 0), (0, 1, 0, 0))
        greedy_occ = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0))
        opt_occ = ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0))
        backlogged, opt_empty = self.verdicts(xi, greedy_occ, opt_occ)
        assert backlogged.line() == "verdict transmit_surplus_monotone_backlogged false h=2 e=2"
        assert opt_empty.ok

    def test_opt_empty_drop(self):
        # xi_1 drops from event 2 to 3 while the optimum's class-1 queue is empty
        xi = ((0, 0, 0, -1), (0, 0, 0, 0))
        backlogged, opt_empty = self.verdicts(xi, self.NONE, self.NONE)
        assert opt_empty.line() == "verdict transmit_surplus_monotone_opt_empty false h=1 e=3"
        assert backlogged.ok

    def test_first_pair_is_exempt_from_backlogged(self):
        # a drop between the null event and the first send counts only for opt_empty
        xi = ((1, 0, 0, 0), (0, 0, 0, 0))
        greedy_occ = ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
        backlogged, opt_empty = self.verdicts(xi, greedy_occ, self.NONE)
        assert backlogged.ok
        assert (opt_empty.ok, opt_empty.h, opt_empty.event) == (False, 1, 1)
