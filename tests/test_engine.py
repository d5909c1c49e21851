from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import ledger_oracle as oracle
from conftest import columns, instances, last, replay_all
from mqsim.engine import (
    ClassOutOfRange,
    DiligenceViolation,
    Ledger,
    Schedule,
    greedy_schedule,
    greedy_transmit_counts,
    ledger_to_tsv,
    replay_schedule,
    run_greedy,
)
from mqsim.model import (
    MQSimError,
    QueueCapacities,
    SEND,
    Trace,
    append_drain,
    parse_trace,
    validate_profile,
)


def random_drained_trace(rng, m, max_len=12):
    events = tuple(
        rng.randint(1, m) if rng.random() < 0.5 else SEND
        for _ in range(rng.randint(0, max_len))
    )
    return append_drain(Trace(events))


def dumped_actions(trace, ledger):
    """The action column of `ledger_to_tsv`, the null entry's first."""
    return [line.split("\t")[2] for line in ledger_to_tsv(trace, ledger).splitlines()[1:]]


class TestGreedyWitness:
    def test_benefit_and_actions(self, two_class, witness):
        profile, caps = two_class
        ledger, schedule = run_greedy(witness, caps, profile)
        assert ledger.benefit_transmitted == 3
        actions = dumped_actions(witness, ledger)[1:]
        assert actions == [
            "accept 1",
            "accept 2",
            "transmit 2",
            "reject 1",
            "transmit 1",
            "idle",
        ]
        assert schedule.choices == (2, 1, None)

    def test_initial_null_entry(self, two_class, witness):
        profile, caps = two_class
        ledger, _ = run_greedy(witness, caps, profile)
        assert {len(row) for rows in ledger[:3] for row in rows} == {len(witness.events) + 1}
        accepted, transmitted, occupancy = columns(ledger)[0]
        assert accepted == transmitted == occupancy == (0, 0)

    def test_highest_class_served_first(self, two_class):
        profile, caps = two_class
        trace = parse_trace("A 1\nA 2\nS\n")
        ledger, _ = run_greedy(trace, caps, profile)
        assert dumped_actions(trace, ledger)[3] == "transmit 2"


class TestGreedyBasics:
    def test_zero_arrivals_all_idle(self, two_class):
        profile, caps = two_class
        trace = Trace((SEND, SEND, SEND))
        ledger, schedule = run_greedy(trace, caps, profile)
        assert ledger.benefit_transmitted == 0
        assert all(action == "idle" for action in dumped_actions(trace, ledger)[1:])
        assert schedule.choices == (None, None, None)

    def test_class_out_of_range(self, two_class):
        profile, caps = two_class
        with pytest.raises(ClassOutOfRange):
            run_greedy(Trace((3,)), caps, profile)

    def test_caps_length_mismatch(self, two_class):
        profile, _ = two_class
        with pytest.raises(MQSimError):
            run_greedy(Trace((1,)), QueueCapacities((1, 1, 1)), profile)


class TestLedgerInvariants:
    def test_a_ledger_is_its_rows(self):
        assert Ledger._fields == ("accepted", "transmitted", "occupancy", "benefit_transmitted")

    def test_conservation_everywhere(self):
        rng = random.Random(21)
        profile = validate_profile((1, 2, 5))
        caps = QueueCapacities((2, 1, 1))
        for _ in range(150):
            trace = random_drained_trace(rng, 3)
            ledger, _ = run_greedy(trace, caps, profile)
            for accepted, transmitted, occupancy in columns(ledger):
                for h in range(3):
                    assert accepted[h] == transmitted[h] + occupancy[h]
                    assert 0 <= occupancy[h] <= caps.caps[h]

    def test_monotone_counters_step_at_most_one(self):
        rng = random.Random(22)
        profile = validate_profile((1, 2))
        caps = QueueCapacities((1, 2))
        for _ in range(150):
            trace = random_drained_trace(rng, 2)
            ledger, _ = run_greedy(trace, caps, profile)
            entries = columns(ledger)
            for (prev_acc, prev_tx, _), (acc, tx, _) in zip(entries, entries[1:]):
                assert all(c >= p for c, p in zip(acc, prev_acc))
                assert all(c >= p for c, p in zip(tx, prev_tx))
                assert sum(acc) - sum(prev_acc) in (0, 1)
                assert sum(tx) - sum(prev_tx) in (0, 1)

    def test_diligence_of_greedy(self):
        # Never idle while nonempty; never reject with a vacancy.
        rng = random.Random(23)
        profile = validate_profile((1, 2, 5))
        caps = QueueCapacities((1, 1, 2))
        for _ in range(150):
            trace = random_drained_trace(rng, 3)
            ledger, _ = run_greedy(trace, caps, profile)
            # each action against the occupancy just before it
            for (_, _, prev_occ), action in zip(columns(ledger), dumped_actions(trace, ledger)[1:]):
                if action == "idle":
                    assert all(q == 0 for q in prev_occ)
                if action.startswith("reject"):
                    cls = int(action.split()[1])
                    assert prev_occ[cls - 1] == caps.caps[cls - 1]

    def test_drained_accept_equals_transmit(self):
        rng = random.Random(24)
        profile = validate_profile((1, 2))
        caps = QueueCapacities((2, 1))
        for _ in range(100):
            trace = random_drained_trace(rng, 2)
            ledger, _ = run_greedy(trace, caps, profile)
            assert last(ledger.accepted) == last(ledger.transmitted)


class TestReplay:
    def test_round_trip_reproduces_greedy(self, two_class, witness):
        profile, caps = two_class
        ledger, schedule = run_greedy(witness, caps, profile)
        assert replay_schedule(witness, caps, profile, schedule) == ledger

    def test_optimal_schedule_benefit(self, two_class, witness):
        # (1, 2, 1) is the best diligent schedule of the witness: benefit 4.
        profile, caps = two_class
        ledger = replay_schedule(witness, caps, profile, Schedule((1, 2, 1)))
        assert ledger.benefit_transmitted == 4

    def test_idle_while_nonempty_rejected(self, two_class):
        profile, caps = two_class
        trace = parse_trace("A 1\nS\n")
        with pytest.raises(DiligenceViolation) as exc:
            replay_schedule(trace, caps, profile, Schedule((None,)))
        assert exc.value.send_index == 0

    def test_empty_class_rejected(self, two_class):
        profile, caps = two_class
        trace = parse_trace("A 1\nS\n")
        with pytest.raises(DiligenceViolation):
            replay_schedule(trace, caps, profile, Schedule((2,)))

    def test_length_mismatch_rejected(self, two_class, witness):
        profile, caps = two_class
        with pytest.raises(MQSimError):
            replay_schedule(witness, caps, profile, Schedule((1,)))


class TestGreedyDominance:
    def test_top_class_acceptances_maximal(self, two_class, witness):
        # At every event greedy has accepted at least as many top-class
        # packets as any diligent schedule.
        profile, caps = two_class
        greedy_ledger, _ = run_greedy(witness, caps, profile)
        for _, ledger in replay_all(witness, caps, profile):
            for g, o in zip(greedy_ledger.accepted[-1], ledger.accepted[-1]):
                assert g >= o

    def test_against_all_schedules_small_traces(self):
        profile = validate_profile((1, 2))
        caps = QueueCapacities((1, 1))
        rng = random.Random(25)
        for _ in range(20):
            trace = random_drained_trace(rng, 2, max_len=5)
            greedy_ledger, _ = run_greedy(trace, caps, profile)
            for _, ledger in replay_all(trace, caps, profile):
                for g, o in zip(greedy_ledger.accepted[-1], ledger.accepted[-1]):
                    assert g >= o


class TestFastPath:
    # greedy's one rule against the two loops it replaced, kept in the oracle
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(instances(max_cap=4, max_len=16))
    def test_matches_ledger(self, instance):
        profile, caps, trace = instance
        m = profile.m
        _, expected = oracle.run_entries(trace, caps, profile, None)
        assert tuple(greedy_schedule(trace.events, caps.caps, m)) == expected.choices
        counts = greedy_transmit_counts(trace.events, caps.caps, m)
        assert counts == oracle.transmit_counts(trace.events, caps.caps, m)
        assert tuple(counts) == last(run_greedy(trace, caps, profile)[0].transmitted)


class TestLedgerDump:
    def test_tsv_shape(self, two_class, witness):
        profile, caps = two_class
        ledger, _ = run_greedy(witness, caps, profile)
        dump = ledger_to_tsv(witness, ledger)
        lines = dump.strip().split("\n")
        assert lines[0].startswith("# event")
        assert len(lines) == len(witness.events) + 2  # header + null entry
        assert lines[1].split("\t") == ["0", "init", "idle", "0,0", "0,0", "0,0"]
        assert lines[4].split("\t") == ["3", "send", "transmit 2", "1,1", "0,1", "1,0"]

    def test_tsv_golden_witness(self, two_class, witness):
        # Full frozen dump: the export format is an interface, keep it stable.
        profile, caps = two_class
        ledger, _ = run_greedy(witness, caps, profile)
        assert ledger_to_tsv(witness, ledger) == (
            "# event\tkind\taction\tA\tdelta\tq\n"
            "0\tinit\tidle\t0,0\t0,0\t0,0\n"
            "1\tarrive 1\taccept 1\t1,0\t0,0\t1,0\n"
            "2\tarrive 2\taccept 2\t1,1\t0,0\t1,1\n"
            "3\tsend\ttransmit 2\t1,1\t0,1\t1,0\n"
            "4\tarrive 1\treject 1\t1,1\t0,1\t1,0\n"
            "5\tsend\ttransmit 1\t1,1\t1,1\t0,0\n"
            "6\tsend\tidle\t1,1\t1,1\t0,0\n"
        )
