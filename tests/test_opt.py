from __future__ import annotations

import random

import pytest

from conftest import replay_all
from mqsim.engine import Schedule, replay_schedule, run_greedy
from mqsim.model import (
    QueueCapacities,
    SEND,
    Trace,
    append_drain,
    parse_trace,
    validate_profile,
)
from mqsim.opt import (
    DEFAULT_STATE_CAP,
    StateSpaceExceeded,
    _state_space,
    opt_bruteforce,
    opt_search,
)


def random_drained_trace(rng, m, max_len=12):
    events = tuple(
        rng.randint(1, m) if rng.random() < 0.5 else SEND
        for _ in range(rng.randint(0, max_len))
    )
    return append_drain(Trace(events))


class TestOptSearch:
    def test_witness(self, two_class, witness):
        profile, caps = two_class
        result = opt_search(witness, caps, profile)
        assert result.benefit == 4
        assert result.schedule == Schedule((1, 2, 1))

    def test_zero_arrivals(self, two_class):
        profile, caps = two_class
        result = opt_search(Trace((SEND, SEND)), caps, profile)
        assert result.benefit == 0
        assert result.schedule == Schedule((None, None))

    def test_single_arrival(self, two_class):
        profile, caps = two_class
        result = opt_search(parse_trace("A 1\nS\n"), caps, profile)
        assert result.benefit == profile.value(1)
        assert result.schedule == Schedule((1,))

    @pytest.mark.parametrize("values, raw, schedule", [
        ((1, 2), "A 1\nA 2\nS\nS\n", (2, 1)),
        ((1, 2, 5), "A 1\nA 2\nA 3\nS\nS\nS\n", (3, 2, 1)),
    ])
    def test_ties_go_to_the_highest_class(self, values, raw, schedule):
        # every arrival is accepted and sent whatever the order, so every
        # order earns the same benefit and the tie-break alone picks it
        profile = validate_profile(values)
        caps = QueueCapacities((1,) * profile.m)
        result = opt_search(parse_trace(raw), caps, profile)
        assert result.benefit == sum(profile.values)
        assert result.schedule == Schedule(schedule)

    def test_requires_drained(self, two_class):
        profile, caps = two_class
        with pytest.raises(ValueError):
            opt_search(Trace((1,)), caps, profile)

    def test_state_cap(self, two_class, witness):
        profile, caps = two_class
        with pytest.raises(StateSpaceExceeded) as exc:
            opt_search(witness, caps, profile, state_cap=10)
        assert exc.value.limit == 10

    def test_deterministic(self, three_class):
        profile, caps = three_class
        trace = append_drain(parse_trace("A 1\nA 2\nA 3\nS\nA 1\nS\nA 2\nS\n"))
        first = opt_search(trace, caps, profile)
        second = opt_search(trace, caps, profile)
        assert first == second

    def test_replay_reproduces_benefit(self):
        rng = random.Random(31)
        profile = validate_profile((1, 2, 5))
        caps = QueueCapacities((1, 2, 1))
        for _ in range(120):
            trace = random_drained_trace(rng, 3)
            result = opt_search(trace, caps, profile)
            ledger = replay_schedule(trace, caps, profile, result.schedule)
            assert ledger.benefit_transmitted == result.benefit

    def test_dominates_greedy(self):
        rng = random.Random(32)
        profile = validate_profile((1, 3, 4, 10))
        caps = QueueCapacities((2, 1, 2, 1))
        for _ in range(120):
            trace = random_drained_trace(rng, 4)
            greedy_ledger, _ = run_greedy(trace, caps, profile)
            assert opt_search(trace, caps, profile).benefit >= greedy_ledger.benefit_transmitted

    def test_top_class_acceptance_matches_greedy(self):
        # The high-class tie-break keeps the returned schedule's top-class
        # acceptances equal to greedy's; the top-class deficit is zero.
        rng = random.Random(33)
        for values, caps_t in [((1, 2), (1, 1)), ((1, 2, 5), (1, 1, 1))]:
            profile = validate_profile(values)
            caps = QueueCapacities(caps_t)
            for _ in range(150):
                trace = random_drained_trace(rng, profile.m)
                result = opt_search(trace, caps, profile)
                ledger = replay_schedule(trace, caps, profile, result.schedule)
                greedy_ledger, _ = run_greedy(trace, caps, profile)
                assert ledger.accepted[-1][-1] == greedy_ledger.accepted[-1][-1]


class TestWideFieldGuard:
    # Values (1, 10**600) at caps (4, 3): 20 states, so a 60,017-event trace
    # is 1.2 M cells of one word each, far under the default cap.  But each
    # field is 2,011 bits wide, so the guard charges 32 words per cell.  Only
    # the 20-state space is ever built here.
    profile = validate_profile(("1", str(10**600)))
    caps = QueueCapacities((4, 3))
    n = 60_017
    needed = 20 * n * 32

    def test_wide_fields_exceed_the_default_cap(self):
        trace = Trace((2,) * 30_008 + (SEND,) * 30_009)
        assert 20 * self.n <= DEFAULT_STATE_CAP < self.needed
        with pytest.raises(StateSpaceExceeded) as exc:
            opt_search(trace, self.caps, self.profile)
        assert (exc.value.needed, exc.value.limit) == (self.needed, DEFAULT_STATE_CAP)

    def test_guard_counts_words_exactly(self):
        _state_space(self.caps.caps, self.profile.weights, self.n, state_cap=self.needed)
        with pytest.raises(StateSpaceExceeded):
            _state_space(self.caps.caps, self.profile.weights, self.n, state_cap=self.needed - 1)

    def test_short_trace_with_the_same_weights_passes(self):
        trace = append_drain(parse_trace("A 1\nA 2\nA 2\nS\nA 1\nA 2\nS\nA 2\n"))
        result = opt_search(trace, self.caps, self.profile)
        assert result.benefit == opt_bruteforce(trace, self.caps, self.profile)
        assert result.benefit == 2 + 4 * 10**600


class TestBruteforce:
    def test_witness(self, two_class, witness):
        profile, caps = two_class
        assert opt_bruteforce(witness, caps, profile) == 4

    def test_forced_schedule(self, two_class):
        profile, caps = two_class
        assert opt_bruteforce(parse_trace("A 2\nS\n"), caps, profile) == 2

    def test_capacity_two_single_send(self):
        profile = validate_profile((1, 2))
        caps = QueueCapacities((2, 1))
        assert opt_bruteforce(parse_trace("A 1\nA 1\nS\n"), caps, profile) == 1

    def test_agrees_with_search_random(self):
        rng = random.Random(35)
        for values, caps_t in [((1, 2), (1, 1)), ((1, 2, 5), (1, 1, 1))]:
            profile = validate_profile(values)
            caps = QueueCapacities(caps_t)
            for _ in range(80):
                trace = random_drained_trace(rng, profile.m, max_len=8)
                assert opt_bruteforce(trace, caps, profile) == opt_search(
                    trace, caps, profile
                ).benefit


class TestOptimalScheduleScan:
    def test_every_optimum_keeps_top_class_on_small_traces(self, two_class):
        # Scan all diligent schedules of small traces: benefit-equal optima
        # with fewer top-class acceptances than greedy would be a notable
        # finding; none exist in this range, and the returned schedule always
        # matches greedy's top-class count.
        profile, caps = two_class
        rng = random.Random(36)
        findings = 0
        for _ in range(25):
            trace = random_drained_trace(rng, 2, max_len=6)
            best = opt_search(trace, caps, profile)
            greedy_ledger, _ = run_greedy(trace, caps, profile)
            returned = replay_schedule(trace, caps, profile, best.schedule)
            assert returned.accepted[-1][-1] == greedy_ledger.accepted[-1][-1]
            for _, ledger in replay_all(trace, caps, profile):
                if ledger.benefit_transmitted == best.benefit:
                    if ledger.accepted[-1][-1] < greedy_ledger.accepted[-1][-1]:
                        findings += 1
        assert findings == 0
