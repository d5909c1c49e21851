from __future__ import annotations

import random
from fractions import Fraction

import pytest

import mqsim.adversary as adversary
from mqsim.adversary import (
    BoundFalsified,
    BudgetExceeded,
    SearchResult,
    exhaustive_worst,
    random_trace,
    random_worst,
)
from mqsim.analysis import verify_all
from mqsim.model import (
    BoundReport,
    MQSimError,
    QueueCapacities,
    SEND,
    compute_c,
    validate_profile,
)
from mqsim.opt import StateSpaceExceeded


class TestDimensions:
    # a caps vector of the wrong length is refused before the budget or the
    # state space is looked at (both caps below would otherwise raise first)
    @pytest.mark.parametrize("caps", [(1, 1), (1, 1, 1, 1)])
    def test_both_searches_check_dimensions_first(self, caps):
        profile, caps = validate_profile((1, 2, 5)), QueueCapacities(caps)
        message = f"^{caps.m} capacities given for 3 classes$"
        with pytest.raises(MQSimError, match=message) as exc:
            exhaustive_worst(profile, caps, 4, budget=1, state_cap=1)
        assert exc.type is MQSimError
        with pytest.raises(MQSimError, match=message) as exc:
            random_worst(profile, caps, 6, 50, 1, state_cap=1)
        assert exc.type is MQSimError


class TestSizes:
    # a size the search cannot use is refused by name, before the budget or
    # the state-space guard (which budget=1 and state_cap=1 would trip) runs
    @pytest.mark.parametrize("max_len, jobs, message", [
        (-3, 1, "max_len must be >= 0, got -3"),
        (4, 0, "jobs must be >= 1, got 0"),
        (4, -4, "jobs must be >= 1, got -4"),
    ])
    def test_exhaustive_rejects(self, two_class, max_len, jobs, message):
        profile, caps = two_class
        with pytest.raises(MQSimError, match=f"^{message}$") as exc:
            exhaustive_worst(profile, caps, max_len, budget=1, jobs=jobs, state_cap=1)
        assert exc.type is MQSimError

    @pytest.mark.parametrize("length, samples, message", [
        (-2, 5, "length must be >= 0, got -2"),
        (6, -5, "samples must be >= 0, got -5"),
    ])
    def test_random_rejects(self, two_class, length, samples, message):
        profile, caps = two_class
        with pytest.raises(MQSimError, match=f"^{message}$") as exc:
            random_worst(profile, caps, length, samples, 1, state_cap=1)
        assert exc.type is MQSimError


class TestExhaustive:
    def test_finds_witness_ratio(self, two_class):
        profile, caps = two_class
        result = exhaustive_worst(profile, caps, max_len=6)
        assert result.worst_ratio >= Fraction(4, 3)
        assert result.worst_ratio <= Fraction(3, 2)

    def test_witness_trace_achieves_reported_ratio(self, two_class):
        profile, caps = two_class
        result = exhaustive_worst(profile, caps, max_len=6)
        report = verify_all(result.worst_trace, caps, profile)
        assert report.ratio == result.worst_ratio
        assert report.verdicts["ratio_bound"].ok

    def test_max_len_zero(self, two_class):
        profile, caps = two_class
        result = exhaustive_worst(profile, caps, max_len=0)
        assert result.worst_ratio == 1
        assert result.worst_trace.events == ()

    def test_monotone_in_search_space(self, two_class):
        profile, caps = two_class
        previous = Fraction(0)
        for max_len in range(2, 7):
            result = exhaustive_worst(profile, caps, max_len=max_len)
            assert result.worst_ratio >= previous
            previous = result.worst_ratio

    def test_pruned_count_is_reproducible(self, two_class):
        # Pruning keeps the empty string plus strings that start with an
        # arrival and end with a send: 1 + sum 2*3^(L-2) = 3^(L-1) for m=2.
        profile, caps = two_class
        result = exhaustive_worst(profile, caps, max_len=6)
        assert result.traces_evaluated == 3**5

    def test_budget_guard(self, two_class):
        profile, caps = two_class
        with pytest.raises(BudgetExceeded):
            exhaustive_worst(profile, caps, max_len=6, budget=100)

    def test_jobs_do_not_change_result(self, two_class):
        profile, caps = two_class
        sequential = exhaustive_worst(profile, caps, max_len=7, jobs=1)
        parallel = exhaustive_worst(profile, caps, max_len=7, jobs=4)
        assert sequential == parallel

    def test_bound_never_beaten_m3(self, three_class):
        profile, caps = three_class
        result = exhaustive_worst(profile, caps, max_len=6)
        assert result.worst_ratio <= Fraction(3, 2)


class TestRandom:
    def test_seed_determinism(self, two_class):
        profile, caps = two_class
        first = random_worst(profile, caps, length=10, samples=300, seed=42)
        second = random_worst(profile, caps, length=10, samples=300, seed=42)
        assert first == second
        assert first.seed == 42

    def test_zero_samples(self, two_class):
        profile, caps = two_class
        result = random_worst(profile, caps, length=10, samples=0, seed=1)
        assert result.worst_ratio == 1
        assert result.traces_evaluated == 0

    def test_bound_holds_over_many_samples(self, two_class):
        profile, caps = two_class
        bound = Fraction(3, 2)
        result = random_worst(profile, caps, length=12, samples=10_000, seed=7)
        assert result.worst_ratio <= bound
        assert result.traces_evaluated == 10_000

    def test_random_trace_shape(self):
        rng = random.Random(3)
        trace = random_trace(rng, m=3, length=20)
        assert len(trace.events) == 20
        assert all(ev in (SEND, 1, 2, 3) for ev in trace.events)

    def test_random_trace_deterministic(self):
        a = random_trace(random.Random(9), m=2, length=15)
        b = random_trace(random.Random(9), m=2, length=15)
        assert a == b


class TestFalsification:
    def test_search_aborts_when_bound_is_wrong(self, two_class, monkeypatch):
        # Shrink the bound the search checks against; the 4/3 witness must
        # now trip the falsification path instead of being clamped.
        profile, caps = two_class
        fake = BoundReport(
            c=(Fraction(1, 4),),
            c_star=Fraction(1, 4),
            upper=Fraction(5, 4),
            abs_lower=Fraction(9, 8),
        )
        monkeypatch.setattr(adversary, "compute_c", lambda _: fake)
        with pytest.raises(BoundFalsified) as exc:
            exhaustive_worst(profile, caps, max_len=6)
        assert exc.value.ratio > Fraction(5, 4)
        with pytest.raises(BoundFalsified):
            random_worst(profile, caps, length=8, samples=500, seed=4)

    def test_result_never_clamped(self, two_class):
        profile, caps = two_class
        result = exhaustive_worst(profile, caps, max_len=6)
        assert isinstance(result, SearchResult)
        assert result.worst_ratio <= Fraction(3, 2)


class TestStateCap:
    # 4 occupancy states for caps (1, 1); the guard is sized on the longest
    # drained candidate: 2*max_len - 1 events exhaustively, 2*length at random.
    def test_exhaustive_guard_sized_on_longest_candidate(self, two_class):
        profile, caps = two_class
        exhaustive_worst(profile, caps, max_len=6, state_cap=4 * 11)
        with pytest.raises(StateSpaceExceeded) as exc:
            exhaustive_worst(profile, caps, max_len=6, state_cap=4 * 11 - 1)
        assert exc.value.needed == 4 * 11

    def test_random_guard_sized_on_longest_candidate(self, two_class):
        profile, caps = two_class
        random_worst(profile, caps, length=10, samples=5, seed=1, state_cap=4 * 20)
        with pytest.raises(StateSpaceExceeded) as exc:
            random_worst(profile, caps, length=10, samples=5, seed=1, state_cap=4 * 20 - 1)
        assert exc.value.needed == 4 * 20


class TestPruningSoundness:
    def test_pruned_worst_sandwiched_by_unpruned(self, two_class):
        # Leading sends are idles for every policy and a trailing arrival is
        # equivalent to the same string plus one send, so the pruned maximum
        # at length L sits between the unpruned maxima at L-1 and L.
        profile, caps = two_class
        m = profile.m
        space = adversary._StateSpace(caps.caps, profile.weights)

        def unpruned_worst(max_len):
            best = Fraction(1)
            for length in range(max_len + 1):
                for index in range((m + 1) ** length):
                    raw = adversary._decode(index, length, m)
                    drained = adversary._drain_events(raw)
                    scored = adversary._evaluate(
                        drained, caps.caps, profile.weights, space
                    )
                    if scored is not None:
                        o, g = scored
                        best = max(best, Fraction(o, g))
            return best

        for max_len in range(1, 7):
            pruned = exhaustive_worst(profile, caps, max_len=max_len).worst_ratio
            assert unpruned_worst(max_len - 1) <= pruned <= unpruned_worst(max_len)


class TestFractionalProfiles:
    def test_search_matches_direct_verification(self):
        # Scaled-integer ratios must cancel the common denominator exactly.
        profile = validate_profile(("1/3", "1/2", "2"))
        caps = QueueCapacities((1, 2, 1))
        result = exhaustive_worst(profile, caps, max_len=5)
        report = verify_all(result.worst_trace, caps, profile)
        assert report.ratio == result.worst_ratio
        assert report.verdicts["ratio_bound"].ok
        assert result.worst_ratio <= report.bound


class TestDrainBeforeEvaluation:
    def test_worst_trace_is_drained(self, two_class):
        profile, caps = two_class
        result = exhaustive_worst(profile, caps, max_len=6)
        assert result.worst_trace.drained

    def test_gap_report_against_lower_bound(self, two_class):
        # `abs_lower` is not a lower bound at every capacity vector (see
        # TestLowerAgainstCaps); the empirical worst may sit anywhere below
        # the upper bound, so the gap is data, not an assertion.
        profile, caps = two_class
        report = compute_c(profile)
        result = exhaustive_worst(profile, caps, max_len=6)
        assert result.worst_ratio <= report.upper
        assert report.abs_lower <= report.upper


class TestLowerAgainstCaps:
    # For values (1, 2), `abs_lower` = 2 - 2/3 = 4/3 whatever the caps, but
    # greedy's worst over the 2,187 candidates of max-len 8 falls below it,
    # meets it or exceeds it, depending on the caps.
    @pytest.mark.parametrize("caps, worst", [
        ((2, 1), Fraction(5, 4)),
        ((1, 1), Fraction(4, 3)),
        ((1, 2), Fraction(7, 5)),
    ])
    def test_worst_against_lower(self, caps, worst):
        profile = validate_profile((1, 2))
        result = exhaustive_worst(profile, QueueCapacities(caps), max_len=8)
        assert compute_c(profile).abs_lower == Fraction(4, 3)
        assert (result.worst_ratio, result.traces_evaluated) == (worst, 2187)
