from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import last, potential_chain, tail_sums
from mqsim.analysis import (
    LedgerMismatch,
    MTooSmall,
    check_D_bounds,
    check_D_sum_bounds,
    check_aggregate_deficit,
    check_coefficient_signs,
    check_phi_nonneg,
    check_surplus_monotonicity,
    check_u_bounds,
    check_xi_nonneg,
    compute_delta,
    compute_phi,
    compute_xi,
    format_report,
    suffix_sums,
    u_candidates,
    u_explicit,
    u_recursion,
    verify_all,
)
from mqsim.engine import replay_schedule, run_greedy
from mqsim.model import (
    MQSimError,
    QueueCapacities,
    SEND,
    Trace,
    append_drain,
    compute_c,
    parse_trace,
    validate_profile,
)
from mqsim.opt import opt_search


def random_drained_trace(rng, m, max_len=12):
    events = tuple(
        rng.randint(1, m) if rng.random() < 0.5 else SEND
        for _ in range(rng.randint(0, max_len))
    )
    return append_drain(Trace(events))


def ledger_pair(trace, caps, profile):
    greedy_ledger, _ = run_greedy(trace, caps, profile)
    result = opt_search(trace, caps, profile)
    return greedy_ledger, replay_schedule(trace, caps, profile, result.schedule)


class TestXi:
    def test_zero_at_null_event(self, two_class, witness):
        profile, caps = two_class
        xi = compute_xi(*ledger_pair(witness, caps, profile))
        assert all(row[0] == 0 for row in xi)

    def test_witness_row(self, two_class, witness):
        # Hand ledger: greedy transmits class 2 at s1 and class 1 at s2; the
        # optimum (schedule 1,2,1) transmits class 1 at s1 and s3.  The
        # surplus over sends s1, s2, s3 is therefore (0, 1, 0).
        profile, caps = two_class
        xi = compute_xi(*ledger_pair(witness, caps, profile))
        assert xi[0] == (0, 0, 0, 0, 0, 1, 0)
        sends = [i for i, ev in enumerate(witness.events, start=1) if ev == SEND]
        assert [xi[0][i] for i in sends] == [0, 1, 0]

    def test_arrives_leave_xi_unchanged(self):
        rng = random.Random(41)
        profile = validate_profile((1, 2, 5))
        caps = QueueCapacities((1, 1, 1))
        for _ in range(60):
            trace = random_drained_trace(rng, 3)
            xi = compute_xi(*ledger_pair(trace, caps, profile))
            for i, ev in enumerate(trace.events, start=1):
                if ev != SEND:
                    for row in xi:
                        assert row[i] == row[i - 1]

    def test_nonneg_on_seeded_traces(self, three_class):
        profile, caps = three_class
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            trace = random_drained_trace(rng, 3)
            xi = compute_xi(*ledger_pair(trace, caps, profile))
            assert check_xi_nonneg(xi).ok

    def test_zero_event_trace(self, two_class):
        profile, caps = two_class
        xi = compute_xi(*ledger_pair(Trace(()), caps, profile))
        assert xi == ((0,),)
        assert check_xi_nonneg(xi).ok

    def test_checker_reports_location(self):
        verdict = check_xi_nonneg(((0, 0, 0), (0, -1, 0)))
        assert not verdict.ok
        assert verdict.h == 2
        assert verdict.event == 1
        assert verdict.line() == "verdict transmit_surplus_nonneg false h=2 e=1"

    def test_ledger_mismatch(self, two_class, witness):
        profile, caps = two_class
        greedy_ledger, _ = run_greedy(witness, caps, profile)
        other, _ = run_greedy(Trace((SEND,)), caps, profile)
        with pytest.raises(LedgerMismatch):
            compute_xi(greedy_ledger, other)

    def test_class_count_mismatch(self, two_class, three_class, witness):
        greedy_ledger, _ = run_greedy(witness, two_class[1], two_class[0])
        other, _ = run_greedy(witness, three_class[1], three_class[0])
        with pytest.raises(LedgerMismatch) as exc:
            compute_xi(greedy_ledger, other)
        assert str(exc.value) == "class counts differ"


class TestSurplusMonotonicity:
    @pytest.mark.parametrize("trace_text, message", [
        ("A 1\nA 2\nS\nA 1\nS\nS\n" + "S\n" * 5, "event counts differ: 11 vs 6"),
        ("A 1\nA 2\nS\n", "event counts differ: 3 vs 6"),
    ])
    def test_trace_must_match_the_ledgers(self, two_class, witness, trace_text, message):
        # a longer trace used to index past the rows; a prefix was read against them
        profile, caps = two_class
        greedy_ledger, opt_ledger = ledger_pair(witness, caps, profile)
        xi = compute_xi(greedy_ledger, opt_ledger)
        with pytest.raises(LedgerMismatch, match=message):
            check_surplus_monotonicity(parse_trace(trace_text), greedy_ledger, opt_ledger, xi)

    def test_xi_must_match_the_ledgers(self, two_class, witness):
        profile, caps = two_class
        greedy_ledger, opt_ledger = ledger_pair(witness, caps, profile)
        xi = compute_xi(greedy_ledger, opt_ledger)
        with pytest.raises(LedgerMismatch, match="event counts differ: 6 vs 5"):
            check_surplus_monotonicity(witness, greedy_ledger, opt_ledger, (xi[0][:-1],))


class TestPhi:
    def test_zero_at_null_event_and_witness_row(self, two_class, witness):
        profile, caps = two_class
        phi = compute_phi(*ledger_pair(witness, caps, profile))
        assert all(row[0] == 0 for row in phi)
        assert phi[0] == (0, 0, 1, 1, 0, 0, 0)

    def test_low_class_arrival_leaves_phi_unchanged(self):
        # An arrival of class r < h changes neither side of phi_h.
        rng = random.Random(42)
        profile = validate_profile((1, 2, 5))
        caps = QueueCapacities((2, 1, 1))
        for _ in range(60):
            trace = random_drained_trace(rng, 3)
            phi = compute_phi(*ledger_pair(trace, caps, profile))
            for i, ev in enumerate(trace.events, start=1):
                if ev != SEND:
                    for h in range(ev + 1, profile.m):  # rows cover h in [1, m-1]
                        assert phi[h - 1][i] == phi[h - 1][i - 1]

    def test_nonneg_on_random_traces(self):
        rng = random.Random(43)
        profile = validate_profile((1, 3, 4, 10))
        caps = QueueCapacities((2, 1, 2, 1))
        for _ in range(60):
            trace = random_drained_trace(rng, 4)
            assert check_phi_nonneg(compute_phi(*ledger_pair(trace, caps, profile))).ok


class TestAggregateDeficit:
    def test_empty_trace(self, two_class):
        profile, caps = two_class
        greedy_ledger, opt_ledger = ledger_pair(Trace(()), caps, profile)
        assert check_aggregate_deficit(tail_sums(greedy_ledger), tail_sums(opt_ledger)).ok

    def test_witness_values(self, two_class, witness):
        # A = (1,1), A* = (2,1): h=1 gives (2+1)-(1+1) = 1 <= 2.
        profile, caps = two_class
        greedy_ledger, opt_ledger = ledger_pair(witness, caps, profile)
        assert last(greedy_ledger.accepted) == (1, 1)
        assert last(opt_ledger.accepted) == (2, 1)
        assert check_aggregate_deficit(tail_sums(greedy_ledger), tail_sums(opt_ledger)).ok

    def test_top_class_case_is_equality(self, two_class, witness):
        # At h = m the bound reduces to A*_m - A_m <= A_m; the deficit is 0.
        profile, caps = two_class
        greedy_ledger, opt_ledger = ledger_pair(witness, caps, profile)
        assert greedy_ledger.accepted[-1][-1] == opt_ledger.accepted[-1][-1]


class TestDBounds:
    def test_witness(self, two_class, witness):
        profile, caps = two_class
        greedy_ledger, opt_ledger = ledger_pair(witness, caps, profile)
        A = last(greedy_ledger.accepted)
        D = tuple(a_star - a for a_star, a in zip(last(opt_ledger.accepted), A))
        S = suffix_sums(A)
        assert D == (1, 0)
        assert S == (2, 1)
        assert check_D_bounds(D, S).ok
        assert check_D_sum_bounds(D, S).ok

    def test_all_send_trace(self, two_class):
        profile, caps = two_class
        greedy_ledger, opt_ledger = ledger_pair(Trace((SEND, SEND)), caps, profile)
        A = last(greedy_ledger.accepted)
        D = tuple(a_star - a for a_star, a in zip(last(opt_ledger.accepted), A))
        assert check_D_bounds(D, suffix_sums(A)).ok

    def test_checker_mechanics(self):
        assert not check_D_bounds((5, 0), (5, 0)).ok
        assert check_D_bounds((0, 0), (0, 0)).ok
        assert not check_D_sum_bounds((3, 2, 0), (1, 2, 0)).ok

    def test_short_s_rejected(self):
        # a short S used to leave the bounds past its end unchecked
        for checker in (check_D_bounds, check_D_sum_bounds):
            with pytest.raises(ValueError, match="S has 1 entries, expected 3"):
                checker((5, 0, 0), (5,))

    def test_short_s_star_rejected(self):
        with pytest.raises(ValueError, match="S\\* has 1 entries, expected 2"):
            check_aggregate_deficit((2, 1), (3,))


class TestUBounds:
    def test_recursion_m3(self):
        assert u_recursion((2, 1, 1)) == (3, 1)

    def test_recursion_m2(self):
        assert u_recursion((5, 4)) == (4,)

    def test_recursion_zeros(self):
        assert u_recursion((0, 0, 0, 0)) == (0, 0, 0)

    @pytest.mark.parametrize("form", [u_recursion, u_explicit])
    def test_needs_two_classes(self, form):
        with pytest.raises(MTooSmall) as exc:
            form((1,))
        assert str(exc.value) == "need m >= 2, got 1"

    def test_candidates_reject_h_out_of_range(self):
        with pytest.raises(ValueError) as exc:
            u_candidates(3, 0)
        assert str(exc.value) == "h must be in [1, 2], got 0"

    def test_explicit_m3(self):
        # h=1 candidates are S2+S3 = 3 and S1 = 4.
        assert u_explicit((2, 1, 1)) == (3, 1)

    def test_m5_candidate_structure(self):
        assert u_candidates(5, 1) == ((2, 2), (2, 3, 3), (2, 3, 4, 5), (1,))
        assert u_candidates(5, 2) == ((3, 3), (3, 4, 5), (2,))
        assert u_candidates(5, 3) == ((4, 5), (3,))
        assert u_candidates(5, 4) == ((5,),)

    def test_candidate_counts(self):
        for m in range(2, 7):
            for h in range(1, m):
                assert len(u_candidates(m, h)) == m - h

    def test_forms_agree_random(self):
        rng = random.Random(44)
        for _ in range(300):
            m = rng.randint(2, 6)
            A = tuple(rng.randint(0, 5) for _ in range(m))
            assert u_recursion(A) == u_explicit(A)

    def test_u_bound_checker(self):
        assert check_u_bounds((0, 0, 0), (0, 0)).ok
        assert not check_u_bounds((2, 1, 0), (2, 0)).ok

    def test_u_bound_checker_short_u_rejected(self):
        with pytest.raises(ValueError, match="U has 1 entries, expected 2"):
            check_u_bounds((0, 5, 0), (0,))


class TestDelta:
    def test_m3_example(self):
        # values (1,2,5), A=(2,1,1): delta_1 = v1*U1 + (v2-v1)*U2 = 3 + 1 = 4.
        profile = validate_profile((1, 2, 5))
        c_star = compute_c(profile).c_star
        A = (2, 1, 1)
        delta = compute_delta(profile, c_star, u_recursion(A), suffix_sums(A))
        assert delta == (Fraction(4),)

    def test_zero_vector(self):
        profile = validate_profile((1, 2, 5, 14))
        c_star = compute_c(profile).c_star
        A = (0, 0, 0, 0)
        delta = compute_delta(profile, c_star, u_recursion(A), suffix_sums(A))
        assert delta == (0, 0)

    def test_m4_h2_coefficients(self):
        # For h=2 the empty tails reduce delta_2 to
        # (v2 - c* v1) U2 + v1 S2 + (v3 - v2) U3.
        profile = validate_profile((1, 3, 4, 10))
        v = profile.values
        c_star = compute_c(profile).c_star
        A = (2, 1, 3, 1)
        U = u_recursion(A)
        S = suffix_sums(A)
        delta = compute_delta(profile, c_star, U, S)
        expected = (v[1] - c_star * v[0]) * U[1] + v[0] * S[1] + (v[2] - v[1]) * U[2]
        assert delta[1] == expected

    def test_m2_undefined(self):
        profile = validate_profile((1, 2))
        with pytest.raises(MTooSmall):
            compute_delta(profile, Fraction(1, 2), (1,), (1, 1))


class TestDeltaChain:
    def test_m3_example(self):
        profile = validate_profile((1, 2, 5))
        # delta_1 = 4 <= c* (v.A) = (1/2)(2+2+5) = 9/2
        assert potential_chain(profile, (2, 1, 1), (0, 0, 0)).ok

    def test_zero_vector(self):
        profile = validate_profile((1, 2, 5))
        assert potential_chain(profile, (0, 0, 0), (0, 0, 0)).ok

    def test_coefficient_sign_tight_for_two_values(self):
        # i=1 with values (1,2): (v1) - c*(v2) = 1 - (1/2)(2) = 0.
        profile = validate_profile((1, 2))
        report = compute_c(profile)
        assert report.c_star * profile.values[1] - profile.values[0] == 0
        assert check_coefficient_signs(profile, report.c_star).ok

    def test_coefficient_signs_random_profiles(self):
        rng = random.Random(45)
        for _ in range(200):
            m = rng.randint(2, 6)
            values = set()
            while len(values) < m:
                values.add(Fraction(rng.randint(1, 40), rng.randint(1, 8)))
            profile = validate_profile(sorted(values))
            c_star = compute_c(profile).c_star
            assert check_coefficient_signs(profile, c_star).ok

    def test_monotone_chain_on_random_traces(self):
        # sum v_h D_h <= delta_1 <= c* v1 A1 + delta_2 <= ... <= c* sum v_h A_h
        rng = random.Random(46)
        profile = validate_profile((1, 3, 4, 10))
        caps = QueueCapacities((2, 1, 2, 1))
        c_star = compute_c(profile).c_star
        v = profile.values
        for _ in range(80):
            trace = random_drained_trace(rng, 4)
            greedy_ledger, opt_ledger = ledger_pair(trace, caps, profile)
            A = last(greedy_ledger.accepted)
            D = tuple(a_star - a for a_star, a in zip(last(opt_ledger.accepted), A))
            U = u_recursion(A)
            delta = compute_delta(profile, c_star, U, suffix_sums(A))
            chain = [sum((v[h] * D[h] for h in range(3)), Fraction(0)), delta[0]]
            prefix = Fraction(0)
            for h in range(1, 3):  # links down to delta_{m-2}
                prefix += c_star * v[h - 1] * A[h - 1]
                if h < len(delta):
                    chain.append(prefix + delta[h])
            chain.append(c_star * sum((v[h] * A[h] for h in range(4)), Fraction(0)))
            for lo, hi in zip(chain, chain[1:]):
                assert lo <= hi


class TestVerifyRatioBound:
    """The ratio fields of `verify_all`, the library's one ratio path."""

    def test_witness(self, two_class, witness):
        profile, caps = two_class
        report = verify_all(witness, caps, profile)
        verdict = report.verdicts["ratio_bound"]
        assert (report.ratio, report.bound, verdict.ok) == (Fraction(4, 3), Fraction(3, 2), True)

    def test_empty_trace(self, two_class):
        profile, caps = two_class
        report = verify_all(Trace(()), caps, profile)
        assert report.ratio == 1
        assert report.verdicts["ratio_bound"].ok

    def test_two_valued_bound(self, two_class, witness):
        profile, caps = two_class
        bound = verify_all(witness, caps, profile).bound
        assert bound == 1 + profile.values[0] / profile.values[1]

    def test_requires_drained(self, two_class):
        profile, caps = two_class
        with pytest.raises(ValueError):
            verify_all(Trace((1,)), caps, profile)


class TestVerifyAllExhaustive:
    def test_every_short_trace_passes(self):
        # Exhaustive over the raw event space, drained: catches corner shapes
        # (leading sends, all-reject bursts) that random sampling can miss.
        sweeps = [
            ((1, 2), (1, 1), 6),
            ((1, 2), (2, 1), 6),
            ((1, 2, 5), (1, 1, 1), 5),
        ]
        for values, caps_t, max_len in sweeps:
            profile = validate_profile(values)
            caps = QueueCapacities(caps_t)
            m = profile.m
            for length in range(max_len + 1):
                for index in range((m + 1) ** length):
                    events = []
                    rest = index
                    for _ in range(length):
                        rest, digit = divmod(rest, m + 1)
                        events.append(SEND if digit == m else digit + 1)
                    trace = append_drain(Trace(tuple(events)))
                    report = verify_all(trace, caps, profile)
                    assert report.all_ok, (values, caps_t, trace.events)

    def test_fractional_values_stay_exact(self):
        # Non-unit denominators exercise the scaled-weight fast paths.
        profile = validate_profile(("1/3", "1/2", "2"))
        caps = QueueCapacities((1, 2, 1))
        rng = random.Random(47)
        for _ in range(200):
            trace = random_drained_trace(rng, 3)
            report = verify_all(trace, caps, profile)
            assert report.all_ok
            assert report.ratio.denominator >= 1  # a true Fraction, never float

    def test_top_heavy_and_flat_profiles(self):
        # c* can come from c_1 (steep tail) or c_{m-1} (flat tail); both must
        # verify cleanly.
        rng = random.Random(48)
        for values in [(1, 2, 100), (5, 6, 7)]:
            profile = validate_profile(values)
            caps = QueueCapacities((1, 1, 1))
            for _ in range(150):
                trace = random_drained_trace(rng, 3)
                assert verify_all(trace, caps, profile).all_ok


class TestVerifyAll:
    def test_seeded_random_traces_all_ok(self):
        for values, caps_t in [((1, 2), (1, 1)), ((1, 2, 5), (1, 1, 1))]:
            profile = validate_profile(values)
            caps = QueueCapacities(caps_t)
            for seed in (1, 2, 3):
                rng = random.Random(seed)
                trace = random_drained_trace(rng, profile.m)
                report = verify_all(trace, caps, profile)
                assert report.all_ok, [v.line() for v in report.verdicts.values()]

    def test_empty_trace_trivial_report(self, two_class):
        profile, caps = two_class
        report = verify_all(Trace(()), caps, profile)
        assert report.all_ok
        assert report.ratio == 1
        assert report.D == (0, 0)

    def test_witness_report_numbers(self, two_class, witness):
        profile, caps = two_class
        report = verify_all(witness, caps, profile)
        assert report.greedy_benefit == 3
        assert report.opt_benefit == 4
        assert report.ratio == Fraction(4, 3)
        assert report.bound == Fraction(3, 2)
        assert report.U == (1,)
        assert report.delta == ()
        assert report.all_ok

    def test_reports_differing_in_one_verdict_differ(self, two_class, witness):
        profile, caps = two_class
        report = verify_all(witness, caps, profile)
        name, verdict = next(iter(report.verdicts.items()))
        flipped = report._replace(verdicts={**report.verdicts, name: verdict._replace(ok=False)})
        assert flipped != report
        assert report._replace(verdicts=dict(report.verdicts)) == report
        assert hash(flipped) == hash(report)  # reports stay hashable; verdicts are not hashed

    def test_mismatched_caps_length(self, witness):
        profile = validate_profile((1, 2))
        with pytest.raises(MQSimError):
            verify_all(witness, QueueCapacities((1, 1, 1)), profile)

    def test_m2_uses_degenerate_chain(self, two_class, witness):
        profile, caps = two_class
        report = verify_all(witness, caps, profile)
        assert report.verdicts["potential_chain"].ok

    def test_verdict_line_format(self, two_class, witness):
        profile, caps = two_class
        report = verify_all(witness, caps, profile)
        for line in report.verdict_lines():
            assert line.startswith("verdict ")
            assert line.split()[2] in ("true", "false")

    def test_format_report_contains_ratio(self, two_class, witness):
        profile, caps = two_class
        text = format_report(verify_all(witness, caps, profile))
        assert "ratio: 4/3" in text
        assert "verdict ratio_bound true" in text
