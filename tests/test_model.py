from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import last
from mqsim.engine import run_greedy
from mqsim.model import (
    BadCapacity,
    BadClassIndex,
    BoundReport,
    ConfigError,
    MQSimError,
    NonPositiveValue,
    NotIncreasing,
    QueueCapacities,
    SEND,
    TooFewClasses,
    Trace,
    TraceSyntaxError,
    append_drain,
    as_rational,
    ascii_int,
    compute_c,
    doubling_tail,
    matches_recurrence,
    parse_config,
    parse_trace,
    recurrence_values,
    trace_to_text,
    validate_profile,
)


class TestValidateProfile:
    def test_two_values(self):
        profile = validate_profile([1, 2])
        assert profile.m == 2
        assert profile.values == (Fraction(1), Fraction(2))

    def test_equal_values_rejected(self):
        with pytest.raises(NotIncreasing):
            validate_profile([1, 1])

    def test_order_violation_rejected(self):
        with pytest.raises(NotIncreasing):
            validate_profile([2, 1, 5])

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveValue):
            validate_profile([0, 1])
        with pytest.raises(NonPositiveValue):
            validate_profile(["-1/2", 1])
        with pytest.raises(NonPositiveValue):
            validate_profile(["1/-2", 1])

    def test_single_value_rejected(self):
        with pytest.raises(TooFewClasses):
            validate_profile([1])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            validate_profile([0.5, 2])

    def test_other_types_rejected(self):
        with pytest.raises(TypeError) as exc:
            as_rational([1])
        assert str(exc.value) == "exact rational required, got list"

    def test_string_rationals(self):
        profile = validate_profile(["1/3", "1/2", "2"])
        assert profile.values == (Fraction(1, 3), Fraction(1, 2), Fraction(2))

    @pytest.mark.parametrize("text", [
        "1_0", "\u0661", "1 /2", "1/ 2", " 1", "2 ", "+1", "1/\u0662", "--1", "1/2/3", ""])
    def test_string_rationals_take_ascii_integers_only(self, text):
        # int() reads '1_0' as 10, ARABIC-INDIC DIGIT ONE as 1 and '1 ' as 1
        with pytest.raises(ValueError, match="expected p or p/q"):
            validate_profile([text, "20"])

    def test_weights_scale(self):
        profile = validate_profile(["1/3", "1/2", "2"])
        assert profile.scale == 6
        assert profile.weights == (2, 3, 12)
        assert profile.benefit((1, 1, 1)) == Fraction(17, 6)


class TestDoublingTail:
    def test_small_indices(self):
        v = (Fraction(1), Fraction(2), Fraction(3), Fraction(7))
        assert doubling_tail(v, 1) == 0
        assert doubling_tail(v, 2) == 1          # v1
        assert doubling_tail(v, 3) == 2 + 2 * 1  # v2 + 2 v1
        assert doubling_tail(v, 4) == 3 + 2 * 2 + 4 * 1


class TestComputeC:
    def test_two_valued(self):
        report = compute_c(validate_profile((1, 2)))
        assert report.c == (Fraction(1, 2),)
        assert report.c_star == Fraction(1, 2)
        assert report.upper == Fraction(3, 2)

    def test_abs_lower_two_valued(self):
        assert compute_c(validate_profile((1, 2))).abs_lower == Fraction(4, 3)

    def test_three_valued(self):
        # c_2 = (2 + 1) / (5 + 1) by direct evaluation
        report = compute_c(validate_profile((1, 2, 5)))
        assert report.c == (Fraction(1, 2), Fraction(1, 2))
        assert report.upper == Fraction(3, 2)

    def test_one_two_three(self):
        # c_2 = (2 + 1) / (3 + 1); no hard-coded 1/2 anywhere
        report = compute_c(validate_profile((1, 2, 3)))
        assert report.c == (Fraction(1, 2), Fraction(3, 4))
        assert report.c_star == Fraction(3, 4)
        assert report.upper == Fraction(7, 4)

    def test_report_derives_c_star_and_upper_from_c(self):
        report = BoundReport(c=(Fraction(1, 3), Fraction(3, 5)), abs_lower=Fraction(1))
        assert BoundReport.__slots__ == ("c", "abs_lower")  # c_star and upper are not stored
        assert (report.c_star, report.upper) == (Fraction(3, 5), Fraction(8, 5))

    def test_report_rejects_c_outside_open_unit_interval(self):
        with pytest.raises(MQSimError) as exc:
            BoundReport(c=(Fraction(1),), abs_lower=Fraction(4, 3))
        assert str(exc.value) == "c_i out of (0,1): 1"
        with pytest.raises(MQSimError) as exc:
            BoundReport(c=(), abs_lower=Fraction(4, 3))
        assert str(exc.value) == "c is empty"

    def test_chain_property_random_profiles(self):
        # 0 < c_i < 1, hence 1 < 1+c* < 2, and 1+c* >= 1+c_{m-1} > abs_lower.
        rng = random.Random(11)
        for _ in range(300):
            m = rng.randint(2, 7)
            values = set()
            while len(values) < m:
                values.add(Fraction(rng.randint(1, 60), rng.randint(1, 12)))
            profile = validate_profile(sorted(values))
            report = compute_c(profile)
            assert all(0 < ci < 1 for ci in report.c)
            assert report.c_star < 1
            assert 1 < report.upper < 2
            assert report.upper >= 1 + report.c[-1] > report.abs_lower


class TestRecurrences:
    def test_plain_sequence(self):
        assert recurrence_values(4) == (1, 2, 3, 7)

    def test_doubled_sequence(self):
        assert recurrence_values(4, doubled=True) == (1, 2, 5, 14)

    def test_needs_two_classes(self):
        with pytest.raises(TooFewClasses) as exc:
            recurrence_values(1)
        assert str(exc.value) == "need m >= 2, got 1"

    def test_doubled_gives_half_everywhere(self):
        report = compute_c(validate_profile(recurrence_values(6, doubled=True)))
        assert all(ci == Fraction(1, 2) for ci in report.c)

    def test_plain_does_not_give_half(self):
        # The literal recurrence yields c_2 = 3/4 already at m = 3.
        report = compute_c(validate_profile(recurrence_values(6)))
        assert report.c_star == Fraction(3, 4)

    def test_matches_recurrence(self):
        assert matches_recurrence(recurrence_values(5))
        assert not matches_recurrence(recurrence_values(5, doubled=True))
        assert not matches_recurrence(validate_profile((1, 2, 5)).values)
        assert not matches_recurrence(validate_profile((1, 2)).values)


class TestParseTrace:
    def test_basic(self):
        trace = parse_trace("A 1\nA 2\nS\nS\n")
        assert trace.events == (1, 2, SEND, SEND)
        assert trace.drained

    def test_single_send(self):
        trace = parse_trace("S\n")
        assert trace.events == (SEND,)
        assert trace.drained

    def test_zero_class_index(self):
        with pytest.raises(BadClassIndex) as exc:
            parse_trace("A 0\n")
        assert exc.value.line == 1

    def test_syntax_errors(self):
        for text in ["A\n", "X\n", "S 1\n", "A x\n", "A 1 2\n"]:
            with pytest.raises(TraceSyntaxError):
                parse_trace(text)

    def test_superscript_digit_is_a_syntax_error_with_its_line(self):
        # "²".isdigit() is true but int("²") fails: the line must still be named
        with pytest.raises(TraceSyntaxError) as exc:
            parse_trace("S\nA \u00b2\n")
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: expected 'A <class-index>': 'A \u00b2'"

    def test_non_ascii_decimal_digit_is_rejected(self):
        # ARABIC-INDIC DIGIT THREE: int() reads it as 3, the grammar does not
        with pytest.raises(TraceSyntaxError) as exc:
            parse_trace("A \u0663\n")
        assert exc.value.line == 1

    def test_leading_zero_class_index(self):
        assert parse_trace("A 03\nS\n").events == (3, SEND)

    def test_line_numbers_count_all_lines(self):
        with pytest.raises(TraceSyntaxError) as exc:
            parse_trace("# header\n\nA 1\nbogus\n")
        assert exc.value.line == 4

    def test_comments_and_blanks(self):
        trace = parse_trace("# worst trace\n\nA 1  # high class\nS\n")
        assert trace.events == (1, SEND)

    def test_round_trip(self):
        text = "A 1\nA 2\nS\nA 1\nS\nS\n"
        assert trace_to_text(parse_trace(text)) == text
        assert trace_to_text(Trace(())) == ""


class TestDrained:
    def test_witness_is_drained(self, witness):
        assert witness.drained

    def test_pending_arrival_not_drained(self):
        assert not parse_trace("A 1\nS\nA 1\n").drained

    def test_interleaved_drained(self):
        # Every suffix has sends >= arrivals, so any diligent policy ends empty.
        assert parse_trace("A 1\nS\nA 1\nS\n").drained

    def test_drained_means_empty_end(self):
        rng = random.Random(5)
        profile = validate_profile((1, 2, 5))
        for _ in range(200):
            events = tuple(rng.choice([SEND, 1, 2, 3]) for _ in range(rng.randint(0, 10)))
            trace = Trace(events)
            caps = QueueCapacities(tuple(rng.randint(1, 3) for _ in range(3)))
            ledger, _ = run_greedy(trace, caps, profile)
            if trace.drained:
                assert last(ledger.occupancy) == (0, 0, 0)


class TestEventsAreATuple:
    @pytest.mark.parametrize("make", [list, lambda evs: (ev for ev in evs)],
                             ids=["list", "generator"])
    @pytest.mark.parametrize("events", [(), (1, SEND, 1), (2, 1, SEND, SEND), (1, SEND, 1, SEND)])
    def test_equals_and_hashes_like_the_tuple_built_trace(self, make, events):
        trace, want = Trace(make(events)), Trace(events)
        assert type(trace.events) is tuple
        assert trace == want and hash(trace) == hash(want)
        assert (trace.drained, trace.max_class) == (want.drained, want.max_class)
        assert append_drain(trace) == append_drain(want)

    def test_a_tuple_is_kept_uncopied(self):
        events = (1, SEND)
        assert Trace(events).events is events


class TestAppendDrain:
    def test_arrival_and_send_counts(self):
        trace = Trace((1, SEND, 2, 3))
        assert (trace.arrivals, trace.sends) == (3, 1)

    def test_one_arrival(self):
        assert append_drain(Trace((1,))).events == (1, SEND)

    def test_no_arrivals(self):
        assert append_drain(Trace((SEND,))).events == (SEND,)

    def test_two_arrivals_one_send(self):
        assert append_drain(Trace((1, 1, SEND))).events == (1, 1, SEND, SEND, SEND)

    def test_result_is_drained(self):
        rng = random.Random(6)
        for _ in range(100):
            events = tuple(rng.choice([SEND, 1, 2]) for _ in range(rng.randint(0, 12)))
            assert append_drain(Trace(events)).drained

    def test_effect_idempotence(self):
        # Any diligent run on a drained trace ends with all queues empty.
        rng = random.Random(7)
        profile = validate_profile((1, 3))
        for _ in range(100):
            events = tuple(rng.choice([SEND, 1, 2]) for _ in range(rng.randint(0, 12)))
            trace = append_drain(Trace(events))
            caps = QueueCapacities((rng.randint(1, 3), rng.randint(1, 3)))
            ledger, _ = run_greedy(trace, caps, profile)
            assert all(q == 0 for q in last(ledger.occupancy))
            assert last(ledger.accepted) == last(ledger.transmitted)


class TestQueueCapacities:
    def test_valid(self):
        assert QueueCapacities((1, 2)).m == 2

    def test_zero_rejected(self):
        with pytest.raises(BadCapacity):
            QueueCapacities((1, 0))

    def test_empty_rejected(self):
        with pytest.raises(BadCapacity) as exc:
            QueueCapacities(())
        assert str(exc.value) == "need at least one capacity"


class TestAsciiInt:
    @pytest.mark.parametrize("text, value", [("0", 0), ("007", 7), ("-12", -12), ("10", 10)])
    def test_ascii_digits(self, text, value):
        assert ascii_int(text) == value

    @pytest.mark.parametrize("text", [
        "1_0", "\u0661", "\u00b2", " 1", "1 ", "+1", "--1", "-", "", "1.0", "0x1"])
    def test_anything_else_is_rejected(self, text):
        with pytest.raises(ValueError):
            ascii_int(text)


class TestParseConfig:
    def test_basic(self):
        profile, caps = parse_config("values: 1 2 5\ncapacities: 1 1 1\n")
        assert profile.values == (1, 2, 5)
        assert caps.caps == (1, 1, 1)

    def test_rationals(self):
        profile, _ = parse_config("values: 1/3 1/2\ncapacities: 2 2\n")
        assert profile.values == (Fraction(1, 3), Fraction(1, 2))

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config("values: 1 2\ncapacities: 1\n")

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            parse_config("values: 1 2\n")

    def test_bad_rational(self):
        with pytest.raises(ConfigError):
            parse_config("values: 1 0.5\ncapacities: 1 1\n")

    @pytest.mark.parametrize("text", [
        "values: 1_0 20\ncapacities: 1 1\n",
        "values: 1 2\ncapacities: 1_0 1\n",
        "values: 1 2\ncapacities: \u0661 1\n",
        "values: 1 2\ncapacities: +1 1\n",
    ])
    def test_non_ascii_integers_rejected(self, text):
        with pytest.raises(ConfigError, match="^line [12]: bad "):
            parse_config(text)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("sizes: 1 2\n")

    @pytest.mark.parametrize("text, line", [
        ("values: 1 2\nvalues: 1 3 4\ncapacities: 1 1 1\n", "line 2: repeated key 'values'"),
        ("capacities: 1 1\nvalues: 1 2\n# again\ncapacities: 2 2\n",
         "line 4: repeated key 'capacities'"),
    ])
    def test_repeated_key(self, text, line):
        with pytest.raises(ConfigError, match=f"^{line}$"):
            parse_config(text)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("values: 2 1\ncapacities: 1 1\n")
