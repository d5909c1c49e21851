"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints one pass line on success (visible with -s); a pytest failure
is the corresponding fail line.  Runtime-bounded criteria assert their stated
targets.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import mqsim.cli as cli
from mqsim.adversary import _decode, _drain_events, exhaustive_worst, random_trace
from mqsim.analysis import (
    u_candidates,
    u_explicit,
    u_recursion,
    verify_all,
)
from mqsim.model import (
    QueueCapacities,
    Trace,
    append_drain,
    compute_c,
    parse_trace,
    validate_profile,
)
from mqsim.opt import opt_bruteforce, opt_search

WITNESS_TEXT = "A 1\nA 2\nS\nA 1\nS\nS\n"

INVARIANT_SUITE_CONFIGS = [
    ((1, 2), (1, 1), 101),
    ((1, 2, 5), (1, 1, 1), 102),
    ((1, 3, 4, 10), (2, 1, 2, 1), 103),
]

# Every statement the invariant suite must certify on every trace.
REQUIRED_VERDICTS = [
    "conservation_greedy",
    "conservation_opt",
    "transmit_surplus_nonneg",
    "transmit_surplus_monotone_backlogged",
    "transmit_surplus_monotone_opt_empty",
    "accept_surplus_nonneg",
    "aggregate_deficit_bound",
    "top_class_equal",
    "deficit_tail_bound",
    "deficit_sum_bound",
    "u_bounds_hold",
    "u_forms_agree",
    "coefficient_signs",
    "potential_chain",
    "ratio_bound",
]


def test_c1_two_valued_bound_exact(capsys):
    code = cli.main(["bound", "--values", "1", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "c*=1/2 upper=3/2 lower=4/3" in out
    report = compute_c(validate_profile((1, 2)))
    assert report.c_star == Fraction(1, 2)
    assert report.upper == Fraction(3, 2)
    assert report.abs_lower == Fraction(4, 3)
    print("criterion 1 (two-valued bound exact): PASS")


def test_c2_ratio_bound_exhaustive_m2_len10():
    profile = validate_profile((1, 2))
    caps = QueueCapacities((1, 1))
    start = time.perf_counter()
    # exhaustive_worst raises BoundFalsified if any drained ratio beat 3/2
    result = exhaustive_worst(profile, caps, max_len=10)
    elapsed = time.perf_counter() - start
    assert result.worst_ratio <= Fraction(3, 2)
    assert result.worst_ratio >= Fraction(4, 3)
    # the documented witness is inside the searched space and achieves 4/3
    witness = parse_trace(WITNESS_TEXT)
    report = verify_all(witness, caps, profile)
    assert report.ratio == Fraction(4, 3)
    assert report.verdicts["ratio_bound"].ok
    assert elapsed < 60
    print(
        f"criterion 2 (ratio bound, m=2, len<=10, {result.traces_evaluated} "
        f"traces, {elapsed:.1f}s): PASS"
    )


def test_c3_ratio_bound_exhaustive_m3_len8():
    profile = validate_profile((1, 2, 5))
    caps = QueueCapacities((1, 1, 1))
    start = time.perf_counter()
    result = exhaustive_worst(profile, caps, max_len=8)
    elapsed = time.perf_counter() - start
    assert compute_c(profile).upper == Fraction(3, 2)
    assert result.worst_ratio <= Fraction(3, 2)
    assert elapsed < 120
    print(
        f"criterion 3 (ratio bound, m=3, len<=8, {result.traces_evaluated} "
        f"traces, {elapsed:.1f}s): PASS"
    )


def test_c4_invariant_suite_random_traces():
    failures = 0
    total = 0
    start = time.perf_counter()
    for values, caps_t, seed in INVARIANT_SUITE_CONFIGS:
        profile = validate_profile(values)
        caps = QueueCapacities(caps_t)
        rng = random.Random(seed)
        for _ in range(10_000):
            trace = append_drain(random_trace(rng, profile.m, rng.randint(0, 12)))
            report = verify_all(trace, caps, profile)
            total += 1
            for name in REQUIRED_VERDICTS:
                if not report.verdicts[name].ok:
                    failures += 1
                    print("FAIL", values, caps_t, trace.events, name)
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert total == 30_000
    print(f"criterion 4 (invariant suite, 3x10^4 traces, {elapsed:.1f}s): PASS")


def test_c5_oracle_equivalence_len7():
    start = time.perf_counter()
    checked = 0
    for values, caps_t in [((1, 2), (1, 1)), ((1, 2, 5), (1, 1, 1))]:
        profile = validate_profile(values)
        caps = QueueCapacities(caps_t)
        m = profile.m
        for length in range(8):
            for index in range((m + 1) ** length):
                raw = _decode(index, length, m)
                trace = Trace(_drain_events(raw))
                assert opt_search(trace, caps, profile).benefit == opt_bruteforce(
                    trace, caps, profile
                ), raw
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"criterion 5 (oracle equivalence, {checked} traces, {elapsed:.1f}s): PASS")


def test_c6_u_bound_equivalence_and_structure():
    for m in range(2, 7):
        for A in itertools.product(range(4), repeat=m):
            assert u_recursion(A) == u_explicit(A), A
    # explicit candidate lists for m=5: four, three, two, one bounds
    assert u_candidates(5, 1) == ((2, 2), (2, 3, 3), (2, 3, 4, 5), (1,))
    assert u_candidates(5, 2) == ((3, 3), (3, 4, 5), (2,))
    assert u_candidates(5, 3) == ((4, 5), (3,))
    assert u_candidates(5, 4) == ((5,),)
    print("criterion 6 (U-bound equivalence, A in [0,3]^m, m in [2,6]): PASS")


def test_c7_determinism(capsys):
    argv = ["search", "--values", "1", "2", "--caps", "1", "1",
            "--samples", "500", "--seed", "42", "--max-len", "10"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first

    base = ["search", "--values", "1", "2", "--caps", "1", "1", "--max-len", "8"]
    assert cli.main(base + ["--jobs", "1"]) == 0
    jobs1 = capsys.readouterr().out
    assert cli.main(base + ["--jobs", "8"]) == 0
    jobs8 = capsys.readouterr().out
    assert jobs1 == jobs8 and jobs1
    print("criterion 7 (seed and jobs determinism): PASS")


def test_c8_recurrence_discrepancy_surfaced(capsys):
    # The literal sequence 1, 2, 3 (and its continuation 7) gives c* = 3/4;
    # nothing may hard-code 1/2 for it, and `bound` flags the mismatch.
    for values in (["1", "2", "3"], ["1", "2", "3", "7"]):
        code = cli.main(["bound", "--values", *values])
        out = capsys.readouterr().out
        assert code == 0
        assert "c*=3/4 upper=7/4" in out
        assert "note:" in out
        assert "not 1/2" in out
    # the doubled variant really does give 1/2 everywhere
    doubled = compute_c(validate_profile((1, 2, 5, 14)))
    assert all(ci == Fraction(1, 2) for ci in doubled.c)
    print("criterion 8 (recurrence discrepancy surfaced): PASS")
