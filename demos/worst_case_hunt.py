#!/usr/bin/env python3
"""Hunt for the worst empirical ratio, exhaustively and at random.

Exhaustive mode enumerates every event string up to a length bound (pruned of
leading sends and trailing arrivals), drains each, and tracks the maximal
optimal-to-greedy ratio.  The observed maximum approaches the proven 1 + c*
bound from below; whether the bound is tight for a given profile is exactly
the gap this script puts on display.
"""

from mqsim.adversary import exhaustive_worst, random_worst
from mqsim.model import QueueCapacities, compute_c, trace_to_text, validate_profile

if __name__ == "__main__":
    profile = validate_profile((1, 2))
    caps = QueueCapacities((1, 1))
    report = compute_c(profile)
    print(f"values (1, 2): upper bound {report.upper}, lower {report.abs_lower}")
    print()

    print("exhaustive search, growing length bound:")
    for max_len in range(2, 11):
        result = exhaustive_worst(profile, caps, max_len=max_len)
        print(
            f"  len <= {max_len:2d}: worst ratio {str(result.worst_ratio):>5} "
            f"over {result.traces_evaluated} candidates"
        )
    print()

    result = exhaustive_worst(profile, caps, max_len=10)
    print("worst trace found (drained, in the trace grammar):")
    print(trace_to_text(result.worst_trace))

    print("random probing at longer lengths (seeded, reproducible):")
    for length in (16, 24, 32):
        sampled = random_worst(profile, caps, length=length, samples=4000, seed=42)
        print(f"  length {length}: worst ratio {sampled.worst_ratio} in 4000 samples")
    print()

    profile3 = validate_profile((1, 2, 5))
    caps3 = QueueCapacities((1, 1, 1))
    result3 = exhaustive_worst(profile3, caps3, max_len=8)
    print(
        f"values (1, 2, 5): worst ratio {result3.worst_ratio} at len <= 8 "
        f"(bound {compute_c(profile3).upper})"
    )
    print("the observed maximum sits below the bound; how much of the gap is")
    print("searchable and how much is slack in the analysis stays open.")
