"""`verify_all` with its end-of-trace memo warm against the same call with it cold.

`analysis._end_of_trace` memoizes D, S, U, the deltas and the eight
end-of-trace verdicts on (profile, A, A*).  Each report below is compared with
the one made right after clearing the memo: every field, the verdicts among
them, and the verdict lines, which also fix the verdicts' order.  In the warm passes the
entries were made by other calls: other traces with the same A and the same
or another A*, and the same trace under a second profile with the same m.
That profile is the first with every value doubled, so greedy and the optimum
accept the same A and A*, while the deltas double: a key that left out the
profile, or A*, would serve another call's values.
"""

from __future__ import annotations

import random

from hypothesis import given, settings

from conftest import instances
from mqsim import analysis
from mqsim.analysis import verify_all
from mqsim.model import QueueCapacities, SEND, Trace, ValueProfile, append_drain, validate_profile

# the three configurations of the tier-1 invariant suite
CONFIGS = [((1, 2), (1, 1)), ((1, 2, 5), (1, 1, 1)), ((1, 3, 4, 10), (2, 1, 2, 1))]
PER_CONFIG = 400
MAX_RAW_LEN = 12


def doubled(profile):
    return ValueProfile(tuple(2 * v for v in profile.values))


def cold(trace, caps, profile):
    analysis._end_of_trace.cache_clear()
    return verify_all(trace, caps, profile)


def assert_same(warm, expected):
    assert warm == expected
    assert warm.verdict_lines() == expected.verdict_lines()


def seeded_calls(seed):
    """(trace, caps, profile) for drained seeded traces, each under its config's
    profile and then under the doubled one."""
    rng = random.Random(seed)
    calls = []
    for values, caps_t in CONFIGS:
        profile, caps = validate_profile(values), QueueCapacities(caps_t)
        for _ in range(PER_CONFIG):
            raw = tuple(rng.randint(1, profile.m) if rng.random() < 0.5 else SEND
                        for _ in range(rng.randint(0, MAX_RAW_LEN)))
            trace = append_drain(Trace(raw))
            calls += [(trace, caps, profile), (trace, caps, doubled(profile))]
    return calls


def test_warm_memo_matches_cold_on_seeded_tier1_traces():
    calls = seeded_calls(31)
    expected = [cold(*call) for call in calls]
    analysis._end_of_trace.cache_clear()
    for _ in range(2):  # entries made by earlier calls, then every call a hit
        for call, report in zip(calls, expected):
            assert_same(verify_all(*call), report)
    info = analysis._end_of_trace.cache_info()
    assert info.misses < len(calls) // 4 and info.hits == 2 * len(calls) - info.misses
    # the doubled profile shares each (A, A*) and differs in the deltas
    pairs = list(zip(expected[::2], expected[1::2]))
    assert all((a.S, a.D) == (b.S, b.D) for a, b in pairs)
    assert any(a.delta != b.delta for a, b in pairs)
    # some traces share A but not A*
    a_stars = {}
    for (_, _, profile), report in zip(calls, expected):
        A = tuple(s - t for s, t in zip(report.S, (*report.S[1:], 0)))
        a_stars.setdefault((profile, A), set()).add(report.D)
    assert any(len(ds) > 1 for ds in a_stars.values())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instances(max_cap=2, max_len=10))
def test_warm_memo_matches_cold_on_fractional_profiles(instance):
    profile, caps, trace = instance
    trace = trace if trace.drained else append_drain(trace)
    twin = doubled(profile)
    expected = cold(trace, caps, profile), cold(trace, caps, twin)
    analysis._end_of_trace.cache_clear()
    for p, report in zip((profile, twin, profile, twin), expected * 2):
        assert_same(verify_all(trace, caps, p), report)
