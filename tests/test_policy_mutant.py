"""A wrong greedy rule or surplus sum is caught by the verifier and by the search.

`engine._greedy` is the only place greedy's rule is written, so patching it
changes `run_greedy` (and through it `verify_all`) and
`greedy_transmit_counts` (and through it the searches) at once.  The mutant
serves the lowest nonempty class; each trace below turns named verdicts false
under it, and the same patch makes `exhaustive_worst` report a ratio above the
proven bound.  A second mutant makes `analysis._surplus` skip row h of
greedy's tail sum, and a one-arrival trace turns three verdicts false.  Two
more turn the verdicts that no tier-1 trace makes false: `u_explicit` missing
a candidate breaks `u_forms_agree`, and `check_aggregate_deficit` held to
S_{h+2} breaks `aggregate_deficit_bound`.  A last mutant of `opt_search` keeps
the optimum's value but returns a worse schedule, and `verify_all` refuses it.
"""

from __future__ import annotations

from operator import add, le, sub

import pytest

from mqsim import analysis, cli, engine
from mqsim.adversary import BoundFalsified, exhaustive_worst
from mqsim.analysis import LedgerMismatch, Verdict, suffix_sums, u_candidates, verify_all
from mqsim.engine import Schedule
from mqsim.model import QueueCapacities, SEND, append_drain, parse_trace, validate_profile
from mqsim.opt import OptResult, opt_search as real_opt_search


def lowest_class_first(events, caps, choices=None):
    """`engine._greedy` serving the lowest nonempty class."""
    m = len(caps)
    q, sent = [0] * m, [0] * m
    for ev in events:
        if ev == SEND:
            c = next((c for c in range(m) if q[c]), None)
            if c is not None:
                q[c] -= 1
                sent[c] += 1
            if choices is not None:
                choices.append(None if c is None else c + 1)
        elif q[ev - 1] < caps[ev - 1]:
            q[ev - 1] += 1
    return sent


@pytest.fixture
def mutant(monkeypatch):
    monkeypatch.setattr(engine, "_greedy", lowest_class_first)


def verdicts(values, raw):
    profile = validate_profile(values)
    caps = QueueCapacities((1,) * profile.m)
    text = "".join(f"A {t[1:]}\n" if t[0] == "A" else "S\n" for t in raw.split())
    trace = append_drain(parse_trace(text))
    return verify_all(trace, caps, profile).verdicts


def false_lines(found):
    return [line for line in map(Verdict.line, found.values()) if " false" in line]


# raw trace (A<c> is an arrival of class c, S a send) -> lines that come back
# false; a bare name is false at no particular (h, e)
CASES = [
    ((1, 2, 5), "A1 A2", ["verdict transmit_surplus_nonneg false h=2 e=3",
                          "verdict transmit_surplus_monotone_opt_empty false h=2 e=3"]),
    ((1, 2, 5), "A1 A2 S A1", ["verdict transmit_surplus_monotone_backlogged false h=2 e=5"]),
    ((1, 2, 5), "A1 A2 S A2", ["verdict accept_surplus_nonneg false h=2 e=4",
                               "deficit_tail_bound", "u_bounds_hold", "potential_chain",
                               "ratio_bound"]),
    ((1, 2), "A1 A2 S A2", ["top_class_equal"]),
]


@pytest.mark.parametrize("values, raw, false", CASES)
def test_lowest_class_rule_turns_verdicts_false(mutant, values, raw, false):
    found = verdicts(values, raw)
    for expected in false:
        if expected.startswith("verdict "):
            assert found[expected.split()[1]].line() == expected
        else:
            assert not found[expected].ok, expected


def test_lowest_class_rule_falsifies_the_search(mutant):
    profile = validate_profile((1, 2, 5))
    with pytest.raises(BoundFalsified):
        exhaustive_worst(profile, QueueCapacities((1, 1, 1)), 5)


def tail_skipping_row_h(greedy, opt, counter):
    """`_surplus` off by one: row h takes g_{h+1} + ... + g_m, not g_h + ... + g_m."""
    g, o = getattr(greedy, counter), getattr(opt, counter)
    tail, rows = g[-1], []
    for h in range(len(g) - 1, 0, -1):
        rows.append(tuple(map(sub, tail, o[h - 1])))
        tail = tuple(map(add, tail, g[h - 1]))
    return tuple(reversed(rows))


def test_surplus_off_by_one_turns_verdicts_false(monkeypatch):
    monkeypatch.setattr(analysis, "_surplus", tail_skipping_row_h)
    found = verdicts((1, 2, 5), "A1")
    assert false_lines(found) == [
        "verdict transmit_surplus_nonneg false h=1 e=2",
        "verdict transmit_surplus_monotone_opt_empty false h=1 e=2",
        "verdict accept_surplus_nonneg false h=1 e=1",
    ]


def u_missing_last_candidate(A):
    """`u_explicit` without the last candidate of every h that has more than one."""
    m, S = len(A), suffix_sums(A)
    kept = (u_candidates(m, h)[:-1] or u_candidates(m, h) for h in range(1, m))
    return tuple(min(sum(S[idx - 1] for idx in cand) for cand in cands) for cands in kept)


def test_missing_u_candidate_breaks_u_forms_agree(monkeypatch):
    monkeypatch.setattr(analysis, "u_explicit", u_missing_last_candidate)
    assert false_lines(verdicts((1, 2, 5), "A3 A2 S")) == ["verdict u_forms_agree false"]


def deficit_held_to_s_h_plus_2(tail_a, tail_a_star):
    """`check_aggregate_deficit` off by two: the tail deficit from h is held to
    S_{h+2} (0 past m), not S_h."""
    tail_d = list(map(sub, tail_a_star, tail_a))
    flags = list(map(le, tail_d, (*tail_a[2:], 0, 0)))
    bad = None if all(flags) else flags.index(False) + 1
    return Verdict("aggregate_deficit_bound", bad is None, bad)


def test_aggregate_deficit_off_by_two_turns_false(monkeypatch):
    monkeypatch.setattr(analysis, "check_aggregate_deficit", deficit_held_to_s_h_plus_2)
    assert false_lines(verdicts((1, 2), "A1 A2 S A1")) == [
        "verdict aggregate_deficit_bound false h=1"]


def lowest_class_optimum(trace, caps, profile, state_cap):
    """`opt_search` that reports the optimum's value but serves the lowest class."""
    value = real_opt_search(trace, caps, profile, state_cap=state_cap).benefit
    choices = []
    lowest_class_first(trace.events, caps.caps, choices)
    return OptResult(value, Schedule(tuple(choices)))


def test_schedule_short_of_the_optimum_is_refused(monkeypatch, tmp_path, capsys):
    # the optimum earns 5 on this trace, the lowest-class schedule 3; unchecked,
    # ratio 3/5 passes ratio_bound and only top_class_equal fails
    monkeypatch.setattr(analysis, "opt_search", lowest_class_optimum)
    with pytest.raises(LedgerMismatch, match="optimal schedule earns 3, not 5"):
        verdicts((1, 2), "A1 A2 S A2 S S")
    path = tmp_path / "t.trace"
    path.write_text("A 1\nA 2\nS\nA 2\nS\nS\n")
    assert cli.main(["verify", "--values", "1", "2", "--caps", "1", "1",
                     "--trace", str(path)]) == 2
    assert capsys.readouterr().err == "error: optimal schedule earns 3, not 5\n"
