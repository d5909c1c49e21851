"""A wrong greedy rule is caught by the verifier and by the search.

`engine.greedy_schedule` is the only place greedy's rule is written, so
patching it changes `run_greedy` (and through it `verify_all`) and
`greedy_transmit_counts` (and through it the searches) at once.  The mutant
serves the lowest nonempty class; each trace below turns named verdicts false
under it, and the same patch makes `exhaustive_worst` report a ratio above the
proven bound.
"""

from __future__ import annotations

import pytest

from mqsim import engine
from mqsim.adversary import BoundFalsified, exhaustive_worst
from mqsim.analysis import verify_all
from mqsim.model import QueueCapacities, SEND, append_drain, parse_trace, validate_profile


def lowest_class_first(events, caps, m):
    q = [0] * m
    choices = []
    for ev in events:
        if ev == SEND:
            c = next((c for c in range(m) if q[c]), None)
            if c is not None:
                q[c] -= 1
            choices.append(None if c is None else c + 1)
        elif q[ev - 1] < caps[ev - 1]:
            q[ev - 1] += 1
    return choices


@pytest.fixture
def mutant(monkeypatch):
    monkeypatch.setattr(engine, "greedy_schedule", lowest_class_first)


def verdicts(values, raw):
    profile = validate_profile(values)
    caps = QueueCapacities((1,) * profile.m)
    text = "".join(f"A {t[1:]}\n" if t[0] == "A" else "S\n" for t in raw.split())
    trace = append_drain(parse_trace(text))
    return verify_all(trace, caps, profile).verdicts


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
