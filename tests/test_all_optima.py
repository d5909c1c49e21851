"""Every optimal diligent schedule accepts the same A*, and every checker holds on each.

`opt_search` breaks benefit ties toward the highest class, so `verify_all`
replays one optimal schedule of many.  On seeded short drained traces, this
enumerates every diligent schedule (`conftest.all_diligent_schedules`), keeps
those that earn the most, and asserts:

- one end-of-trace acceptance vector A* per trace, the one `verify_all`
  reports (A + D), so D, S*, U, the deltas and every end-of-trace verdict are
  the same whichever optimum is replayed, and `_end_of_trace`'s key
  (profile, A, A*) names a single value;
- the per-event statements (xi >= 0, phi >= 0 and both monotonicity
  statements) and the end-of-trace checkers hold on each optimal schedule's
  ledger, checked by the public checkers against greedy's ledger.

A drained trace transmits what it accepts, so an optimum's benefit is
sum v_h A*_h: a schedule that earns less accepts another A*.
"""

from __future__ import annotations

import random

from conftest import replay_all, tail_sums
from mqsim.analysis import (
    check_aggregate_deficit,
    check_D_bounds,
    check_D_sum_bounds,
    check_delta_chain,
    check_phi_nonneg,
    check_ratio,
    check_surplus_monotonicity,
    check_u_bounds,
    check_xi_nonneg,
    compute_phi,
    compute_xi,
    suffix_sums,
    u_recursion,
    verify_all,
)
from mqsim.engine import run_greedy
from mqsim.model import QueueCapacities, SEND, Trace, append_drain, compute_c, validate_profile
from mqsim.opt import opt_search

TRACES = 1000
MAX_RAW_LEN = 8


def optimal_ledgers(trace, caps, profile):
    """The ledger of every diligent schedule that earns the most."""
    ledgers = [ledger for _, ledger in replay_all(trace, caps, profile)]
    best = max(ledger.benefit_transmitted for ledger in ledgers)
    return [ledger for ledger in ledgers if ledger.benefit_transmitted == best]


def instances(seed):
    """Seeded (profile, caps, drained trace): m = 2-4 integer values, caps 1-3,
    raw length up to MAX_RAW_LEN."""
    rng = random.Random(seed)
    for _ in range(TRACES):
        m = rng.randint(2, 4)
        values = sorted(rng.sample(range(1, 13), m))
        caps = QueueCapacities(tuple(rng.randint(1, 3) for _ in range(m)))
        raw = tuple(rng.randint(1, m) if rng.random() < 0.5 else SEND
                    for _ in range(rng.randint(0, MAX_RAW_LEN)))
        yield validate_profile(values), caps, append_drain(Trace(raw))


def false_verdicts(trace, greedy, opt, profile):
    """The names of the public checkers' verdicts that fail on this ledger pair."""
    xi, phi = compute_xi(greedy, opt), compute_phi(greedy, opt)
    A, A_star = (tuple(row[-1] for row in ledger.accepted) for ledger in (greedy, opt))
    D, S = tuple(a_star - a for a, a_star in zip(A, A_star)), suffix_sums(A)
    verdicts = [
        check_xi_nonneg(xi),
        *check_surplus_monotonicity(trace, greedy, opt, xi),
        check_phi_nonneg(phi),
        check_aggregate_deficit(S, tail_sums(opt)),
        check_D_bounds(D, S),
        check_D_sum_bounds(D, S),
        check_u_bounds(D, u_recursion(A)),
        check_delta_chain(profile, A, D),
        check_ratio(opt.benefit_transmitted, greedy.benefit_transmitted,
                    compute_c(profile).upper)[1],
    ]
    false = [v.name for v in verdicts if not v.ok]
    return false + ([] if A[-1] == A_star[-1] else ["top_class_equal"])


def test_every_optimal_schedule_accepts_one_A_star_and_passes_every_checker():
    optima = 0
    for profile, caps, trace in instances(10):
        ledgers = optimal_ledgers(trace, caps, profile)
        assert ledgers[0].benefit_transmitted == opt_search(trace, caps, profile).benefit
        a_stars = {tuple(row[-1] for row in ledger.accepted) for ledger in ledgers}
        report = verify_all(trace, caps, profile)
        greedy, _ = run_greedy(trace, caps, profile)
        A = tuple(row[-1] for row in greedy.accepted)
        assert a_stars == {tuple(map(sum, zip(A, report.D)))}, (profile, caps, trace)
        for ledger in ledgers:
            assert false_verdicts(trace, greedy, ledger, profile) == [], (profile, caps, trace)
        optima += len(ledgers)
    # ties are common at these lengths, so the statement is about many schedules
    assert optima > 2 * TRACES
