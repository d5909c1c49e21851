"""Derived counters of a greedy/optimal ledger pair and the full checker suite.

Everything here is a mechanical check on concrete traces: per-event surplus
potentials, end-of-trace deficit and tail-sum inequalities, the upper-bound
family with its recursive and explicit forms, the weighted potential descent,
and the competitive-ratio bound itself.  All comparisons are exact.

`verify_all` calls the public checkers, one function per verdict; end-of-trace
checkers take end-of-trace vectors (A, D, the tail sums S and S*, U).  The bound
and the delta coefficients share one cache entry per profile.  Checks read whole
rows in C-level passes, and a failure's (h, e) is looked up only when the check
fails.

D, S, U, the deltas and the eight end-of-trace verdicts depend on nothing but
the profile, greedy's end-of-trace acceptances A and the optimum's A*: not on
the caps, the events or any per-event row.  So `_end_of_trace` memoizes them on
(profile, A, A*), up to 1,024 entries, least recently used first out; a hit
serves exactly what a miss would compute.  Every optimal schedule accepts the
same A*, so an entry does not depend on the optimum's tie-break either.  Most
traces share their key with an earlier one (95.7% of 9,000 seeded drained
traces of three configs, in one cold pass).  The per-event checks, the ratio
and every ledger are computed on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, count, repeat
from operator import add, eq, itemgetter, le, lt, mul, not_, sub
from typing import Iterable, NamedTuple, Sequence

from .engine import Ledger, LedgerMismatch, check_columns, run_greedy, replay_schedule
from .model import (
    MQSimError,
    QueueCapacities,
    Trace,
    ValueProfile,
    compute_c,
    doubling_tail,
)
from .opt import DEFAULT_STATE_CAP, opt_search

Matrix = tuple[tuple[int, ...], ...]


class MTooSmall(MQSimError):
    pass


@dataclass(frozen=True)
class Verdict:
    """Outcome of one checked statement, with first-failure coordinates."""

    name: str
    ok: bool
    h: int | None = None
    event: int | None = None

    def line(self) -> str:
        parts = [f"verdict {self.name} {'true' if self.ok else 'false'}"]
        if self.h is not None:
            parts.append(f"h={self.h}")
        if self.event is not None:
            parts.append(f"e={self.event}")
        return " ".join(parts)


@dataclass(frozen=True)
class ComparativeReport:
    """Greedy-vs-optimal quantities of one drained trace plus all verdicts.

    `xi` and `phi` have one row per class h in [1, m-1] and one column per
    event including the initial null event.  `D`, `S` are end-of-trace
    (deficit per class, greedy acceptance tail sums); `U` the upper-bound
    family U_1..U_{m-1}; `delta` the weighted potentials (empty when m = 2).
    """

    m: int
    xi: Matrix
    phi: Matrix
    D: tuple[int, ...]
    S: tuple[int, ...]
    U: tuple[int, ...]
    delta: tuple[Fraction, ...]
    greedy_benefit: Fraction
    opt_benefit: Fraction
    ratio: Fraction
    bound: Fraction
    verdicts: dict[str, Verdict] = field(compare=False)

    @property
    def all_ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())

    def verdict_lines(self) -> list[str]:
        return [v.line() for v in self.verdicts.values()]


def _check_paired(greedy: Ledger, opt: Ledger) -> None:
    n, n_opt = len(greedy.accepted[0]) - 1, len(opt.accepted[0]) - 1  # minus the null entry
    if n != n_opt:
        raise LedgerMismatch(f"event counts differ: {n} vs {n_opt}")
    if len(greedy.accepted) != len(opt.accepted):
        raise LedgerMismatch("class counts differ")


def _first_false(flags: Iterable[bool]) -> int | None:
    """Index of the first false flag, or None when every flag holds."""
    return next(compress(count(), map(not_, flags)), None)


_last = itemgetter(-1)  # of a row: its end-of-trace count

# Verdicts are immutable, so the checkers share one instance per distinct value.
_verdict = lru_cache(maxsize=1024)(Verdict)


def _first_bad(name: str, flags: Iterable[bool]) -> Verdict:
    """The verdict that every flag holds, else false at the first failing h = index + 1."""
    bad = _first_false(flags)
    return _verdict(name, bad is None, None if bad is None else bad + 1)


def _surplus(greedy: Ledger, opt: Ledger, counter: str) -> Matrix:
    """compute_xi / compute_phi on ledgers already paired."""
    g, o = getattr(greedy, counter), getattr(opt, counter)
    tail, rows = g[-1], []
    for h in range(len(g) - 1, 0, -1):  # tail = g_h + ... + g_m, one row per class
        tail = list(map(add, tail, g[h - 1]))
        rows.append(list(map(sub, tail, o[h - 1])))
    # rows become tuples from lists: a tuple built from an iterator is allocated at a
    # guessed length, resized, and freed into CPython's free list for its final length
    return tuple(map(tuple, reversed(rows)))


def compute_xi(greedy: Ledger, opt: Ledger) -> Matrix:
    """Transmit surplus xi_h(e_i) = sum_{l>=h} delta_l(e_i) - delta*_h(e_i),
    one row per h in [1, m-1], one column per event including the null event."""
    _check_paired(greedy, opt)
    return _surplus(greedy, opt, "transmitted")


def compute_phi(greedy: Ledger, opt: Ledger) -> Matrix:
    """Accept surplus phi_h(e_i) = sum_{l>=h} A_l(e_i) - A*_h(e_i); same shape as xi."""
    _check_paired(greedy, opt)
    return _surplus(greedy, opt, "accepted")


def _matrix_nonneg(matrix: Matrix, name: str) -> Verdict:
    if min(chain.from_iterable(matrix), default=0) >= 0:  # every cell in one pass
        return _verdict(name, True)
    h, row = next((h, row) for h, row in enumerate(matrix, 1) if min(row, default=0) < 0)
    return _verdict(name, False, h, _first_false(map(le, repeat(0), row)))


def check_xi_nonneg(xi: Matrix) -> Verdict:
    return _matrix_nonneg(xi, "transmit_surplus_nonneg")


def check_phi_nonneg(phi: Matrix) -> Verdict:
    return _matrix_nonneg(phi, "accept_surplus_nonneg")


def _check_conservation(ledger: Ledger, name: str) -> Verdict:
    acc, tx, occ = ledger.accepted, ledger.transmitted, ledger.occupancy
    # one C-level pass per row, copying no row; a failure names its first event's lowest class
    if all(map(all, map(map, repeat(eq), acc, map(map, repeat(add), tx, occ)))):
        return _verdict(name, True)
    e, h = min((e, h) for h, (a, t, q) in enumerate(zip(acc, tx, occ), 1)
               if (e := _first_false(map(eq, a, map(add, t, q)))) is not None)
    return _verdict(name, False, h, e)


def check_surplus_monotonicity(
    trace: Trace, greedy: Ledger, opt: Ledger, xi: Matrix
) -> tuple[Verdict, Verdict]:
    """Per-send monotonicity of the transmit surplus.

    Between consecutive sends s_{j-1} and s_j (s_0 is the null event),
    xi_h may not drop when (a) greedy had any packet of class >= h buffered
    just after s_{j-1} (checked for j >= 2), or (b) the optimal schedule's
    class-h queue was empty just after s_{j-1} (checked for j >= 1).  Raises
    LedgerMismatch unless the ledgers and xi have one column per event of
    `trace` plus the null entry.
    """
    check_columns(trace, greedy.occupancy[0], opt.occupancy[0], *xi)
    sends = [0, *compress(count(1), map(not_, trace.events))]  # SEND is the only falsy event
    backlogged = opt_empty = (None, None)  # (h, e) of each statement's first failure
    at_sends, g_occ = itemgetter(*sends), greedy.occupancy
    for h, row in enumerate(xi if len(sends) > 1 else (), 1):
        xs = at_sends(row)  # xi_h after s_0, s_1, ...
        for j in compress(count(), map(lt, xs[1:], xs)):  # xi_h drops from s_j to s_{j+1}
            p = sends[j]
            if backlogged[0] is None and j and sum(map(itemgetter(p), g_occ[h - 1 :])) > 0:
                backlogged = (h, sends[j + 1])
            if opt_empty[0] is None and opt.occupancy[h - 1][p] == 0:
                opt_empty = (h, sends[j + 1])
    return (_verdict("transmit_surplus_monotone_backlogged", backlogged[0] is None, *backlogged),
            _verdict("transmit_surplus_monotone_opt_empty", opt_empty[0] is None, *opt_empty))


def suffix_sums(A: Sequence[int]) -> tuple[int, ...]:
    """Tail sums S_h = A_h + ... + A_m for h in [1, m]."""
    return tuple(accumulate(reversed(A)))[::-1]


def _require_len(name: str, vector: Sequence[int], n: int) -> None:
    """A checker zips D with S or U, so a short vector would leave bounds unchecked."""
    if len(vector) != n:
        raise ValueError(f"{name} has {len(vector)} entries, expected {n}")


def check_aggregate_deficit(S: Sequence[int], S_star: Sequence[int]) -> Verdict:
    """Aggregate acceptance bound on the tail sums S of A and S* of A*: for every h,
    sum_{l>=h} (A*_l - A_l) = S*_h - S_h <= S_h at end of trace."""
    _require_len("S*", S_star, len(S))
    return _first_bad("aggregate_deficit_bound", map(le, map(sub, S_star, S), S))


def check_D_bounds(D: Sequence[int], S: Sequence[int]) -> Verdict:
    """End-of-trace deficit bounds: D_h <= S_{h+1} for h in [1, m-1]."""
    _require_len("S", S, len(D))
    return _first_bad("deficit_tail_bound", map(le, D[:-1], S[1:]))


def check_D_sum_bounds(D: Sequence[int], S: Sequence[int]) -> Verdict:
    """End-of-trace deficit sum bounds: D_h + ... + D_{m-1} <= S_h for h in [1, m-2]."""
    _require_len("S", S, len(D))
    return _first_bad("deficit_sum_bound", map(le, suffix_sums(D[:-1])[:-1], S))


def u_recursion(A: Sequence[int]) -> tuple[int, ...]:
    """The bound family by its recursion: U_{m-1} = A_m and
    U_h = min(A_h, U_{h+1}) + S_{h+1} going down to h = 1."""
    if len(A) < 2:
        raise MTooSmall(f"need m >= 2, got {len(A)}")
    S, U = suffix_sums(A), [A[-1]]  # U_{m-1}, then U_h for h = m-2 down to 1
    for h in range(len(A) - 2, 0, -1):
        U.append(min(A[h - 1], U[-1]) + S[h])
    return tuple(reversed(U))


@lru_cache(maxsize=256)
def u_candidates(m: int, h: int) -> tuple[tuple[int, ...], ...]:
    """S-index lists of the m-h explicit upper bounds on D_h + ... + D_{m-1}.

    Each candidate is a tuple of 1-based S indices to sum: the chains
    (S_{h+1}, ..., S_{j+1}, S_{j+1}) for j in [h, m-3], then
    (S_{h+1}, ..., S_m), then (S_h,) when h <= m-2.
    """
    if not 1 <= h <= m - 1:
        raise ValueError(f"h must be in [1, {m - 1}], got {h}")
    cands = []
    for j in range(h, m - 2):
        cands.append(tuple(range(h + 1, j + 2)) + (j + 1,))
    cands.append(tuple(range(h + 1, m + 1)))
    if h <= m - 2:
        cands.append((h,))
    return tuple(cands)


def u_explicit(A: Sequence[int]) -> tuple[int, ...]:
    """The bound family by direct enumeration of its explicit candidates."""
    if len(A) < 2:
        raise MTooSmall(f"need m >= 2, got {len(A)}")
    m, at = len(A), (0, *suffix_sums(A)).__getitem__  # u_candidates index S from 1
    return tuple(min(map(sum, map(map, repeat(at), u_candidates(m, h)))) for h in range(1, m))


def check_u_bounds(D: Sequence[int], U: Sequence[int]) -> Verdict:
    """D_h + ... + D_{m-1} <= U_h for every h in [1, m-1]."""
    _require_len("U", U, len(D) - 1)
    return _first_bad("u_bounds_hold", map(le, suffix_sums(D[:-1]), U))


class _Coefficients(NamedTuple):
    """Delta coefficients of one (profile, c* = p/q), scaled by q * profile.scale,
    and the coefficient-sign verdict for that c*.

    Row h in [1, m-2] holds CU_h = q(w_h + T_h) - p(w_{h-1} + T_h),
    CS_h = q(w_{h-1} + T_h) - p T_h and SL_h = q(w_{h+1} - w_h), where
    w_i = v_i * scale, w_0 = 0 and T_h = doubling_tail(w, h-1).
    """

    p: int
    q: int
    rows: tuple[tuple[int, int, int], ...]
    signs: Verdict


def _coefficients(profile: ValueProfile, c_star: Fraction) -> _Coefficients:
    p, q = c_star.numerator, c_star.denominator
    w = (0,) + profile.weights
    tails = [int(doubling_tail(profile.weights, i)) for i in range(profile.m)]
    rows = tuple(
        (q * (w[h] + t) - p * (w[h - 1] + t), q * (w[h - 1] + t) - p * t,
         q * (w[h + 1] - w[h]))
        for h, t in zip(range(1, profile.m - 1), tails)
    )
    bad = next((i for i in range(1, profile.m)
                if q * (w[i] + tails[i]) - p * (w[i + 1] + tails[i]) > 0), None)
    return _Coefficients(p, q, rows, Verdict("coefficient_signs", bad is None, h=bad))


def _delta(co: _Coefficients, U: Sequence[int], S: Sequence[int]) -> list[int]:
    """q * scale * Delta_h for h in [1, m-2], as ints (empty when m = 2)."""
    out, slope = [], 0
    for h in range(len(co.rows), 0, -1):
        cu, cs, sl = co.rows[h - 1]
        slope += sl * U[h]
        out.append(cu * U[h - 1] + cs * S[h - 1] + slope)
    return out[::-1]


def compute_delta(
    profile: ValueProfile,
    c_star: Fraction,
    U: Sequence[int],
    S: Sequence[int],
) -> tuple[Fraction, ...]:
    """Weighted potentials Delta_1..Delta_{m-2}.

    Delta_h couples U_h and S_h through doubling-tail coefficients (with the
    v_0 = 0 convention and empty sums for h <= 2) plus the telescoping
    (v_{k+1} - v_k) U_{k+1} tail.  Defined only for m >= 3.  With c_star = p/q
    it is computed as the integer q * scale * Delta_h = CU_h U_h + CS_h S_h +
    sum_{k=h}^{m-2} SL_k U_{k+1} (see _Coefficients), returned over q * scale.
    """
    if profile.m < 3:
        raise MTooSmall(f"delta potentials need m >= 3, got {profile.m}")
    co = _coefficients(profile, c_star)
    return tuple(Fraction(x, co.q * profile.scale) for x in _delta(co, U, S))


def check_coefficient_signs(profile: ValueProfile, c_star: Fraction) -> Verdict:
    """(v_i + T_i) - c_star * (v_{i+1} + T_i) <= 0 for every i in [1, m-1];
    checked in integers scaled by q * scale."""
    return _coefficients(profile, c_star).signs


def check_delta_chain(
    profile: ValueProfile, A: Sequence[int], D: Sequence[int]
) -> Verdict:
    """Descent of the weighted potentials, ending at the ratio bound's numerator.

    Checks the entry inequality sum_h v_h D_h <= Delta_1, each link
    Delta_h <= c* v_h A_h + Delta_{h+1}, the final link bounding Delta_{m-2}
    by c* (v_{m-2} A_{m-2} + v_{m-1} A_{m-1} + v_m A_m), the coefficient sign
    condition, and the chain's conclusion sum v_h D_h <= c* sum v_h A_h.
    For m = 2 the potentials are undefined and the degenerate route
    v_1 D_1 <= v_1 U_1 = v_1 A_2 <= c* (v_1 A_1 + v_2 A_2) is checked instead.
    """
    co = _profile_constants(profile)[1]
    U = u_recursion(A)
    return _delta_chain(profile, co, A, D, U, _delta(co, U, suffix_sums(A)))


def _delta_chain(
    profile: ValueProfile, co: _Coefficients, A: Sequence[int], D: Sequence[int],
    U: Sequence[int], delta: Sequence[int],
) -> Verdict:
    """check_delta_chain on precomputed U and scaled Delta (from _delta), with
    every inequality multiplied through by q * scale, so all operands are ints.

    The one private core of a verdict: `verify_all` reports the same scaled
    deltas that it checks here, and a test injects perturbed deltas."""
    m, w, p, q = profile.m, profile.weights, co.p, co.q
    name = "potential_chain"
    weighted_D = sum(map(mul, w[: m - 1], D))
    weighted_A = sum(map(mul, w, A))

    if m == 2:
        return _verdict(name, weighted_D <= w[0] * U[0] and q * w[0] * U[0] <= p * weighted_A)
    if not co.signs.ok or q * weighted_D > delta[0]:
        return _verdict(name, False)
    for h in range(1, m - 2):
        if delta[h - 1] > p * w[h - 1] * A[h - 1] + delta[h]:
            return _verdict(name, False, h)
    if delta[m - 3] > p * sum(map(mul, w[m - 3 :], A[m - 3 :])):
        return _verdict(name, False, m - 2)
    return _verdict(name, q * weighted_D <= p * weighted_A)


def check_ratio(o: Fraction, g: Fraction, bound: Fraction) -> tuple[Fraction, Verdict]:
    """Ratio o/g of optimal to greedy benefit against `bound`.

    When greedy earns nothing the ratio is reported as 1 and the verdict is
    o == 0 (vacuously true, since the optimum is then zero too).
    """
    if not g:
        return Fraction(1), _verdict("ratio_bound", not o)
    ratio = Fraction(o.numerator * g.denominator, o.denominator * g.numerator)  # o / g
    return ratio, _verdict("ratio_bound", ratio.numerator * bound.denominator
                           <= bound.numerator * ratio.denominator)


@lru_cache(maxsize=64)
def _profile_constants(profile: ValueProfile) -> tuple[Fraction, _Coefficients]:
    """The bound 1 + c* and the delta coefficients at c*, per profile."""
    report = compute_c(profile)
    return report.upper, _coefficients(profile, report.c_star)


@lru_cache(maxsize=1024)
def _end_of_trace(profile: ValueProfile, A: tuple[int, ...], A_star: tuple[int, ...]) -> tuple:
    """D, S, U, the deltas and the eight end-of-trace verdicts of `verify_all`.

    Each is an exact function of (profile, A, A*) alone, so `verify_all` memoizes
    them on that key; the checkers are read through module globals on a miss."""
    co = _profile_constants(profile)[1]
    D = tuple(map(sub, A_star, A))
    S, U = suffix_sums(A), u_recursion(A)
    delta = _delta(co, U, S)
    verdicts = (
        check_aggregate_deficit(S, suffix_sums(A_star)),
        _verdict("top_class_equal", A[-1] == A_star[-1]),
        check_D_bounds(D, S),
        check_D_sum_bounds(D, S),
        check_u_bounds(D, U),
        _verdict("u_forms_agree", U == u_explicit(A)),
        co.signs,
        _delta_chain(profile, co, A, D, U, delta),
    )
    return D, S, U, tuple(Fraction(x, co.q * profile.scale) for x in delta), verdicts


def verify_all(
    trace: Trace,
    caps: QueueCapacities,
    profile: ValueProfile,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ComparativeReport:
    """Populate every derived quantity and every verdict for one drained trace."""
    if not trace.drained:
        raise ValueError("verify_all needs a drained trace; use append_drain first")
    greedy_ledger, _ = run_greedy(trace, caps, profile)
    opt_result = opt_search(trace, caps, profile, state_cap=state_cap)
    opt_ledger = replay_schedule(trace, caps, profile, opt_result.schedule)
    g, o = greedy_ledger.benefit_transmitted, opt_ledger.benefit_transmitted
    # the extracted schedule must earn the DP's optimum; both are normalised
    # Fractions, so equal values have equal (numerator, denominator) pairs
    if o.as_integer_ratio() != opt_result.benefit.as_integer_ratio():
        raise LedgerMismatch(f"optimal schedule earns {o}, not {opt_result.benefit}")

    xi, phi = compute_xi(greedy_ledger, opt_ledger), compute_phi(greedy_ledger, opt_ledger)
    D, S, U, delta, end = _end_of_trace(
        profile, tuple(map(_last, greedy_ledger.accepted)), tuple(map(_last, opt_ledger.accepted)))
    bound = _profile_constants(profile)[0]
    ratio, ratio_verdict = check_ratio(o, g, bound)

    backlogged, opt_empty = check_surplus_monotonicity(trace, greedy_ledger, opt_ledger, xi)
    verdicts = [
        _check_conservation(greedy_ledger, "conservation_greedy"),
        _check_conservation(opt_ledger, "conservation_opt"),
        check_xi_nonneg(xi),
        backlogged,
        opt_empty,
        check_phi_nonneg(phi),
        *end,
        ratio_verdict,
    ]

    return ComparativeReport(
        m=profile.m, xi=xi, phi=phi, D=D, S=S, U=U, delta=delta,
        greedy_benefit=g, opt_benefit=o, ratio=ratio, bound=bound,
        verdicts={v.name: v for v in verdicts},
    )


def format_report(report: ComparativeReport) -> str:
    """Human-readable block; the machine-readable form is verdict_lines()."""
    lines = [
        f"classes: {report.m}",
        f"greedy benefit: {report.greedy_benefit}",
        f"optimal benefit: {report.opt_benefit}",
        f"ratio: {report.ratio}  (bound {report.bound})",
        f"D: {','.join(map(str, report.D))}",
        f"S: {','.join(map(str, report.S))}",
        f"U: {','.join(map(str, report.U))}",
    ]
    if report.delta:
        lines.append(f"delta: {','.join(map(str, report.delta))}")
    lines.extend(report.verdict_lines())
    return "\n".join(lines) + "\n"
