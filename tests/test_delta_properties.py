"""Differential property test of the scaled-integer potential chain.

`mqsim.analysis` builds each profile's Delta coefficients and sign verdict
once, as integers scaled by q * profile.scale (c* = p/q), and compares
integers.  The functions below are the Fraction form the checker used
before; they are kept here as the oracle that the integer path must match.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hypothesis import given, settings, strategies as st

from conftest import potential_chain

from mqsim.analysis import (
    Verdict,
    _coefficients,
    _delta,
    _delta_chain,
    check_coefficient_signs,
    compute_delta,
    suffix_sums,
    u_recursion,
)
from mqsim.model import ValueProfile, compute_c, doubling_tail


def oracle_delta(profile: ValueProfile, c_star: Fraction, U, S) -> tuple[Fraction, ...]:
    m = profile.m
    values = profile.values

    def v(i: int) -> Fraction:
        return values[i - 1] if i >= 1 else Fraction(0)

    deltas = []
    for h in range(1, m - 1):
        tail = doubling_tail(values, h - 1)
        coef_u = (v(h) + tail) - c_star * (v(h - 1) + tail)
        coef_s = (v(h - 1) + tail) - c_star * tail
        slope = sum(
            ((v(k + 1) - v(k)) * U[k] for k in range(h, m - 1)), Fraction(0)
        )
        deltas.append(coef_u * U[h - 1] + coef_s * S[h - 1] + slope)
    return tuple(deltas)


def oracle_signs(profile: ValueProfile, c_star: Fraction) -> Verdict:
    values = profile.values
    for i in range(1, profile.m):
        tail = doubling_tail(values, i)
        if (values[i - 1] + tail) - c_star * (values[i] + tail) > 0:
            return Verdict("coefficient_signs", False, h=i)
    return Verdict("coefficient_signs", True)


def oracle_chain(
    profile: ValueProfile, c_star: Fraction, A: Sequence[int], D: Sequence[int],
    bump: Sequence[int] = (0,) * 4,
) -> Verdict:
    """The Fraction chain, with Delta_h shifted by bump[h-1] (whole value units)
    so that single links can be made to fail."""
    m = profile.m
    values = profile.values
    name = "potential_chain"
    U = u_recursion(A)
    delta = tuple(
        d + b for d, b in zip(oracle_delta(profile, c_star, U, suffix_sums(A)), bump)
    )

    weighted_D = sum(
        (values[h - 1] * D[h - 1] for h in range(1, m)), Fraction(0)
    )
    weighted_A = sum(
        (values[h - 1] * A[h - 1] for h in range(1, m + 1)), Fraction(0)
    )

    if m == 2:
        ok = weighted_D <= values[0] * U[0] and values[0] * U[0] <= c_star * weighted_A
        return Verdict(name, ok)

    if not oracle_signs(profile, c_star).ok:
        return Verdict(name, False)

    if weighted_D > delta[0]:
        return Verdict(name, False)
    for h in range(1, m - 2):
        if delta[h - 1] > c_star * values[h - 1] * A[h - 1] + delta[h]:
            return Verdict(name, False, h=h)
    last = c_star * sum(
        (values[h - 1] * A[h - 1] for h in range(m - 2, m + 1)), Fraction(0)
    )
    if delta[m - 3] > last:
        return Verdict(name, False, h=m - 2)
    if weighted_D > c_star * weighted_A:
        return Verdict(name, False)
    return Verdict(name, True)


def key(verdict: Verdict) -> tuple:
    return verdict.name, verdict.ok, verdict.h


@st.composite
def cases(draw):
    m = draw(st.integers(2, 6))
    values = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 7), max_value=30, max_denominator=7),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    A = tuple(draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)))
    D = tuple(draw(st.lists(st.integers(-4, 12), min_size=m, max_size=m)))
    c_any = draw(st.fractions(min_value=Fraction(1, 97), max_value=Fraction(96, 97),
                              max_denominator=97))
    bump = tuple(draw(st.lists(st.integers(-8, 8), min_size=4, max_size=4)))
    c_small = draw(st.fractions(min_value=Fraction(1, 97), max_value=Fraction(1, 10),
                                max_denominator=97))
    return ValueProfile(tuple(sorted(values))), A, D, bump, c_any, c_small


@settings(derandomize=True, max_examples=400, deadline=None)
@given(cases())
def test_integer_chain_matches_fraction_oracle(case):
    profile, A, D, bump, c_any, c_small = case
    c_star = compute_c(profile).c_star
    U, S = u_recursion(A), suffix_sums(A)

    for c in (c_star, c_any, c_small):
        assert key(check_coefficient_signs(profile, c)) == key(oracle_signs(profile, c))
        if profile.m >= 3:
            assert compute_delta(profile, c, U, S) == oracle_delta(profile, c, U, S)
        co = _coefficients(profile, c)
        scaled = [x + b * co.q * profile.scale for x, b in zip(_delta(co, U, S), bump)]
        verdict = _delta_chain(profile, co, A, D, U, scaled)
        assert key(verdict) == key(oracle_chain(profile, c, A, D, bump))

    assert key(potential_chain(profile, A, D)) == key(oracle_chain(profile, c_star, A, D))
