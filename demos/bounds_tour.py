#!/usr/bin/env python3
"""Tour of the closed-form bound constants.

For class values 0 < v_1 < ... < v_m the greedy policy's proven competitive
ratio is 1 + c*, where c* is the maximum of

    c_i = (v_i + T_i) / (v_{i+1} + T_i),   T_i = sum_{j<i} 2^(j-1) v_{i-j}.

This script prints the constants for a few profiles, shows `lower` =
2 - v_m / (v_1 + ... + v_m) next to them (not a lower bound on greedy's
ratio at every capacity vector: see `BoundReport`), and
contrasts the two natural recurrences for building value sequences: only the
doubled one pins every c_i at exactly 1/2.
"""

from mqsim.model import compute_c, recurrence_values, validate_profile

PROFILES = [
    (1, 2),
    (1, 2, 5),
    (1, 2, 3),
    (1, 3, 4, 10),
    ("1/3", "1/2", "2", "7/2"),
]


def show(values):
    profile = validate_profile(values)
    report = compute_c(profile)
    print(f"values {values}")
    print(f"  c        = {', '.join(map(str, report.c))}")
    print(f"  c*       = {report.c_star}")
    print(f"  upper    = 1 + c* = {report.upper}")
    print(f"  lower    = {report.abs_lower}   (2 - v_m / sum(v); not a lower bound at every caps)")
    print(f"  gap      = {report.upper - report.abs_lower}")
    print()


if __name__ == "__main__":
    print("=" * 64)
    print("Bound constants per profile")
    print("=" * 64)
    for values in PROFILES:
        show(values)

    print("=" * 64)
    print("Two recurrences, very different constants")
    print("=" * 64)
    plain = recurrence_values(6)
    doubled = recurrence_values(6, doubled=True)
    print(f"v[i+1] =   v[i] + T_i : {', '.join(map(str, plain))}")
    print(f"   c = {', '.join(map(str, compute_c(validate_profile(plain)).c))}")
    print(f"v[i+1] = 2 v[i] + T_i : {', '.join(map(str, doubled))}")
    print(f"   c = {', '.join(map(str, compute_c(validate_profile(doubled)).c))}")
    print()
    print("Only the doubled sequence keeps every c_i at 1/2; the plain one")
    print("reaches c* = 3/4 as soon as m = 3 (the `bound` command prints a")
    print("note when it sees a plain-recurrence profile).")
