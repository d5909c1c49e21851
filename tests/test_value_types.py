"""The package's value types and records, and what `import mqsim` loads.

`ValueProfile`, `QueueCapacities`, `Trace` and `BoundReport` are immutable
value classes: not tuples, equal only to their own type, rebuilt (and so
validated again) by `pickle` and `copy`, and left as they are by a second
call of `__init__`.  The records (`Verdict`,
`ComparativeReport`, `OptResult`, `SearchResult`, `Schedule`, `Ledger`) are
`NamedTuple`s.  Neither kind needs `dataclasses`, and only a search pool
needs `multiprocessing`, so a fresh `import mqsim` loads neither.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mqsim import (
    ComparativeReport,
    Ledger,
    OptResult,
    Schedule,
    SearchResult,
    Verdict,
    exhaustive_worst,
    opt_search,
    verify_all,
)
from mqsim.model import (
    BoundReport,
    MQSimError,
    QueueCapacities,
    Trace,
    TraceSyntaxError,
    ValueProfile,
    compute_c,
    validate_profile,
)

SRC = Path(__file__).resolve().parents[1] / "src"


PROFILE = validate_profile((1, "3/2", 4))
# one instance of each value type, with the name of an argument it stores and
# of a value it derives
VALUES = [
    (PROFILE, "values", "weights"),
    (QueueCapacities((2, 1, 3)), "caps", "m"),
    (Trace((2, 0, 1, 0)), "events", "drained"),
    (compute_c(PROFILE), "c", "abs_lower"),
]
each_value = pytest.mark.parametrize("value, stored, derived", VALUES,
                                     ids=[type(v).__name__ for v, _, _ in VALUES])
# valid arguments, other than each instance's own, for a second `__init__` call
AGAIN = {ValueProfile: ((1, 2),), QueueCapacities: ((4, 4, 4, 4),), Trace: ((2, 0, 0),),
         BoundReport: ((Fraction(1, 3),), Fraction(5, 4))}


def test_import_loads_no_dataclasses_inspect_or_multiprocessing():
    # -S -E: no site hooks or PYTHON* variables, so nothing but mqsim imports;
    # -B: no bytecode cache left in src/
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mqsim, mqsim.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-E", "-B", "-c", script, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "\n"


@each_value
def test_value_refuses_assignment_and_deletion(value, stored, derived):
    before = repr(value)
    for name in (stored, derived, "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert repr(value) == before


@each_value
def test_value_is_no_tuple(value, stored, derived):
    assert not isinstance(value, tuple)
    with pytest.raises(TypeError):
        iter(value)
    args = tuple(getattr(value, name) for name in type(value)._fields)
    assert value != args
    assert value != getattr(value, stored)
    assert value == type(value)(*args)


def test_values_of_different_types_never_equal():
    assert QueueCapacities((1, 2)) != Trace((1, 2))
    assert Trace((1, 2)) != QueueCapacities((1, 2))
    assert ValueProfile((1, 2)) != QueueCapacities((1, 2))


def test_repr_names_the_stored_arguments():
    assert repr(Trace((1, 0))) == "Trace(events=(1, 0))"
    assert repr(QueueCapacities((1, 2))) == "QueueCapacities(caps=(1, 2))"
    assert repr(compute_c(validate_profile((1, 2)))) == (
        "BoundReport(c=(Fraction(1, 2),), abs_lower=Fraction(4, 3))")


def test_equal_profiles_hash_alike_across_spellings():
    spellings = [("2/2", 2), (1, 2), (Fraction(3, 3), "4/2"), [Fraction(1), Fraction(2)]]
    profiles = [validate_profile(v) for v in spellings] + [ValueProfile([Fraction(1), 2])]
    assert all(p == profiles[0] for p in profiles)
    assert {hash(p) for p in profiles} == {hash(profiles[0])}
    assert len(set(profiles)) == 1


def test_list_built_values_equal_and_verify_like_tuple_built():
    built = [(QueueCapacities([1, 1]), QueueCapacities((1, 1))),
             (ValueProfile([Fraction(1), Fraction(2)]), ValueProfile((Fraction(1), Fraction(2)))),
             (Trace([1, 0]), Trace((1, 0))),
             (BoundReport([Fraction(1, 2)], Fraction(4, 3)), compute_c(validate_profile((1, 2))))]
    for from_list, from_tuple in built:
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)
    caps, profile, trace = (from_list for from_list, _ in built[:3])
    assert isinstance(caps.caps, tuple) and isinstance(profile.values, tuple)
    report = verify_all(Trace([1, 2, 0, 1, 0, 0]), caps, profile)
    assert report.all_ok
    assert report == verify_all(Trace((1, 2, 0, 1, 0, 0)), *(t for _, t in built[:2]))


@each_value
def test_pickle_and_copy_round_trips_are_equal(value, stored, derived):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert twin == value
        assert type(twin) is type(value)
        assert getattr(twin, derived) == getattr(value, derived)


@each_value
def test_a_second_init_changes_nothing(value, stored, derived):
    twin = copy.copy(value)  # rebuilt from the arguments, so it shares no slot's state
    slots = type(value).__slots__
    value.__init__(*AGAIN[type(value)])
    assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
    assert [getattr(value, s) for s in slots] == [getattr(twin, s) for s in slots]


def test_a_profile_stays_in_its_dict_after_a_second_init():
    profile = validate_profile((1, 2))
    table = {profile: "kept"}
    profile.__init__((1, 2, 5))
    assert table[profile] == "kept" and table[validate_profile((1, 2))] == "kept"
    caps = QueueCapacities((1, 1))
    caps.__init__((4, 4, 4))
    assert (caps.caps, caps.m) == ((1, 1), 2)


def bypassing_checks(cls, **stored):
    """An instance whose slots were set without `__new__`'s checks."""
    value = object.__new__(cls)
    for name, arg in stored.items():
        object.__setattr__(value, name, arg)
    return value


@pytest.mark.parametrize("bad, error, message", [
    (bypassing_checks(Trace, events=(1, -1)), TraceSyntaxError, "bad event encoding -1"),
    (bypassing_checks(QueueCapacities, caps=(1, 0)), MQSimError, "capacity 0 is not"),
    (bypassing_checks(ValueProfile, values=(Fraction(2), Fraction(1))), MQSimError, "increasing"),
    (bypassing_checks(BoundReport, c=(), abs_lower=Fraction(1)), MQSimError, "c is empty"),
], ids=["Trace", "QueueCapacities", "ValueProfile", "BoundReport"])
def test_pickle_and_copy_validate_again(bad, error, message):
    with pytest.raises(error, match=message):
        pickle.loads(pickle.dumps(bad))
    with pytest.raises(error, match=message):
        copy.deepcopy(bad)
    with pytest.raises(error, match=message):
        copy.copy(bad)


def test_records_are_named_tuples():
    profile, caps = validate_profile((1, 2)), QueueCapacities((1, 1))
    witness = Trace((1, 2, 0, 1, 0, 0))
    records = [opt_search(witness, caps, profile), exhaustive_worst(profile, caps, 3),
               verify_all(witness, caps, profile)]
    records += [records[0].schedule, next(iter(records[2].verdicts.values()))]
    assert [type(r) for r in records] == [OptResult, SearchResult, ComparativeReport,
                                          Schedule, Verdict]
    for cls in (*map(type, records), Ledger):
        assert issubclass(cls, tuple) and cls._fields


def test_verdict_and_report_replace():
    profile, caps = validate_profile((1, 2)), QueueCapacities((1, 1))
    report = verify_all(Trace((1, 2, 0, 1, 0, 0)), caps, profile)
    verdict = report.verdicts["ratio_bound"]
    assert verdict._replace(ok=False).line() == "verdict ratio_bound false"
    fewer = report._replace(verdicts={})
    assert fewer.all_ok and fewer.verdict_lines() == [] and fewer.ratio == report.ratio
    assert fewer != report and hash(fewer) == hash(report)
