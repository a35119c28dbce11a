"""The contract of the package's value types.

Each public record keeps its constructor (positional order, keyword names,
defaults), compares by fields, shows `Name(field=value, ...)`, copies and
pickles to an equal value, and, where it is immutable, rejects assignment
and hashes as the tuple of its fields.  A type that checks its fields at
construction keeps the check on every path that builds a changed copy.
"""
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from atomshuttle.architectures import ArchitectureSpec, Decomposition, GateCounts, Variant
from atomshuttle.cost import ComparisonRow, CostParams, FidelityReport, SweepResult
from atomshuttle.ir import (ActionKind, BitUsage, GateKind, GateStep, Logical1Q,
                            LogicalCircuit, LogicalCZ, PhysicalEvent, QubitKind,
                            QubitRef)
from atomshuttle.oracle import Branch, PureState, VerificationRecord
from atomshuttle.scheduler import ScheduledProgram, SegmentKind, TrajectorySegment, Violation

A, B, M = QubitRef.comp(0, 0), QubitRef.comp(1, 1), QubitRef.mess(3)
STEP = GateStep(GateKind.CZ, (A, M))
EVENT = PhysicalEvent(1e-6, (0.5, 2.0), ActionKind.LOAD, (M,), belt=1)
SEGMENT = TrajectorySegment(3, SegmentKind.BELT_RIDE, 0.0, 2e-6, (0.0, 0.5), (3.0, 0.5))
COUNTS = GateCounts(2, 3, 1, 0)
REPORT = FidelityReport(COUNTS, 0.99, 0.01)
STATE = PureState(np.array([1.0 + 0j, 0.0]), (A,))
AXIS = np.array([1e-3, 1e-2])

# (type, field names, values in order, number of fields with no default,
# {field: default}, frozen, (field, other value) for inequality)
TYPES = [
    (QubitRef, ("kind", "coord", "serial"), (QubitKind.MESSENGER, None, 7), 1,
     {"coord": None, "serial": None}, True, ("serial", 8)),
    (GateStep, ("gate", "operands", "bit"), (GateKind.H, (M,), None), 2,
     {"bit": None}, True, ("operands", (A,))),
    (LogicalCZ, ("a", "b"), ((0, 0), (2, 3)), 2, {}, True, ("b", (3, 2))),
    (Logical1Q, ("gate", "q"), (GateKind.H, (1, 2)), 2, {}, True, ("q", (2, 1))),
    (LogicalCircuit, ("lattice_size", "ops"), (4, (LogicalCZ((0, 0), (3, 3)),)), 1,
     {"ops": ()}, True, ("lattice_size", 5)),
    (PhysicalEvent, ("t", "pos", "action", "operands", "gate", "bit", "duration", "belt",
                     "to_belt", "velocity"),
     (2e-6, (1.0, 0.5), ActionKind.ROUTE, (M,), None, None, 2e-6, 1, 2, (1.5, 0.0)), 3,
     {"operands": (), "gate": None, "bit": None, "duration": 0.0, "belt": None,
      "to_belt": None, "velocity": None}, True, ("to_belt", 3)),
    (BitUsage, ("violations",), (("late read",),), 0, {"violations": ()}, True,
     ("violations", ())),
    (ArchitectureSpec, ("variant", "L", "a", "R", "v", "t2", "t1", "tr", "t_route",
                        "t_turnaround"),
     (Variant.ONE_WAY_BELT, 6, 4e-6, 3e-6, 2.0, 1.5e-6, 2e-7, 2e-5, 3e-6, 4e-6), 2,
     {"a": 3e-6, "R": 2.7e-6, "v": 1.5, "t2": 1e-6, "t1": 1e-7, "tr": 1e-5,
      "t_route": 2e-6, "t_turnaround": 2e-6}, True, ("L", 7)),
    (GateCounts, ("n1", "n2_cz", "n2_swap", "nr"), (2, 3, 1, 0), 4, {}, True, ("nr", 1)),
    (Decomposition, ("variant", "case", "a", "b", "gates", "counts", "messengers"),
     (Variant.THROW_AND_MEASURE, None, (0, 0), (1, 1), (STEP,), COUNTS, (3,)), 7, {}, True,
     ("case", 1)),
    (TrajectorySegment, ("messenger", "kind", "t_start", "t_end", "start_pos", "end_pos"),
     (3, SegmentKind.FREE_FLIGHT, 0.0, 1e-6, (0.0, 0.0), (1.0, 1.0)), 6, {}, True,
     ("t_end", 2e-6)),
    (ScheduledProgram, ("events", "trajectories", "makespan"),
     ([EVENT], {3: [SEGMENT]}, 2e-6), 3, {}, False, ("makespan", 3e-6)),
    (Violation, ("kind", "events", "distance", "times", "message"),
     ("exclusion", (1, 2), 1.5, (0.0, 1e-6), "too close"), 5, {}, True, ("distance", 1.0)),
    (CostParams, ("f1", "f2_cz", "f2_swap", "fr", "f_shuttle"), (0.999, 0.99, 0.98, 0.97, 0.9),
     0, {"f1": 1.0, "f2_cz": 1.0, "f2_swap": 1.0, "fr": 1.0, "f_shuttle": 1.0}, True,
     ("fr", 0.96)),
    (FidelityReport, ("counts", "F", "error", "makespan"), (COUNTS, 0.99, 0.01, 3e-6), 3,
     {"makespan": None}, True, ("makespan", 4e-6)),
    (SweepResult, ("axis1_name", "axis1", "p2", "errors", "contour"),
     ("p1", AXIS, AXIS, np.outer(AXIS, AXIS), [(1e-3, 1e-2)]), 5, {}, True,
     ("axis1_name", "pr")),
    (ComparisonRow, ("variant", "case", "report"), (Variant.ONE_WAY_BELT, 2, REPORT), 3, {},
     True, ("case", 1)),
    (PureState, ("amplitudes", "qubit_order"), (STATE.amplitudes, (B,)), 2, {}, True,
     ("qubit_order", (A,))),
    (Branch, ("outcomes", "probability", "state"), ({0: 1}, 0.5, STATE), 3, {}, False,
     ("probability", 0.25)),
    (VerificationRecord, ("variant", "pair", "input_label", "outcomes", "probability",
                          "fidelity", "min_messenger_purity", "ok"),
     ("one-way-belt", ((0, 0), (2, 2)), "++", (), 1.0, 1.0, 1.0, True), 8, {}, True,
     ("ok", False)),
]


@pytest.mark.parametrize("cls,names,values,required,defaults,frozen,other", TYPES,
                         ids=[t[0].__name__ for t in TYPES])
def test_value_type_contract(cls, names, values, required, defaults, frozen, other):
    assert len(names) == len(values) and set(defaults) == set(names[required:])
    x = cls(*values)
    assert all(getattr(x, n) is v for n, v in zip(names, values))
    assert cls(**dict(zip(names, values))) == x == cls(*values)
    changed = dict(zip(names, values), **dict([other]))
    assert cls(**changed) != x

    least = cls(*values[:required])
    for n, default in defaults.items():
        assert getattr(least, n) == default

    fields = tuple(values)
    if cls is QubitRef:
        assert repr(x) == "m7" and repr(QubitRef.comp(1, 2)) == "q(1, 2)"
        assert hash(x) == hash(QubitRef.mess(7)) and x == QubitRef.mess(7)
    else:
        assert repr(x) == f"{cls.__name__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    if frozen:
        if cls is not QubitRef:
            try:
                expected = hash(fields)
            except TypeError:
                with pytest.raises(TypeError):
                    hash(x)
            else:
                assert hash(x) == expected
        with pytest.raises(AttributeError):
            setattr(x, names[0], values[0])
        assert all(getattr(x, n) is v for n, v in zip(names, values))

    for duplicate in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(duplicate) is cls and repr(duplicate) == repr(x)


def test_qubit_refs_built_apart_compare_by_fields():
    # `comp` and `mess` share instances, and `__eq__` answers a ref met by
    # itself or by an unequal hash at once; refs built apart still compare
    # (and clash in a two-qubit step) by their fields
    for shared, apart in ((A, QubitRef(QubitKind.COMPUTATIONAL, coord=(0, 0))),
                          (A, QubitRef(QubitKind.COMPUTATIONAL, coord=(0, 0.0))),
                          (M, QubitRef(QubitKind.MESSENGER, serial=3))):
        assert apart is not shared
        assert apart == shared and shared == apart and not apart != shared
        assert hash(apart) == hash(shared) and {apart: 1}[shared] == 1
        with pytest.raises(ValueError):
            GateStep(GateKind.CZ, (shared, apart))
    assert A != B and A != M and M != QubitRef(QubitKind.MESSENGER, serial=4)
    assert GateStep(GateKind.CZ, (A, QubitRef(QubitKind.MESSENGER, serial=3))) == STEP
    # a non-ref, even the coordinate a ref holds, leaves the answer to its own type
    assert A.__eq__((0, 0)) is NotImplemented and A != (0, 0) and M != 3


def _changed_copies(x, changes):
    """Every way the type offers to build a copy of `x` with `changes`."""
    cls = type(x)
    if dataclasses.is_dataclass(x):
        yield lambda: dataclasses.replace(x, **changes)
    if hasattr(x, "_replace"):
        yield lambda: x._replace(**changes)
    if hasattr(cls, "_make"):
        yield lambda: cls._make(changes.get(n, getattr(x, n)) for n in x._fields)
    if hasattr(x, "__replace__"):
        yield lambda: copy.replace(x, **changes)


@pytest.mark.parametrize("x,changes", [
    (ArchitectureSpec(Variant.TWO_WAY_BELT, 8), {"v": math.nan}),
    (ArchitectureSpec(Variant.TWO_WAY_BELT, 8), {"L": 1}),
    (GateStep(GateKind.CZ, (A, M)), {"operands": (A, A)}),
    (GateStep(GateKind.MEASURE_X, (M,), 0), {"bit": None}),
    (CostParams(), {"fr": 1.5}),
], ids=["spec-v-nan", "spec-L-1", "step-identical", "step-no-bit", "cost-fr"])
def test_a_validated_type_cannot_be_copied_around_its_checks(x, changes):
    cls = type(x)
    names = next(t[1] for t in TYPES if t[0] is cls)
    with pytest.raises(ValueError):
        cls(*(changes.get(n, getattr(x, n)) for n in names))
    for make in _changed_copies(x, changes):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("x,changes", [
    (ArchitectureSpec(Variant.TWO_WAY_BELT, 8), {"variant": Variant.ONE_WAY_BELT}),
    (ArchitectureSpec(Variant.TWO_WAY_BELT, 8), {"v": 1.2}),
    (GateStep(GateKind.CZ, (A, M)), {"operands": (B, M)}),
    (GateStep(GateKind.MEASURE_X, (M,), 0), {"bit": 1}),
    (CostParams(), {"fr": 0.99}),
    (STATE, {"qubit_order": (B,)}),
], ids=["spec-variant", "spec-v", "step-operands", "step-bit", "cost-fr", "state-order"])
def test_a_validated_type_copies_with_a_valid_change(x, changes):
    # `_replace`, `_make` and (from Python 3.13) `copy.replace` give the same
    # type, with the changed fields and every other field as it was
    makers = list(_changed_copies(x, changes))
    assert len(makers) == (3 if hasattr(copy, "replace") else 2)
    for make in makers:
        y = make()
        assert type(y) is type(x)
        assert all(getattr(y, n) is changes.get(n, getattr(x, n)) for n in x._fields)
