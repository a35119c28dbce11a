import json
import re

import pytest
from hypothesis import given, strategies as st

from atomshuttle.architectures import ArchitectureSpec, Variant, decompose_cz
from atomshuttle.ir import (ActionKind, GateKind, GateStep, Logical1Q,
                            LogicalCZ, LogicalCircuit, ParseError,
                            PhysicalEvent, QubitKind, QubitRef, check_op,
                            classical_bits, events_from_jsonl, events_to_jsonl,
                            parse_program, render_program, sort_events)
from atomshuttle.scheduler import schedule


def test_parse_minimal():
    c = parse_program("lattice 4\ncz (0,0) (3,3)\nh (1,2)\n")
    assert c.lattice_size == 4
    assert c.ops == (LogicalCZ((0, 0), (3, 3)), Logical1Q(GateKind.H, (1, 2)))


def test_parse_comments_and_blank_lines():
    c = parse_program("# header\nlattice 2\n\ncz (0,0) (1,1)  # long-range\n")
    assert len(c.ops) == 1


@pytest.mark.parametrize("text,lineno", [
    ("cz (0,0) (1,1)\n", 1),              # missing header
    ("lattice 4\ncz (0,0)\n", 2),         # arity
    ("lattice 4\ncz (0,0) (4,0)\n", 2),   # out of range
    ("lattice 4\ncz (1,1) (1,1)\n", 2),   # identical operands
    ("lattice 4\nt (0,0)\n", 2),          # unknown gate
    ("lattice 0\n", 1),                   # bad size
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value).startswith(f"line {lineno}: ")


@st.composite
def circuits(draw):
    L = draw(st.integers(min_value=2, max_value=9))
    coords = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1))
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            a = draw(coords)
            b = draw(coords.filter(lambda c: c != a))
            ops.append(LogicalCZ(a, b))
        else:
            g = draw(st.sampled_from([GateKind.H, GateKind.Z, GateKind.X]))
            ops.append(Logical1Q(g, draw(coords)))
    return LogicalCircuit(L, tuple(ops))


@given(circuits())
def test_render_parse_round_trip(circuit):
    assert parse_program(render_program(circuit)) == circuit


@given(circuits())
def test_check_op_accepts_generated_ops(circuit):
    for op in circuit.ops:
        check_op(op, circuit.lattice_size)


# (op, its program statement or None, the message) on the 4x4 lattice
BAD_OPS = [
    (LogicalCZ((0, 0), (4, 0)), "cz (0,0) (4,0)", "coordinate (4, 0) out of range for L=4"),
    (LogicalCZ((1, 1), (0, -1)), "cz (1,1) (0,-1)", "coordinate (0, -1) out of range for L=4"),
    (Logical1Q(GateKind.H, (2, 4)), "h (2,4)", "coordinate (2, 4) out of range for L=4"),
    (Logical1Q(GateKind.Z, (-1, 0)), "z (-1,0)", "coordinate (-1, 0) out of range for L=4"),
    (LogicalCZ((1, 1), (1, 1)), "cz (1,1) (1,1)", "cz operands identical: (1, 1)"),
    (Logical1Q(GateKind.MEASURE_X, (0, 0)), None,
     "unsupported single-qubit gate GateKind.MEASURE_X"),
    (((0, 0), (1, 1)), None, "unknown op ((0, 0), (1, 1))"),
]


@pytest.mark.parametrize("op, statement, message", BAD_OPS,
                         ids=["cz-out-of-range", "cz-negative", "h-out-of-range",
                              "z-negative", "cz-identical", "measure-x", "unknown-type"])
def test_a_bad_op_gets_one_message_at_every_entry_point(op, statement, message):
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        check_op(op, 4)
    arch = ArchitectureSpec(Variant.TWO_WAY_BELT, 4)
    with pytest.raises(ValueError, match=exact):
        schedule(LogicalCircuit(4, (op,)), arch)
    if isinstance(op, LogicalCZ):
        with pytest.raises(ValueError, match=exact):
            decompose_cz(arch, op.a, op.b)
    if statement is not None:
        with pytest.raises(ParseError, match=f"^line 2: {re.escape(message)}$"):
            parse_program(f"lattice 4\n{statement}\n")


def _sample_events():
    m = QubitRef.mess(0)
    a = QubitRef.comp(1, 2)
    return [
        PhysicalEvent(0.0, (0.0, 0.5), ActionKind.LOAD, (m,), belt=0),
        PhysicalEvent(1e-6, (2.0, 0.5), ActionKind.GATE, (a, m),
                      gate=GateKind.CZ, duration=1e-6),
        PhysicalEvent(2e-6, (3.0, 0.5), ActionKind.GATE, (m,),
                      gate=GateKind.MEASURE_X, bit=3, duration=1e-5),
        PhysicalEvent(1.3e-5, (2.0, 1.0), ActionKind.GATE, (a,),
                      gate=GateKind.COND_Z, bit=3, duration=1e-7),
        PhysicalEvent(1.4e-5, (9.0, 0.5), ActionKind.DISPOSE, (m,)),
    ]


def test_events_jsonl_round_trip():
    events = _sample_events()
    text = events_to_jsonl(events)
    assert events_from_jsonl(text) == events
    # '#' header lines are skipped on read
    assert events_from_jsonl("# header\n" + text) == events


_finite = st.floats(allow_nan=False, allow_infinity=False)
_optional_int = st.none() | st.integers(-5, 10**6)
_qubits = (st.builds(QubitRef.mess, st.integers(0, 10**6))
           | st.builds(QubitRef.comp, st.integers(0, 300), st.integers(0, 300)))


@st.composite
def physical_events(draw, times=_finite | st.just(-0.0), qubits=_qubits):
    action = draw(st.sampled_from(ActionKind))
    gate = draw(st.sampled_from(GateKind)) if action is ActionKind.GATE else None
    return PhysicalEvent(
        t=draw(times),
        pos=(draw(_finite), draw(_finite)),
        action=action,
        operands=tuple(draw(st.lists(qubits, max_size=2))),
        gate=gate,
        bit=draw(_optional_int),
        duration=draw(st.sampled_from((0.0, -0.0)) | _finite),
        belt=draw(_optional_int),
        to_belt=draw(_optional_int),
        velocity=draw(st.none() | st.tuples(_finite, _finite)),
    )


@given(st.lists(physical_events(), max_size=8))
def test_events_jsonl_lines_are_sorted_key_json(events):
    # each line has the bytes `json.dumps(..., sort_keys=True)` gives, and
    # reads back to the same events, down to a float's type and the sign of
    # a zero (a zero duration is left out, so it reads back as 0.0)
    text = events_to_jsonl(events)
    lines = text.splitlines(keepends=True)
    assert len(lines) == len(events)
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"
    read = events_from_jsonl(text)
    assert read == events
    assert repr(read) == repr([e._replace(duration=e.duration or 0.0) for e in events])


def test_sort_events_idempotent_and_stable():
    events = _sample_events()
    shuffled = [events[3], events[0], events[4], events[1], events[2]]
    once = sort_events(shuffled)
    assert once == events
    assert sort_events(once) == once


def test_classical_bits_passes_a_read_after_its_write():
    assert classical_bits(_sample_events()).violations == ()


def test_classical_bits_flags_read_before_write():
    events = _sample_events()
    events[3] = PhysicalEvent(3e-6, (2.0, 1.0), ActionKind.GATE,
                              (QubitRef.comp(1, 2),), gate=GateKind.COND_Z,
                              bit=3, duration=1e-7)
    usage = classical_bits(events)
    assert any("before writer finishes" in v for v in usage.violations)


def test_classical_bits_flags_a_second_write():
    events = _sample_events()
    events.insert(3, events[2]._replace(t=2.5e-6))
    usage = classical_bits(events)
    assert usage.violations == ("bit 3 written twice (events 2, 3)",)


def test_classical_bits_flags_a_read_of_an_unwritten_bit():
    events = _sample_events()
    events[3] = events[3]._replace(bit=5)
    usage = classical_bits(events)
    assert usage.violations == ("bit 5 read at event 3 before any write",)


def test_gate_step_rejects_bad_arity_and_duplicates():
    a, b = QubitRef.comp(0, 0), QubitRef.comp(0, 1)
    with pytest.raises(ValueError):
        GateStep(GateKind.CZ, (a,))
    with pytest.raises(ValueError):
        GateStep(GateKind.SWAP, (a, a))
    with pytest.raises(ValueError):
        GateStep(GateKind.H, (a,), bit=0)  # H carries no classical bit
    with pytest.raises(ValueError):
        GateStep(GateKind.MEASURE_X, (a,))  # measurement needs a bit


def test_qubitref_ordering_messengers_first():
    refs = [QubitRef.comp(0, 1), QubitRef.mess(2), QubitRef.comp(0, 0),
            QubitRef.mess(0)]
    ordered = sorted(refs, key=QubitRef.sort_key)
    assert ordered == [QubitRef.mess(0), QubitRef.mess(2),
                       QubitRef.comp(0, 0), QubitRef.comp(0, 1)]


@pytest.mark.parametrize("gate", list(GateKind))
def test_gate_kind_flags(gate):
    assert gate.n_operands == (2 if gate in (GateKind.CZ, GateKind.SWAP) else 1)
    assert gate.is_two_qubit == (gate.n_operands == 2)
    assert gate.writes_bit == (gate is GateKind.MEASURE_X)
    assert gate.reads_bit == (gate is GateKind.COND_Z)


@given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 10**6))
def test_qubit_refs_match_refs_built_directly(row, col, serial):
    for ref, direct, text, key in (
            (QubitRef.comp(row, col), QubitRef(QubitKind.COMPUTATIONAL, coord=(row, col)),
             f"q({row}, {col})", (1, row, col)),
            (QubitRef.mess(serial), QubitRef(QubitKind.MESSENGER, serial=serial),
             f"m{serial}", (0, serial, 0))):
        assert ref == direct and hash(ref) == hash(direct)
        assert repr(ref) == repr(direct) == text
        assert ref.sort_key() == direct.sort_key() == key
        assert ref.is_messenger == direct.is_messenger == (direct.kind is QubitKind.MESSENGER)
    assert QubitRef.comp(row, col) != QubitRef.mess(serial)
    # a shared ref keeps the argument types it was made from
    assert repr(QubitRef.comp(float(row), col)) == f"q({float(row)}, {col})"


def test_actions_rank_in_definition_order():
    assert [k.rank for k in ActionKind] == list(range(len(ActionKind)))
    assert [k.value for k in ActionKind] == \
        ["load", "route", "throw", "catch", "gate", "dispose"]


def reference_order_tail(e: PhysicalEvent) -> tuple:
    serials = [q.serial for q in e.operands if q.kind is QubitKind.MESSENGER]
    return (list(ActionKind).index(e.action), min(serials, default=-1),
            tuple((0, q.serial, 0) if q.kind is QubitKind.MESSENGER else (1, *q.coord)
                  for q in e.operands))


@given(st.lists(physical_events(), max_size=12).flatmap(st.permutations))
def test_sort_events_orders_by_time_then_reference_tail(events):
    for e in events:
        assert e.order_tail == reference_order_tail(e) == e.order_tail
    expected = sorted(events, key=lambda e: (e.t,) + reference_order_tail(e))
    ordered = sort_events(events)
    assert len(ordered) == len(expected)
    assert all(a is b for a, b in zip(ordered, expected))


@pytest.mark.thorough
@given(st.lists(physical_events(times=st.sampled_from((0.0, -0.0, 1e-6, 2e-6)),
                                qubits=st.sampled_from((QubitRef.mess(0), QubitRef.mess(1),
                                                        QubitRef.comp(0, 0)))),
                max_size=24).flatmap(st.permutations))
def test_sort_events_orders_runs_of_equal_times_by_reference_tail(events):
    # times and operands from small pools: most events share their time
    # (0.0 and -0.0 are one time), and many also their tail, so the order
    # within each run comes from the tails and, where those tie, from the
    # input order
    expected = sorted(events, key=lambda e: (e.t,) + reference_order_tail(e))
    ordered = sort_events(events)
    assert len(ordered) == len(expected)
    assert all(a is b for a, b in zip(ordered, expected))
    again = sort_events(ordered)
    assert all(a is b for a, b in zip(again, ordered))
