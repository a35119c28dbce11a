import math
import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import assume, given, strategies as st

from atomshuttle import scheduler
from atomshuttle.architectures import ArchitectureSpec, Variant, decompose_cz
from atomshuttle.ir import (ActionKind, GateKind, LogicalCZ, Logical1Q,
                            LogicalCircuit, QubitRef, classical_bits, gate_steps)
from atomshuttle.oracle import verify_sequence
from atomshuttle.scheduler import (BOX_MARGIN, InfeasibleError, ScheduledProgram,
                                   SegmentKind, TrajectorySegment, _Track, box_gap,
                                   check_conflicts, gate_boxes, makespan_estimate,
                                   max_distance, min_distance,
                                   plan_trajectories, schedule, shift_program,
                                   trajectories_to_csv)

PAIRS = [((0, 0), (3, 3)), ((0, 0), (0, 5)), ((2, 1), (6, 1)),
         ((0, 5), (5, 0)), ((1, 2), (2, 1)), ((0, 0), (7, 7)),
         ((3, 3), (2, 2))]


def arch_for(variant, L=8, **kw):
    return ArchitectureSpec(variant, L, **kw)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("pair", PAIRS)
def test_single_gate_plans_are_conflict_free(variant, pair):
    arch = arch_for(variant)
    d = decompose_cz(arch, *pair)
    prog = plan_trajectories(arch, d)
    assert check_conflicts(prog, arch) == []


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("pair", PAIRS)
def test_makespan_estimate_tracks_planner(variant, pair):
    arch = arch_for(variant)
    prog = plan_trajectories(arch, decompose_cz(arch, *pair))
    est = makespan_estimate(arch, pair)
    assert est == pytest.approx(prog.makespan, rel=0.25)


@pytest.mark.parametrize("variant", list(Variant))
def test_planned_gate_order_matches_protocol_dependencies(variant):
    arch = arch_for(variant)
    d = decompose_cz(arch, (1, 1), (6, 4))
    prog = plan_trajectories(arch, d)
    steps = gate_steps(prog.events)
    # same multiset of gates, and dependent gates keep their order
    assert sorted(s.gate.value for s in steps) == \
        sorted(g.gate.value for g in d.gates)
    assert classical_bits(prog.events).violations == ()
    # per-qubit gate order must match the protocol (global order may differ
    # for commuting gates on disjoint qubits)
    qubits = {q for g in d.gates for q in g.operands}
    for q in qubits:
        planned = [(s.gate, s.operands, s.bit) for s in steps if q in s.operands]
        protocol = [(g.gate, g.operands, g.bit) for g in d.gates if q in g.operands]
        assert planned == protocol


@pytest.mark.parametrize("variant", list(Variant))
def test_planned_sequence_still_verifies(variant):
    # the planner must not reorder gates in a way the oracle rejects
    arch = arch_for(variant)
    d = decompose_cz(arch, (0, 2), (5, 6))
    prog = plan_trajectories(arch, d)
    report = verify_sequence(gate_steps(prog.events), (0, 2), (5, 6),
                             list(d.messengers))
    assert report.ok


def test_gates_fire_inside_blockade_radius():
    arch = arch_for(Variant.TWO_WAY_BELT)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (7, 7)))
    R_c = arch.R / arch.a
    for e in prog.events:
        if e.action is ActionKind.GATE and e.gate.is_two_qubit:
            ta = _Track.for_qubit(e.operands[0], prog.trajectories)
            tb = _Track.for_qubit(e.operands[1], prog.trajectories)
            assert max_distance(ta, tb, e.t, e.t_end) <= R_c + 1e-9


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("pair", PAIRS)
def test_gate_duration_and_position_follow_from_the_gate(variant, pair):
    # a planner gives only firing windows: the gate kind fixes the duration,
    # the operands fix where it fires
    arch = arch_for(variant)
    prog = plan_trajectories(arch, decompose_cz(arch, *pair))
    gates = [e for e in prog.events if e.action is ActionKind.GATE]
    assert gates
    for e in gates:
        if e.gate.is_two_qubit:
            assert e.duration == arch.t2
        elif e.gate is GateKind.MEASURE_X:
            assert e.duration == arch.tr
        else:
            assert e.duration == arch.t1
        comp = [q for q in e.operands if not q.is_messenger]
        if comp:
            r, c = comp[0].coord
            assert e.pos == (float(c), float(r))
        else:
            track = _Track.for_qubit(e.operands[0], prog.trajectories)
            assert e.pos == pytest.approx(track.position(e.t + e.duration / 2), abs=1e-9)


@pytest.mark.parametrize("R, v, message", [
    (1.2e-6, 1.5, "CZ(A,m1): lane offset 0.5 outside blockade radius "),
    (1.8e-6, 3.0, "CZ(A,m1): blockade window 6.633e-07s shorter than gate "
                  "duration 1.000e-06s"),
])
def test_pass_window_errors_name_the_gate(R, v, message):
    arch = arch_for(Variant.TWO_WAY_BELT, R=R, v=v)
    with pytest.raises(InfeasibleError) as exc:
        plan_trajectories(arch, decompose_cz(arch, (0, 0), (3, 3)))
    assert str(exc.value).startswith(message)


def test_every_messenger_loaded_once_and_disposed_once():
    for variant in Variant:
        arch = arch_for(variant)
        prog = plan_trajectories(arch, decompose_cz(arch, (0, 5), (5, 0)))
        loads = [e for e in prog.events if e.action is ActionKind.LOAD]
        disposes = [e for e in prog.events if e.action is ActionKind.DISPOSE]
        serials = sorted(e.operands[0].serial for e in loads)
        assert serials == sorted(e.operands[0].serial for e in disposes)
        assert len(serials) == len(set(serials))


def test_marginal_lane_gap_is_reported_infeasible():
    # same-row targets at the speed limit: the crossing-to-gate gap is
    # shorter than one gate time, so the plan must be rejected, not fudged
    arch = arch_for(Variant.TWO_WAY_BELT, v=3.0)
    with pytest.raises(InfeasibleError) as exc:
        plan_trajectories(arch, decompose_cz(arch, (0, 0), (0, 5)))
    assert "window" in str(exc.value) or "exceeds" in str(exc.value)


def test_shuttle_and_route_emits_five_route_events():
    arch = arch_for(Variant.SHUTTLE_AND_ROUTE)
    prog = plan_trajectories(arch, decompose_cz(arch, (2, 2), (5, 6)))
    routes = [e for e in prog.events if e.action is ActionKind.ROUTE]
    assert len(routes) == 5
    assert all(e.duration == arch.t_route for e in routes)


def test_throw_catch_throw_event_shape():
    arch = arch_for(Variant.THROW_CATCH_THROW)
    prog = plan_trajectories(arch, decompose_cz(arch, (1, 1), (5, 5)))
    throws = [e for e in prog.events if e.action is ActionKind.THROW]
    catches = [e for e in prog.events if e.action is ActionKind.CATCH]
    assert len(throws) == 2 and len(catches) == 1
    kinds = {s.kind for s in prog.trajectories[prog.events[0].operands[0].serial]}
    assert SegmentKind.TURNAROUND in kinds


def test_measured_messengers_hold_at_readout():
    arch = arch_for(Variant.THROW_AND_MEASURE)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (4, 4)))
    mx = next(e for e in prog.events
              if e.action is ActionKind.GATE and e.gate is GateKind.MEASURE_X)
    dispose = next(e for e in prog.events if e.action is ActionKind.DISPOSE)
    assert dispose.t >= mx.t_end - 1e-12
    assert dispose.pos == mx.pos


def test_normalization_starts_at_zero():
    for variant in Variant:
        arch = arch_for(variant)
        prog = plan_trajectories(arch, decompose_cz(arch, (0, 3), (3, 0)))
        assert min(e.t for e in prog.events) == 0.0
        assert prog.makespan == max(e.t_end for e in prog.events)


def test_shift_program_translates_everything():
    arch = arch_for(Variant.TWO_WAY_BELT)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (3, 3)))
    shifted = shift_program(prog, 1e-3)
    assert shifted.makespan == pytest.approx(prog.makespan + 1e-3)
    for e0, e1 in zip(prog.events, shifted.events):
        assert e1.t == pytest.approx(e0.t + 1e-3)


def test_shifted_track_matches_shifted_program():
    arch = arch_for(Variant.TWO_WAY_BELT)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (3, 3)))
    d = 2.5e-6
    moved = shift_program(prog, d).trajectories
    partner = _Track(static_pos=(3.0, 3.0))
    for s in prog.trajectories:
        view = _Track(segments=prog.trajectories[s]).shifted(d)
        rebuilt = _Track(segments=moved[s])
        for other in [partner] + [_Track(segments=moved[r]) for r in moved if r != s]:
            for t0, t1 in ((0.0, prog.makespan + d), (d, d + 1e-6), (3e-6, 9e-6)):
                assert min_distance(view, other, t0, t1) == pytest.approx(
                    min_distance(rebuilt, other, t0, t1), abs=1e-9)


def test_min_max_distance_exact_on_crossing():
    # two messengers crossing orthogonally at the origin
    sa = [TrajectorySegment(0, SegmentKind.BELT_RIDE, 0.0, 2.0, (-1.0, 0.0), (1.0, 0.0))]
    sb = [TrajectorySegment(1, SegmentKind.BELT_RIDE, 0.0, 2.0, (0.0, -1.0), (0.0, 1.0))]
    ta, tb = _Track(segments=sa), _Track(segments=sb)
    assert min_distance(ta, tb, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert max_distance(ta, tb, 0.0, 2.0) == pytest.approx(math.sqrt(2))
    # restricted to the first half the closest approach is at t=1 boundary
    assert min_distance(ta, tb, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)


coords = st.floats(-10.0, 10.0)
points = st.tuples(coords, coords)


@st.composite
def tracks(draw):
    """A static atom, or piecewise-linear motion that may dwell, pause or jump."""
    if draw(st.booleans()):
        return _Track(static_pos=draw(points))
    t, p, segs = draw(st.floats(-5.0, 5.0)), draw(points), []
    for _ in range(draw(st.integers(1, 5))):
        t0 = t + draw(st.sampled_from([0.0, 0.0, draw(st.floats(0.0, 2.0))]))
        if draw(st.integers(0, 3)) == 0:
            p = draw(points)
        t = t0 + draw(st.floats(0.0, 3.0))
        end = draw(st.sampled_from([p, draw(points)]))
        segs.append(TrajectorySegment(0, SegmentKind.BELT_RIDE, t0, t, p, end))
        p = end
    return _Track(segments=segs, offset=draw(st.floats(-3.0, 3.0)))


gate_tracks = st.lists(tracks(), min_size=1, max_size=3)


@given(gate_tracks, gate_tracks, st.floats(0.01, 4.0), st.floats(-10.0, 15.0),
       st.floats(0.0, 0.999), st.floats(-10.0, 15.0), st.floats(0.01, 4.0),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_box_gap_is_a_lower_bound_on_min_distance(others, cands, reach, o0, o_frac,
                                                  c0, c_width, where):
    # schedule() compares a committed gate's boxes over its window [o0, o1],
    # shorter than `reach`, with the candidate's boxes over [c0 - reach,
    # c1 + reach] of its own time: for every shift that makes [c0, c1]
    # overlap [o0, o1], that holds the window the exact test measures
    o1, c1 = o0 + o_frac * reach, c0 + c_width
    delta = (o0 - c1) + where * ((o1 - c0) - (o0 - c1))
    assume(max(c0 + delta, o0) < min(c1 + delta, o1))
    ounion, oboxes = gate_boxes(others, o0, o1)
    cunion, cboxes = gate_boxes(cands, c0 - reach, c1 + reach)
    gaps = {(i, j): box_gap(ob, cb)
            for i, ob in enumerate(oboxes) for j, cb in enumerate(cboxes)}
    assert box_gap(ounion, cunion) <= min(gaps.values())
    for (i, j), gap in gaps.items():
        assert gap <= min_distance(others[i], cands[j].shifted(delta), o0, o1) + BOX_MARGIN


def merge_programs(a: ScheduledProgram, b: ScheduledProgram) -> ScheduledProgram:
    return ScheduledProgram(sorted(a.events + b.events, key=lambda e: e.sort_key()),
                            {**a.trajectories, **b.trajectories},
                            max(a.makespan, b.makespan))


def injected_violation_program():
    arch = arch_for(Variant.THROW_AND_MEASURE)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (4, 4)))
    d2 = decompose_cz(arch, (0, 1), (4, 5), serial_start=10, bit_start=10)
    prog2 = plan_trajectories(arch, d2)  # one cell away, same timing
    return merge_programs(prog, prog2), arch


def first_2q_start(prog: ScheduledProgram, coord) -> float:
    return min(e.t for e in prog.events
               if e.action is ActionKind.GATE and e.gate.is_two_qubit
               and QubitRef.comp(*coord) in e.operands)


def shifted_onto_window_program(variant):
    """A 16x16 schedule plus six more gates, each shifted so that its first
    two-qubit gate starts with that of a scheduled gate on the next column."""
    arch = arch_for(variant, L=16)
    rng = random.Random(41)
    cells = [(r, c) for r in range(16) for c in range(16)]
    ops = [LogicalCZ(*rng.sample(cells, 2)) for _ in range(30)]
    prog = schedule(LogicalCircuit(16, tuple(ops)), arch)
    for op in rng.sample(ops, 6):
        r, c = op.a
        near = (r, c + 1 if c < 15 else c - 1)
        other = rng.choice([x for x in cells if x != near])
        extra = plan_trajectories(arch, decompose_cz(arch, near, other,
                                                     serial_start=max(prog.trajectories) + 1,
                                                     bit_start=10_000))
        extra = shift_program(extra, first_2q_start(prog, op.a) - first_2q_start(extra, near))
        prog = merge_programs(prog, extra)
    return prog, arch


def test_check_conflicts_flags_injected_exclusion_violation():
    violations = check_conflicts(*injected_violation_program())
    assert any(v.kind == "exclusion" for v in violations)


@pytest.mark.parametrize("build", [
    injected_violation_program,
    *(partial(shifted_onto_window_program, v) for v in Variant)],
    ids=["injected", *(f"shifted-16x16-{v.value}" for v in Variant)])
def test_check_conflicts_box_pruning_keeps_violations_exact(monkeypatch, build):
    prog, arch = build()
    pruned, box_gap_ = [0], scheduler.box_gap

    def counting_box_gap(a, b):
        gap = box_gap_(a, b)
        pruned[0] += gap >= scheduler.EXCLUSION_CELLS + BOX_MARGIN
        return gap

    monkeypatch.setattr(scheduler, "box_gap", counting_box_gap)
    violations = check_conflicts(prog, arch)
    monkeypatch.setattr(scheduler, "box_gap", lambda a, b: 0.0)
    assert check_conflicts(prog, arch) == violations
    assert any(v.kind == "exclusion" for v in violations)
    # two gates one cell apart leave the boxes nothing to prune
    assert pruned[0] > 0 or build is injected_violation_program


def test_check_conflicts_flags_use_after_dispose():
    arch = arch_for(Variant.THROW_AND_MEASURE)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (4, 4)))
    events = list(prog.events)
    dispose = next(e for e in events if e.action is ActionKind.DISPOSE)
    events.append(replace(dispose, t=dispose.t + 1.0, action=ActionKind.GATE,
                          gate=GateKind.H, duration=arch.t1))
    bad = replace(prog, events=events)
    assert any(v.kind == "lifecycle" for v in check_conflicts(bad, arch))


def test_schedule_serializes_gates_sharing_a_qubit():
    arch = arch_for(Variant.THROW_CATCH_THROW)
    circ = LogicalCircuit(8, (LogicalCZ((0, 0), (3, 3)),
                              LogicalCZ((0, 0), (5, 1))))
    prog = schedule(circ, arch)
    assert check_conflicts(prog, arch) == []
    shared = [e for e in prog.events
              if e.action is ActionKind.GATE
              and any(not q.is_messenger and q.coord == (0, 0) for q in e.operands)]
    shared.sort(key=lambda e: e.t)
    for e0, e1 in zip(shared, shared[1:]):
        assert e1.t >= e0.t_end


def test_schedule_keeps_disjoint_gates_parallel():
    arch = arch_for(Variant.THROW_AND_MEASURE)
    circ = LogicalCircuit(8, (LogicalCZ((0, 0), (2, 2)),
                              LogicalCZ((5, 5), (7, 7))))
    prog = schedule(circ, arch)
    assert check_conflicts(prog, arch) == []
    # far-apart gates should not be serialized
    assert prog.makespan < 1.9 * makespan_estimate(arch, ((0, 0), (2, 2)))


def test_schedule_handles_single_qubit_ops():
    arch = arch_for(Variant.TWO_WAY_BELT)
    circ = LogicalCircuit(8, (Logical1Q(GateKind.H, (0, 0)),
                              LogicalCZ((0, 0), (4, 4)),
                              Logical1Q(GateKind.Z, (0, 0))))
    prog = schedule(circ, arch)
    assert check_conflicts(prog, arch) == []
    gates_on_a = [e for e in prog.events
                  if e.action is ActionKind.GATE
                  and any(not q.is_messenger and q.coord == (0, 0)
                          for q in e.operands)]
    gates_on_a.sort(key=lambda e: e.t)
    assert gates_on_a[0].gate is GateKind.H
    assert gates_on_a[-1].gate is GateKind.Z


def test_schedule_rejects_invalid_circuit():
    arch = arch_for(Variant.TWO_WAY_BELT)
    with pytest.raises(ValueError):
        schedule(LogicalCircuit(8, (LogicalCZ((0, 0), (9, 9)),)), arch)


def test_trajectory_csv_shape():
    arch = arch_for(Variant.ONE_WAY_BELT)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (5, 5)))
    csv = trajectories_to_csv(prog.trajectories)
    lines = csv.strip().splitlines()
    assert lines[0] == "messenger,t_start,t_end,x0,y0,x1,y1,kind"
    assert len(lines) == 1 + sum(len(s) for s in prog.trajectories.values())
