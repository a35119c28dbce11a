import itertools
import math
import random
from functools import partial

import pytest
from hypothesis import assume, example, given, strategies as st

from atomshuttle import scheduler
from atomshuttle.architectures import (ArchitectureSpec, Variant, decompose_cz,
                                       neighbor_chain_decompose)
from atomshuttle.ir import (ActionKind, GateKind, GateStep, LogicalCZ, Logical1Q,
                            LogicalCircuit, PhysicalEvent, QubitRef, classical_bits,
                            sort_events)
from atomshuttle.oracle import verify_sequence
from atomshuttle.scheduler import (BOX_MARGIN, DIST_TOL, EXCLUSION_CELLS, InfeasibleError,
                                   ScheduledProgram, SegmentKind, TrajectorySegment, _Track,
                                   box_gap, check_conflicts, gate_boxes, max_distance,
                                   min_distance, plan_trajectories, schedule,
                                   shift_program, too_close, trajectories_to_csv)

PAIRS = [((0, 0), (3, 3)), ((0, 0), (0, 5)), ((2, 1), (6, 1)),
         ((0, 5), (5, 0)), ((1, 2), (2, 1)), ((0, 0), (7, 7)),
         ((3, 3), (2, 2))]


def arch_for(variant, L=8, **kw):
    return ArchitectureSpec(variant, L, **kw)


def qubit_track(q: QubitRef, trajectories) -> _Track:
    """The track of `q`: a messenger's segments in `trajectories`, or a
    computational qubit's site."""
    if q.is_messenger:
        return _Track(segments=trajectories[q.serial])
    r, c = q.coord
    return _Track(static_pos=(float(c), float(r)))


def gate_steps(prog: ScheduledProgram) -> list[GateStep]:
    """The gate sequence of a (time-sorted) planned program."""
    return [GateStep(e.gate, e.operands, e.bit) for e in prog.events
            if e.action is ActionKind.GATE]


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
    # A lone CZ's schedule spans exactly its single-gate plan, and no
    # messenger crosses the distance between the two qubits faster than v.
    arch = arch_for(variant)
    est = plan_trajectories(arch, decompose_cz(arch, *pair)).makespan
    prog = schedule(LogicalCircuit(arch.L, (LogicalCZ(*pair),)), arch)
    assert prog.makespan == est
    (ra, ca), (rb, cb) = pair
    assert est >= arch.a * math.hypot(rb - ra, cb - ca) / arch.v


@pytest.mark.parametrize("variant", list(Variant))
def test_planned_gate_order_matches_protocol_dependencies(variant):
    arch = arch_for(variant)
    d = decompose_cz(arch, (1, 1), (6, 4))
    prog = plan_trajectories(arch, d)
    steps = gate_steps(prog)
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
    records = verify_sequence(gate_steps(prog), (0, 2), (5, 6),
                              list(d.messengers))
    assert all(r.ok for r in records)


def test_gates_fire_inside_blockade_radius():
    arch = arch_for(Variant.TWO_WAY_BELT)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (7, 7)))
    R_c = arch.R / arch.a
    for e in prog.events:
        if e.action is ActionKind.GATE and e.gate.is_two_qubit:
            ta = qubit_track(e.operands[0], prog.trajectories)
            tb = qubit_track(e.operands[1], prog.trajectories)
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
            track = qubit_track(e.operands[0], prog.trajectories)
            assert e.pos == pytest.approx(track.position(e.t + e.duration / 2), abs=1e-9)


# a crossing window lasts sqrt(2) R / v and a pass window
# 2 sqrt(R^2 - (a/2)^2) / v; with R a hair over a / sqrt(2) and v inside
# ArchitectureSpec's 1e-12 slack over a / t2, every pass window still fits
# its gate, but a crossing window falls 2.9e-19 s short of it
CROSSING_SHORT = (2.1213203435611425e-06, 3.0000000000030003,
                  "crossing window: 9.999999999997069e-07s shorter than gate duration 1e-06s")


@pytest.mark.parametrize("variant, R, v, message", [
    (Variant.TWO_WAY_BELT, 1.2e-6, 1.5, "pass window: lane offset 0.5 outside blockade radius "),
    (Variant.TWO_WAY_BELT, 1.8e-6, 3.0,
     "pass window: 6.633249580710799e-07s shorter than gate duration 1e-06s"),
    (Variant.TWO_WAY_BELT, *CROSSING_SHORT),
    (Variant.ONE_WAY_BELT, *CROSSING_SHORT),
])
def test_window_errors_name_the_window_kind(variant, R, v, message):
    arch = arch_for(variant, R=R, v=v)
    with pytest.raises(InfeasibleError) as exc:
        plan_trajectories(arch, decompose_cz(arch, (0, 0), (3, 3)))
    assert str(exc.value).startswith(message)


def test_a_window_one_gate_long_fits_its_gate():
    # R = a / sqrt(2) and v just under a / t2 make every pass window exactly
    # one gate long.  The first CZ's window, as [t - hw, t + hw], would put
    # its latest start one ulp before its earliest; a window ends at its
    # start plus its width, so the gate fits at its start after rounding
    arch = arch_for(Variant.TWO_WAY_BELT, L=4, R=2.1213203435596424e-06, v=2.9999999999999996)
    d = decompose_cz(arch, (0, 0), (1, 1))
    rides, windows, _ = scheduler._PLANNERS[arch.variant](arch, d)
    t0, t1 = windows[0]
    assert t0 + arch.t2 <= t1
    assert check_conflicts(plan_trajectories(arch, d), arch) == []


def test_check_conflicts_reports_a_gate_fired_out_of_blockade_range():
    # the first CZ moved 10 us later: the thrown messenger has flown on and
    # is 4.8 cells from its partner, past the 0.9-cell blockade radius
    arch = arch_for(Variant.THROW_AND_MEASURE)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (7, 7)))
    i = next(i for i, e in enumerate(prog.events) if e.gate is GateKind.CZ)
    events = list(prog.events)
    events[i] = events[i]._replace(t=events[i].t + 1e-5)
    violations = check_conflicts(prog._replace(events=events), arch)
    assert [(v.kind, v.events) for v in violations] == [("blockade", (i,))]
    assert violations[0].distance == pytest.approx(4.7779, abs=1e-4)
    assert violations[0].message == \
        f"event {i}: partner at distance 4.7779 cells > R=0.9000 during cz"


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


@st.composite
def planned_pairs(draw):
    """A default architecture of any variant on an L x L array, L in 2..10,
    and two distinct qubits on it."""
    L = draw(st.integers(2, 10))
    cell = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1))
    a = draw(cell)
    return arch_for(draw(st.sampled_from(list(Variant))), L), a, draw(cell.filter(a.__ne__))


@pytest.mark.thorough
@given(planned=planned_pairs())
# one-way belt, case 2, where m2 launches first: moving the plan to start at
# 0 after planning would dispose of m1 at 2.6e-05 s, one ulp before its
# readout ends at 2.6000000000000002e-05 s
@example(planned=(arch_for(Variant.ONE_WAY_BELT, 5), (0, 1), (4, 0)))
def test_measured_messengers_hold_at_readout(planned):
    # Every messenger is disposed of where its ride ends.  A measured one
    # (one-way belt, throw-and-measure) waits there, stationary, until the
    # gap after its last gate ends: its disposal time is that gate's end, as
    # the gate's event computes it, plus the gap, so that it stays after the
    # readout when `schedule()` moves each of them on its own.
    arch, a, b = planned
    prog = plan_trajectories(arch, decompose_cz(arch, a, b))
    last_gate_end = {}
    for e in prog.events:
        if e.action is ActionKind.GATE:
            for q in e.operands:
                if q.is_messenger:
                    last_gate_end[q.serial] = max(last_gate_end.get(q.serial, 0.0), e.t_end)
    disposals = {e.operands[0].serial: e for e in prog.events
                 if e.action is ActionKind.DISPOSE}
    assert sorted(disposals) == sorted(prog.trajectories)
    for s, e in disposals.items():
        end = prog.trajectories[s][-1]
        assert (e.t, e.pos) == (end.t_end, end.end_pos)
        assert e.t >= last_gate_end[s] + scheduler._gap(arch)
    if arch.variant not in (Variant.ONE_WAY_BELT, Variant.THROW_AND_MEASURE):
        assert all(seg.kind is not SegmentKind.STATIONARY
                   for segs in prog.trajectories.values() for seg in segs)


def test_each_planner_starts_its_plan_at_zero():
    for variant in Variant:
        arch = arch_for(variant)
        prog = plan_trajectories(arch, decompose_cz(arch, (0, 3), (3, 0)))
        assert prog.events[0].t == 0.0
        assert prog.makespan == max(e.t_end for e in prog.events)
    # one-way belt, case 2: m2 has the longer way to the lane crossing, so
    # it launches at 0 and m1 later
    arch = arch_for(Variant.ONE_WAY_BELT, 5)
    d = decompose_cz(arch, (0, 1), (4, 0))
    prog = plan_trajectories(arch, d)
    assert d.case == 2
    assert prog.events[0].t == 0.0
    assert [(e.action, e.operands) for e in prog.events if e.t == 0.0] == \
        [(ActionKind.LOAD, (QubitRef.mess(d.messengers[1]),))]


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
def tracks(draw, points=points):
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

# the slack on each side of a window whose boxes a shift reuses, as
# `_Committed.eps` is in the scheduler: far more than the rounding of a time
WIDEN = 1e-9


def jump(x: float) -> _Track:
    """At rest at (x, 0) until t = 0, then at (0, 0) until t = 1: a window
    from just after the jump, shifted by 1.0, starts at 1.0 and rounds back
    onto the jump."""
    return _Track(segments=[
        TrajectorySegment(0, SegmentKind.BELT_RIDE, -1.0, 0.0, (x, 0.0), (x, 0.0)),
        TrajectorySegment(0, SegmentKind.BELT_RIDE, 0.0, 1.0, (0.0, 0.0), (0.0, 0.0))])


STATIC, JUMP = _Track(static_pos=(1.0, 0.0)), jump(1.0)


@pytest.mark.thorough
@given(gate_tracks, gate_tracks, st.floats(-10.0, 15.0), st.floats(0.01, 4.0),
       st.floats(-10.0, 15.0), st.floats(0.01, 4.0),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(others=[STATIC], cands=[JUMP], o0=1.0, o_width=1.0, c0=1e-18, c_width=1.0,
         where=0.5)
def test_box_gap_is_a_lower_bound_on_min_distance(others, cands, o0, o_width,
                                                  c0, c_width, where):
    # the exclusion search compares a committed gate's boxes over its window
    # [o0, o1] with the candidate's boxes over its own window [c0, c1],
    # widened by WIDEN: a shift moves the candidate's atoms with its window,
    # so for every shift that makes the windows overlap, both hold the
    # overlap [lo, hi] that the exact test measures, also where a shifted
    # time rounds onto a jump
    o1, c1 = o0 + o_width, c0 + c_width
    delta = (o0 - c1) + where * ((o1 - c0) - (o0 - c1))
    lo, hi = max(c0 + delta, o0), min(c1 + delta, o1)
    assume(lo < hi)
    ounion, oboxes = gate_boxes(others, o0, o1)
    cunion, cboxes = gate_boxes(cands, c0 - WIDEN, c1 + WIDEN)
    gaps = {(i, j): box_gap(ob, cb)
            for i, ob in enumerate(oboxes) for j, cb in enumerate(cboxes)}
    assert box_gap(ounion, cunion) <= min(gaps.values())
    for (i, j), gap in gaps.items():
        assert gap <= min_distance(others[i], cands[j].shifted(delta), lo, hi) + BOX_MARGIN


def moved(track: _Track, delta: float) -> _Track:
    """`track` `delta` later, rebuilt as `schedule` commits a plan: the
    segments' times move, and the track has no offset."""
    if track.static is not None:
        return track
    d = track.offset + delta
    return _Track(segments=[s._replace(t_start=s.t_start + d, t_end=s.t_end + d)
                            for s in track.segments])


@pytest.mark.thorough
@given(gate_tracks, gate_tracks, st.floats(-10.0, 15.0), st.floats(0.01, 4.0),
       st.floats(-5.0, 5.0), st.floats(-10.0, 15.0), st.floats(0.01, 4.0),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(others=[JUMP], cands=[STATIC], o0=1e-18, o_width=1.0, o_delta=1.0, c0=1.0,
         c_width=1.0, where=0.5)
def test_inherited_boxes_are_a_lower_bound_on_min_distance(others, cands, o0, o_width, o_delta,
                                                           c0, c_width, where):
    # a placed gate keeps the boxes it was tested with as a candidate, over
    # its unshifted window [o0, o1] widened by WIDEN; it was committed
    # `o_delta` later, and the exact test measures its rebuilt tracks over
    # the overlap with a candidate shifted by `delta`.  Rounding moves a
    # shifted window's ends, and the widening keeps a jump there in the box
    o1, c1 = o0 + o_width, c0 + c_width
    p0, p1 = o0 + o_delta, o1 + o_delta
    delta = (p0 - c1) + where * ((p1 - c0) - (p0 - c1))
    lo, hi = max(c0 + delta, p0), min(c1 + delta, p1)
    assume(lo < hi)
    ounion, oboxes = gate_boxes(others, o0 - WIDEN, o1 + WIDEN)
    cunion, cboxes = gate_boxes(cands, c0 - WIDEN, c1 + WIDEN)
    gaps = {(i, j): box_gap(ob, cb)
            for i, ob in enumerate(oboxes) for j, cb in enumerate(cboxes)}
    assert box_gap(ounion, cunion) <= min(gaps.values())
    for (i, j), gap in gaps.items():
        assert gap <= min_distance(moved(others[i], o_delta), cands[j].shifted(delta),
                                   lo, hi) + BOX_MARGIN


def test_reused_boxes_cover_a_jump_where_a_shifted_window_starts():
    # the candidate jumps 3 cells at t = 0, and its window starts just after
    # the jump; shifted by 1.0, that start rounds back onto the jump, where
    # the atom sits on the placed gate's.  Unwidened boxes would be 3 cells
    # apart and prune the pair.
    committed = scheduler._Committed(ArchitectureSpec(Variant.TWO_WAY_BELT, 8, t2=1.0, v=1e-6))
    committed.add([1.0, [_Track(static_pos=(3.0, 0.0))], None, None])
    assert committed.first_conflict([1e-18, [jump(3.0)], None, None], 1.0, -1) == 0


# the exclusion search with a gap and rounding slack `eps` of 1e-6 s
SEARCH_ARCH = ArchitectureSpec(Variant.TWO_WAY_BELT, 8, t2=1.0, v=1e-6)
SEARCH_EPS = scheduler._Committed(SEARCH_ARCH).eps


@st.composite
def search_gates(draw, sites):
    """(t0, tracks, boxes) of a two-qubit gate at a point of `sites`, its
    atoms moving within a cell of it; planned over [b0, b0 + t2] and moved
    `delta` later as `schedule` commits it, to fire over [t0, t0 + t2] with
    t0 = b0 + delta.  `boxes` are None or those built over the planned
    window widened by eps, as a candidate tested there keeps them."""
    x, y = draw(sites)
    near = st.tuples(st.floats(x - 1.0, x + 1.0), st.floats(y - 1.0, y + 1.0))
    atoms = draw(st.lists(tracks(near), min_size=1, max_size=2))
    b0 = draw(st.floats(0.0, 2.0))
    delta = draw(st.floats(-1.0, 1.0)) if draw(st.booleans()) else 0.0
    boxes = (gate_boxes(atoms, b0 - SEARCH_EPS, b0 + SEARCH_ARCH.t2 + SEARCH_EPS)
             if draw(st.booleans()) else None)
    return (b0 + delta, [moved(t, delta) for t in atoms], boxes)


@st.composite
def searches(draw):
    """Placed gates, the index after which the search starts, and a
    candidate, at sites over the whole array, where most gates that fire
    together are far apart, or over a 6x6 part of it, where many are about
    the exclusion distance apart."""
    side = draw(st.sampled_from([16.0, 6.0]))
    sites = st.tuples(st.floats(0.0, side), st.floats(0.0, side))
    placed = draw(st.lists(search_gates(sites), max_size=12))
    return placed, draw(search_gates(sites)), draw(st.integers(-1, len(placed) - 1))


def plain_first_conflict(placed, cand, delta: float, after: int):
    """The first placed gate after `after` with an atom pair too close to
    the candidate shifted by `delta` while both fire: every gate in
    placement order, every atom pair, no boxes.  Each gate fires for `t2`
    from its start, the candidate from its shifted start."""
    b0, ctracks, _ = cand
    c0 = b0 + delta
    shifted = [t.shifted(delta) for t in ctracks]
    for k in range(after + 1, len(placed)):
        o0, otracks, _ = placed[k]
        lo, hi = max(c0, o0), min(c0 + SEARCH_ARCH.t2, o0 + SEARCH_ARCH.t2)
        if lo < hi and any(too_close(ot, ct, lo, hi) for ot in otracks for ct in shifted):
            return k
    return None


ORIGIN = [_Track(static_pos=(0.0, 0.0))]


@pytest.mark.thorough
@given(searches(), st.floats(-1.0, 1.0))
# union boxes exactly the exclusion distance plus BOX_MARGIN apart along x:
# on the edge of the square, and passed
@example(search=([(0.0, ORIGIN, None)],
                 (0.0, [_Track(static_pos=(EXCLUSION_CELLS + BOX_MARGIN, 0.0))], None),
                 -1), delta=0.0)
# a diagonal neighbour inside the square but outside the circle: the atom
# boxes, not the square, pass it
@example(search=([(0.0, ORIGIN, None)], (0.0, [_Track(static_pos=(1.5, 1.5))], None),
                 -1), delta=0.0)
def test_first_conflict_matches_a_plain_scan(search, delta):
    # the boxes, the square around the candidate and the time index only
    # skip gates and atom pairs that cannot come too close
    placed, cand, after = search
    committed = scheduler._Committed(SEARCH_ARCH)
    for gate in placed:
        committed.add([*gate, None])
    assert committed.first_conflict([*cand, None], delta, after) == \
        plain_first_conflict(placed, cand, delta, after)


def test_a_shifted_candidate_is_searched_over_the_window_it_is_committed_with():
    # planned at 0.2 and shifted by 0.6, the candidate fires from 0.2 + 0.6 =
    # 0.8 to 0.8 + t2 = 1.8, the window a commit files; its planned end
    # shifted, (0.2 + t2) + 0.6, is an ulp earlier.  A gate one cell away that
    # starts in that last ulp fires with it, too close
    b0, delta = 0.2, 0.6
    o0 = (b0 + SEARCH_ARCH.t2) + delta
    assert o0 < (b0 + delta) + SEARCH_ARCH.t2
    committed = scheduler._Committed(SEARCH_ARCH)
    committed.add([o0, ORIGIN, None, None])
    cand = (b0, [_Track(static_pos=(1.0, 0.0))], None)
    assert committed.first_conflict([*cand, None], delta, -1) == 0
    assert plain_first_conflict([(o0, ORIGIN, None)], cand, delta, -1) == 0


def indexed_place_anchors(arch, steps, windows, rides, events: list):
    """`_place_anchors` with each two-qubit gate placed through
    `_Committed.first_conflict`, whose time index, square and boxes only
    skip gates that cannot conflict; a two-qubit gate fires for `dur` from
    its start.  Returns the last gate end of each qubit and whether any
    gate was moved off another of its plan."""
    placed = scheduler._Committed(arch)
    eps = placed.eps
    last_end, bit_end, bumped = {}, {}, False
    for (gate, operands, bit), (t, t_close) in zip(steps, windows, strict=True):
        dur = scheduler._gate_duration(arch, gate)
        for q in operands:
            if q in last_end:
                t = max(t, last_end[q] + eps)
        if gate.reads_bit and bit in bit_end:
            t = max(t, bit_end[bit] + eps)
        tracks = [qubit_track(q, rides) for q in operands]
        if gate.is_two_qubit:
            moved = True
            while moved:
                moved, k = False, -1
                while (k := placed.first_conflict([t, tracks, None, None],
                                                  0.0, k)) is not None:
                    t = placed.gates[k][0] + dur + eps
                    moved = bumped = True
            placed.add([t, tracks, None, None])
        assert t + dur <= t_close
        comp = [q for q in operands if not q.is_messenger]
        pos = (float(comp[0].coord[1]), float(comp[0].coord[0])) if comp \
            else tracks[0].position(t + dur / 2)
        events.append(PhysicalEvent(t, pos, ActionKind.GATE, operands,
                                    gate=gate, bit=bit, duration=dur))
        for q in operands:
            last_end[q] = t + dur
        if gate.writes_bit:
            bit_end[bit] = t + dur
    return last_end, bumped


@pytest.mark.parametrize("variant", list(Variant))
def test_plan_scan_places_as_the_indexed_search(variant):
    # every ordered pair of the L = 4 and 5 plans that PLAN_DIGEST pins: the
    # planner's plain scan over a plan's placed gates fires each gate at
    # the time the indexed search picks.  36 one-way-belt plans move a gate
    # off another of their own plan, so the pins keep exercising that path.
    bumped = 0
    for L in (4, 5):
        arch = arch_for(variant, L)
        cells = [(r, c) for r in range(L) for c in range(L)]
        for a, b in itertools.permutations(cells, 2):
            d = decompose_cz(arch, a, b)
            rides, windows, scanned = scheduler._PLANNERS[variant](arch, d)
            indexed = list(scanned)
            last, _ = scheduler._place_anchors(arch, d.gates, windows, rides, scanned)
            ref_last_end, moved = indexed_place_anchors(arch, d.gates, windows, rides, indexed)
            assert scanned == indexed
            assert {q: e.t_end for q, e in last.items()} == ref_last_end
            bumped += moved
    assert bumped == (36 if variant is Variant.ONE_WAY_BELT else 0)


@pytest.mark.parametrize("variant", list(Variant))
def test_plan_records_are_the_plans_two_qubit_gates(variant):
    # on the PLAN_DIGEST pairs: the placer's records of a plan's two-qubit
    # gates, put in event order as `schedule()` takes them, are the
    # two-qubit gate events of `plan_trajectories`, and each record's tracks
    # place their atoms where the plan's trajectories do.  Some one-way-belt
    # plans place a gate before one that starts earlier, so their records
    # are reordered.
    reordered = 0
    for L in (4, 5):
        arch = arch_for(variant, L)
        cells = [(r, c) for r in range(L) for c in range(L)]
        for a, b in itertools.permutations(cells, 2):
            d = decompose_cz(arch, a, b)
            prog = plan_trajectories(arch, d)
            placed = scheduler._plan(arch, d)[2]
            records = scheduler._event_order(placed)
            assert [g[3] for g in records] == [e for e in prog.events if e.action is ActionKind.GATE
                                               and e.gate.is_two_qubit]
            # each record starts at its event's start, its boxes not yet built
            assert all(t0 == e.t and boxes is None for t0, _, boxes, e in records)
            for _, tracks, _, e in records:
                times = (e.t, (e.t + e.t_end) / 2, e.t_end, prog.makespan)
                for q, track in zip(e.operands, tracks, strict=True):
                    plan_track = qubit_track(q, prog.trajectories)
                    assert [track.position(t) for t in times] == \
                        [plan_track.position(t) for t in times]
                    assert track.breakpoints(0.0, prog.makespan) == \
                        plan_track.breakpoints(0.0, prog.makespan)
            reordered += [g[3] for g in records] != [g[3] for g in placed]
    assert (reordered > 0) == (variant is Variant.ONE_WAY_BELT)


@st.composite
def static_drafts(draw):
    """Up to 8 CZs between computational qubits of a 4 x 4 array, each in a
    window (t0, inf) with t0 on a half-gate grid: placed gates touch,
    overlap and push each other, also back onto gates placed before them."""
    cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
    steps, windows = [], []
    for _ in range(draw(st.integers(1, 8))):
        a = draw(cells)
        b = draw(cells.filter(a.__ne__))
        steps.append(GateStep(GateKind.CZ, (QubitRef.comp(*a), QubitRef.comp(*b))))
        windows.append((draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])), math.inf))
    return steps, windows


@pytest.mark.thorough
@given(static_drafts())
def test_plan_scan_places_random_drafts_as_the_indexed_search(draft):
    steps, windows = draft
    scanned, indexed = [], []
    last, _ = scheduler._place_anchors(SEARCH_ARCH, steps, windows, {}, scanned)
    ref_last_end = indexed_place_anchors(SEARCH_ARCH, steps, windows, {}, indexed)[0]
    assert scanned == indexed
    assert {q: e.t_end for q, e in last.items()} == ref_last_end


@pytest.mark.thorough
@given(tracks(), tracks(), st.floats(-10.0, 15.0), st.floats(0.0, 4.0, exclude_min=True),
       st.booleans(), st.data())
def test_too_close_decides_as_min_distance(ta, tb, t0, width, on_breakpoint, data):
    # the exclusion search decides an atom pair at the overlap's start when
    # the atoms are already too close there, else by the exact minimum; the
    # verdict must be the exact minimum's, also from a segment breakpoint
    breakpoints = ta.breakpoints(-math.inf, math.inf) + tb.breakpoints(-math.inf, math.inf)
    if on_breakpoint and breakpoints:
        t0 = data.draw(st.sampled_from(breakpoints))
    t1 = t0 + width
    assume(t0 < t1)
    assert too_close(ta, tb, t0, t1) == \
        (min_distance(ta, tb, t0, t1) < EXCLUSION_CELLS - DIST_TOL)


# The geometry kernels and the event tie-break compare instead of calling
# `min`/`max`/`any`; each must give, bit for bit, what that form gives.
# `repr` tells -0.0 from 0.0 and shows NaN.  These are those forms.

def minmax_segment_position(seg: TrajectorySegment, t: float):
    _, _, t_start, t_end, start_pos, (x1, y1) = seg
    if t_end <= t_start:
        return start_pos
    f = min(max((t - t_start) / (t_end - t_start), 0.0), 1.0)
    x0, y0 = start_pos
    return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))


def minmax_box(track: _Track, t0: float, t1: float):
    if track.static is not None:
        x, y = track.static
        return (x, y, x, y)
    t0, t1 = t0 - track.offset, t1 - track.offset
    pts = []
    for s in track.segments:
        if s.t_end >= t0:
            pts += (minmax_segment_position(s, t0), minmax_segment_position(s, t1))
            if s.t_end >= t1:
                break
    else:
        pts.append(track.segments[-1].end_pos)
    xs, ys = zip(*pts)
    return (min(xs), min(ys), max(xs), max(ys))


def minmax_gate_boxes(tracks, t0: float, t1: float):
    boxes = [minmax_box(t, t0, t1) for t in tracks]
    x0, y0, x1, y1 = zip(*boxes)
    return (min(x0), min(y0), max(x1), max(y1)), boxes


def minmax_box_gap(a, b) -> float:
    return math.hypot(max(a[0] - b[2], b[0] - a[2], 0.0),
                      max(a[1] - b[3], b[1] - a[3], 0.0))


def minmax_min_distance(ta: _Track, tb: _Track, t0: float, t1: float) -> float:
    if t1 < t0:
        return math.inf
    best = math.inf
    cuts = scheduler._cuts(ta, tb, t0, t1)
    for lo, hi in zip(cuts, cuts[1:]):
        pa0, pa1 = ta.position(lo), ta.position(hi)
        pb0, pb1 = tb.position(lo), tb.position(hi)
        r0 = (pa0[0] - pb0[0], pa0[1] - pb0[1])
        r1 = (pa1[0] - pb1[0], pa1[1] - pb1[1])
        s = (r1[0] - r0[0], r1[1] - r0[1])
        ss = s[0] * s[0] + s[1] * s[1]
        best = min(best, math.hypot(*r0), math.hypot(*r1))
        if ss > 0:
            f = -(r0[0] * s[0] + r0[1] * s[1]) / ss
            if 0 < f < 1:
                best = min(best, math.hypot(r0[0] + f * s[0], r0[1] + f * s[1]))
    if best is math.inf:
        best = scheduler._dist(ta.position(t0), tb.position(t0))
    return best


def minmax_order_tail(e: PhysicalEvent) -> tuple:
    serials = [q.serial for q in e.operands if q.is_messenger]
    return (e.action.rank, min(serials) if serials else -1,
            tuple(q._sort_key for q in e.operands))


# coordinates from a pool with both zeros beside random ones, so that
# extremes tie between -0.0 and 0.0
tie_coords = st.one_of(st.sampled_from([0.0, -0.0, 2.0]), coords)
tie_points = st.tuples(tie_coords, tie_coords)
tie_gate_tracks = st.lists(tracks(tie_points), min_size=1, max_size=3)


@st.composite
def segment_times(draw):
    """A segment, zero-length ones included, and a time before, inside or
    after it, or at one of its ends."""
    t_start = draw(st.floats(-5.0, 5.0))
    t_end = t_start + draw(st.sampled_from([0.0, draw(st.floats(0.0, 3.0))]))
    seg = TrajectorySegment(0, SegmentKind.BELT_RIDE, t_start, t_end,
                            draw(tie_points), draw(tie_points))
    t = draw(st.one_of(
        st.floats(0.0, 3.0).map(lambda d: t_start - d),
        st.floats(0.0, 1.0).map(lambda f: t_start + f * (t_end - t_start)),
        st.floats(0.0, 3.0).map(lambda d: t_end + d),
        st.sampled_from([t_start, t_end])))
    return seg, t


operand_refs = st.one_of(st.integers(0, 5).map(QubitRef.mess),
                         st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
                             lambda rc: QubitRef.comp(*rc)))
tail_events = st.builds(lambda action, operands: PhysicalEvent(0.0, (0.0, 0.0), action, operands),
                        st.sampled_from(list(ActionKind)),
                        st.lists(operand_refs, max_size=3).map(tuple))
boxes = st.tuples(tie_coords, tie_coords, tie_coords, tie_coords)


@pytest.mark.thorough
@given(segment_times(), tie_gate_tracks, tie_gate_tracks, st.floats(-10.0, 15.0),
       st.floats(-1.0, 4.0), boxes, boxes, tail_events)
@example(  # t - t_start is -0.0, so is f: -0.0 + -0.0 * 1.0 is -0.0, -0.0 + 0.0 * 1.0 is 0.0
    (TrajectorySegment(0, SegmentKind.BELT_RIDE, 0.0, 1.0, (-0.0, -0.0), (1.0, 1.0)), -0.0),
    [STATIC], [JUMP], 0.0, 0.0, (-0.0, 0.0, -0.0, 0.0), (0.0, -0.0, 0.0, -0.0),
    PhysicalEvent(0.0, (0.0, 0.0), ActionKind.GATE, (QubitRef.mess(3), QubitRef.mess(1))))
@example(  # a NaN time passes the clamp unchanged
    (TrajectorySegment(0, SegmentKind.BELT_RIDE, 0.0, 1.0, (0.0, 0.0), (1.0, 1.0)), math.nan),
    [STATIC], [JUMP], 0.0, 1.0, (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0),
    PhysicalEvent(0.0, (0.0, 0.0), ActionKind.LOAD, ()))
@example(  # a zero-length last segment at y = -0.0 ties the minimum y 0.0 and must
    # not replace it; it is the last, as a later 0.0 would replace it back
    (TrajectorySegment(0, SegmentKind.BELT_RIDE, 0.0, 1.0, (0.0, 0.0), (1.0, 0.0)), 0.5),
    [_Track(segments=[
        TrajectorySegment(0, SegmentKind.BELT_RIDE, 0.0, 1.0, (0.0, 0.0), (1.0, 0.0)),
        TrajectorySegment(0, SegmentKind.BELT_RIDE, 1.0, 1.0, (1.0, -0.0), (1.0, -0.0))])],
    [STATIC], 0.0, 2.0, (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0),
    PhysicalEvent(0.0, (0.0, 0.0), ActionKind.LOAD, ()))
def test_kernels_match_their_min_max_forms(seg_t, atracks, btracks, w0, width, a, b, event):
    seg, t = seg_t
    assert repr(seg.position(t)) == repr(minmax_segment_position(seg, t))
    w1 = w0 + width
    for track in atracks + btracks:
        assert repr(track.box(w0, w1)) == repr(minmax_box(track, w0, w1))
        assert repr(track.box()) == repr(minmax_box(track, -math.inf, math.inf))
    aunion, aboxes = gate_boxes(atracks, w0, w1)
    bunion, bboxes = gate_boxes(btracks, w0, w1)
    assert repr((aunion, aboxes)) == repr(minmax_gate_boxes(atracks, w0, w1))
    for p, q in [(a, b), (b, a), (aunion, bunion)] + list(itertools.product(aboxes, bboxes)):
        assert repr(box_gap(p, q)) == repr(minmax_box_gap(p, q))
    for ta, tb in itertools.product(atracks, btracks):
        assert repr(min_distance(ta, tb, w0, w1)) == repr(minmax_min_distance(ta, tb, w0, w1))
    assert repr(event.order_tail) == repr(minmax_order_tail(event))


def test_shifted_builds_what_make_builds():
    # throw-catch-throw along one column: the relaunch velocity is (-0.0, -v)
    arch = arch_for(Variant.THROW_CATCH_THROW)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 2), (5, 2)))
    relaunch = [e for e in prog.events if e.action is ActionKind.THROW][-1]
    assert repr(relaunch.velocity[0]) == "-0.0"
    delta = 2.5e-6
    events, trajectories, _ = shift_program(prog, delta)
    made = [PhysicalEvent._make((e.t + delta, *e[1:])) for e in prog.events]
    made_trajectories = {s: [TrajectorySegment._make((m, kind, t0 + delta, t1 + delta, p0, p1))
                             for m, kind, t0, t1, p0, p1 in segs]
                         for s, segs in prog.trajectories.items()}
    assert list(trajectories) == list(made_trajectories)
    pairs = list(zip(events, made, strict=True))
    for s in trajectories:
        pairs += zip(trajectories[s], made_trajectories[s], strict=True)
    for x, y in pairs:
        assert type(x) is type(y)
        assert [(type(f), repr(f)) for f in x] == [(type(f), repr(f)) for f in y]
    # `shift_program` builds records by `tuple.__new__`: the only constructor
    # above tuple's is the named tuple's own, which checks nothing
    assert "__new__" not in vars(PhysicalEvent)
    for cls in (PhysicalEvent, TrajectorySegment):
        owners = [k for k in cls.__mro__ if "__new__" in vars(k)]
        assert "_fields" in vars(owners[0]) and owners[1:] == [tuple, object]


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


def h_after_dispose(events, load, dispose):
    """An H on the messenger 1 s after its DISPOSE, appended (event 8)."""
    events.append(events[dispose]._replace(t=events[dispose].t + 1.0, action=ActionKind.GATE,
                                           gate=GateKind.H, duration=1e-7))


def load_after_last_gate(events, load, dispose):
    """The LOAD moved to the end of the messenger's last gate, trajectories
    unchanged, and the events sorted again: every use but the disposal now
    comes before it, in time and in list order, and the LOAD comes after
    its path starts."""
    end = max(e.t_end for e in events if e.action is ActionKind.GATE
              and QubitRef.mess(0) in e.operands)
    events[load] = events[load]._replace(t=end)
    events[:] = sort_events(events)


@pytest.mark.parametrize("edit, expected", [
    (lambda events, load, dispose: events.insert(load + 1, events[load]),
     [("lifecycle", "messenger 0 loaded twice")]),
    (lambda events, load, dispose: events.pop(dispose),
     [("lifecycle", "messenger 0 loaded but never disposed")]),
    (lambda events, load, dispose: events.pop(load),
     [("lifecycle", "messenger 0 disposed but never loaded")]),
    # a use lies on the path, so a LOAD after it is late for the path's
    # start: the one fault is a `presence` violation, reported once
    (load_after_last_gate,
     [("presence", "messenger 0 loaded at event 5 away from its path's start")]),
    (h_after_dispose, [("lifecycle", "messenger 0 used at event 8 after disposal")])],
    ids=["loaded-twice", "never-disposed", "never-loaded", "used-before-load",
         "used-after-dispose"])
def test_check_conflicts_names_each_lifecycle_rule(edit, expected):
    arch = arch_for(Variant.THROW_AND_MEASURE)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (4, 4)))   # messenger 0 only
    events = list(prog.events)
    load = next(i for i, e in enumerate(events) if e.action is ActionKind.LOAD)
    dispose = next(i for i, e in enumerate(events) if e.action is ActionKind.DISPOSE)
    edit(events, load, dispose)
    assert check_conflicts(prog, arch) == []
    assert [(v.kind, v.message) for v in check_conflicts(prog._replace(events=events), arch)] \
        == expected


def edit_first(events, action, **change):
    """The first `action` event with each field named in `change` mapped by its function."""
    i = next(i for i, e in enumerate(events) if e.action is action)
    events[i] = events[i]._replace(**{k: f(getattr(events[i], k)) for k, f in change.items()})


def readout_past_the_path(events, paths, arch):
    """Messenger 0's readout stretched to end one ulp after its path ends."""
    i = next(i for i, e in enumerate(events) if e.gate is GateKind.MEASURE_X)
    t, end = events[i].t, paths[0][-1].t_end
    dur = end - t
    while t + dur <= end:
        dur = math.nextafter(dur, math.inf)
    events[i] = events[i]._replace(duration=dur)


SPAN = "outside its path's span [0.0, 2.9313709498984763e-05] s"


def path_starts_early(events, paths, arch):
    """Messenger 0's path opened by a 1 us wait where it starts, so that
    its LOAD, at the old start, is 1 us late."""
    first = paths[0][0]
    paths[0] = [TrajectorySegment(0, SegmentKind.STATIONARY, first.t_start - 1e-6,
                                  first.t_start, first.start_pos, first.start_pos),
                *paths[0]]


@pytest.mark.parametrize("edit, event, message", [
    (lambda events, paths, arch: edit_first(events, ActionKind.LOAD, t=lambda t: t - 1e-6),
     0, f"event 0 on messenger 0 {SPAN}"),
    (readout_past_the_path, 5, f"event 5 on messenger 0 {SPAN}"),
    (lambda events, paths, arch: edit_first(events, ActionKind.LOAD,
                                            pos=lambda p: (p[0] + 0.5, p[1])),
     0, "messenger 0 loaded at event 0 away from its path's start"),
    (path_starts_early, 0, "messenger 0 loaded at event 0 away from its path's start"),
    (lambda events, paths, arch: edit_first(events, ActionKind.DISPOSE,
                                            pos=lambda p: (p[0], p[1] + 0.5)),
     7, "messenger 0 disposed of at event 7 away from its path's end"),
    (lambda events, paths, arch: edit_first(events, ActionKind.DISPOSE,
                                            t=lambda t: t - scheduler._gap(arch) / 2),
     7, "messenger 0 disposed of at event 7 away from its path's end"),
    (lambda events, paths, arch: paths.pop(0), 0, "messenger 0 used at event 0 has no path"),
    (lambda events, paths, arch: paths.update({0: []}), 0,
     "messenger 0 used at event 0 has no path")],
    ids=["before-path", "after-path", "load-away", "load-late", "dispose-away", "dispose-early",
         "no-path", "empty-path"])
def test_check_conflicts_keeps_each_messenger_event_on_its_path(edit, event, message):
    # throw-and-measure, messenger 0 only: its path runs from its LOAD at 0
    # to its DISPOSE the gap after its readout ends.  Each edit breaks one
    # rule once; a readout one ulp past the path is outside it, as a gate
    # that ends an ulp after its DISPOSE would be
    arch = arch_for(Variant.THROW_AND_MEASURE)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (4, 4)))
    events, paths = list(prog.events), dict(prog.trajectories)
    edit(events, paths, arch)
    assert check_conflicts(prog, arch) == []
    broken = ScheduledProgram(events, paths, prog.makespan)
    assert [(v.kind, v.events, v.message) for v in check_conflicts(broken, arch)] == \
        [("presence", (event,), message)]


def test_check_conflicts_reads_the_lifecycle_in_time_order():
    # the DISPOSE listed first, so every other event is listed after it but
    # timed before it: by time, the messenger is loaded, used, then disposed of
    arch = arch_for(Variant.THROW_AND_MEASURE)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (4, 4)))
    events = list(prog.events)
    dispose = next(i for i, e in enumerate(events) if e.action is ActionKind.DISPOSE)
    events.insert(0, events.pop(dispose))
    assert check_conflicts(prog._replace(events=events), arch) == []


def test_classical_bits_reads_the_bits_in_time_order():
    # the plan listed in reverse, so its readout's COND_Z (event 1) is
    # listed before the MEASURE_X that writes bit 0 (event 2) but timed
    # after it: both calls read events by time and find nothing.  A readout
    # stretched past the COND_Z's start is named by its list positions
    arch = arch_for(Variant.THROW_AND_MEASURE)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (4, 4)))
    events = prog.events[::-1]
    assert [(e.gate, e.bit) for e in events[1:3]] == [(GateKind.COND_Z, 0), (GateKind.MEASURE_X, 0)]
    assert check_conflicts(prog._replace(events=events), arch) == []
    assert classical_bits(events).violations == ()
    read, write = events[1], events[2]._replace(duration=events[1].t - events[2].t + 1e-7)
    events[2] = write
    assert classical_bits(events).violations == (
        f"bit 0 read at event 1 (t={read.t}) before writer finishes (t={write.t_end})",)


@pytest.mark.parametrize("at_end, expected", [
    (False, [("qubit-overlap", (2, 3), "events 2 and 3 overlap in time on q(0, 0)")]),
    (True, [])], ids=["at-start", "touching"])
def test_check_conflicts_flags_a_qubit_in_two_gates_at_once(at_end, expected):
    # an H on (0,0) added at the start of its first CZ, then exactly at its
    # end: gates that touch in time do not overlap
    arch = arch_for(Variant.THROW_AND_MEASURE)
    prog = plan_trajectories(arch, decompose_cz(arch, (0, 0), (7, 7)))
    cz = next(e for e in prog.events if e.gate is GateKind.CZ)
    h = PhysicalEvent(cz.t_end if at_end else cz.t, (0.0, 0.0), ActionKind.GATE,
                      (QubitRef.comp(0, 0),), GateKind.H, duration=arch.t1)
    events = sort_events(prog.events + [h])
    assert [(v.kind, v.events, v.message)
            for v in check_conflicts(prog._replace(events=events), arch)] == expected


def test_check_conflicts_lets_too_close_gates_touch_in_time():
    # two CZs on static atoms one cell apart, closer than EXCLUSION_CELLS:
    # the second starts exactly when the first ends, then one ulp earlier
    # (an overlap under the checker's 1e-18 s, which counts as touching),
    # then eps earlier
    arch = arch_for(Variant.THROW_AND_MEASURE)
    eps = scheduler._gap(arch)

    def cz(t, row):
        return PhysicalEvent(t, (0.5, float(row)), ActionKind.GATE,
                             (QubitRef.comp(row, 0), QubitRef.comp(row, 1)), GateKind.CZ,
                             duration=arch.t2)

    first = cz(0.0, 0)
    for start, expected in ((first.t_end, []), (math.nextafter(first.t_end, 0.0), []),
                            (first.t_end - eps, [("exclusion", (0, 1), 1.0)])):
        second = cz(start, 1)
        prog = ScheduledProgram([first, second], {}, second.t_end)
        assert [(v.kind, v.events, v.distance) for v in check_conflicts(prog, arch)] == expected


@st.composite
def circuits(draw):
    """Up to 12 CZs and single-qubit gates on an L x L array, L in 4..8."""
    L = draw(st.integers(4, 8))
    cell = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1))
    cz = st.builds(LogicalCZ, cell, cell).filter(lambda op: op.a != op.b)
    one_qubit = st.builds(Logical1Q, st.sampled_from((GateKind.H, GateKind.Z, GateKind.X)),
                          cell)
    return LogicalCircuit(L, tuple(draw(st.lists(cz | one_qubit, min_size=1, max_size=12))))


@pytest.mark.thorough
@given(variant=st.sampled_from(list(Variant)), circuit=circuits())
@example(variant=Variant.THROW_CATCH_THROW,
         circuit=LogicalCircuit(8, (LogicalCZ((0, 0), (3, 3)), LogicalCZ((0, 0), (5, 1)))))
def test_schedule_serializes_gates_sharing_a_qubit(variant, circuit):
    # No qubit, computational or messenger, is an operand of two gates that
    # fire at once: each gate on a qubit starts the gap after the qubit's
    # previous gate ends, up to rounding (a shift rounds each start and end
    # on its own).  `check_conflicts` flags gates that overlap on a qubit,
    # but not a missing gap.
    arch = arch_for(variant, circuit.lattice_size)
    prog = schedule(circuit, arch)
    assert check_conflicts(prog, arch) == []
    gap = 0.999 * scheduler._gap(arch)
    windows = {}
    for e in prog.events:
        if e.action is ActionKind.GATE:
            for q in e.operands:
                windows.setdefault(q, []).append((e.t, e.t_end))
    for spans in windows.values():
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start - end >= gap


@pytest.mark.thorough
@given(variant=st.sampled_from(list(Variant)), circuit=circuits())
# disposed of when its readout ends, messenger 1 of throw-and-measure would
# be disposed of at 2.347213695499958e-05 s, one ulp before its moved
# readout ends at 2.3472136954999582e-05 s, and messenger 3 of one-way-belt
# at 3.222387174857379e-05 s, one ulp before 3.22238717485738e-05 s
@example(variant=Variant.THROW_AND_MEASURE,
         circuit=LogicalCircuit(4, (LogicalCZ((0, 0), (2, 1)), LogicalCZ((3, 3), (3, 1)))))
@example(variant=Variant.ONE_WAY_BELT,
         circuit=LogicalCircuit(4, (LogicalCZ((1, 0), (3, 2)), LogicalCZ((0, 1), (3, 1)))))
def test_scheduled_messengers_outlast_their_gates(variant, circuit):
    # `schedule()` moves a plan's DISPOSE and its readout's start each on its
    # own, and the readout's end follows from its moved start.  A messenger
    # is disposed of the gap after its last gate ends, so no gate on it ends
    # after its DISPOSE, compared exactly.
    arch = arch_for(variant, circuit.lattice_size)
    prog = schedule(circuit, arch)
    disposal = {e.operands[0].serial: e.t for e in prog.events
                if e.action is ActionKind.DISPOSE}
    for e in prog.events:
        if e.action is ActionKind.GATE:
            for q in e.operands:
                if q.is_messenger:
                    assert e.t_end <= disposal[q.serial], (e, disposal[q.serial])


def test_schedule_keeps_disjoint_gates_parallel():
    arch = arch_for(Variant.THROW_AND_MEASURE)
    circ = LogicalCircuit(8, (LogicalCZ((0, 0), (2, 2)),
                              LogicalCZ((5, 5), (7, 7))))
    prog = schedule(circ, arch)
    assert check_conflicts(prog, arch) == []
    # far-apart gates should not be serialized
    single = plan_trajectories(arch, decompose_cz(arch, (0, 0), (2, 2)))
    assert prog.makespan < 1.9 * single.makespan


@pytest.mark.parametrize("variant, ops, makespan_us", [
    (Variant.TWO_WAY_BELT, (((0, 0), (1, 0)), ((0, 3), (2, 2))), 30.776),
    (Variant.ONE_WAY_BELT, (((0, 0), (0, 2)), ((0, 1), (1, 0))), 31.324),
], ids=["two-way-belt", "one-way-belt"])
def test_schedule_measures_exclusion_only_while_both_gates_fire(variant, ops, makespan_us):
    # The atoms of these two CZs come too close only outside the time both
    # gates fire.  Measuring over the committed gate's whole window would
    # delay the second CZ: makespans 31.224 and 33.324 us.
    arch = arch_for(variant, L=4)
    prog = schedule(LogicalCircuit(4, tuple(LogicalCZ(a, b) for a, b in ops)), arch)
    assert prog.makespan * 1e6 == pytest.approx(makespan_us, abs=1e-3)
    assert check_conflicts(prog, arch) == []


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


def test_plan_trajectories_rejects_a_decomposition_it_cannot_plan():
    # the neighbor-chain baseline has no messengers to move, and a
    # decomposition fits only its own variant's planner
    arch = arch_for(Variant.TWO_WAY_BELT)
    with pytest.raises(ValueError, match="^the neighbor-chain baseline has no transport plan$"):
        plan_trajectories(arch, neighbor_chain_decompose(8, (0, 0), (3, 3)))
    other = decompose_cz(arch_for(Variant.THROW_AND_MEASURE), (0, 0), (3, 3))
    with pytest.raises(ValueError, match=r"^decomposition for Variant\.THROW_AND_MEASURE given "
                                         r"to Variant\.TWO_WAY_BELT planner$"):
        plan_trajectories(arch, other)


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


def test_schedule_rejects_a_circuit_off_the_array():
    arch = ArchitectureSpec(Variant.TWO_WAY_BELT, 8)
    h = Logical1Q(GateKind.H, (12, 12))
    with pytest.raises(ValueError, match=r"^program lattice 16 != arch L=8$"):
        schedule(LogicalCircuit(16, (h,)), arch)
    with pytest.raises(ValueError, match=r"^coordinate \(12, 12\) out of range for L=8$"):
        schedule(LogicalCircuit(8, (h,)), arch)
