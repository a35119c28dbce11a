"""`scheduler.schedule` against a plain reference list scheduler.

`reference_schedule` places gates by the same greedy rule as
`scheduler.schedule`, written as simply as possible: every committed gate
is scanned in commit order (no start-time index), every atom pair is
measured exactly (no bounding boxes) over the time both gates fire, each
plan is moved with `shift_program` and the program is ordered with
`sort_events`.  The two must give identical events, trajectories and
makespan, so a faster search or a cheaper commit in `schedule` is
checked beyond the fixed golden corpora.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from atomshuttle import scheduler
from atomshuttle.architectures import ArchitectureSpec, Variant, decompose_cz
from atomshuttle.ir import (ActionKind, GateKind, Logical1Q, LogicalCZ,
                            LogicalCircuit, PhysicalEvent, QubitRef, events_to_jsonl,
                            sort_events)
from atomshuttle.scheduler import (DIST_TOL, EXCLUSION_CELLS, ScheduledProgram,
                                   min_distance, plan_trajectories, schedule,
                                   shift_program, trajectories_to_csv)
from test_scheduler import qubit_track


def two_qubit_gates(prog: ScheduledProgram):
    """(start, end, atom tracks) of each two-qubit gate, in event order."""
    return [(e.t, e.t_end, [qubit_track(q, prog.trajectories) for q in e.operands])
            for e in prog.events if e.action is ActionKind.GATE and e.gate.is_two_qubit]


def gate_distance(tracks_a, tracks_b, t0: float, t1: float) -> float:
    """Closest approach between any atom of one gate and any of another over [t0, t1]."""
    return min(min_distance(ta, tb, t0, t1) for ta in tracks_a for tb in tracks_b)


def reference_schedule(circuit: LogicalCircuit, arch: ArchitectureSpec) -> ScheduledProgram:
    eps = 1e-6 * arch.t2
    events, trajectories, ready, committed = [], {}, {}, []
    serial = bit = 0

    def first_conflict(b0, ctracks, delta, after):
        # the candidate fires for t2 from its shifted start
        c0 = b0 + delta
        shifted = [t.shifted(delta) for t in ctracks]
        for k in range(after + 1, len(committed)):
            o0, o1, otracks = committed[k]
            lo, hi = max(c0, o0), min(c0 + arch.t2, o1)
            if lo < hi and gate_distance(otracks, shifted, lo, hi) < EXCLUSION_CELLS - DIST_TOL:
                return k
        return None

    for op in circuit.ops:
        if isinstance(op, Logical1Q):
            t = ready.get(op.q, 0.0)
            events.append(PhysicalEvent(t, (float(op.q[1]), float(op.q[0])), ActionKind.GATE,
                                        (QubitRef.comp(*op.q),), gate=op.gate,
                                        duration=arch.t1))
            ready[op.q] = t + arch.t1 + eps
            continue
        d = decompose_cz(arch, op.a, op.b, serial_start=serial, bit_start=bit)
        serial += len(d.messengers)
        bit += d.counts.nr
        plan = plan_trajectories(arch, d)
        delta = max(ready.get(op.a, 0.0), ready.get(op.b, 0.0))
        candidates = two_qubit_gates(plan)
        bumped = True
        while bumped:
            bumped = False
            for c0, _, ctracks in candidates:
                k = -1
                while (k := first_conflict(c0, ctracks, delta, k)) is not None:
                    delta = committed[k][1] - c0 + eps
                    bumped = True
        plan = shift_program(plan, delta)
        events += plan.events
        trajectories.update(plan.trajectories)
        for coord in (op.a, op.b):
            q = QubitRef.comp(*coord)
            ready[coord] = max(e.t_end for e in plan.events if q in e.operands) + eps
        committed += two_qubit_gates(plan)

    makespan = max((e.t_end for e in events), default=0.0)
    return ScheduledProgram(sort_events(events), trajectories, makespan)


@st.composite
def circuits(draw):
    L = draw(st.integers(4, 8))
    cell = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1))
    cz = st.builds(LogicalCZ, cell, cell).filter(lambda op: op.a != op.b)
    one_qubit = st.builds(Logical1Q, st.sampled_from((GateKind.H, GateKind.Z, GateKind.X)),
                          cell)
    ops = draw(st.lists(cz | one_qubit, min_size=1, max_size=12))
    return LogicalCircuit(L, tuple(ops))


def assert_same_schedule(fast: ScheduledProgram, plain: ScheduledProgram) -> None:
    assert fast.events == plain.events
    assert fast.trajectories == plain.trajectories
    assert repr(fast.makespan) == repr(plain.makespan)
    # and the artifacts written from them, down to the sign of a zero
    assert events_to_jsonl(fast.events) == events_to_jsonl(plain.events)
    assert trajectories_to_csv(fast.trajectories) == trajectories_to_csv(plain.trajectories)


@pytest.mark.parametrize("variant", list(Variant))
@settings(max_examples=40, deadline=None)
@given(circuit=circuits())
def test_schedule_matches_reference_model(variant, circuit):
    arch = ArchitectureSpec(variant, circuit.lattice_size)
    assert_same_schedule(schedule(circuit, arch), reference_schedule(circuit, arch))


def dense_circuit(L: int = 6, n: int = 60, seed: int = 1) -> LogicalCircuit:
    rng = random.Random(seed)
    cells = [(r, c) for r in range(L) for c in range(L)]
    return LogicalCircuit(L, tuple(LogicalCZ(*rng.sample(cells, 2)) for _ in range(n)))


@pytest.mark.parametrize("variant", list(Variant))
def test_dense_schedule_matches_reference_model(monkeypatch, variant):
    # 60 CZs on 6x6 crowd the array, so schedule() itself moves gates off
    # committed ones: atom pairs found too close at the start of an overlap,
    # and pairs that start apart and close in later (the exact minimum)
    circuit, arch = dense_circuit(), ArchitectureSpec(variant, 6)
    plain = reference_schedule(circuit, arch)
    plan, too_close_, min_distance_ = (scheduler._plan, scheduler.too_close,
                                       scheduler.min_distance)
    in_plan, planned, conflicts = [False], [0], {"pair": 0, "exact": 0}

    def counting_plan(*args):
        planned[0] += 1
        in_plan[0] = True
        try:
            return plan(*args)
        finally:
            in_plan[0] = False

    def counting_too_close(*args):
        close = too_close_(*args)
        conflicts["pair"] += close and not in_plan[0]
        return close

    def counting_min_distance(*args):
        d = min_distance_(*args)
        conflicts["exact"] += d < EXCLUSION_CELLS - DIST_TOL and not in_plan[0]
        return d

    monkeypatch.setattr(scheduler, "_plan", counting_plan)
    monkeypatch.setattr(scheduler, "too_close", counting_too_close)
    monkeypatch.setattr(scheduler, "min_distance", counting_min_distance)
    assert_same_schedule(schedule(circuit, arch), plain)
    assert conflicts["pair"] > conflicts["exact"] > 0 and planned[0] == len(circuit.ops)


@pytest.mark.parametrize("variant", list(Variant))
def test_wide_schedule_matches_reference_model(variant):
    # 100 CZs on 12x12: unlike on 6x6, many gates that fire together are
    # far apart, so the search passes them by the square around the
    # candidate's box before it compares their times
    circuit, arch = dense_circuit(L=12, n=100), ArchitectureSpec(variant, 12)
    assert_same_schedule(schedule(circuit, arch), reference_schedule(circuit, arch))


@pytest.mark.parametrize("variant", list(Variant))
def test_bump_loop_searches_each_candidate_in_full_once_per_delta(monkeypatch, variant):
    # schedule() stops cycling through a plan's candidates once each has been
    # searched in full (from the first committed gate) at the current delta:
    # another such search can only find nothing.  The reference model passes
    # until a pass moves none, so it makes those searches and must still agree.
    circuit, arch = dense_circuit(), ArchitectureSpec(variant, 6)
    searches = []   # (candidate, delta, after) of each search, candidates kept alive
    first_conflict = scheduler._Committed.first_conflict

    def recording_first_conflict(self, c, delta, after):
        searches.append((c, delta, after))
        return first_conflict(self, c, delta, after)

    monkeypatch.setattr(scheduler._Committed, "first_conflict", recording_first_conflict)
    assert_same_schedule(schedule(circuit, arch), reference_schedule(circuit, arch))
    full = [(id(c), delta) for c, delta, after in searches if after == -1]
    assert len(full) == len(set(full))
    # the circuit bumps candidates, so some are searched in full at several deltas
    assert len({key for key, _ in full}) < len(full)
