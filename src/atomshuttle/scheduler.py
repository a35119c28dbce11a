"""Space-time planner for messenger transport and gate firing.

Maps a decomposition onto concrete trajectories: belts run along grid
rows/columns with a half-cell lane offset, flights are straight lines
displaced half a cell from the line through the two targets.  A gate may
fire only while the messenger stays within the blockade radius of its
partner for the gate's whole duration; concurrent two-qubit gates must
keep all involved atoms at least two lattice cells apart.

All positions are in units of the lattice spacing; times in seconds.
One cell of travel takes `a / v` seconds.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import cycle
from typing import NamedTuple

from .architectures import ArchitectureSpec, Decomposition, Variant, _decompose
from .ir import (ActionKind, GateKind, Logical1Q, LogicalCircuit, PhysicalEvent, QubitRef,
                 check_circuit, sort_events)

EXCLUSION_CELLS = 2.0       # min separation of concurrently firing 2q gates
DIST_TOL = 1e-9
ENTRY_MARGIN = 2.0          # cells of approach before the first interaction
EXIT_MARGIN = 1.5           # cells past the last interaction before disposal
BOX_MARGIN = 1e-6           # cells of slack on the bounding-box lower bound


class InfeasibleError(RuntimeError):
    """Raised when no feasible firing times exist; its message names the constraint."""


class SegmentKind(Enum):
    BELT_RIDE = "belt"
    FREE_FLIGHT = "flight"
    ROUTING = "routing"
    TURNAROUND = "turnaround"
    STATIONARY = "stationary"


class TrajectorySegment(NamedTuple):
    messenger: int
    kind: SegmentKind
    t_start: float
    t_end: float
    start_pos: tuple[float, float]
    end_pos: tuple[float, float]

    def position(self, t: float) -> tuple[float, float]:
        _, _, t_start, t_end, start_pos, (x1, y1) = self   # one unpack, not six field reads
        if t_end <= t_start:
            return start_pos
        f = (t - t_start) / (t_end - t_start)
        # min(max(f, 0.0), 1.0) by comparison: -0.0 and NaN pass unchanged
        if f > 1.0:
            f = 1.0
        elif f < 0.0:
            f = 0.0
        x0, y0 = start_pos
        return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))


class ScheduledProgram(NamedTuple):
    events: list[PhysicalEvent]
    trajectories: dict[int, list[TrajectorySegment]]
    makespan: float


# --- atom motion lookup -----------------------------------------------------

class _Track:
    """Piecewise-linear position of one atom (static or from segments).

    `offset` delays the whole motion: the track is at time t where its
    segments place the atom at t - offset.
    """

    __slots__ = ("static", "segments", "offset")

    def __init__(self, static_pos=None, segments=None, offset=0.0):
        self.static = static_pos
        self.segments = segments or []
        self.offset = offset

    def shifted(self, delta: float) -> "_Track":
        return _Track(self.static, self.segments, self.offset + delta)

    def breakpoints(self, t0, t1):
        if self.static is not None:
            return []
        d = self.offset
        t0, t1 = t0 - d, t1 - d
        return [s.t_start + d for s in self.segments if t0 < s.t_start < t1] + \
               [s.t_end + d for s in self.segments if t0 < s.t_end < t1]

    def box(self, t0: float = -math.inf, t1: float = math.inf):
        """Bounding box (x0, y0, x1, y1) of every `position(t)` with t in [t0, t1].

        Built from the segments `position` can pick for such a t, each
        clipped to the window, so it also holds for the shifted track.
        """
        if self.static is not None:
            x, y = self.static
            return (x, y, x, y)
        t0, t1 = t0 - self.offset, t1 - self.offset
        points = []
        for s in self.segments:
            if s.t_end >= t0:
                points += (s.position(t0), s.position(t1))
                if s.t_end >= t1:
                    break
        else:
            points.append(self.segments[-1].end_pos)
        # running extremes, seeded with the first point and updated by the
        # comparisons `min` and `max` make, so ties and NaNs resolve as theirs
        # would; x0 <= x1 unless both are NaN, so a point below x0 is not
        # above x1
        (x0, y0), (x1, y1) = points[0], points[0]
        for x, y in points:
            if x < x0:
                x0 = x
            elif x > x1:
                x1 = x
            if y < y0:
                y0 = y
            elif y > y1:
                y1 = y
        return (x0, y0, x1, y1)

    def position(self, t: float) -> tuple[float, float]:
        if self.static is not None:
            return self.static
        t -= self.offset
        segs = self.segments
        if t <= segs[0].t_start:
            return segs[0].start_pos
        for s in segs:
            if t <= s.t_end:
                return s.position(t)
        return segs[-1].end_pos


def _moving_tracks(trajectories) -> dict:
    """serial -> the track of that messenger's segments."""
    return {s: _Track(segments=segs) for s, segs in trajectories.items()}


@functools.lru_cache(maxsize=1 << 12)
def _static_track(coord) -> _Track:
    """The track of the computational qubit at `coord` (row, col), one per
    coordinate for the planner, the list scheduler and `check_conflicts`."""
    return _Track(static_pos=_xy(coord))


def _atom_tracks(operands, moving: dict) -> list:
    """The tracks of `operands`: a messenger's from `moving` (serial ->
    track), a computational qubit's from `_static_track`."""
    return [moving[q.serial] if q.is_messenger else _static_track(q.coord) for q in operands]


def _cuts(ta: _Track, tb: _Track, t0: float, t1: float) -> list[float]:
    """t0, t1 and the breakpoints of either track between them, sorted."""
    return sorted(set([t0, t1] + ta.breakpoints(t0, t1) + tb.breakpoints(t0, t1)))


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def min_distance(ta: _Track, tb: _Track, t0: float, t1: float) -> float:
    """Minimum separation over [t0, t1]; exact on the piecewise-linear motion."""
    if t1 < t0:
        return math.inf
    best = math.inf
    cuts = _cuts(ta, tb, t0, t1)
    # the minimum is kept by the comparisons `min` makes, in its order
    for lo, hi in zip(cuts, cuts[1:]):
        ax0, ay0 = ta.position(lo)
        ax1, ay1 = ta.position(hi)
        bx0, by0 = tb.position(lo)
        bx1, by1 = tb.position(hi)
        rx0, ry0 = ax0 - bx0, ay0 - by0
        rx1, ry1 = ax1 - bx1, ay1 - by1
        sx, sy = rx1 - rx0, ry1 - ry0
        ss = sx * sx + sy * sy
        d = math.hypot(rx0, ry0)
        if d < best:
            best = d
        d = math.hypot(rx1, ry1)
        if d < best:
            best = d
        if ss > 0:
            f = -(rx0 * sx + ry0 * sy) / ss
            if 0 < f < 1:
                d = math.hypot(rx0 + f * sx, ry0 + f * sy)
                if d < best:
                    best = d
    if best is math.inf:  # zero-length interval
        best = _dist(ta.position(t0), tb.position(t0))
    return best


def too_close(ta: _Track, tb: _Track, t0: float, t1: float) -> bool:
    """`min_distance(ta, tb, t0, t1) < EXCLUSION_CELLS - DIST_TOL`, for t0 < t1.

    Settled first at t0, the first cut of `min_distance`, by the same
    arithmetic: the exact minimum runs only when the atoms start apart.
    """
    pa, pb = ta.position(t0), tb.position(t0)
    dx, dy = pa[0] - pb[0], pa[1] - pb[1]
    limit = EXCLUSION_CELLS - DIST_TOL
    return math.hypot(dx, dy) < limit or min_distance(ta, tb, t0, t1) < limit


def box_gap(a, b) -> float:
    """Distance between two boxes (x0, y0, x1, y1): a lower bound on `min_distance`."""
    # each gap is max(p, q, 0.0), taken by the comparisons `max` makes
    gx, p = a[0] - b[2], b[0] - a[2]
    if p > gx:
        gx = p
    if gx < 0.0:
        gx = 0.0
    gy, p = a[1] - b[3], b[1] - a[3]
    if p > gy:
        gy = p
    if gy < 0.0:
        gy = 0.0
    return math.hypot(gx, gy)


def gate_boxes(tracks, t0: float, t1: float):
    """Union and per-atom bounding boxes of a gate's atoms over [t0, t1]."""
    boxes = [t.box(t0, t1) for t in tracks]
    # running extremes, seeded with the first box, by the comparisons of `min`/`max`
    x0, y0, x1, y1 = boxes[0]
    for bx0, by0, bx1, by1 in boxes:
        if bx0 < x0:
            x0 = bx0
        if by0 < y0:
            y0 = by0
        if bx1 > x1:
            x1 = bx1
        if by1 > y1:
            y1 = by1
    return (x0, y0, x1, y1), boxes


def max_distance(ta: _Track, tb: _Track, t0: float, t1: float) -> float:
    """Maximum separation over [t0, t1] (convex per piece, so at breakpoints)."""
    return max(_dist(ta.position(t), tb.position(t)) for t in _cuts(ta, tb, t0, t1))


def _gap(arch: ArchitectureSpec) -> float:
    """The gap after a gate waited on, which is also the slack over rounding."""
    return 1e-6 * arch.t2


class _Committed:
    """The two-qubit gates `schedule()` has committed so far, and the
    exclusion search over them.

    A two-qubit gate is one record, the list [t0, tracks, boxes, event]:
    its start, its atoms' tracks, its boxes (None until built) and its event
    as planned.  Every two-qubit gate lasts `t2`, so it fires over
    [t0, t0 + t2], at any shift.  `gates` holds the records in placement
    order; `starts` and `ends` hold their windows' starts and ends, sorted,
    and `order` the placement index of each.  Rounding never lowers `t0 + t2` as `t0`
    grows, so gates sorted by start are sorted by end too, and the gates
    that fire during [c0, c1) are exactly those that end after c0 and start
    before c1.  A gate's `boxes` are `gate_boxes` over its window widened by
    `eps` on each side, built by `boxes` when the gate is first near another
    in time: a candidate's, over its unshifted window, are kept at commit,
    since a shift moves the atoms with the window and the widening covers a
    shifted time that rounds past a window end, so they hold for any shift.
    A search widens the candidate's union box by the exclusion distance
    (plus `BOX_MARGIN`) once: a near gate whose union box lies outside that
    square is passed by four comparisons, before its time overlap is
    computed, and each atom pair left by the atom boxes is decided at the
    start of the overlap first (`too_close`).
    """

    def __init__(self, arch: ArchitectureSpec):
        self.eps = _gap(arch)
        self.t2 = arch.t2
        self.gates: list[list] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.order: list[int] = []

    def add(self, g) -> None:
        """Commit the record `g` at its start `g[0]`."""
        t0 = g[0]
        i = bisect_right(self.starts, t0)
        self.starts.insert(i, t0)
        self.ends.insert(i, t0 + self.t2)
        self.order.insert(i, len(self.gates))
        self.gates.append(g)

    def boxes(self, g):
        """The boxes of the record `g`, built on first use."""
        if g[2] is None:
            g[2] = gate_boxes(g[1], g[0] - self.eps, (g[0] + self.t2) + self.eps)
        return g[2]

    def first_conflict(self, c, delta: float, after: int):
        """Placement index of the first gate after `after` that the record `c`,
        shifted by `delta`, comes too close to while both fire; None if there
        is none."""
        t2 = self.t2
        c0 = c[0] + delta
        c1 = c0 + t2
        lo, hi = bisect_right(self.ends, c0), bisect_left(self.starts, c1)
        near = sorted(self.order[lo:hi])
        near = near[bisect_right(near, after):]
        if not near:
            return None
        cunion, catoms = self.boxes(c)
        far = EXCLUSION_CELLS + BOX_MARGIN
        # a box wholly outside this square is at least `far` from the candidate's
        x0, y0, x1, y1 = cunion
        x0, y0, x1, y1 = x0 - far, y0 - far, x1 + far, y1 + far
        gates = self.gates
        shifted = None
        for k in near:
            other = gates[k]
            ounion, oatoms = other[2] or self.boxes(other)
            if ounion[0] >= x1 or ounion[2] <= x0 or ounion[1] >= y1 or ounion[3] <= y0:
                continue
            o0 = other[0]
            o1 = o0 + t2
            t0 = o0 if o0 > c0 else c0    # max(c0, o0) and min(c1, o1), ties included
            t1 = o1 if o1 < c1 else c1
            if t0 >= t1:
                continue
            # a box gap is a lower bound on the exact distance, so only atom
            # pairs that may come too close are measured
            if shifted is None:
                shifted = [t.shifted(delta) for t in c[1]]
            for ot, ob in zip(other[1], oatoms):
                for ct, cb in zip(shifted, catoms):
                    if box_gap(ob, cb) < far and too_close(ot, ct, t0, t1):
                        return k
        return None


# --- single-gate planning ---------------------------------------------------
#
# A planner gives the geometry (messenger itineraries, loads, throws,
# routes) and one firing interval (t0, t1) per gate of its decomposition, in
# the decomposition's order.  The gate fixes the rest: its duration
# (`_gate_duration`), so its latest start `t1 - dur`, and where it fires (its
# computational partner's site, else its first messenger's position at the
# gate center).  A pass or crossing window too short for its two-qubit gate
# raises an error named by the window's kind.

LANE_OFFSET = 0.5           # cells between a belt lane or flight line and a qubit


class _Itinerary:
    """Sequential builder for one messenger's trajectory at the speed `arch.v`."""

    def __init__(self, arch: ArchitectureSpec, serial: int, t0: float,
                 p0: tuple[float, float]):
        self.vc = 1.0 / (arch.a / arch.v)   # cells per second
        self.serial = serial
        self.t = t0
        self.p = p0
        self.t_load = t0
        self.segs: list[TrajectorySegment] = []

    def move_to(self, p1, kind: SegmentKind) -> float:
        d = _dist(self.p, p1)
        t1 = self.t + d / self.vc
        self.segs.append(TrajectorySegment(self.serial, kind, self.t, t1, self.p, p1))
        self.t, self.p = t1, p1
        return t1

    def dwell(self, duration: float, kind: SegmentKind) -> float:
        t1 = self.t + duration
        self.segs.append(TrajectorySegment(self.serial, kind, self.t, t1, self.p, self.p))
        self.t = t1
        return t1

    def time_passing(self, point) -> float:
        # time at which the *next* straight move passes `point`
        return self.t + _dist(self.p, point) / self.vc


def _pass_window(arch: ArchitectureSpec, t: float) -> tuple[float, float]:
    """When a two-qubit gate may fire on a messenger passing its static
    partner `LANE_OFFSET` cells away, closest at `t`."""
    R_c = arch.R / arch.a
    ct = arch.a / arch.v
    chord2 = R_c * R_c - LANE_OFFSET * LANE_OFFSET
    if chord2 <= 0:
        raise InfeasibleError(
            f"pass window: lane offset {LANE_OFFSET!r} outside blockade radius {R_c!r}")
    return _window(arch, "pass", t, math.sqrt(chord2) * ct)


def _cross_window(arch: ArchitectureSpec, t: float) -> tuple[float, float]:
    """When a two-qubit gate may fire between two messengers crossing
    orthogonally at `t`."""
    R_c = arch.R / arch.a
    ct = arch.a / arch.v
    # relative speed sqrt(2) v at the crossing
    return _window(arch, "crossing", t, R_c * ct / math.sqrt(2))


def _window(arch: ArchitectureSpec, kind: str, t: float, hw: float) -> tuple[float, float]:
    """[t - hw, t + hw], unless a two-qubit gate does not fit in it.

    The window ends at its start plus its width, so a gate that fits fits
    at its start after rounding too: t2 <= 2 hw gives
    fl(t0 + t2) <= fl(t0 + 2 hw).
    """
    if 2 * hw < arch.t2:
        raise InfeasibleError(
            f"{kind} window: {2 * hw!r}s shorter than gate duration {arch.t2!r}s")
    t0 = t - hw
    return (t0, t0 + 2 * hw)


def _gate_duration(arch: ArchitectureSpec, gate: GateKind) -> float:
    if gate.is_two_qubit:
        return arch.t2
    if gate is GateKind.MEASURE_X:
        return arch.tr
    return arch.t1


def _load_event(it: _Itinerary, belt=None) -> PhysicalEvent:
    return PhysicalEvent(it.t_load, it.segs[0].start_pos, ActionKind.LOAD,
                         (QubitRef.mess(it.serial),), belt=belt)


def _xy(coord):
    return (float(coord[1]), float(coord[0]))  # (row, col) -> (x, y)


def _loop_lanes(d: Decomposition):
    """The directions (dh, dv) from A to B and the rectangle of lanes around
    them: A's row lane (flowing +dh), B's column lane (+dv), the return row
    lane past B (-dh) and A's column lane (-dv)."""
    (ra, ca), (rb, cb) = d.a, d.b
    dh = 1.0 if cb >= ca else -1.0
    dv = 1.0 if rb >= ra else -1.0
    return dh, dv, (ra - LANE_OFFSET * dv, cb + LANE_OFFSET * dh,
                    rb + 1.5 * dv, ca - LANE_OFFSET * dh)


def _plan_two_way(arch: ArchitectureSpec, d: Decomposition):
    (ra, ca), (rb, _) = d.a, d.b
    dh, dv, (y1, x2, y3, x4) = _loop_lanes(d)   # the lanes of m1, m2, m3, m4
    ct = arch.a / arch.v
    s1, s2, s3, s4 = d.messengers

    m1 = _Itinerary(arch, s1, 0.0, (ca - ENTRY_MARGIN * dh, y1))
    t_cz1 = m1.time_passing((ca, y1))
    t_x1 = m1.time_passing((x2, y1))
    m1.move_to((x2 + EXIT_MARGIN * dh, y1), SegmentKind.BELT_RIDE)

    m2 = _Itinerary(arch, s2, t_x1 - ENTRY_MARGIN * ct, (x2, y1 - ENTRY_MARGIN * dv))
    t_cz2 = m2.time_passing((x2, rb))
    t_x2 = m2.time_passing((x2, y3))
    m2.move_to((x2, y3 + EXIT_MARGIN * dv), SegmentKind.BELT_RIDE)

    m3 = _Itinerary(arch, s3, t_x2 - ENTRY_MARGIN * ct, (x2 + ENTRY_MARGIN * dh, y3))
    t_x3 = m3.time_passing((x4, y3))
    m3.move_to((x4 - EXIT_MARGIN * dh, y3), SegmentKind.BELT_RIDE)

    m4 = _Itinerary(arch, s4, t_x3 - ENTRY_MARGIN * ct, (x4, y3 + ENTRY_MARGIN * dv))
    t_cz3 = m4.time_passing((x4, ra))
    m4.move_to((x4, ra - EXIT_MARGIN * dv), SegmentKind.BELT_RIDE)

    its = (m1, m2, m3, m4)
    windows = [_pass_window(arch, t_cz1), (m1.t_load, m1.t), _cross_window(arch, t_x1),
               _pass_window(arch, t_cz2), _cross_window(arch, t_x2), _cross_window(arch, t_x3),
               (m4.t_load, m4.t), _pass_window(arch, t_cz3)]
    return ({it.serial: it.segs for it in its}, windows,
            [_load_event(it, belt) for belt, it in enumerate(its)])


def _plan_one_way(arch: ArchitectureSpec, d: Decomposition):
    ct = arch.a / arch.v
    L = arch.L
    s1, s2 = d.messengers
    # m1 rides right beside A's row; m2 rides up beside B's column and
    # crosses m1's lane
    (r1, c1), (r2, c2) = d.a, d.b
    y_h = r1 - LANE_OFFSET
    x_v = c2 + LANE_OFFSET
    # case 2: m2 passes B first, then meets m1 at the lane crossing
    y0 = y_h - ENTRY_MARGIN if d.case == 1 else r2 - ENTRY_MARGIN
    # each messenger's way to the lane crossing, timed from 0; both reach it
    # at t_x, so the one with the longer way launches at 0 (m2 only in case
    # 2, where it may start farther back)
    start1 = (c1 - ENTRY_MARGIN, y_h)
    way1 = _Itinerary(arch, s1, 0.0, start1).time_passing((x_v, y_h))
    way2 = (y_h - y0) * ct
    t_x = way1 if way1 >= way2 else way2
    m1 = _Itinerary(arch, s1, t_x - way1, start1)
    t_cz1 = m1.time_passing((c1, y_h))
    t_arr1 = m1.move_to((L + 1.0, y_h), SegmentKind.BELT_RIDE)
    m2 = _Itinerary(arch, s2, t_x - way2, (x_v, y0))
    t_cz2 = m2.time_passing((x_v, float(r2)))
    t_arr2 = m2.move_to((x_v, L + 1.0), SegmentKind.BELT_RIDE)

    if d.case == 1:
        windows = [_pass_window(arch, t_cz1), (m1.t_load, m1.t), _cross_window(arch, t_x),
                   _pass_window(arch, t_cz2), (t_arr2, math.inf), (0.0, math.inf)]
    else:
        windows = [_pass_window(arch, t_cz1), (m1.t_load, m1.t), _pass_window(arch, t_cz2),
                   (m2.t_load, m2.t), _cross_window(arch, t_x), (t_arr1, math.inf),
                   (t_arr2, math.inf), (0.0, math.inf), (0.0, math.inf)]
    return {s1: m1.segs, s2: m2.segs}, windows, [_load_event(m1, 0), _load_event(m2, 1)]


def _throw_out(arch: ArchitectureSpec, d: Decomposition):
    """Throw the messenger past A, then B, on a line `LANE_OFFSET` cells off theirs.

    The flight runs `ENTRY_MARGIN` cells before A to as far past B.  Returns
    the itinerary, the windows of the decomposition's first three gates
    (CZ(A,m), H and CZ(m,B)), in its order, the LOAD and THROW events, the
    point of the line abreast of A and the throw velocity.
    """
    pa, pb = _xy(d.a), _xy(d.b)
    D = _dist(pa, pb)
    u = ((pb[0] - pa[0]) / D, (pb[1] - pa[1]) / D)
    off = (-LANE_OFFSET * u[1], LANE_OFFSET * u[0])
    a_off = (pa[0] + off[0], pa[1] + off[1])
    b_off = (pb[0] + off[0], pb[1] + off[1])
    start = (a_off[0] - ENTRY_MARGIN * u[0], a_off[1] - ENTRY_MARGIN * u[1])

    m = _Itinerary(arch, d.messengers[0], 0.0, start)
    t_cz1 = m.time_passing(a_off)
    t_cz2 = m.time_passing(b_off)
    m.move_to((b_off[0] + ENTRY_MARGIN * u[0], b_off[1] + ENTRY_MARGIN * u[1]),
              SegmentKind.FREE_FLIGHT)

    vel = (arch.v * u[0], arch.v * u[1])
    windows = [_pass_window(arch, t_cz1), (m.t_load, m.t), _pass_window(arch, t_cz2)]
    events = [_load_event(m),
              PhysicalEvent(0.0, start, ActionKind.THROW, (QubitRef.mess(m.serial),),
                            velocity=vel)]
    return m, windows, events, a_off, vel


def _plan_throw_catch_throw(arch: ArchitectureSpec, d: Decomposition):
    m, windows, events, a_off, vel = _throw_out(arch, d)
    mref = QubitRef.mess(m.serial)
    catch, t_catch = m.p, m.t
    t_relaunch = m.dwell(arch.t_turnaround, SegmentKind.TURNAROUND)
    t_cz3 = m.time_passing(a_off)
    m.move_to(m.segs[0].start_pos, SegmentKind.FREE_FLIGHT)   # back to the launch point

    events += [
        PhysicalEvent(t_catch, catch, ActionKind.CATCH, (mref,)),
        PhysicalEvent(t_relaunch, catch, ActionKind.THROW, (mref,),
                      velocity=(-vel[0], -vel[1])),
    ]
    windows += [(t_relaunch, m.t), _pass_window(arch, t_cz3)]
    return {m.serial: m.segs}, windows, events


def _plan_throw_and_measure(arch: ArchitectureSpec, d: Decomposition):
    m, windows, events, _, _ = _throw_out(arch, d)
    return {m.serial: m.segs}, windows + [(m.t, math.inf), (0.0, math.inf)], events


def _plan_shuttle_and_route(arch: ArchitectureSpec, d: Decomposition):
    (ra, ca), (rb, _) = d.a, d.b
    dh, dv, (y_a, x_b, y_ret, x_in) = _loop_lanes(d)
    y_out = ra - 1.5 * dv
    s = d.messengers[0]
    mref = QubitRef.mess(s)

    # belt k ends at a junction that routes onto belt k + 1; some belts
    # pass a target on the way
    legs = [((x_in, y_a), None),
            ((x_b, y_a), (float(ca), y_a)),
            ((x_b, y_ret), (x_b, float(rb))),
            ((x_in, y_ret), None),
            ((x_in, y_out), (x_in, float(ra)))]

    m = _Itinerary(arch, s, 0.0, (x_in, y_a - ENTRY_MARGIN * dv))
    t_cz, routes = [], []
    for belt, (junction, target) in enumerate(legs):
        if target is not None:
            t_cz.append(m.time_passing(target))
        t = m.move_to(junction, SegmentKind.BELT_RIDE)
        routes.append(PhysicalEvent(t, junction, ActionKind.ROUTE, (mref,),
                                    duration=arch.t_route, belt=belt, to_belt=belt + 1))
        m.dwell(arch.t_route, SegmentKind.ROUTING)
    m.move_to((x_in - ENTRY_MARGIN * dh, y_out), SegmentKind.BELT_RIDE)

    windows = [_pass_window(arch, t_cz[0]), (m.t_load, m.t), _pass_window(arch, t_cz[1]),
               (m.t_load, m.t), _pass_window(arch, t_cz[2])]
    return {s: m.segs}, windows, [_load_event(m, 0)] + routes


# variant -> planner: (arch, d) -> (rides: serial -> segments, windows, events)
_PLANNERS = {
    Variant.TWO_WAY_BELT: _plan_two_way,
    Variant.ONE_WAY_BELT: _plan_one_way,
    Variant.THROW_CATCH_THROW: _plan_throw_catch_throw,
    Variant.SHUTTLE_AND_ROUTE: _plan_shuttle_and_route,
    Variant.THROW_AND_MEASURE: _plan_throw_and_measure,
}


def _place_anchors(arch: ArchitectureSpec, steps, windows, rides: dict, events: list):
    """Start each gate of `steps` as early as its window (t0, t1), its qubits'
    and bit's earlier gates and pairwise exclusion allow, so that it ends by
    `t1`, and append its event to `events`.  Returns each qubit's last gate
    event (QubitRef -> event) and the record [t0, tracks, None, event] of
    each two-qubit gate (`_Committed`), in placement order.  Raises
    `InfeasibleError`, naming the gate and its latest start, when a gate
    cannot end by `t1`.

    A plan has a few two-qubit gates, so each is tested against those placed
    before it by a plain scan of their records in placement order, with no
    index or boxes.  The invariants a placement keeps are the README's
    "Invariants a schedule keeps".
    """
    eps = _gap(arch)
    last: dict = {}
    bit_end: dict = {}
    moving = _moving_tracks(rides)
    records = []
    new, GATE = tuple.__new__, ActionKind.GATE
    for (gate, operands, bit), (t, t_close) in zip(steps, windows, strict=True):
        dur = _gate_duration(arch, gate)
        # each start is max(t, end + eps), by the comparison `max` makes
        for q in operands:
            if q in last:
                after = last[q].t_end + eps
                if after > t:
                    t = after
        if gate.reads_bit and bit in bit_end:
            after = bit_end[bit] + eps
            if after > t:
                t = after
        if gate.is_two_qubit:
            tracks = _atom_tracks(operands, moving)
            moved = True
            while moved:
                # the atoms keep their rides while the start moves; a gate too
                # close while both fire moves this one to just after it, the
                # later gates are tested at the new start, and a move starts
                # another pass.  Every two-qubit gate lasts `dur`
                moved = False
                for o0, otracks, _, _ in records:
                    end, o1 = t + dur, o0 + dur
                    t0 = o0 if o0 > t else t      # max(t, o0) and min(end, o1), ties included
                    t1 = o1 if o1 < end else end
                    if t0 < t1 and any(too_close(ot, ct, t0, t1)
                                       for ot in otracks for ct in tracks):
                        t = o1 + eps
                        moved = True
        end = t + dur
        if end > t_close:
            raise InfeasibleError(
                f"{gate.value} on {operands}: required start {t:.3e}s exceeds "
                f"the latest start {t_close - dur:.3e}s in its window")
        for q in operands:
            if not q.is_messenger:
                pos = _xy(q.coord)
                break
        else:
            pos = moving[operands[0].serial].position(t + dur / 2)
        # built as `PhysicalEvent(...)` would, without its keyword handling
        e = new(PhysicalEvent, (t, pos, GATE, operands, gate, bit, dur, None, None, None))
        events.append(e)
        for q in operands:
            last[q] = e
        if gate.writes_bit:
            bit_end[bit] = end
        if gate.is_two_qubit:
            records.append([t, tracks, None, e])
    return last, records


def _plan(arch: ArchitectureSpec, d: Decomposition):
    """`plan_trajectories` before its sort: the rides, the events as written,
    and `_place_anchors`' records and last gate events.  The records' tracks
    hold the rides' segment lists, stationary waits included."""
    rides, windows, events = _PLANNERS[arch.variant](arch, d)
    last, records = _place_anchors(arch, d.gates, windows, rides, events)
    eps = _gap(arch)
    for s, segs in rides.items():
        mref = QubitRef.mess(s)
        arrival, pos = segs[-1].t_end, segs[-1].end_pos
        t_disp = max(last[mref].t_end + eps, arrival)
        if t_disp > arrival:
            segs.append(TrajectorySegment(s, SegmentKind.STATIONARY, arrival, t_disp, pos, pos))
        events.append(PhysicalEvent(t_disp, pos, ActionKind.DISPOSE, (mref,)))
    return rides, events, records, last


def plan_trajectories(arch: ArchitectureSpec, d: Decomposition) -> ScheduledProgram:
    """Plan the space-time realization of one decomposed logical gate.

    Each planner starts its plan at time 0, so the plan is written as
    planned.  Every messenger is disposed of where its ride ends, when it
    arrives or the gap (`1e-6 t2`) after its last gate ends, whichever is
    later; one read out after its ride waits there, stationary, until then.
    The gap keeps the DISPOSE after the readout's end when `schedule()`
    moves each of them on its own.  The plan keeps the invariants of the
    README's "Invariants a schedule keeps".

    Raises `ValueError` for a neighbor-chain decomposition or one of another
    variant, and `InfeasibleError` when a pass or crossing window is too
    short for its gate or a gate cannot fire within its window.
    """
    if d.variant is None:
        raise ValueError("the neighbor-chain baseline has no transport plan")
    if d.variant is not arch.variant:
        raise ValueError(f"decomposition for {d.variant} given to {arch.variant} planner")
    rides, events, _, _ = _plan(arch, d)
    events = sort_events(events)
    return ScheduledProgram(events, rides, max(e.t_end for e in events))


def shift_program(prog: ScheduledProgram, delta: float) -> ScheduledProgram:
    """`prog` with every event and segment `delta` seconds later (0: `prog` itself)."""
    if delta == 0.0:
        return prog
    # each record unpacked once (a named-tuple field read is slower than an
    # unpack) and built by one `tuple.__new__`: neither class checks its
    # fields in a `__new__` of its own, so `_make` would only add calls
    new = tuple.__new__
    events = [new(PhysicalEvent, (t + delta, *rest)) for t, *rest in prog.events]
    trajectories = {
        s: [new(TrajectorySegment, (m, kind, t0 + delta, t1 + delta, p0, p1))
            for m, kind, t0, t1, p0, p1 in segs]
        for s, segs in prog.trajectories.items()}
    return ScheduledProgram(events, trajectories, prog.makespan + delta)


# --- multi-gate scheduling --------------------------------------------------

def _event_order(records: list) -> list:
    """The records of a plan's two-qubit gates in event order (`sort_events`):
    placement order, unless two starts tie or run backwards."""
    for g, h in zip(records, records[1:]):
        if g[0] >= h[0]:
            return sorted(records, key=lambda g: g[3].sort_key())
    return records


def schedule(circuit: LogicalCircuit, arch: ArchitectureSpec) -> ScheduledProgram:
    """Greedy list scheduler over the circuit's logical ops.

    Gates run concurrently when their planned events violate no pairwise
    exclusion or qubit-dependency constraint; otherwise later gates are
    delayed by the minimal feasible offset.  Deterministic in circuit order.
    The program keeps the invariants of the README's "Invariants a schedule
    keeps".  Raises `ValueError` unless the circuit is written for the
    `arch.L` array, `InfeasibleError` from the planner when a logical gate
    has no plan, and `InfeasibleError` naming `t2` when the gap after a gate
    (`1e-6 t2`) is too fine for the program's times: a bump that leaves a
    plan overlapping the gate it was moved past, or a gap under 4 ulps of
    the makespan; and `InfeasibleError` saying the times overflow when the
    makespan is not finite.
    """
    check_circuit(circuit, arch.L)
    events: list[PhysicalEvent] = []   # in commit order, sorted once at the end
    trajectories: dict[int, list[TrajectorySegment]] = {}
    ready: dict[tuple[int, int], float] = {}
    # the program-scale exclusion index; each plan's own gates were placed
    # off each other by its planner
    committed = _Committed(arch)
    eps = committed.eps
    serial = bit = 0

    for op in circuit.ops:
        if isinstance(op, Logical1Q):
            t = ready.get(op.q, 0.0)
            dur = _gate_duration(arch, op.gate)
            events.append(PhysicalEvent(t, _xy(op.q), ActionKind.GATE, (QubitRef.comp(*op.q),),
                                        gate=op.gate, duration=dur))
            ready[op.q] = t + dur + eps
            continue
        d = _decompose(arch, op.a, op.b, serial, bit)
        serial += len(d.messengers)
        bit += d.counts.nr
        rides, plan_events, records, last = _plan(arch, d)
        delta = max(ready.get(op.a, 0.0), ready.get(op.b, 0.0))
        cand = _event_order(records)
        # cycle through the candidates until each has been searched in full
        # at the current delta, when another search can only find nothing.
        # A bump raises delta and the search goes on past the gate it hit,
        # so the candidate is searched again.  A bump starts the candidate
        # past the gate it hit, and delta only grows, so each candidate
        # bumps off each committed gate at most once
        clean = 0
        for c in cycle(cand):
            moved, k = False, -1
            while (k := committed.first_conflict(c, delta, k)) is not None:
                end = committed.gates[k][0] + arch.t2
                delta = end - c[0] + eps
                if c[0] + delta < end:
                    raise InfeasibleError(
                        f"t2 {arch.t2:.3e}s too short: its gap {eps:.3e}s does not "
                        f"move cz {op.a} {op.b} past a committed gate ending at {end:.6e}s")
                moved = True
            clean = 0 if moved else clean + 1
            if clean == len(cand):
                break
        # one copy of the plan at its final time (its makespan is not read)
        plan = shift_program(ScheduledProgram(plan_events, rides, 0.0), delta)
        trajectories.update(plan.trajectories)
        events += plan.events
        # a plan's gates on a computational qubit run in order, so its last
        # gate there sets when the qubit is free; its moved end is the
        # moved start plus the duration, as the moved event's `t_end`
        for coord in (op.a, op.b):
            e = last[QubitRef.comp(*coord)]
            ready[coord] = (e.t + delta) + e.duration + eps
        # each candidate is committed as itself, at its moved start, with
        # the moved plan's tracks; its boxes hold at any shift, since a
        # shift moves the atoms with the window
        if delta != 0.0:
            moving = _moving_tracks(plan.trajectories)
            for g in cand:
                g[1] = _atom_tracks(g[3].operands, moving)
        for g in cand:
            g[0] += delta
            committed.add(g)

    events = sort_events(events)
    makespan = max((e.t_end for e in events), default=0.0)
    if not math.isfinite(makespan):
        raise InfeasibleError(f"the program's times overflow: its makespan is {makespan!r}")
    if eps < 4 * math.ulp(makespan):
        raise InfeasibleError(
            f"t2 {arch.t2:.3e}s too short: its gap {eps:.3e}s between dependent gates is "
            f"under 4 ulps of the makespan {makespan:.6e}s")
    return ScheduledProgram(events, trajectories, makespan)


# --- conflict checking ------------------------------------------------------

class Violation(NamedTuple):
    kind: str     # "blockade" | "exclusion" | "lifecycle" | "qubit-overlap" | "presence"
    events: tuple[int, ...]
    distance: float | None
    times: tuple[float, ...]
    message: str


def _off_path(e: PhysicalEvent, i: int, s: int, path) -> str | None:
    """Why event `i` (`e`) on messenger `s` is off its path, or None.

    Times are compared exactly: an event that ends an ulp after its
    messenger's path is outside it.
    """
    first, last = path[0], path[-1]
    if e.t < first.t_start or e.t_end > last.t_end:
        return (f"event {i} on messenger {s} outside its path's span "
                f"[{first.t_start!r}, {last.t_end!r}] s")
    if e.action is ActionKind.LOAD and (e.t, e.pos) != (first.t_start, first.start_pos):
        return f"messenger {s} loaded at event {i} away from its path's start"
    if e.action is ActionKind.DISPOSE and (e.t, e.pos) != (last.t_end, last.end_pos):
        return f"messenger {s} disposed of at event {i} away from its path's end"
    return None


def check_conflicts(program: ScheduledProgram, arch: ArchitectureSpec) -> list[Violation]:
    """Independent re-validation of a program's invariants (the README's
    "Invariants a schedule keeps" table), in one sweep over its events in
    time order, ties in list order.  It shares no scheduling decision with
    `schedule()`."""
    violations: list[Violation] = []
    R_c = arch.R / arch.a
    paths = program.trajectories
    moving = _moving_tracks(paths)
    events = program.events
    pathless: set[int] = set()      # messengers used with no path
    loaded: dict[int, int] = {}     # messenger -> its last LOAD
    disposed: dict[int, int] = {}   # messenger -> its last DISPOSE
    busy: dict = {}                 # qubit -> (end, event) of its gate that ends last
    active: list[tuple] = []        # the two-qubit gates still firing
    touch = 1e-18                   # seconds two gates may overlap and only touch
    for i in sorted(range(len(events)), key=lambda i: events[i].t):
        e = events[i]
        located = True
        for q in e.operands:
            if not q.is_messenger:
                continue
            s = q.serial
            path = paths.get(s) or None     # an empty path is no path
            if path is None:
                located = False
                if s not in pathless:
                    pathless.add(s)
                    violations.append(Violation(
                        "presence", (i,), None, (e.t,),
                        f"messenger {s} used at event {i} has no path"))
            if s in disposed:
                violations.append(Violation(
                    "lifecycle", (disposed[s], i), None, (e.t,),
                    f"messenger {s} used at event {i} after disposal"))
            elif path is not None and (message := _off_path(e, i, s, path)):
                violations.append(Violation("presence", (i,), None, (e.t, e.t_end), message))
            if e.action is ActionKind.LOAD:
                if s in loaded:
                    violations.append(Violation(
                        "lifecycle", (loaded[s], i), None, (e.t,),
                        f"messenger {s} loaded twice"))
                loaded[s] = i
            if e.action is ActionKind.DISPOSE:
                disposed[s] = i
        if e.action is not ActionKind.GATE:
            continue
        for q in e.operands:
            end, j = busy.get(q, (-math.inf, None))
            if e.t < end - touch:
                violations.append(Violation(
                    "qubit-overlap", (j, i), None, (e.t, min(end, e.t_end)),
                    f"events {j} and {i} overlap in time on {q}"))
            if e.t_end > end:
                busy[q] = (e.t_end, i)
        if e.gate is None or not e.gate.is_two_qubit or not located:
            continue
        etracks = _atom_tracks(e.operands, moving)
        if any(q.is_messenger for q in e.operands):
            dmax = max_distance(etracks[0], etracks[1], e.t, e.t_end)
            if dmax > R_c + DIST_TOL:
                violations.append(Violation(
                    "blockade", (i,), dmax, (e.t, e.t_end),
                    f"event {i}: partner at distance {dmax:.4f} cells > R={R_c:.4f} "
                    f"during {e.gate.value}"))
        active = [a for a in active if a[1].t_end > e.t]
        # boxes over the event's own window, which holds every [lo, hi] below
        eunion, eboxes = gate_boxes(etracks, e.t, e.t_end)
        for j, o, otracks, ounion, oboxes in active:
            lo, hi = max(e.t, o.t), min(e.t_end, o.t_end)
            if lo >= hi - touch or box_gap(eunion, ounion) >= EXCLUSION_CELLS + BOX_MARGIN:
                continue
            # a pruned atom pair stays >= EXCLUSION_CELLS apart, so a reported
            # distance is the exact closest approach
            dmin = min((min_distance(et, ot, lo, hi)
                        for et, eb in zip(etracks, eboxes) for ot, ob in zip(otracks, oboxes)
                        if box_gap(eb, ob) < EXCLUSION_CELLS + BOX_MARGIN), default=math.inf)
            if dmin < EXCLUSION_CELLS - DIST_TOL:
                violations.append(Violation(
                    "exclusion", (j, i), dmin, (lo, hi),
                    f"events {j} and {i} overlap in time with atoms "
                    f"{dmin:.4f} cells apart (< {EXCLUSION_CELLS})"))
        active.append((i, e, etracks, eunion, eboxes))

    for s, i in loaded.items():
        if s not in disposed:
            violations.append(Violation(
                "lifecycle", (i,), None, (), f"messenger {s} loaded but never disposed"))
    for s, i in disposed.items():
        if s not in loaded:
            violations.append(Violation(
                "lifecycle", (i,), None, (), f"messenger {s} disposed but never loaded"))
    return violations


def trajectories_to_csv(trajectories: dict[int, list[TrajectorySegment]]) -> str:
    lines = ["messenger,t_start,t_end,x0,y0,x1,y1,kind"]
    for s in sorted(trajectories):
        for seg in trajectories[s]:
            lines.append(
                f"{s},{seg.t_start!r},{seg.t_end!r},{seg.start_pos[0]!r},"
                f"{seg.start_pos[1]!r},{seg.end_pos[0]!r},{seg.end_pos[1]!r},{seg.kind._value_}")
    return "\n".join(lines) + "\n"
