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

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

from .architectures import ArchitectureSpec, Decomposition, Variant, decompose_cz
from .ir import (ActionKind, GateKind, GateStep, Logical1Q, LogicalCircuit,
                 PhysicalEvent, QubitRef, sort_events, validate)

EXCLUSION_CELLS = 2.0       # min separation of concurrently firing 2q gates
DIST_TOL = 1e-9
ENTRY_MARGIN = 2.0          # cells of approach before the first interaction
EXIT_MARGIN = 1.5           # cells past the last interaction before disposal
BOX_MARGIN = 1e-6           # cells of slack on the bounding-box lower bound
MAX_BUMP_PASSES = 10000     # exclusion passes per logical gate before giving up


class InfeasibleError(RuntimeError):
    """Raised when no feasible firing times exist; names the constraint."""

    def __init__(self, constraint: str):
        super().__init__(constraint)
        self.constraint = constraint


class SegmentKind(Enum):
    BELT_RIDE = "belt"
    FREE_FLIGHT = "flight"
    ROUTING = "routing"
    TURNAROUND = "turnaround"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class TrajectorySegment:
    messenger: int
    kind: SegmentKind
    t_start: float
    t_end: float
    start_pos: tuple[float, float]
    end_pos: tuple[float, float]
    belt: int | None = None

    def position(self, t: float) -> tuple[float, float]:
        if self.t_end <= self.t_start:
            return self.start_pos
        f = min(max((t - self.t_start) / (self.t_end - self.t_start), 0.0), 1.0)
        return (self.start_pos[0] + f * (self.end_pos[0] - self.start_pos[0]),
                self.start_pos[1] + f * (self.end_pos[1] - self.start_pos[1]))


@dataclass
class ScheduledProgram:
    events: list[PhysicalEvent]
    trajectories: dict[int, list[TrajectorySegment]]
    makespan: float


# --- atom motion lookup -----------------------------------------------------

class _Track:
    """Piecewise-linear position of one atom (static or from segments).

    `offset` delays the whole motion: the track is at time t where its
    segments place the atom at t - offset.
    """

    def __init__(self, static_pos=None, segments=None, offset=0.0):
        self.static = static_pos
        self.segments = segments or []
        self.offset = offset

    @classmethod
    def for_qubit(cls, q: QubitRef, trajectories) -> "_Track":
        if q.is_messenger:
            return cls(segments=trajectories[q.serial])
        r, c = q.coord
        return cls(static_pos=(float(c), float(r)))

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
        pts = []
        for s in self.segments:
            if s.t_end >= t0:
                pts += (s.position(t0), s.position(t1))
                if s.t_end >= t1:
                    break
        else:
            pts.append(self.segments[-1].end_pos)
        xs, ys = zip(*pts)
        return (min(xs), min(ys), max(xs), max(ys))

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


def _pieces(ta: _Track, tb: _Track, t0: float, t1: float):
    cuts = sorted(set([t0, t1] + ta.breakpoints(t0, t1) + tb.breakpoints(t0, t1)))
    for lo, hi in zip(cuts, cuts[1:]):
        yield lo, hi


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def min_distance(ta: _Track, tb: _Track, t0: float, t1: float) -> float:
    """Minimum separation over [t0, t1]; exact on the piecewise-linear motion."""
    if t1 < t0:
        return math.inf
    best = math.inf
    for lo, hi in _pieces(ta, tb, t0, t1):
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
    if best is math.inf:  # zero-length interval
        best = _dist(ta.position(t0), tb.position(t0))
    return best


def box_gap(a, b) -> float:
    """Distance between two boxes (x0, y0, x1, y1): a lower bound on `min_distance`."""
    return math.hypot(max(a[0] - b[2], b[0] - a[2], 0.0),
                      max(a[1] - b[3], b[1] - a[3], 0.0))


def gate_boxes(tracks, t0: float, t1: float):
    """Union and per-atom bounding boxes of a gate's atoms over [t0, t1]."""
    boxes = [t.box(t0, t1) for t in tracks]
    x0, y0, x1, y1 = zip(*boxes)
    return (min(x0), min(y0), max(x1), max(y1)), boxes


def max_distance(ta: _Track, tb: _Track, t0: float, t1: float) -> float:
    """Maximum separation over [t0, t1] (convex per piece, so at breakpoints)."""
    times = sorted(set([t0, t1] + ta.breakpoints(t0, t1) + tb.breakpoints(t0, t1)))
    return max(_dist(ta.position(t), tb.position(t)) for t in times)


class _Committed:
    """Two-qubit gates placed so far, and the exclusion search over them.

    `gates` holds [t0, t1, tracks, boxes] in placement order; `starts` holds
    their start times, sorted, and `order` the placement index of each.  No
    gate lasts longer than `reach`, so one that overlaps [c0, c1] in time
    starts in [c0 - reach, c1).  `boxes` (`gate_boxes` over the gate's
    window) are filled in on its first overlap.
    """

    def __init__(self, eps: float):
        self.eps = eps            # slack over float rounding in t1 - t0
        self.gates: list[list] = []
        self.starts: list[float] = []
        self.order: list[int] = []
        self.reach = 0.0

    def add(self, t0: float, t1: float, tracks) -> None:
        i = bisect_right(self.starts, t0)
        self.starts.insert(i, t0)
        self.order.insert(i, len(self.gates))
        self.gates.append([t0, t1, tracks, None])
        self.reach = max(self.reach, t1 - t0 + self.eps)

    def first_conflict(self, c, delta: float, after: int):
        """Placement index of the first gate after `after` that candidate `c`
        ([t0, t1, tracks, boxes]), shifted by `delta`, comes too close to
        while both fire; None if there is none."""
        c0, c1 = c[0] + delta, c[1] + delta
        starts = self.starts
        near = self.order[bisect_left(starts, c0 - self.reach):bisect_left(starts, c1)]
        near.sort()
        shifted = None
        for k in near:
            if k <= after:
                continue
            other = self.gates[k]
            o0, o1, otracks, oboxes = other
            t0, t1 = max(c0, o0), min(c1, o1)
            if t0 >= t1:
                continue
            if oboxes is None:
                oboxes = other[3] = gate_boxes(otracks, o0, o1)
            if c[3] is None:
                # a shift moves the atoms with the window, so boxes over the
                # candidate's own window hold for every delta
                c[3] = gate_boxes(c[2], c[0], c[1])
            (ounion, oatoms), (cunion, catoms) = oboxes, c[3]
            # a box gap is a lower bound on the exact distance, so only gates,
            # then atom pairs, that may come too close are measured
            if box_gap(ounion, cunion) >= EXCLUSION_CELLS + BOX_MARGIN:
                continue
            if shifted is None:
                shifted = [t.shifted(delta) for t in c[2]]
            if any(box_gap(ob, cb) < EXCLUSION_CELLS + BOX_MARGIN
                   and min_distance(ot, ct, t0, t1) < EXCLUSION_CELLS - DIST_TOL
                   for ot, ob in zip(otracks, oatoms) for ct, cb in zip(shifted, catoms)):
                return k
        return None


# --- single-gate planning ---------------------------------------------------
#
# A planner gives the geometry (messenger itineraries, loads, throws,
# routes) and each gate's firing window.  The gate fixes the rest: its
# duration (`_gate_duration`) and where it fires (its computational
# partner's site, else its first messenger's position at the gate center).

LANE_OFFSET = 0.5           # cells between a belt lane or flight line and a qubit


@dataclass
class _Anchor:
    step: GateStep
    lo: float                 # earliest feasible firing *center*
    hi: float                 # latest feasible firing center (inf if flexible)
    center: float = math.nan


@dataclass
class _Draft:
    rides: dict = field(default_factory=dict)        # serial -> [TrajectorySegment]
    anchors: list = field(default_factory=list)
    aux_events: list = field(default_factory=list)   # PhysicalEvent (loads etc.)
    hold: dict = field(default_factory=dict)         # serial -> (arrival t, pos)


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

    def move_to(self, p1, kind: SegmentKind, belt=None) -> float:
        d = _dist(self.p, p1)
        t1 = self.t + d / self.vc
        self.segs.append(TrajectorySegment(self.serial, kind, self.t, t1, self.p, p1, belt))
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


def _pass_window(arch: ArchitectureSpec, step: GateStep, t_closest: float,
                 what: str) -> _Anchor:
    """A two-qubit gate fired on a messenger passing its static partner
    `LANE_OFFSET` cells away, closest at `t_closest`."""
    R_c = arch.R / arch.a
    ct = arch.a / arch.v
    chord2 = R_c * R_c - LANE_OFFSET * LANE_OFFSET
    if chord2 <= 0:
        raise InfeasibleError(f"{what}: lane offset {LANE_OFFSET} outside blockade radius {R_c}")
    hw = math.sqrt(chord2) * ct
    if 2 * hw < arch.t2:
        raise InfeasibleError(
            f"{what}: blockade window {2 * hw:.3e}s shorter than gate duration {arch.t2:.3e}s")
    return _within(arch, step, t_closest - hw, t_closest + hw)


def _cross_window(arch: ArchitectureSpec, step: GateStep, t_sync: float,
                  what: str) -> _Anchor:
    """A two-qubit gate between two messengers crossing orthogonally at `t_sync`."""
    R_c = arch.R / arch.a
    ct = arch.a / arch.v
    hw = R_c * ct / math.sqrt(2)  # relative speed sqrt(2) v at the crossing
    if 2 * hw < arch.t2:
        raise InfeasibleError(
            f"{what}: crossing window {2 * hw:.3e}s shorter than gate duration {arch.t2:.3e}s")
    return _within(arch, step, t_sync - hw, t_sync + hw)


def _within(arch: ArchitectureSpec, step: GateStep, t0: float, t1: float) -> _Anchor:
    """A gate fired anywhere in [t0, t1]."""
    half = _gate_duration(arch, step.gate) / 2
    return _Anchor(step, t0 + half, t1 - half)


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


def _plan_two_way(arch: ArchitectureSpec, d: Decomposition) -> _Draft:
    (ra, ca), (rb, cb) = d.a, d.b
    dh = 1.0 if cb >= ca else -1.0
    dv = 1.0 if rb >= ra else -1.0
    ct = arch.a / arch.v

    y1 = ra - LANE_OFFSET * dv    # lane of m1, flows +dh
    x2 = cb + LANE_OFFSET * dh    # lane of m2, flows +dv
    y3 = rb + 1.5 * dv            # return lane of m3, flows -dh
    x4 = ca - LANE_OFFSET * dh    # lane of m4, flows -dv
    s1, s2, s3, s4 = d.messengers

    draft = _Draft()
    m1 = _Itinerary(arch, s1, 0.0, (ca - ENTRY_MARGIN * dh, y1))
    t_cz1 = m1.time_passing((ca, y1))
    t_x1 = m1.time_passing((x2, y1))
    m1.move_to((x2 + EXIT_MARGIN * dh, y1), SegmentKind.BELT_RIDE, belt=0)

    m2 = _Itinerary(arch, s2, t_x1 - ENTRY_MARGIN * ct, (x2, y1 - ENTRY_MARGIN * dv))
    t_cz2 = m2.time_passing((x2, rb))
    t_x2 = m2.time_passing((x2, y3))
    m2.move_to((x2, y3 + EXIT_MARGIN * dv), SegmentKind.BELT_RIDE, belt=1)

    m3 = _Itinerary(arch, s3, t_x2 - ENTRY_MARGIN * ct, (x2 + ENTRY_MARGIN * dh, y3))
    t_x3 = m3.time_passing((x4, y3))
    m3.move_to((x4 - EXIT_MARGIN * dh, y3), SegmentKind.BELT_RIDE, belt=2)

    m4 = _Itinerary(arch, s4, t_x3 - ENTRY_MARGIN * ct, (x4, y3 + ENTRY_MARGIN * dv))
    t_cz3 = m4.time_passing((x4, ra))
    m4.move_to((x4, ra - EXIT_MARGIN * dv), SegmentKind.BELT_RIDE, belt=3)

    for it, belt in ((m1, 0), (m2, 1), (m3, 2), (m4, 3)):
        draft.rides[it.serial] = it.segs
        draft.aux_events.append(_load_event(it, belt))

    g = d.gates
    draft.anchors = [
        _pass_window(arch, g[0], t_cz1, "CZ(A,m1)"),
        _within(arch, g[1], m1.t_load, m1.t),
        _cross_window(arch, g[2], t_x1, "SWAP(m1,m2)"),
        _pass_window(arch, g[3], t_cz2, "CZ(m2,B)"),
        _cross_window(arch, g[4], t_x2, "SWAP(m2,m3)"),
        _cross_window(arch, g[5], t_x3, "SWAP(m3,m4)"),
        _within(arch, g[6], m4.t_load, m4.t),
        _pass_window(arch, g[7], t_cz3, "CZ(A,m4)"),
    ]
    return draft


def _plan_one_way(arch: ArchitectureSpec, d: Decomposition) -> _Draft:
    ct = arch.a / arch.v
    L = arch.L
    g = d.gates
    s1, s2 = d.messengers
    # m1 rides right beside the first target's row; m2 rides up beside the
    # second's column and crosses m1's lane
    if d.case == 1:
        (r1, c1), (r2, c2) = g[0].operands[0].coord, g[3].operands[1].coord  # S, D
    else:
        (r1, c1), (r2, c2) = g[0].operands[0].coord, g[2].operands[0].coord  # P, Q
    y_h = r1 - LANE_OFFSET
    x_v = c2 + LANE_OFFSET
    m1 = _Itinerary(arch, s1, 0.0, (c1 - ENTRY_MARGIN, y_h))
    t_cz1 = m1.time_passing((c1, y_h))
    t_x = m1.time_passing((x_v, y_h))
    t_arr1 = m1.move_to((L + 1.0, y_h), SegmentKind.BELT_RIDE, belt=0)

    # case 2: m2 passes Q first, then meets m1 at the lane crossing
    y0 = y_h - ENTRY_MARGIN if d.case == 1 else r2 - ENTRY_MARGIN
    m2 = _Itinerary(arch, s2, t_x - (y_h - y0) * ct, (x_v, y0))
    t_cz2 = m2.time_passing((x_v, float(r2)))
    t_arr2 = m2.move_to((x_v, L + 1.0), SegmentKind.BELT_RIDE, belt=1)

    draft = _Draft(rides={s1: m1.segs, s2: m2.segs},
                   aux_events=[_load_event(m1, 0), _load_event(m2, 1)],
                   hold={s2: (t_arr2, (x_v, L + 1.0))})
    if d.case == 1:
        draft.anchors = [
            _pass_window(arch, g[0], t_cz1, "CZ(S,m1)"),
            _within(arch, g[1], m1.t_load, m1.t),
            _cross_window(arch, g[2], t_x, "SWAP(m1,m2)"),
            _pass_window(arch, g[3], t_cz2, "CZ(m2,D)"),
            _within(arch, g[4], t_arr2, math.inf),
            _Anchor(g[5], 0.0, math.inf),
        ]
    else:
        draft.hold[s1] = (t_arr1, (L + 1.0, y_h))
        draft.anchors = [
            _pass_window(arch, g[0], t_cz1, "CZ(P,m1)"),
            _within(arch, g[1], m1.t_load, m1.t),
            _pass_window(arch, g[2], t_cz2, "CZ(Q,m2)"),
            _within(arch, g[3], m2.t_load, m2.t),
            _cross_window(arch, g[4], t_x, "CZ(m1,m2)"),
            _within(arch, g[5], t_arr1, math.inf),
            _within(arch, g[6], t_arr2, math.inf),
            _Anchor(g[7], 0.0, math.inf),
            _Anchor(g[8], 0.0, math.inf),
        ]
    return draft


def _throw_out(arch: ArchitectureSpec, d: Decomposition):
    """Throw the messenger past A, then B, on a line `LANE_OFFSET` cells off theirs.

    The flight runs `ENTRY_MARGIN` cells before A to as far past B.  The
    draft holds it, its LOAD and THROW, and the anchors of CZ(A,m), H and
    CZ(m,B).  Returns the itinerary, the draft, the point of the line
    abreast of A and the throw velocity.
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
    g = d.gates
    draft = _Draft(rides={m.serial: m.segs}, aux_events=[
        _load_event(m),
        PhysicalEvent(0.0, start, ActionKind.THROW, (QubitRef.mess(m.serial),), velocity=vel),
    ], anchors=[
        _pass_window(arch, g[0], t_cz1, "CZ(A,m)"),
        _within(arch, g[1], m.t_load, m.t),
        _pass_window(arch, g[2], t_cz2, "CZ(m,B)"),
    ])
    return m, draft, a_off, vel


def _plan_throw_catch_throw(arch: ArchitectureSpec, d: Decomposition) -> _Draft:
    m, draft, a_off, vel = _throw_out(arch, d)
    mref = QubitRef.mess(m.serial)
    catch, t_catch = m.p, m.t
    t_relaunch = m.dwell(arch.t_turnaround, SegmentKind.TURNAROUND)
    t_cz3 = m.time_passing(a_off)
    m.move_to(m.segs[0].start_pos, SegmentKind.FREE_FLIGHT)   # back to the launch point

    draft.aux_events += [
        PhysicalEvent(t_catch, catch, ActionKind.CATCH, (mref,)),
        PhysicalEvent(t_relaunch, catch, ActionKind.THROW, (mref,),
                      velocity=(-vel[0], -vel[1])),
    ]
    g = d.gates
    draft.anchors += [
        _within(arch, g[3], t_relaunch, m.t),
        _pass_window(arch, g[4], t_cz3, "CZ(A,m) return"),
    ]
    return draft


def _plan_throw_and_measure(arch: ArchitectureSpec, d: Decomposition) -> _Draft:
    m, draft, _, _ = _throw_out(arch, d)
    draft.hold[m.serial] = (m.t, m.p)
    g = d.gates
    draft.anchors += [
        _within(arch, g[3], m.t, math.inf),
        _Anchor(g[4], 0.0, math.inf),
    ]
    return draft


def _plan_shuttle_and_route(arch: ArchitectureSpec, d: Decomposition) -> _Draft:
    (ra, ca), (rb, cb) = d.a, d.b
    dh = 1.0 if cb >= ca else -1.0
    dv = 1.0 if rb >= ra else -1.0
    s = d.messengers[0]
    mref = QubitRef.mess(s)

    x_in = ca - LANE_OFFSET * dh
    y_a = ra - LANE_OFFSET * dv
    x_b = cb + LANE_OFFSET * dh
    y_ret = rb + 1.5 * dv
    y_out = ra - 1.5 * dv
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
        t = m.move_to(junction, SegmentKind.BELT_RIDE, belt=belt)
        routes.append(PhysicalEvent(t, junction, ActionKind.ROUTE, (mref,),
                                    duration=arch.t_route, belt=belt, to_belt=belt + 1))
        m.dwell(arch.t_route, SegmentKind.ROUTING)
    m.move_to((x_in - ENTRY_MARGIN * dh, y_out), SegmentKind.BELT_RIDE, belt=len(legs))

    draft = _Draft(rides={s: m.segs}, aux_events=[_load_event(m, 0)] + routes)
    g = d.gates
    draft.anchors = [
        _pass_window(arch, g[0], t_cz[0], "CZ(A,m)"),
        _within(arch, g[1], m.t_load, m.t),
        _pass_window(arch, g[2], t_cz[1], "CZ(m,B)"),
        _within(arch, g[3], m.t_load, m.t),
        _pass_window(arch, g[4], t_cz[2], "CZ(A,m) return"),
    ]
    return draft


_PLANNERS = {
    Variant.TWO_WAY_BELT: _plan_two_way,
    Variant.ONE_WAY_BELT: _plan_one_way,
    Variant.THROW_CATCH_THROW: _plan_throw_catch_throw,
    Variant.SHUTTLE_AND_ROUTE: _plan_shuttle_and_route,
    Variant.THROW_AND_MEASURE: _plan_throw_and_measure,
}


def _place_anchors(arch: ArchitectureSpec, draft: _Draft) -> None:
    """Assign firing centers: dependency order plus pairwise exclusion."""
    eps = 1e-6 * arch.t2
    last_end: dict = {}    # QubitRef -> end time of its last gate
    bit_end: dict = {}
    placed = _Committed(eps)
    tracks: dict = {}

    def track(q):
        if q not in tracks:
            tracks[q] = _Track.for_qubit(q, draft.rides)
        return tracks[q]

    for an in draft.anchors:
        step = an.step
        dur = _gate_duration(arch, step.gate)
        center = an.lo
        for q in step.operands:
            if q in last_end:
                center = max(center, last_end[q] + dur / 2 + eps)
        if step.gate.reads_bit and step.bit in bit_end:
            center = max(center, bit_end[step.bit] + dur / 2 + eps)
        if step.gate.is_two_qubit:
            an_tracks = [track(q) for q in step.operands]
            moved = True
            while moved:
                # the atoms keep their rides while the firing time moves, so
                # each new center is a new, unshifted candidate
                moved, k = False, -1
                while (k := placed.first_conflict(
                        [center - dur / 2, center + dur / 2, an_tracks, None],
                        0.0, k)) is not None:
                    center = placed.gates[k][1] + dur / 2 + eps
                    moved = True
        if center > an.hi + 1e-15:
            raise InfeasibleError(
                f"{step.gate.value} on {step.operands}: required firing time "
                f"{center:.3e}s exceeds feasible window end {an.hi:.3e}s")
        an.center = center
        for q in step.operands:
            last_end[q] = center + dur / 2
        if step.gate.writes_bit:
            bit_end[step.bit] = center + dur / 2
        if step.gate.is_two_qubit:
            placed.add(center - dur / 2, center + dur / 2, an_tracks)


def plan_trajectories(arch: ArchitectureSpec, d: Decomposition) -> ScheduledProgram:
    """Plan the space-time realization of one decomposed logical gate."""
    if d.variant is None:
        raise ValueError("the neighbor-chain baseline has no transport plan")
    if d.variant is not arch.variant:
        raise ValueError(f"decomposition for {d.variant} given to {arch.variant} planner")
    draft = _PLANNERS[arch.variant](arch, d)
    _place_anchors(arch, draft)

    events = list(draft.aux_events)
    tracks = {s: _Track(segments=segs) for s, segs in draft.rides.items()}
    mess_last_gate_end: dict[int, float] = {}
    for an in draft.anchors:
        step = an.step
        dur = _gate_duration(arch, step.gate)
        comp = next((q for q in step.operands if not q.is_messenger), None)
        pos = (_xy(comp.coord) if comp is not None
               else tracks[step.operands[0].serial].position(an.center))
        events.append(PhysicalEvent(an.center - dur / 2, pos, ActionKind.GATE, step.operands,
                                    gate=step.gate, bit=step.bit, duration=dur))
        for q in step.operands:
            if q.is_messenger:
                mess_last_gate_end[q.serial] = max(
                    mess_last_gate_end.get(q.serial, 0.0), an.center + dur / 2)

    trajectories: dict[int, list[TrajectorySegment]] = {}
    for s, segs in draft.rides.items():
        segs = list(segs)
        if s in draft.hold:
            arr, pos = draft.hold[s]
            t_disp = max(mess_last_gate_end.get(s, arr), arr)
            if t_disp > arr:
                segs.append(TrajectorySegment(s, SegmentKind.STATIONARY, arr, t_disp, pos, pos))
            events.append(PhysicalEvent(t_disp, pos, ActionKind.DISPOSE, (QubitRef.mess(s),)))
        else:
            end = segs[-1]
            events.append(PhysicalEvent(end.t_end, end.end_pos, ActionKind.DISPOSE,
                                        (QubitRef.mess(s),)))
        trajectories[s] = segs

    t_min = min(e.t for e in events)
    if t_min:
        events, trajectories = _shifted(events, trajectories, -t_min)
    events = sort_events(events)
    return ScheduledProgram(events, trajectories, max(e.t_end for e in events))


def _shifted(events, trajectories, delta: float):
    """New events and trajectory segments, each `delta` seconds later."""
    events = [PhysicalEvent(e.t + delta, e.pos, e.action, e.operands, e.gate, e.bit,
                            e.duration, e.belt, e.to_belt, e.velocity) for e in events]
    trajectories = {
        s: [TrajectorySegment(seg.messenger, seg.kind, seg.t_start + delta,
                              seg.t_end + delta, seg.start_pos, seg.end_pos, seg.belt)
            for seg in segs]
        for s, segs in trajectories.items()}
    return events, trajectories


def shift_program(prog: ScheduledProgram, delta: float) -> ScheduledProgram:
    if delta == 0.0:
        return prog
    events, trajectories = _shifted(prog.events, prog.trajectories, delta)
    return ScheduledProgram(events, trajectories, prog.makespan + delta)


# --- multi-gate scheduling --------------------------------------------------

def schedule(circuit: LogicalCircuit, arch: ArchitectureSpec) -> ScheduledProgram:
    """Greedy list scheduler over the circuit's logical ops.

    Gates run concurrently when their planned events violate no pairwise
    exclusion or qubit-dependency constraint; otherwise later gates are
    delayed by the minimal feasible offset.  Deterministic in circuit order.
    """
    issues = validate(circuit)
    if issues:
        raise ValueError(f"invalid circuit: {issues[0].message}")
    eps = 1e-6 * arch.t2
    # (sort key, event) in commit order; one stable sort at the end gives
    # the order of `sort_events`
    keyed: list[tuple[tuple, PhysicalEvent]] = []
    trajectories: dict[int, list[TrajectorySegment]] = {}
    ready: dict[tuple[int, int], float] = {}
    committed = _Committed(eps)
    serial = bit = 0

    for op in circuit.ops:
        if isinstance(op, Logical1Q):
            t = ready.get(op.q, 0.0)
            q = QubitRef.comp(*op.q)
            e = PhysicalEvent(t, _xy(op.q), ActionKind.GATE, (q,), gate=op.gate,
                              duration=arch.t1)
            keyed.append(((t,) + e.order_tail, e))
            ready[op.q] = t + arch.t1 + eps
            continue
        d = decompose_cz(arch, op.a, op.b, serial_start=serial, bit_start=bit)
        serial += len(d.messengers)
        bit += d.counts.nr
        plan = plan_trajectories(arch, d)
        delta = max(ready.get(op.a, 0.0), ready.get(op.b, 0.0))
        cand = [[e.t, e.t_end, [_Track.for_qubit(q, plan.trajectories) for q in e.operands],
                 None]
                for e in plan.events
                if e.action is ActionKind.GATE and e.gate.is_two_qubit]
        for _ in range(MAX_BUMP_PASSES):
            bumped = False
            for c in cand:
                # a bump raises delta; later committed gates are tested at the new value
                k = -1
                while (k := committed.first_conflict(c, delta, k)) is not None:
                    conflict = committed.gates[k]
                    delta = conflict[1] - c[0] + eps
                    bumped = True
            if not bumped:
                break
        else:
            raise InfeasibleError(
                f"scheduler failed to resolve exclusion conflicts for cz {op.a} {op.b} "
                f"on {arch.variant.value} after {MAX_BUMP_PASSES} passes; last conflict "
                f"with a committed gate over [{conflict[0]:.6e}, {conflict[1]:.6e}] s")
        # one copy of the plan at its final time; each event's order tail is
        # the one plan_trajectories built when it sorted the plan
        placed, trajs = ((plan.events, plan.trajectories) if delta == 0.0
                         else _shifted(plan.events, plan.trajectories, delta))
        trajectories.update(trajs)
        ends: dict[tuple[int, int], float] = {}
        for p, e in zip(plan.events, placed):
            keyed.append(((e.t,) + p.order_tail, e))
            for q in e.operands:
                if q.coord == op.a or q.coord == op.b:
                    ends[q.coord] = max(ends.get(q.coord, e.t_end), e.t_end)
            if e.action is ActionKind.GATE and e.gate.is_two_qubit:
                committed.add(e.t, e.t_end, [_Track.for_qubit(q, trajs) for q in e.operands])
        for coord, end in ends.items():
            ready[coord] = end + eps

    keyed.sort(key=itemgetter(0))
    events = [e for _, e in keyed]
    makespan = max((e.t_end for e in events), default=0.0)
    return ScheduledProgram(events, trajectories, makespan)


# --- conflict checking ------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str     # "blockade" | "exclusion" | "lifecycle"
    events: tuple[int, ...]
    distance: float | None
    times: tuple[float, ...]
    message: str


def check_conflicts(program: ScheduledProgram, arch: ArchitectureSpec) -> list[Violation]:
    """Independent re-validation of all ScheduledProgram invariants."""
    violations: list[Violation] = []
    R_c = arch.R / arch.a
    tracks: dict = {}

    def track(q):
        if q not in tracks:
            tracks[q] = _Track.for_qubit(q, program.trajectories)
        return tracks[q]

    gates_2q = []
    for i, e in enumerate(program.events):
        if e.action is ActionKind.GATE and e.gate is not None and e.gate.is_two_qubit:
            gates_2q.append((i, e))
            if any(q.is_messenger for q in e.operands):
                dmax = max_distance(track(e.operands[0]), track(e.operands[1]),
                                    e.t, e.t_end)
                if dmax > R_c + DIST_TOL:
                    violations.append(Violation(
                        "blockade", (i,), dmax, (e.t, e.t_end),
                        f"event {i}: partner at distance {dmax:.4f} cells > R={R_c:.4f} "
                        f"during {e.gate.value}"))

    gates_2q.sort(key=lambda ie: ie[1].t)
    active: list[tuple] = []
    for i, e in gates_2q:
        active = [a for a in active if a[1].t_end > e.t]
        etracks = [track(q) for q in e.operands]
        # boxes over the event's own window, which holds every [lo, hi] below
        eunion, eboxes = gate_boxes(etracks, e.t, e.t_end)
        for j, o, otracks, ounion, oboxes in active:
            lo, hi = max(e.t, o.t), min(e.t_end, o.t_end)
            if lo >= hi - 1e-18 or box_gap(eunion, ounion) >= EXCLUSION_CELLS + BOX_MARGIN:
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

    seen_load: dict[int, int] = {}
    seen_dispose: dict[int, int] = {}
    for i, e in enumerate(program.events):
        for q in e.operands:
            if not q.is_messenger:
                continue
            s = q.serial
            if s in seen_dispose:
                violations.append(Violation(
                    "lifecycle", (seen_dispose[s], i), None, (e.t,),
                    f"messenger {s} used at event {i} after disposal"))
            if e.action is ActionKind.LOAD:
                if s in seen_load:
                    violations.append(Violation(
                        "lifecycle", (seen_load[s], i), None, (e.t,),
                        f"messenger {s} loaded twice"))
                seen_load[s] = i
            elif e.action is ActionKind.DISPOSE:
                seen_dispose[s] = i
    for s, i in seen_load.items():
        if s not in seen_dispose:
            violations.append(Violation(
                "lifecycle", (i,), None, (), f"messenger {s} loaded but never disposed"))
    for s, i in seen_dispose.items():
        if s not in seen_load:
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
