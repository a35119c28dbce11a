"""Logical and physical instruction sets.

A logical program is a list of long-range CZ and single-qubit ops over
grid qubits.  A physical program is a list of timestamped events (gates,
belt loads, routings, throws/catches, measurements, disposal) produced by
the planner.  Positions are stored in units of the lattice spacing;
times in seconds.
"""
from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from enum import Enum


class ParseError(ValueError):
    """Raised on malformed program text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class QubitKind(Enum):
    COMPUTATIONAL = "comp"
    MESSENGER = "mess"


@dataclass(frozen=True)
class QubitRef:
    """A computational qubit (grid coordinate) or a messenger qubit (serial).

    Its hash, `is_messenger` and sort key are computed once, at construction.
    """

    kind: QubitKind
    coord: tuple[int, int] | None = None  # (row, col) when computational
    serial: int | None = None             # unique id when messenger

    def __post_init__(self):
        is_messenger = self.kind is QubitKind.MESSENGER
        object.__setattr__(self, "is_messenger", is_messenger)
        object.__setattr__(self, "_hash", hash((is_messenger, self.coord, self.serial)))
        object.__setattr__(self, "_sort_key", (0, self.serial, 0) if is_messenger
                           else (1, self.coord[0], self.coord[1]))

    def __hash__(self):
        return self._hash

    # `comp` and `mess` hand out shared instances: a ref is immutable, and a
    # dict lookup with the very key it holds skips `__eq__`.  `typed`, so
    # that 1 and 1.0 (equal, but written differently) get their own refs.
    @classmethod
    @functools.lru_cache(maxsize=1 << 12, typed=True)
    def comp(cls, row: int, col: int) -> "QubitRef":
        return cls(QubitKind.COMPUTATIONAL, coord=(row, col))

    @classmethod
    @functools.lru_cache(maxsize=1 << 12, typed=True)
    def mess(cls, serial: int) -> "QubitRef":
        return cls(QubitKind.MESSENGER, serial=serial)

    def sort_key(self) -> tuple:
        return self._sort_key

    @classmethod
    def from_json(cls, obj) -> "QubitRef":
        if obj["kind"] == "mess":
            return cls.mess(obj["serial"])
        return cls.comp(obj["row"], obj["col"])

    def __repr__(self):
        if self.is_messenger:
            return f"m{self.serial}"
        return f"q{self.coord}"


class GateKind(Enum):
    CZ = "cz"
    SWAP = "swap"
    H = "h"
    Z = "z"
    X = "x"
    MEASURE_X = "mx"
    COND_Z = "cond_z"
    COND_X = "cond_x"

    def __init__(self, value: str):
        # set once per member; a property would re-test membership on every read
        self.n_operands = 2 if value in ("cz", "swap") else 1
        self.is_two_qubit = self.n_operands == 2
        self.writes_bit = value == "mx"
        self.reads_bit = value in ("cond_z", "cond_x")


@dataclass(frozen=True)
class GateStep:
    """One gate in a decomposition, before space-time placement."""

    gate: GateKind
    operands: tuple[QubitRef, ...]
    bit: int | None = None

    def __post_init__(self):
        if len(self.operands) != self.gate.n_operands:
            raise ValueError(f"{self.gate.value} takes {self.gate.n_operands} operands")
        if self.gate.is_two_qubit and self.operands[0] == self.operands[1]:
            raise ValueError(f"{self.gate.value} operands must be distinct")
        if (self.gate.writes_bit or self.gate.reads_bit) and self.bit is None:
            raise ValueError(f"{self.gate.value} requires a classical bit")
        if self.bit is not None and not (self.gate.writes_bit or self.gate.reads_bit):
            raise ValueError(f"{self.gate.value} carries no classical bit")


# --- logical circuits -------------------------------------------------------

@dataclass(frozen=True)
class LogicalCZ:
    a: tuple[int, int]
    b: tuple[int, int]


@dataclass(frozen=True)
class Logical1Q:
    gate: GateKind  # H, Z or X
    q: tuple[int, int]


@dataclass(frozen=True)
class LogicalCircuit:
    lattice_size: int
    ops: tuple = ()


@dataclass(frozen=True)
class ValidationIssue:
    index: int | None
    message: str


def in_lattice(c: tuple[int, int], L: int) -> bool:
    """True when the (row, col) coordinate `c` lies on the L x L lattice."""
    return 0 <= c[0] < L and 0 <= c[1] < L


def validate(circuit: LogicalCircuit) -> list[ValidationIssue]:
    """Check LogicalCircuit invariants; empty list means well formed."""
    issues = []
    L = circuit.lattice_size
    if L < 1:
        issues.append(ValidationIssue(None, f"lattice size {L} must be >= 1"))

    for i, op in enumerate(circuit.ops):
        if isinstance(op, LogicalCZ):
            for c in (op.a, op.b):
                if not in_lattice(c, L):
                    issues.append(ValidationIssue(i, f"coordinate {c} out of range for L={L}"))
            if op.a == op.b:
                issues.append(ValidationIssue(i, f"cz operands identical: {op.a}"))
        elif isinstance(op, Logical1Q):
            if op.gate not in (GateKind.H, GateKind.Z, GateKind.X):
                issues.append(ValidationIssue(i, f"unsupported single-qubit gate {op.gate}"))
            if not in_lattice(op.q, L):
                issues.append(ValidationIssue(i, f"coordinate {op.q} out of range for L={L}"))
        else:
            issues.append(ValidationIssue(i, f"unknown op {op!r}"))
    return issues


_COORD_RE = r"\((\s*-?\d+)\s*,\s*(-?\d+)\s*\)"
_CZ_RE = re.compile(rf"^cz\s+{_COORD_RE}\s+{_COORD_RE}$")
_1Q_RE = re.compile(rf"^([hzx])\s+{_COORD_RE}$")
_LATTICE_RE = re.compile(r"^lattice\s+(\d+)$")


def parse_program(text: str) -> LogicalCircuit:
    """Parse program source.

    Format: `lattice <L>` header, then one statement per line:
    `cz (r1,c1) (r2,c2)` or `h|z|x (r,c)`.  `#` starts a comment.
    """
    L = None
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if L is None:
            m = _LATTICE_RE.match(line)
            if not m:
                raise ParseError(lineno, "expected 'lattice <L>' header")
            L = int(m.group(1))
            if L < 1:
                raise ParseError(lineno, f"lattice size {L} must be >= 1")
            continue
        m = _CZ_RE.match(line)
        if m:
            a = (int(m.group(1)), int(m.group(2)))
            b = (int(m.group(3)), int(m.group(4)))
            for c in (a, b):
                if not in_lattice(c, L):
                    raise ParseError(lineno, f"coordinate {c} out of range for L={L}")
            if a == b:
                raise ParseError(lineno, f"cz operands identical: {a}")
            ops.append(LogicalCZ(a, b))
            continue
        m = _1Q_RE.match(line)
        if m:
            gate = GateKind(m.group(1))
            q = (int(m.group(2)), int(m.group(3)))
            if not in_lattice(q, L):
                raise ParseError(lineno, f"coordinate {q} out of range for L={L}")
            ops.append(Logical1Q(gate, q))
            continue
        raise ParseError(lineno, f"cannot parse statement: {line!r}")
    if L is None:
        raise ParseError(1, "missing 'lattice <L>' header")
    return LogicalCircuit(lattice_size=L, ops=tuple(ops))


def render_program(circuit: LogicalCircuit) -> str:
    """Inverse of parse_program."""
    lines = [f"lattice {circuit.lattice_size}"]
    for op in circuit.ops:
        if isinstance(op, LogicalCZ):
            lines.append(f"cz ({op.a[0]},{op.a[1]}) ({op.b[0]},{op.b[1]})")
        else:
            lines.append(f"{op.gate.value} ({op.q[0]},{op.q[1]})")
    return "\n".join(lines) + "\n"


# --- physical events --------------------------------------------------------

class ActionKind(Enum):
    LOAD = "load"
    ROUTE = "route"
    THROW = "throw"
    CATCH = "catch"
    GATE = "gate"
    DISPOSE = "dispose"


# events at one time are ordered by action, in definition order
for _rank, _kind in enumerate(ActionKind):
    _kind.rank = _rank
del _rank, _kind


@dataclass(frozen=True)
class PhysicalEvent:
    t: float
    pos: tuple[float, float]
    action: ActionKind
    operands: tuple[QubitRef, ...] = ()
    gate: GateKind | None = None
    bit: int | None = None
    duration: float = 0.0
    belt: int | None = None
    to_belt: int | None = None
    velocity: tuple[float, float] | None = None

    @property
    def t_end(self) -> float:
        return self.t + self.duration

    def messenger_serial(self) -> int:
        serials = [q.serial for q in self.operands if q.is_messenger]
        return min(serials) if serials else -1

    @property
    def order_tail(self) -> tuple:
        """`sort_key` without the time, which a shift in time leaves unchanged.
        Built on first use and kept on the event."""
        tail = self.__dict__.get("_order_tail")
        if tail is None:
            tail = self.__dict__["_order_tail"] = (
                self.action.rank, self.messenger_serial(),
                tuple(q._sort_key for q in self.operands))
        return tail

    def sort_key(self) -> tuple:
        return (self.t,) + self.order_tail

    @classmethod
    def from_json(cls, obj: dict) -> "PhysicalEvent":
        action = obj["action"]
        gate = None
        if ":" in action:
            action, gname = action.split(":", 1)
            gate = GateKind(gname)
        vel = (obj["vx"], obj["vy"]) if "vx" in obj else None
        return cls(
            t=obj["t"],
            pos=(obj["x"], obj["y"]),
            action=ActionKind(action),
            operands=tuple(QubitRef.from_json(q) for q in obj["operands"]),
            gate=gate,
            bit=obj.get("bit"),
            duration=obj.get("dur", 0.0),
            belt=obj.get("belt"),
            to_belt=obj.get("to_belt"),
            velocity=vel,
        )


def sort_events(events: list[PhysicalEvent]) -> list[PhysicalEvent]:
    """Canonical deterministic total order (idempotent)."""
    return sorted(events, key=PhysicalEvent.sort_key)


def _operand_json(q: QubitRef) -> str:
    if q.is_messenger:
        return f'{{"kind": "mess", "serial": {q.serial!r}}}'
    return f'{{"col": {q.coord[1]!r}, "kind": "comp", "row": {q.coord[0]!r}}}'


def events_to_jsonl(events: list[PhysicalEvent]) -> str:
    """One JSON object per event and line, in the bytes `json.dumps(obj,
    sort_keys=True)` would give: keys sorted, `bit` always, `dur` when
    non-zero, `belt`, `to_belt` and `vx`/`vy` when set.  Numbers are written
    with `repr`, as `json` writes ints and finite floats.
    """
    lines = []
    for e in events:
        # `_value_`, not the `value` property, which is Python-level on 3.11
        action = e.action._value_ if e.gate is None else f"{e.action._value_}:{e.gate._value_}"
        belt = "" if e.belt is None else f'"belt": {e.belt!r}, '
        bit = "null" if e.bit is None else repr(e.bit)
        dur = f'"dur": {e.duration!r}, ' if e.duration else ""
        operands = ", ".join(_operand_json(q) for q in e.operands)
        to_belt = "" if e.to_belt is None else f'"to_belt": {e.to_belt!r}, '
        vel = "" if e.velocity is None else \
            f'"vx": {e.velocity[0]!r}, "vy": {e.velocity[1]!r}, '
        lines.append(f'{{"action": "{action}", {belt}"bit": {bit}, {dur}'
                     f'"operands": [{operands}], "t": {e.t!r}, {to_belt}{vel}'
                     f'"x": {e.pos[0]!r}, "y": {e.pos[1]!r}}}\n')
    return "".join(lines)


def events_from_jsonl(text: str) -> list[PhysicalEvent]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(PhysicalEvent.from_json(json.loads(line)))
    return out


@dataclass(frozen=True)
class BitUsage:
    """Writer/reader indices per classical bit, plus ordering violations."""

    usage: dict  # bit -> (writer_index, tuple of reader indices)
    violations: tuple[str, ...] = ()


def classical_bits(events: list[PhysicalEvent]) -> BitUsage:
    """Map each classical bit to its writer and readers, checking order.

    Works on gate events in list order (programs are kept time-sorted);
    a read before the write is reported as a violation.
    """
    writers: dict[int, int] = {}
    readers: dict[int, list[int]] = {}
    violations = []
    for i, ev in enumerate(events):
        if ev.action is not ActionKind.GATE or ev.gate is None:
            continue
        if ev.gate.writes_bit:
            if ev.bit in writers:
                violations.append(f"bit {ev.bit} written twice (events {writers[ev.bit]}, {i})")
            writers[ev.bit] = i
        elif ev.gate.reads_bit:
            if ev.bit not in writers:
                violations.append(f"bit {ev.bit} read at event {i} before any write")
            else:
                w = events[writers[ev.bit]]
                if ev.t < w.t_end:
                    violations.append(
                        f"bit {ev.bit} read at event {i} (t={ev.t}) before writer finishes (t={w.t_end})"
                    )
            readers.setdefault(ev.bit, []).append(i)
    usage = {b: (w, tuple(readers.get(b, ()))) for b, w in writers.items()}
    for b in readers:
        if b not in writers:
            usage[b] = (-1, tuple(readers[b]))
    return BitUsage(usage=usage, violations=tuple(violations))


def gate_steps(events: list[PhysicalEvent]) -> list[GateStep]:
    """Extract the gate-level sequence (time order) from a physical program."""
    evs = [e for e in events if e.action is ActionKind.GATE]
    evs.sort(key=PhysicalEvent.sort_key)
    return [GateStep(e.gate, e.operands, e.bit) for e in evs]
