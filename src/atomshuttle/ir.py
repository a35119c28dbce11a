"""Logical and physical instruction sets.

A logical program is a list of long-range CZ and single-qubit ops over
grid qubits.  A physical program is a list of timestamped events (gates,
belt loads, routings, throws/catches, measurements, disposal) produced by
the planner.  Positions are stored in units of the lattice spacing;
times in seconds.
"""
from __future__ import annotations

import functools
import re
from enum import Enum
from itertools import compress
from operator import attrgetter, eq, itemgetter
from typing import NamedTuple


class ParseError(ValueError):
    """Raised on malformed program text; the message starts with the 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")


class QubitKind(Enum):
    COMPUTATIONAL = "comp"
    MESSENGER = "mess"


_set = object.__setattr__   # how `QubitRef.__init__` fills a slot


class QubitRef:
    """A computational qubit (grid coordinate) or a messenger qubit (serial).

    Its hash, `is_messenger`, sort key and JSON text are computed once, at
    construction.
    """

    __slots__ = ("kind", "coord", "serial", "is_messenger", "_hash", "_sort_key", "_json")

    def __init__(self, kind: QubitKind, coord: tuple[int, int] | None = None,
                 serial: int | None = None):
        is_messenger = kind is QubitKind.MESSENGER
        _set(self, "kind", kind)
        _set(self, "coord", coord)       # (row, col) when computational
        _set(self, "serial", serial)     # unique id when messenger
        _set(self, "is_messenger", is_messenger)
        _set(self, "_hash", hash((is_messenger, coord, serial)))
        _set(self, "_sort_key", (0, serial, 0) if is_messenger else (1, coord[0], coord[1]))
        # its operand object in `events_to_jsonl`, as `json.dumps(obj, sort_keys=True)` writes it
        _set(self, "_json", f'{{"kind": "mess", "serial": {serial!r}}}' if is_messenger
             else f'{{"col": {coord[1]!r}, "kind": "comp", "row": {coord[0]!r}}}')

    def __setattr__(self, name: str, *value):
        raise AttributeError(f"QubitRef is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        # shared refs meet themselves; unequal hashes settle most of the rest
        if self is other:
            return True
        if other.__class__ is not QubitRef:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (self.kind, self.coord, self.serial) == (other.kind, other.coord, other.serial)

    def __reduce__(self):
        return QubitRef, (self.kind, self.coord, self.serial)

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

    def __init__(self, value: str):
        # set once per member; a property would re-test membership on every read
        self.n_operands = 2 if value in ("cz", "swap") else 1
        self.is_two_qubit = self.n_operands == 2
        self.writes_bit = value == "mx"
        self.reads_bit = value == "cond_z"


class _StepFields(NamedTuple):
    gate: GateKind
    operands: tuple[QubitRef, ...]
    bit: int | None = None


def checked_make(cls, iterable):
    """`_make` of a named tuple whose `__new__` checks its fields: it goes
    through `__new__`, so `_replace` and `copy.replace` check too."""
    return cls(*iterable)


class GateStep(_StepFields):
    """One gate in a decomposition, before space-time placement, checked by
    every constructor."""

    __slots__ = ()

    # the fields by name, not `*args`: a compiled CZ builds about eight steps
    def __new__(cls, gate: GateKind, operands: tuple[QubitRef, ...], bit: int | None = None):
        if len(operands) != gate.n_operands:
            raise ValueError(f"{gate.value} takes {gate.n_operands} operands")
        if gate.is_two_qubit and operands[0] == operands[1]:
            raise ValueError(f"{gate.value} operands must be distinct")
        if (gate.writes_bit or gate.reads_bit) and bit is None:
            raise ValueError(f"{gate.value} requires a classical bit")
        if bit is not None and not (gate.writes_bit or gate.reads_bit):
            raise ValueError(f"{gate.value} carries no classical bit")
        return tuple.__new__(cls, (gate, operands, bit))

    _make = classmethod(checked_make)


# --- logical circuits -------------------------------------------------------

class LogicalCZ(NamedTuple):
    a: tuple[int, int]
    b: tuple[int, int]


class Logical1Q(NamedTuple):
    gate: GateKind  # H, Z or X
    q: tuple[int, int]


class LogicalCircuit(NamedTuple):
    lattice_size: int
    ops: tuple = ()


def in_lattice(c: tuple[int, int], L: int) -> bool:
    """True when the (row, col) coordinate `c` lies on the L x L lattice."""
    return 0 <= c[0] < L and 0 <= c[1] < L


def check_op(op, L: int) -> None:
    """Raise `ValueError` unless `op` is a CZ between two distinct sites, or
    an H, Z or X on one site, of the L x L lattice."""
    if isinstance(op, LogicalCZ):
        sites = (op.a, op.b)
    elif isinstance(op, Logical1Q):
        if op.gate not in (GateKind.H, GateKind.Z, GateKind.X):
            raise ValueError(f"unsupported single-qubit gate {op.gate}")
        sites = (op.q,)
    else:
        raise ValueError(f"unknown op {op!r}")
    for c in sites:
        if not in_lattice(c, L):
            raise ValueError(f"coordinate {c} out of range for L={L}")
    if len(sites) == 2 and sites[0] == sites[1]:
        raise ValueError(f"cz operands identical: {op.a}")


def check_circuit(circuit: LogicalCircuit, L: int) -> None:
    """Raise `ValueError` unless `circuit` is written for the L x L lattice
    and `check_op` accepts each of its ops."""
    if circuit.lattice_size != L:
        raise ValueError(f"program lattice {circuit.lattice_size} != arch L={L}")
    for op in circuit.ops:
        check_op(op, L)


INT_RE = r"-?[0-9]+"   # not `\d`, which matches every Unicode digit
_COORD_RE = rf"\((\s*{INT_RE})\s*,\s*({INT_RE})\s*\)"
_CZ_RE = re.compile(rf"^cz\s+{_COORD_RE}\s+{_COORD_RE}$", re.ASCII)
_1Q_RE = re.compile(rf"^([hzx])\s+{_COORD_RE}$", re.ASCII)
_LATTICE_RE = re.compile(r"^lattice\s+([0-9]+)$", re.ASCII)

# Whitespace and line breaks are ASCII, as numbers are: `\s`, `str.strip()`
# and `str.splitlines()` also take other Unicode spaces and line separators,
# which would give one input a second spelling.
ASCII_SPACE = " \t\n\r\v\f"
_LINE_BREAK_RE = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e]")   # the ASCII ones of splitlines


def content_lines(text: str):
    """(1-based line number, line) for each line of `text` that has content
    once its `#` comment and surrounding whitespace are removed."""
    for lineno, raw in enumerate(_LINE_BREAK_RE.split(text), start=1):
        line = raw.split("#", 1)[0].strip(ASCII_SPACE)
        if line:
            yield lineno, line


def parse_program(text: str) -> LogicalCircuit:
    """Parse program source.

    Format: `lattice <L>` header, then one statement per line:
    `cz (r1,c1) (r2,c2)` or `h|z|x (r,c)`.  `#` starts a comment.
    """
    L = None
    ops = []
    for lineno, line in content_lines(text):
        if L is None:
            m = _LATTICE_RE.match(line)
            if not m:
                raise ParseError(lineno, "expected 'lattice <L>' header")
            L = int(m.group(1))
            if L < 1:
                raise ParseError(lineno, f"lattice size {L} must be >= 1")
            continue
        if m := _CZ_RE.match(line):
            op = LogicalCZ((int(m.group(1)), int(m.group(2))),
                           (int(m.group(3)), int(m.group(4))))
        elif m := _1Q_RE.match(line):
            op = Logical1Q(GateKind(m.group(1)), (int(m.group(2)), int(m.group(3))))
        else:
            raise ParseError(lineno, f"cannot parse statement: {line!r}")
        try:
            check_op(op, L)
        except ValueError as e:
            raise ParseError(lineno, str(e)) from e
        ops.append(op)
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


class _EventFields(NamedTuple):
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


class PhysicalEvent(_EventFields):
    """One timed physical action: a named tuple of `_EventFields`."""

    __slots__ = ()

    @property
    def t_end(self) -> float:
        return self.t + self.duration

    @property
    def order_tail(self) -> tuple:
        """`sort_key` without the time, which a shift in time leaves unchanged:
        action rank, lowest messenger serial (-1 for none), operand keys."""
        operands = self.operands
        serial = None
        for q in operands:
            if q.is_messenger and (serial is None or q.serial < serial):
                serial = q.serial
        return (self.action.rank, -1 if serial is None else serial,
                tuple([q._sort_key for q in operands]))

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


_time, _order_tail = itemgetter(0), attrgetter("order_tail")


def sort_events(events: list[PhysicalEvent]) -> list[PhysicalEvent]:
    """Canonical deterministic total order (idempotent): a stable sort by
    `sort_key`.

    Sorted by time, then each run of equal times by `order_tail`, so a
    tail is built only for an event that shares its time.
    """
    out = sorted(events, key=_time)
    times = list(map(_time, out))
    end = 0
    # i runs over the events whose time equals the next one's
    for i in compress(range(len(out)), map(eq, times, times[1:])):
        if i < end:
            continue   # inside the run sorted last
        t, end = times[i], i + 2
        while end < len(out) and times[end] == t:
            end += 1
        out[i:end] = sorted(out[i:end], key=_order_tail)
    return out


def events_to_jsonl(events: list[PhysicalEvent]) -> str:
    """One JSON object per event and line, in the bytes `json.dumps(obj,
    sort_keys=True)` would give: keys sorted, `bit` always, `dur` when
    non-zero, `belt`, `to_belt` and `vx`/`vy` when set.  Numbers are written
    with `repr`, as `json` writes ints and finite floats.
    """
    lines = []
    # each event unpacked once: a named-tuple field read is slower than an unpack
    for t, (x, y), action, operands, gate, bit, duration, belt, to_belt, velocity in events:
        # `_value_`, not the `value` property, which is Python-level on 3.11
        action = action._value_ if gate is None else f"{action._value_}:{gate._value_}"
        belt = "" if belt is None else f'"belt": {belt!r}, '
        bit = "null" if bit is None else repr(bit)
        dur = f'"dur": {duration!r}, ' if duration else ""
        operands = ", ".join([q._json for q in operands])
        to_belt = "" if to_belt is None else f'"to_belt": {to_belt!r}, '
        vel = "" if velocity is None else f'"vx": {velocity[0]!r}, "vy": {velocity[1]!r}, '
        lines.append(f'{{"action": "{action}", {belt}"bit": {bit}, {dur}'
                     f'"operands": [{operands}], "t": {t!r}, {to_belt}{vel}'
                     f'"x": {x!r}, "y": {y!r}}}\n')
    return "".join(lines)


def events_from_jsonl(text: str) -> list[PhysicalEvent]:
    import json   # only readers of artifacts pay for it; no command reads one
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(PhysicalEvent.from_json(json.loads(line)))
    return out


class BitUsage(NamedTuple):
    """The ordering violations of a program's classical bits."""

    violations: tuple[str, ...] = ()


def classical_bits(events: list[PhysicalEvent]) -> BitUsage:
    """Check that each classical bit is written once and read only after
    its write ends.

    Works on gate events in time order, ties in list order, as
    `check_conflicts` reads a program; a violation names events by their
    list positions.
    """
    writers: dict[int, int] = {}
    violations = []
    for i, ev in sorted(enumerate(events), key=lambda item: item[1].t):
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
    return BitUsage(tuple(violations))
