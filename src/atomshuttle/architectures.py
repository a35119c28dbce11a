"""The five messenger-qubit architecture variants and their CZ decompositions.

Each variant realizes a logical CZ between two arbitrary computational
qubits with a fixed, size-independent sequence of physical gates on one
or more disposable messenger qubits initialized in |+>, plus (for the
measurement-based variants) X-basis readout and a conditioned correction.
The nearest-neighbor SWAP-chain baseline is also provided for contrast.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .ir import GateKind, GateStep, QubitRef, in_lattice


class Variant(Enum):
    TWO_WAY_BELT = "two-way-belt"
    ONE_WAY_BELT = "one-way-belt"
    THROW_CATCH_THROW = "throw-catch-throw"
    SHUTTLE_AND_ROUTE = "shuttle-and-route"
    THROW_AND_MEASURE = "throw-and-measure"


class FieldError(ValueError):
    """A spec field outside its domain; `field` names the dataclass field."""

    def __init__(self, field: str, value, requirement: str):
        super().__init__(f"{field}={value} {requirement}")
        self.field, self.value, self.requirement = field, value, requirement


@dataclass(frozen=True)
class ArchitectureSpec:
    """Variant plus geometry and timing parameters.

    Lengths in meters, times in seconds.  `a` is the lattice spacing,
    `R` the blockade radius (R <= a), `v` the messenger speed
    (v <= a/t2 so a passing messenger stays in blockade range for a
    full two-qubit gate).
    """

    variant: Variant
    L: int
    a: float = 3e-6
    R: float = 2.7e-6           # 0.9 a
    v: float = 1.5              # a / (2 t2) with the defaults below
    t2: float = 1e-6
    t1: float = 1e-7
    tr: float = 1e-5
    t_route: float = 2e-6
    t_turnaround: float = 2e-6

    def __post_init__(self):
        if self.L < 2:
            raise FieldError("L", self.L, "must be at least 2")
        for name in ("a", "R", "v", "t2", "t1", "tr", "t_route", "t_turnaround"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise FieldError(name, value, "must be finite and strictly positive")
        if self.R > self.a * (1 + 1e-12):
            raise FieldError("R", self.R, f"exceeds the lattice spacing {self.a}")
        if self.v > self.a / self.t2 * (1 + 1e-12):
            raise FieldError("v", self.v, f"exceeds the lattice spacing per two-qubit "
                                          f"gate time {self.a / self.t2}")


_CONFIG_KEYS = {
    "variant": ("variant", Variant),
    "L": ("L", int),
    "a_m": ("a", float),
    "R_m": ("R", float),
    "v_mps": ("v", float),
    "t2_s": ("t2", float),
    "t1_s": ("t1", float),
    "tr_s": ("tr", float),
    "t_route_s": ("t_route", float),
    "t_turnaround_s": ("t_turnaround", float),
}


def read_key_values(path: str | Path, keys: dict, text: str | None = None) -> dict:
    """Read a key=value config file into {field name: converted value}.

    `keys` maps each accepted key to (field name, converter).  `#` starts
    a comment.  Every error names `path:line`, and a key may be set once.
    `text`, if given, is the file's content, already read.
    """
    if text is None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text") from e
    kwargs, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                             f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        name, conv = keys[key]
        try:
            kwargs[name] = conv(value)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {key}: {e}") from e
    return kwargs


def build_from_config(cls, path: str | Path, keys: dict, kwargs: dict):
    """`cls(**kwargs)`; a `FieldError` is re-raised naming `path` and the config key."""
    try:
        return cls(**kwargs)
    except FieldError as e:
        key = next(k for k, (name, _) in keys.items() if name == e.field)
        raise ValueError(f"{path}: {key}={e.value} {e.requirement}") from e


def load_arch_config(path: str | Path, text: str | None = None) -> ArchitectureSpec:
    """Read a key=value architecture config file (or its `text`, already read)."""
    kwargs = read_key_values(path, _CONFIG_KEYS, text)
    if "variant" not in kwargs or "L" not in kwargs:
        raise ValueError(f"{path}: config must set at least 'variant' and 'L'")
    return build_from_config(ArchitectureSpec, path, _CONFIG_KEYS, kwargs)


@dataclass(frozen=True)
class GateCounts:
    n1: int
    n2_cz: int
    n2_swap: int
    nr: int

    @property
    def n2(self) -> int:
        return self.n2_cz + self.n2_swap

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.nr)


_TABLE = {
    (Variant.TWO_WAY_BELT, None): GateCounts(2, 3, 3, 0),
    (Variant.ONE_WAY_BELT, 1): GateCounts(2, 2, 1, 1),
    (Variant.ONE_WAY_BELT, 2): GateCounts(4, 3, 0, 2),
    (Variant.THROW_CATCH_THROW, None): GateCounts(2, 3, 0, 0),
    (Variant.SHUTTLE_AND_ROUTE, None): GateCounts(2, 3, 0, 0),
    (Variant.THROW_AND_MEASURE, None): GateCounts(2, 2, 0, 1),
}


def gate_counts(variant: Variant, case: int | None = None) -> GateCounts:
    """Per-logical-gate physical gate and readout counts for each variant."""
    if variant is Variant.ONE_WAY_BELT:
        if case not in (1, 2):
            raise ValueError("one-way belt needs case 1 or 2")
        return _TABLE[(variant, case)]
    return _TABLE[(variant, None)]


def one_way_case(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Relative-location case for the one-way belt (symmetric in a, b).

    Case 1: one qubit's state can physically travel to the other along
    the belt flow (right then up), i.e. one coordinate-dominates the
    other.  Case 2 otherwise.
    """
    (ra, ca), (rb, cb) = a, b
    if (cb >= ca and rb >= ra) or (ca >= cb and ra >= rb):
        return 1
    return 2


@dataclass(frozen=True)
class Decomposition:
    variant: Variant | None  # None for the neighbor-chain baseline
    case: int | None
    a: tuple[int, int]
    b: tuple[int, int]
    gates: tuple[GateStep, ...]
    counts: GateCounts
    messengers: tuple[int, ...]


def _counts_from_gates(gates) -> GateCounts:
    n1 = n2_cz = n2_swap = nr = 0
    for g in gates:
        if g.gate is GateKind.CZ:
            n2_cz += 1
        elif g.gate is GateKind.SWAP:
            n2_swap += 1
        elif g.gate is GateKind.MEASURE_X:
            nr += 1
        else:
            n1 += 1  # H and conditioned corrections; loading-zone init excluded
    return GateCounts(n1, n2_cz, n2_swap, nr)


def _check_targets(L: int, a: tuple[int, int], b: tuple[int, int]) -> None:
    if a == b:
        raise ValueError("target qubits must be distinct")
    for c in (a, b):
        if not in_lattice(c, L):
            raise ValueError(f"coordinate {c} out of range for L={L}")


def decompose_cz(arch: ArchitectureSpec, a: tuple[int, int], b: tuple[int, int],
                 serial_start: int = 0, bit_start: int = 0) -> Decomposition:
    """Physical protocol realizing a logical CZ between `a` and `b`.

    Messenger serials are allocated from `serial_start` and classical
    bits from `bit_start` so that compiling several logical gates never
    shares a messenger or a bit.
    """
    _check_targets(arch.L, a, b)

    A, B = QubitRef.comp(*a), QubitRef.comp(*b)
    v = arch.variant
    case = None
    cz, swap, h = GateKind.CZ, GateKind.SWAP, GateKind.H

    if v is Variant.TWO_WAY_BELT:
        m1, m2, m3, m4 = (QubitRef.mess(serial_start + i) for i in range(4))
        gates = (
            GateStep(cz, (A, m1)),
            GateStep(h, (m1,)),
            GateStep(swap, (m1, m2)),
            GateStep(cz, (m2, B)),
            GateStep(swap, (m2, m3)),
            GateStep(swap, (m3, m4)),
            GateStep(h, (m4,)),
            GateStep(cz, (A, m4)),
        )
        messengers = tuple(serial_start + i for i in range(4))

    elif v is Variant.ONE_WAY_BELT:
        case = one_way_case(a, b)
        if case == 1:
            # Source = the componentwise-dominated qubit so the carried
            # state flows right-then-up toward the other target.
            src, dst = (a, b) if (b[0] >= a[0] and b[1] >= a[1]) else (b, a)
            S, D = QubitRef.comp(*src), QubitRef.comp(*dst)
            m1, m2 = QubitRef.mess(serial_start), QubitRef.mess(serial_start + 1)
            s = bit_start
            gates = (
                GateStep(cz, (S, m1)),
                GateStep(h, (m1,)),
                GateStep(swap, (m1, m2)),
                GateStep(cz, (m2, D)),
                GateStep(GateKind.MEASURE_X, (m2,), bit=s),
                GateStep(GateKind.COND_Z, (S,), bit=s),
            )
        else:
            # Neither reaches the other in one right-then-up pass: meet
            # in the middle and teleport both halves back.
            p, q = (a, b) if a[1] < b[1] else (b, a)
            P, Q = QubitRef.comp(*p), QubitRef.comp(*q)
            m1, m2 = QubitRef.mess(serial_start), QubitRef.mess(serial_start + 1)
            s1, s2 = bit_start, bit_start + 1
            gates = (
                GateStep(cz, (P, m1)),
                GateStep(h, (m1,)),
                GateStep(cz, (Q, m2)),
                GateStep(h, (m2,)),
                GateStep(cz, (m1, m2)),
                GateStep(GateKind.MEASURE_X, (m1,), bit=s1),
                GateStep(GateKind.MEASURE_X, (m2,), bit=s2),
                GateStep(GateKind.COND_Z, (P,), bit=s1),
                GateStep(GateKind.COND_Z, (Q,), bit=s2),
            )
        messengers = (serial_start, serial_start + 1)

    elif v in (Variant.THROW_CATCH_THROW, Variant.SHUTTLE_AND_ROUTE):
        m = QubitRef.mess(serial_start)
        gates = (
            GateStep(cz, (A, m)),
            GateStep(h, (m,)),
            GateStep(cz, (m, B)),
            GateStep(h, (m,)),
            GateStep(cz, (A, m)),
        )
        messengers = (serial_start,)

    elif v is Variant.THROW_AND_MEASURE:
        m = QubitRef.mess(serial_start)
        s = bit_start
        gates = (
            GateStep(cz, (A, m)),
            GateStep(h, (m,)),
            GateStep(cz, (m, B)),
            GateStep(GateKind.MEASURE_X, (m,), bit=s),
            GateStep(GateKind.COND_Z, (A,), bit=s),
        )
        messengers = (serial_start,)

    else:  # pragma: no cover
        raise ValueError(f"unknown variant {v}")

    counts = _counts_from_gates(gates)
    expected = gate_counts(v, case)
    assert counts == expected, f"decomposition counts {counts} != table {expected}"
    return Decomposition(v, case, a, b, gates, counts, messengers)


def manhattan_path(a: tuple[int, int], b: tuple[int, int]) -> list[tuple[int, int]]:
    """Row-then-column lattice path from a to b, inclusive."""
    cells = [a]
    r, c = a
    step_r = 1 if b[0] > r else -1
    while r != b[0]:
        r += step_r
        cells.append((r, c))
    step_c = 1 if b[1] > c else -1
    while c != b[1]:
        c += step_c
        cells.append((r, c))
    return cells


def neighbor_chain_decompose(L: int, a: tuple[int, int], b: tuple[int, int]) -> Decomposition:
    """SWAP-chain baseline: shuttle A's state next to B, CZ, swap back.

    For Manhattan distance d this costs n2 = 2(d-1)+1 two-qubit gates,
    growing with separation (unlike every messenger variant).
    """
    _check_targets(L, a, b)
    path = manhattan_path(a, b)
    refs = [QubitRef.comp(*c) for c in path]
    gates = []
    for i in range(len(refs) - 2):
        gates.append(GateStep(GateKind.SWAP, (refs[i], refs[i + 1])))
    gates.append(GateStep(GateKind.CZ, (refs[-2], refs[-1])))
    for i in range(len(refs) - 3, -1, -1):
        gates.append(GateStep(GateKind.SWAP, (refs[i], refs[i + 1])))
    gates = tuple(gates)
    return Decomposition(None, None, a, b, gates, _counts_from_gates(gates), ())
