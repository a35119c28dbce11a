"""The five messenger-qubit architecture variants and their CZ decompositions.

Each variant realizes a logical CZ between two arbitrary computational
qubits with a fixed, size-independent sequence of physical gates on one
or more disposable messenger qubits initialized in |+>, plus (for the
measurement-based variants) X-basis readout and a conditioned correction.
Each sequence is one row of the table `_PROTOCOLS`, written in roles: the
targets A and B and messengers 0, 1, ....  `decompose_cz` binds the roles
to a pair's qubits and to fresh messenger serials and bits; `gate_counts`
reads a row's counts, worked out once, at import.  The nearest-neighbor
SWAP-chain baseline is also provided for contrast.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .ir import (ASCII_SPACE, GateKind, GateStep, LogicalCZ, QubitRef, check_op, checked_make,
                 content_lines)


class Variant(Enum):
    TWO_WAY_BELT = "two-way-belt"
    ONE_WAY_BELT = "one-way-belt"
    THROW_CATCH_THROW = "throw-catch-throw"
    SHUTTLE_AND_ROUTE = "shuttle-and-route"
    THROW_AND_MEASURE = "throw-and-measure"


class FieldError(ValueError):
    """A spec field outside its domain; `field` names the field."""

    def __init__(self, field: str, value, requirement: str):
        super().__init__(f"{field}={value} {requirement}")
        self.field, self.value, self.requirement = field, value, requirement


def check_lattice_size(L: int) -> None:
    """The one rule for a lattice size, else `FieldError` on `L`: 2 <= L <= 2**51,
    below which every coordinate and half-cell lane is an exact float."""
    if L < 2:
        raise FieldError("L", L, "must be at least 2")
    if L > 2 ** 51:
        raise FieldError("L", L, "must be at most 2**51")


class _SpecFields(NamedTuple):
    variant: Variant
    L: int
    a: float = 3e-6
    R: float = 2.7e-6             # 0.9 a
    v: float = 1.5                # a / (2 t2) with the defaults below
    t2: float = 1e-6
    t1: float = 1e-7
    tr: float = 1e-5
    t_route: float = 2e-6
    t_turnaround: float = 2e-6


class ArchitectureSpec(_SpecFields):
    """Variant plus geometry and timing parameters, checked by every constructor.

    Lengths in meters, times in seconds.  `L` is the lattice size
    (`check_lattice_size`), `a` the lattice spacing, `R` the blockade
    radius (R <= a), `v` the messenger speed (v <= a/t2 so a passing
    messenger stays in blockade range for a full two-qubit gate, and a / v
    finite).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_lattice_size(self.L)
        for name, value in zip(self._fields[2:], self[2:]):
            if not (math.isfinite(value) and value > 0):
                raise FieldError(name, value, "must be finite and strictly positive")
        if not math.isfinite(self.a / self.v):
            raise FieldError("v", self.v, "is too slow: a / v, the time per cell, overflows")
        if self.R > self.a * (1 + 1e-12):
            raise FieldError("R", self.R, f"exceeds the lattice spacing {self.a}")
        if self.v > self.a / self.t2 * (1 + 1e-12):
            raise FieldError("v", self.v, f"exceeds the lattice spacing per two-qubit "
                                          f"gate time {self.a / self.t2}")
        return self

    _make = classmethod(checked_make)


def _ascii(conv):
    """`conv` (`int` or `float`) on ASCII text without `_` only: the builtins
    also read other Unicode digits and `_` digit groups."""
    def convert(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"{text!r} is not an ASCII number")
        return conv(text)
    convert.__name__ = conv.__name__   # argparse names the type in its errors
    return convert


ascii_int, ascii_float = _ascii(int), _ascii(float)
_CONFIG_KEYS = {
    "variant": ("variant", Variant),
    "L": ("L", ascii_int),
    "a_m": ("a", ascii_float),
    "R_m": ("R", ascii_float),
    "v_mps": ("v", ascii_float),
    "t2_s": ("t2", ascii_float),
    "t1_s": ("t1", ascii_float),
    "tr_s": ("tr", ascii_float),
    "t_route_s": ("t_route", ascii_float),
    "t_turnaround_s": ("t_turnaround", ascii_float),
}


def read_key_values(path: str, keys: dict, text: str) -> dict:
    """Read the `text` of the key=value config file `path` into {field name:
    converted value}.

    `keys` maps each accepted key to (field name, converter).  `#` starts
    a comment.  Every error names `path:line`, and a key may be set once.
    """
    kwargs, first_line = {}, {}
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip(ASCII_SPACE) for s in line.split("=", 1))
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


def build_from_config(cls, path: str, keys: dict, kwargs: dict):
    """`cls(**kwargs)`; a `FieldError` is re-raised naming `path` and the config key."""
    try:
        return cls(**kwargs)
    except FieldError as e:
        key = next(k for k, (name, _) in keys.items() if name == e.field)
        raise ValueError(f"{path}: {key}={e.value} {e.requirement}") from e


def load_arch_config(path: str, text: str) -> ArchitectureSpec:
    """The architecture that the `text` of the key=value config file `path` sets."""
    kwargs = read_key_values(path, _CONFIG_KEYS, text)
    if "variant" not in kwargs or "L" not in kwargs:
        raise ValueError(f"{path}: config must set at least 'variant' and 'L'")
    return build_from_config(ArchitectureSpec, path, _CONFIG_KEYS, kwargs)


class GateCounts(NamedTuple):
    n1: int
    n2_cz: int
    n2_swap: int
    nr: int

    @property
    def n2(self) -> int:
        return self.n2_cz + self.n2_swap

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.nr)


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


class Decomposition(NamedTuple):
    variant: Variant | None  # None for the neighbor-chain baseline
    case: int | None
    a: tuple[int, int]       # the protocol's target A
    b: tuple[int, int]       # and B (`decompose_cz` says which is which)
    gates: tuple[GateStep, ...]
    counts: GateCounts
    messengers: tuple[int, ...]


def _counts_from_gates(gates) -> GateCounts:
    """The counts of the gate kinds of `gates`, (gate, operands, bit) triples;
    loading-zone initialization is not a gate."""
    kinds = [g[0] for g in gates]
    n2_cz, n2_swap, nr = map(kinds.count, (GateKind.CZ, GateKind.SWAP, GateKind.MEASURE_X))
    return GateCounts(len(kinds) - n2_cz - n2_swap - nr, n2_cz, n2_swap, nr)


class _Protocol(NamedTuple):
    steps: tuple     # (gate, operand indices into (messengers..., A, B), bit or None)
    n_messengers: int
    counts: GateCounts


def _protocol(*steps) -> _Protocol:
    """A protocol from its steps (gate, operands) or (gate, operands, bit)."""
    steps = tuple((gate, ops, bit[0] if bit else None) for gate, ops, *bit in steps)
    return _Protocol(steps, 1 + max(i for _, ops, _ in steps for i in ops),
                     _counts_from_gates(steps))


# An operand is a role: the target A or B, or messenger k (0, 1, ...), as its
# index into (messengers..., A, B).  A bit counts from `bit_start`.
_A, _B = -2, -1
_CZ, _SWAP, _H, _MX, _COND_Z = (GateKind.CZ, GateKind.SWAP, GateKind.H, GateKind.MEASURE_X,
                                GateKind.COND_Z)
_THROW_CATCH_THROW = _protocol((_CZ, (_A, 0)), (_H, (0,)), (_CZ, (0, _B)), (_H, (0,)),
                               (_CZ, (_A, 0)))
_PROTOCOLS = {   # (variant, one-way case) -> its protocol
    (Variant.TWO_WAY_BELT, None): _protocol(
        (_CZ, (_A, 0)), (_H, (0,)), (_SWAP, (0, 1)), (_CZ, (1, _B)), (_SWAP, (1, 2)),
        (_SWAP, (2, 3)), (_H, (3,)), (_CZ, (_A, 3))),
    # A's state rides to B and is read out
    (Variant.ONE_WAY_BELT, 1): _protocol(
        (_CZ, (_A, 0)), (_H, (0,)), (_SWAP, (0, 1)), (_CZ, (1, _B)), (_MX, (1,), 0),
        (_COND_Z, (_A,), 0)),
    # neither target reaches the other in one right-then-up pass: the
    # messengers meet in the middle and teleport both halves back
    (Variant.ONE_WAY_BELT, 2): _protocol(
        (_CZ, (_A, 0)), (_H, (0,)), (_CZ, (_B, 1)), (_H, (1,)), (_CZ, (0, 1)), (_MX, (0,), 0),
        (_MX, (1,), 1), (_COND_Z, (_A,), 0), (_COND_Z, (_B,), 1)),
    (Variant.THROW_CATCH_THROW, None): _THROW_CATCH_THROW,
    (Variant.SHUTTLE_AND_ROUTE, None): _THROW_CATCH_THROW,
    (Variant.THROW_AND_MEASURE, None): _protocol(
        (_CZ, (_A, 0)), (_H, (0,)), (_CZ, (0, _B)), (_MX, (0,), 0), (_COND_Z, (_A,), 0)),
}


def decompose_cz(arch: ArchitectureSpec, a: tuple[int, int], b: tuple[int, int],
                 serial_start: int = 0, bit_start: int = 0) -> Decomposition:
    """Physical protocol realizing a logical CZ between `a` and `b`: the
    variant's row of `_PROTOCOLS`, with messenger k as serial
    `serial_start + k` and bit j as `bit_start + j`.

    Serials and bits are allocated from the two starts so that compiling
    several logical gates never shares a messenger or a bit.  The result's
    `a` and `b` are the targets A and B: `a` and `b`, except on the one-way
    belt, where A is the target that the other componentwise dominates in
    case 1, and the one with the smaller column in case 2.  Raises
    `ValueError` unless `check_op` accepts the CZ.
    """
    check_op(LogicalCZ(a, b), arch.L)
    return _decompose(arch, a, b, serial_start, bit_start)


def _decompose(arch: ArchitectureSpec, a: tuple[int, int], b: tuple[int, int],
               serial_start: int, bit_start: int) -> Decomposition:
    """`decompose_cz` of a CZ that `check_op` has accepted."""
    v = arch.variant
    case = None
    if v is Variant.ONE_WAY_BELT:
        case = one_way_case(a, b)
        a_first = (b[0] >= a[0] and b[1] >= a[1]) if case == 1 else a[1] < b[1]
        a, b = (a, b) if a_first else (b, a)
    p = _PROTOCOLS[v, case]
    messengers = tuple(range(serial_start, serial_start + p.n_messengers))
    refs = (*map(QubitRef.mess, messengers), QubitRef.comp(*a), QubitRef.comp(*b))
    gates = tuple([GateStep(gate, tuple([refs[i] for i in ops]),
                            None if bit is None else bit_start + bit)
                   for gate, ops, bit in p.steps])
    return Decomposition(v, case, a, b, gates, p.counts, messengers)


def gate_counts(variant: Variant, case: int | None = None) -> GateCounts:
    """Per-logical-gate physical gate and readout counts of `variant`'s row of
    `_PROTOCOLS`; `case` (1 or 2) is read for the one-way belt only."""
    key = (variant, case if variant is Variant.ONE_WAY_BELT else None)
    if key not in _PROTOCOLS:
        raise ValueError("one-way belt needs case 1 or 2")
    return _PROTOCOLS[key].counts


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
    check_op(LogicalCZ(a, b), L)
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
