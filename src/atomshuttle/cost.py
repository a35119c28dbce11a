"""Closed-form fidelity budgets, error sweeps and a cross-variant ranking.

Per-logical-gate fidelity is the literal product of per-operation
fidelities weighted by the variant's gate counts; the nearest-neighbor
SWAP-chain baseline decays with qubit separation while every messenger
variant has a size-independent budget, because `f_shuttle` is one factor
per logical gate whatever the distance travelled; the makespan still
grows linearly in L.  Error convention: p = 1 - F everywhere, so sweep
axes and reports are error probabilities.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

from .architectures import (ArchitectureSpec, FieldError, GateCounts, Variant,
                            ascii_float, build_from_config, decompose_cz,
                            gate_counts, read_key_values)
from .ir import checked_make
from .scheduler import plan_trajectories

CONTOUR_LEVEL = 1e-2
# 50 log-spaced errors from 1e-5 to 1e-1, with np.linspace's exponents:
# one step apart and the last one exact
SWEEP_GRID_DEFAULT = tuple(10.0 ** (-5 + i * (4 / 49)) for i in range(49)) + (10.0 ** -1,)
PINNED_READOUT_ERROR = 3e-3       # fixed pr for the p1-p2 sweep
PINNED_SINGLE_QUBIT_ERROR = 5e-4  # fixed p1 for the pr-p2 sweep


class _CostFields(NamedTuple):
    f1: float = 1.0
    f2_cz: float = 1.0
    f2_swap: float = 1.0
    fr: float = 1.0
    f_shuttle: float = 1.0


class CostParams(_CostFields):
    """Per-operation fidelities, each in (0, 1], checked by every constructor.

    `f_shuttle` is one factor per logical gate; every field changes the
    fidelity of some variant's compiled CZ.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, v in zip(self._fields, self):
            if not 0.0 < v <= 1.0:
                raise FieldError(name, v, "outside (0, 1]")
        return self

    _make = classmethod(checked_make)

    @classmethod
    def from_errors(cls, p1=0.0, p2=0.0, pr=0.0) -> "CostParams":
        return cls(f1=1.0 - p1, f2_cz=1.0 - p2, f2_swap=1.0 - p2, fr=1.0 - pr)


_COST_KEYS = {key: (key, ascii_float) for key in CostParams._fields}


def load_cost_config(path: str, text: str) -> CostParams:
    """The cost parameters that the `text` of the key=value config file `path` sets."""
    return build_from_config(CostParams, path, _COST_KEYS,
                             read_key_values(path, _COST_KEYS, text))


class FidelityReport(NamedTuple):
    counts: GateCounts
    F: float
    error: float
    makespan: float | None = None


def logical_gate_fidelity(counts: GateCounts, params: CostParams) -> FidelityReport:
    """Exact product fidelity for one logical gate with the given counts."""
    F = (params.f2_cz ** counts.n2_cz
         * params.f2_swap ** counts.n2_swap
         * params.f1 ** counts.n1
         * params.fr ** counts.nr
         * params.f_shuttle)
    return FidelityReport(counts, F, 1.0 - F)


def neighbor_chain_fidelity(L: int, p2: float) -> float:
    """Asymptotic baseline SWAP-chain fidelity exp(-p2 * L) for a chain
    spanning a size-L array.

    A compiled chain's exact fidelity is that of its gate counts:
    `logical_gate_fidelity(neighbor_chain_decompose(L, a, b).counts,
    CostParams.from_errors(p2=p2)).F`, which agrees with this form within
    5% while p2 * n2 <= 0.2.
    """
    if not 0.0 <= p2 < 1.0:
        raise ValueError(f"p2={p2} outside [0, 1)")
    return math.exp(-p2 * L)


# --- parameter sweeps -------------------------------------------------------

class SweepResult(NamedTuple):
    axis1_name: str                     # "p1" or "pr"
    axis1: tuple[float, ...]            # rows
    p2: tuple[float, ...]               # columns
    errors: tuple[tuple[float, ...], ...]  # errors[i][j], 1 - F at axis1[i], p2[j]
    contour: list[tuple[float, float]]  # (p2, axis1) points on the 1e-2 level


def error_budget_sweep(variant: Variant, axis1_name: str,
                       case: int | None = None) -> SweepResult:
    """`logical_gate_fidelity(...).error` over (p1 or pr) x p2 with F_shuttle = 1.

    Both axes are `SWEEP_GRID_DEFAULT`.  CZ and SWAP errors are taken
    equal (both p2, as in `CostParams.from_errors`).  The axis not being
    swept is pinned to its conventional value: readout error 3e-3 when
    sweeping p1, single-qubit error 5e-4 when sweeping pr.
    """
    if axis1_name not in ("p1", "pr"):
        raise ValueError("axis1 must be 'p1' or 'pr'")
    axis1 = p2 = SWEEP_GRID_DEFAULT
    pinned = ({"pr": PINNED_READOUT_ERROR} if axis1_name == "p1"
              else {"p1": PINNED_SINGLE_QUBIT_ERROR})
    counts = gate_counts(variant, case)
    errors = tuple(tuple(logical_gate_fidelity(counts, CostParams.from_errors(
        p2=x, **{axis1_name: y}, **pinned)).error for x in p2) for y in axis1)
    return SweepResult(axis1_name, axis1, p2, errors,
                       _level_contour(axis1, p2, errors, CONTOUR_LEVEL))


def _level_contour(axis1, p2, errors, level) -> list[tuple[float, float]]:
    """One (p2, axis1) point per row where the error crosses `level`.

    The error is strictly increasing in p2 along each row, so linear
    interpolation in log-log space gives a single crossing per row (rows
    entirely above or below the level contribute no point).
    """
    points = []
    for y, row in zip(axis1, errors):
        if row[0] > level or row[-1] < level:
            continue
        j = bisect_left(row, level)
        if j == 0:
            points.append((p2[0], y))
            continue
        e0, e1 = row[j - 1], row[j]
        f = (math.log(level) - math.log(e0)) / (math.log(e1) - math.log(e0))
        x = math.exp(math.log(p2[j - 1]) + f * (math.log(p2[j]) - math.log(p2[j - 1])))
        points.append((x, y))
    return points


def sweep_to_csv(result: SweepResult) -> str:
    lines = [result.axis1_name + "," + ",".join(map(repr, result.p2))]
    for y, row in zip(result.axis1, result.errors):
        lines.append(repr(y) + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def contour_to_csv(result: SweepResult) -> str:
    lines = ["x,y"]
    for x, y in result.contour:
        lines.append(f"{x!r},{y!r}")
    return "\n".join(lines) + "\n"


# --- cross-variant comparison -----------------------------------------------

class ComparisonRow(NamedTuple):
    variant: Variant
    case: int | None
    report: FidelityReport


def architecture_comparison(params: CostParams, L: int) -> list[ComparisonRow]:
    """Per-variant fidelity and makespan of one compiled CZ, best error first.

    Each row compiles the corner-to-corner pair, the worst case for the
    baseline and a neutral one for messengers; the one-way belt adds the
    anti-diagonal pair, its case-2 representative at equal distance.
    Ties on error break by makespan.
    """
    corner, anti = ((0, 0), (L - 1, L - 1)), ((0, L - 1), (L - 1, 0))
    rows = []
    for variant in Variant:
        arch = ArchitectureSpec(variant, L)
        for pair in (corner, anti) if variant is Variant.ONE_WAY_BELT else (corner,):
            d = decompose_cz(arch, *pair)
            rep = logical_gate_fidelity(d.counts, params)
            rows.append(ComparisonRow(variant, d.case, rep._replace(
                makespan=plan_trajectories(arch, d).makespan)))
    rows.sort(key=lambda r: (r.report.error, r.report.makespan, r.variant.value))
    return rows
