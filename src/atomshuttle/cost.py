"""Closed-form fidelity budgets, error sweeps and a cross-variant ranking.

Per-logical-gate fidelity is the literal product of per-operation
fidelities weighted by the variant's gate counts; the nearest-neighbor
SWAP-chain baseline decays with qubit separation while every messenger
variant has a size-independent budget.  Error convention: p = 1 - F
everywhere, so sweep axes and reports are error probabilities.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .architectures import (ArchitectureSpec, FieldError, GateCounts, Variant,
                            ascii_float, build_from_config, decompose_cz,
                            gate_counts, neighbor_chain_decompose, read_key_values)
from .ir import checked_make
from .scheduler import plan_trajectories

CONTOUR_LEVEL = 1e-2
SWEEP_GRID_DEFAULT = np.logspace(-5, -1, 50)
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


def neighbor_chain_fidelity(L_or_count: int, p2: float,
                            exact: bool = False) -> float:
    """Baseline SWAP-chain fidelity.

    Asymptotic form (default): exp(-p2 * L) for a chain spanning a size-L
    array.  Exact form: (1 - p2)^n2 where `L_or_count` is the chain's
    two-qubit gate count n2.  The two agree within 5% for p2 * n2 <= 0.2.
    """
    if not 0.0 <= p2 < 1.0:
        raise ValueError(f"p2={p2} outside [0, 1)")
    if exact:
        return (1.0 - p2) ** L_or_count
    return math.exp(-p2 * L_or_count)


def neighbor_chain_exact(L: int, a: tuple[int, int], b: tuple[int, int],
                         p2: float) -> float:
    """Exact baseline fidelity for one pair, using the compiled chain's n2."""
    d = neighbor_chain_decompose(L, a, b)
    return neighbor_chain_fidelity(d.counts.n2, p2, exact=True)


# --- parameter sweeps -------------------------------------------------------

class SweepResult(NamedTuple):
    axis1_name: str          # "p1" or "pr"
    axis1: np.ndarray        # rows
    p2: np.ndarray           # columns
    errors: np.ndarray       # shape (len(axis1), len(p2)), values 1 - F
    contour: list[tuple[float, float]]  # (p2, axis1) points on the 1e-2 level


def error_budget_sweep(variant: Variant, axis1_name: str,
                       case: int | None = None) -> SweepResult:
    """Grid of logical errors over (p1 or pr) x p2 with F_shuttle = 1.

    Both axes are `SWEEP_GRID_DEFAULT`.  CZ and SWAP errors are taken
    equal (both 1 - p2).  The axis not being swept is pinned to its
    conventional value: readout error 3e-3 when sweeping p1, single-qubit
    error 5e-4 when sweeping pr.
    """
    if axis1_name not in ("p1", "pr"):
        raise ValueError("axis1 must be 'p1' or 'pr'")
    axis1 = p2 = SWEEP_GRID_DEFAULT

    counts = gate_counts(variant, case)
    f2 = 1.0 - p2                       # shape (n2cols,)
    f2_pow = f2 ** (counts.n2_cz + counts.n2_swap)
    if axis1_name == "p1":
        f1_pow = (1.0 - axis1) ** counts.n1                       # rows
        fr_pow = (1.0 - PINNED_READOUT_ERROR) ** counts.nr        # scalar
        F = np.outer(f1_pow, f2_pow) * fr_pow
    else:
        fr_pow = (1.0 - axis1) ** counts.nr                       # rows
        f1_pow = (1.0 - PINNED_SINGLE_QUBIT_ERROR) ** counts.n1   # scalar
        F = np.outer(fr_pow, f2_pow) * f1_pow
    errors = 1.0 - F
    return SweepResult(axis1_name, axis1, p2, errors,
                       _level_contour(axis1, p2, errors, CONTOUR_LEVEL))


def _level_contour(axis1, p2, errors, level) -> list[tuple[float, float]]:
    """One (p2, axis1) point per row where the error crosses `level`.

    The error is strictly increasing in p2 along each row, so linear
    interpolation in log-log space gives a single crossing per row (rows
    entirely above or below the level contribute no point).
    """
    points = []
    for i, y in enumerate(axis1):
        row = errors[i]
        if row[0] > level or row[-1] < level:
            continue
        j = int(np.searchsorted(row, level))
        if j == 0:
            points.append((float(p2[0]), float(y)))
            continue
        e0, e1 = row[j - 1], row[j]
        f = (math.log(level) - math.log(e0)) / (math.log(e1) - math.log(e0))
        x = math.exp(math.log(p2[j - 1]) + f * (math.log(p2[j]) - math.log(p2[j - 1])))
        points.append((x, float(y)))
    return points


def sweep_to_csv(result: SweepResult) -> str:
    lines = [result.axis1_name + "," + ",".join(repr(float(x)) for x in result.p2)]
    for y, row in zip(result.axis1, result.errors):
        lines.append(repr(float(y)) + "," + ",".join(repr(float(e)) for e in row))
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
