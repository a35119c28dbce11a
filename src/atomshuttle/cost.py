"""Closed-form fidelity and timing budgets.

Per-logical-gate fidelity is the literal product of per-operation
fidelities weighted by the variant's gate counts; the nearest-neighbor
SWAP-chain baseline decays with qubit separation while every messenger
variant has a size-independent budget.  Error convention: p = 1 - F
everywhere, so sweep axes and reports are error probabilities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .architectures import (ArchitectureSpec, FieldError, GateCounts, Variant,
                            build_from_config, gate_counts, neighbor_chain_decompose,
                            read_key_values)
from .scheduler import makespan_estimate

CONTOUR_LEVEL = 1e-2
SWEEP_GRID_DEFAULT = np.logspace(-5, -1, 50)
PINNED_READOUT_ERROR = 3e-3       # fixed pr for the p1-p2 sweep
PINNED_SINGLE_QUBIT_ERROR = 5e-4  # fixed p1 for the pr-p2 sweep


@dataclass(frozen=True)
class CostParams:
    """Per-operation fidelities plus the baseline two-qubit error.

    `kappa` optionally makes shuttling distance-dependent:
    F_shuttle(d) = f_shuttle * exp(-kappa * d); the default kappa = 0
    keeps it a single per-logical-gate factor.
    """

    f1: float = 1.0
    f2_cz: float = 1.0
    f2_swap: float = 1.0
    fr: float = 1.0
    f_shuttle: float = 1.0
    p2_baseline: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        for name in ("f1", "f2_cz", "f2_swap", "fr", "f_shuttle"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise FieldError(name, v, "outside (0, 1]")
        if not 0.0 <= self.p2_baseline < 1.0:
            raise FieldError("p2_baseline", self.p2_baseline, "outside [0, 1)")
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise FieldError("kappa", self.kappa, "must be finite and nonnegative")

    @classmethod
    def from_errors(cls, p1=0.0, p2=0.0, pr=0.0, p_shuttle=0.0, **kw) -> "CostParams":
        return cls(f1=1.0 - p1, f2_cz=1.0 - p2, f2_swap=1.0 - p2,
                   fr=1.0 - pr, f_shuttle=1.0 - p_shuttle, **kw)


_COST_KEYS = {key: (key, float) for key in
              ("f1", "f2_cz", "f2_swap", "fr", "f_shuttle", "p2_baseline", "kappa")}


def load_cost_config(path: str | Path, text: str | None = None) -> CostParams:
    """Read a key=value cost config file (or its `text`, already read)."""
    return build_from_config(CostParams, path, _COST_KEYS,
                             read_key_values(path, _COST_KEYS, text))


@dataclass(frozen=True)
class FidelityReport:
    counts: GateCounts
    F: float
    error: float
    makespan: float | None = None

    def to_json(self) -> dict:
        return {"counts": {"n1": self.counts.n1, "n2_cz": self.counts.n2_cz,
                           "n2_swap": self.counts.n2_swap, "nr": self.counts.nr},
                "fidelity": self.F, "error": self.error, "makespan": self.makespan}


def logical_gate_fidelity(counts: GateCounts, params: CostParams,
                          distance: float = 0.0) -> FidelityReport:
    """Exact product fidelity for one logical gate with the given counts."""
    f_sh = params.f_shuttle * math.exp(-params.kappa * distance)
    F = (params.f2_cz ** counts.n2_cz
         * params.f2_swap ** counts.n2_swap
         * params.f1 ** counts.n1
         * params.fr ** counts.nr
         * f_sh)
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

@dataclass(frozen=True)
class SweepResult:
    axis1_name: str          # "p1" or "pr"
    axis1: np.ndarray        # rows
    p2: np.ndarray           # columns
    errors: np.ndarray       # shape (len(axis1), len(p2)), values 1 - F
    contour: list[tuple[float, float]]  # (p2, axis1) points on the 1e-2 level


def error_budget_sweep(variant: Variant, axis1_name: str,
                       axis1: np.ndarray | None = None,
                       p2: np.ndarray | None = None,
                       fixed: CostParams | None = None,
                       case: int | None = None) -> SweepResult:
    """Grid of logical errors over (p1 or pr) x p2 with F_shuttle = 1.

    CZ and SWAP errors are taken equal (both 1 - p2).  The axis not being
    swept is pinned to its conventional value: readout error 3e-3 when
    sweeping p1, single-qubit error 5e-4 when sweeping pr.
    """
    if axis1_name not in ("p1", "pr"):
        raise ValueError("axis1 must be 'p1' or 'pr'")
    axis1 = SWEEP_GRID_DEFAULT if axis1 is None else np.asarray(axis1, dtype=float)
    p2 = SWEEP_GRID_DEFAULT if p2 is None else np.asarray(p2, dtype=float)
    for ax in (axis1, p2):
        if np.any(np.diff(ax) <= 0) or ax[0] <= 0 or ax[-1] >= 1:
            raise ValueError("sweep axes must be strictly increasing within (0, 1)")

    if axis1_name == "p1":
        p1_fixed, pr_fixed = None, PINNED_READOUT_ERROR
    else:
        p1_fixed, pr_fixed = PINNED_SINGLE_QUBIT_ERROR, None
    if fixed is not None:
        if fixed.f1 < 1.0:
            p1_fixed = 1.0 - fixed.f1
        if fixed.fr < 1.0:
            pr_fixed = 1.0 - fixed.fr

    counts = gate_counts(variant, case)
    f2 = 1.0 - p2                       # shape (n2cols,)
    f2_pow = f2 ** (counts.n2_cz + counts.n2_swap)
    if axis1_name == "p1":
        f1_pow = (1.0 - axis1) ** counts.n1        # rows
        fr_pow = (1.0 - pr_fixed) ** counts.nr     # scalar
        F = np.outer(f1_pow, f2_pow) * fr_pow
    else:
        fr_pow = (1.0 - axis1) ** counts.nr        # rows
        f1_pow = (1.0 - p1_fixed) ** counts.n1     # scalar
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

@dataclass(frozen=True)
class ComparisonRow:
    variant: Variant
    case: int | None
    report: FidelityReport

    def to_json(self) -> dict:
        obj = self.report.to_json()
        obj["variant"] = self.variant.value
        obj["case"] = self.case
        return obj


def architecture_comparison(params: CostParams, L: int,
                            pair: tuple | None = None) -> list[ComparisonRow]:
    """Per-variant fidelity and makespan for one pair, best error first.

    Ties on error break by makespan.  Default pair is corner-to-corner,
    the worst case for the baseline and a neutral one for messengers.
    """
    if pair is None:
        pair = ((0, 0), (L - 1, L - 1))
    rows = []
    for variant in Variant:
        cases = (1, 2) if variant is Variant.ONE_WAY_BELT else (None,)
        for case in cases:
            counts = gate_counts(variant, case)
            rep = logical_gate_fidelity(counts, params)
            arch = ArchitectureSpec(variant, L)
            # the anti-diagonal pair is the case-2 representative at equal distance
            mk_pair = ((0, L - 1), (L - 1, 0)) if case == 2 else pair
            mk = makespan_estimate(arch, mk_pair)
            rows.append(ComparisonRow(variant, case,
                                      replace(rep, makespan=mk)))
    rows.sort(key=lambda r: (r.report.error, r.report.makespan, r.variant.value))
    return rows
