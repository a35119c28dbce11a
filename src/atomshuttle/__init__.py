"""Compiler, verifier, scheduler and cost model for messenger-qubit
atom-array architectures.

The names from `cost` and `oracle` load on first use (PEP 562), so a
command that only compiles or schedules never imports numpy.
"""

import importlib

__version__ = "0.1.0"

from .architectures import (ArchitectureSpec, Decomposition, GateCounts,
                            Variant, decompose_cz, gate_counts,
                            load_arch_config, neighbor_chain_decompose,
                            one_way_case)
from .ir import (GateKind, GateStep, LogicalCircuit, LogicalCZ, Logical1Q,
                 ParseError, PhysicalEvent, QubitRef, parse_program,
                 render_program)
from .scheduler import (InfeasibleError, ScheduledProgram, TrajectorySegment,
                        check_conflicts, plan_trajectories, schedule)

# name -> the submodule that defines it, imported when the name is first read
_LAZY = {
    **dict.fromkeys(("CostParams", "FidelityReport", "architecture_comparison",
                     "error_budget_sweep", "load_cost_config",
                     "logical_gate_fidelity", "neighbor_chain_fidelity"), "cost"),
    **dict.fromkeys(("branch_execute", "verify_logical_cz", "verify_sequence"), "oracle"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "ArchitectureSpec", "CostParams", "Decomposition", "FidelityReport",
    "GateCounts", "GateKind", "GateStep", "InfeasibleError", "Logical1Q",
    "LogicalCZ", "LogicalCircuit", "ParseError", "PhysicalEvent", "QubitRef",
    "ScheduledProgram", "TrajectorySegment", "Variant",
    "architecture_comparison", "branch_execute", "check_conflicts",
    "decompose_cz", "error_budget_sweep", "gate_counts", "load_arch_config",
    "load_cost_config", "logical_gate_fidelity", "neighbor_chain_decompose",
    "neighbor_chain_fidelity", "one_way_case", "parse_program",
    "plan_trajectories", "render_program", "schedule", "verify_logical_cz",
    "verify_sequence",
]
