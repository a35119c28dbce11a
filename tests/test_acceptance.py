"""Acceptance gate: one test per release criterion, one pass/fail line each.

Expected numeric values are frozen from independent high-precision
arithmetic of the closed-form budget formulas, not from running the code
under test.
"""
import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from atomshuttle.architectures import (ArchitectureSpec, Variant, decompose_cz,
                                       gate_counts, neighbor_chain_decompose,
                                       one_way_case)
from atomshuttle.cli import main as cli_main
from atomshuttle.cost import (CostParams, error_budget_sweep,
                              logical_gate_fidelity, neighbor_chain_fidelity)
from atomshuttle.ir import GateKind, Logical1Q, LogicalCZ, LogicalCircuit
from atomshuttle.oracle import verify_logical_cz
from atomshuttle.scheduler import check_conflicts, plan_trajectories, schedule

# Frozen expected values (exact arithmetic, computed independently):
#   1 - 0.999^6 * 0.9995^2        = 6.97879e-3
#   1 - 0.999^2 * 0.9995^2 * 0.997 = 5.98776e-3
#   exp(-0.1)                      = 0.9048374
#   0.999^195                      = 0.8227544
TWO_WAY_ERROR = 6.97879e-3
THROW_MEASURE_ERROR = 5.98776e-3
BASELINE_ASYMPTOTIC = 0.9048374
BASELINE_EXACT_195 = 0.8227544


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


def all_pairs(L):
    cells = list(itertools.product(range(L), range(L)))
    return list(itertools.combinations(cells, 2))


TABLE_ROWS = {
    (Variant.TWO_WAY_BELT, None): (2, 6, 0),
    (Variant.ONE_WAY_BELT, 1): (2, 3, 1),
    (Variant.ONE_WAY_BELT, 2): (4, 3, 2),
    (Variant.THROW_CATCH_THROW, None): (2, 3, 0),
    (Variant.SHUTTLE_AND_ROUTE, None): (2, 3, 0),
    (Variant.THROW_AND_MEASURE, None): (2, 2, 1),
}


def test_criterion_1_gate_count_table():
    with criterion(1, "per-variant gate counts (n1, n2, nr) exact for all "
                      "pairs on L in {2, 3, 4}"):
        for (variant, case), expected in TABLE_ROWS.items():
            assert gate_counts(variant, case).as_tuple() == expected
        for L in (2, 3, 4):
            for variant in Variant:
                arch = ArchitectureSpec(variant, L)
                for a, b in all_pairs(L):
                    d = decompose_cz(arch, a, b)
                    assert d.counts.as_tuple() == TABLE_ROWS[(variant, d.case)], \
                        (variant, a, b)


def test_criterion_2_oracle_correctness():
    with criterion(2, "every measurement branch of every compiled protocol "
                      "implements CZ with disentangled messengers"):
        for variant in Variant:
            arch = ArchitectureSpec(variant, 4)
            for a, b in all_pairs(4):
                records = verify_logical_cz(arch, a, b)
                assert all(r.ok for r in records), \
                    (variant, a, b, [r for r in records if not r.ok][:1])
                for r in records:
                    assert r.fidelity >= 1 - 1e-10
                    assert r.min_messenger_purity >= 1 - 1e-10
            arch8 = ArchitectureSpec(variant, 8)
            assert all(r.ok for r in verify_logical_cz(arch8, (0, 0), (7, 7)))


def test_criterion_3_fidelity_spot_values():
    with criterion(3, "closed-form logical errors match frozen arithmetic "
                      "at p2=1e-3, p1=5e-4, pr=3e-3"):
        params = CostParams.from_errors(p1=5e-4, p2=1e-3, pr=3e-3)
        rep = logical_gate_fidelity(gate_counts(Variant.TWO_WAY_BELT), params)
        assert rep.error == pytest.approx(TWO_WAY_ERROR, abs=1e-5)
        rep = logical_gate_fidelity(gate_counts(Variant.THROW_AND_MEASURE), params)
        assert rep.error == pytest.approx(THROW_MEASURE_ERROR, abs=1e-5)


def test_criterion_4_flight_and_route_budgets_coincide():
    with criterion(4, "throw-catch-throw and shuttle-and-route sweep matrices "
                      "are elementwise identical"):
        for axis in ("p1", "pr"):
            r1 = error_budget_sweep(Variant.THROW_CATCH_THROW, axis)
            r2 = error_budget_sweep(Variant.SHUTTLE_AND_ROUTE, axis)
            assert r1.errors == r2.errors


def test_criterion_5_baseline_decay_vs_size_independence():
    with criterion(5, "SWAP-chain fidelity decays with distance; messenger "
                      "budgets do not"):
        assert neighbor_chain_fidelity(100, 1e-3) == \
            pytest.approx(BASELINE_ASYMPTOTIC, abs=1e-4)
        d = neighbor_chain_decompose(50, (0, 0), (49, 49))
        assert d.counts.n2 == 195
        assert logical_gate_fidelity(d.counts, CostParams.from_errors(p2=1e-3)).F == \
            pytest.approx(BASELINE_EXACT_195, abs=1e-4)
        params = CostParams.from_errors(p1=5e-4, p2=1e-3, pr=3e-3)
        for variant in Variant:
            arch = ArchitectureSpec(variant, 8)
            near = decompose_cz(arch, (0, 0), (0, 1))
            far = decompose_cz(arch, (0, 0), (7, 7))
            if variant is Variant.ONE_WAY_BELT:
                assert near.case == far.case == 1
            assert logical_gate_fidelity(near.counts, params).F == \
                logical_gate_fidelity(far.counts, params).F


# cells of transport per unit L for the corner-to-corner pair
_SLOPE_CELLS = {
    Variant.TWO_WAY_BELT: 4.0,
    Variant.ONE_WAY_BELT: 2.0,
    Variant.THROW_CATCH_THROW: 2.0 * math.sqrt(2.0),
    Variant.SHUTTLE_AND_ROUTE: 4.0,
    Variant.THROW_AND_MEASURE: math.sqrt(2.0),
}


def test_criterion_6_makespan_scaling():
    with criterion(6, "makespan grows linearly in L at the speed limit, "
                      "measurement variants adding tr + t1 as intercept"):
        Ls = [8, 16, 32, 64]
        for variant in Variant:
            makespans, baseline = [], []
            for L in Ls:
                arch = ArchitectureSpec(variant, L, v=3.0)  # v = a / t2
                pair = ((0, 0), (L - 1, L - 1))
                prog = plan_trajectories(arch, decompose_cz(arch, *pair))
                makespans.append(prog.makespan)
                # same geometry with negligible measurement times isolates
                # the readout contribution to the intercept
                arch0 = ArchitectureSpec(variant, L, v=3.0, t1=1e-13, tr=1e-12)
                prog0 = plan_trajectories(arch0, decompose_cz(arch0, *pair))
                baseline.append(prog0.makespan)
            slope, intercept = np.polyfit(Ls, makespans, 1)
            expected = _SLOPE_CELLS[variant] * arch.t2
            assert abs(slope - expected) <= 0.2 * expected, variant
            if variant in (Variant.ONE_WAY_BELT, Variant.THROW_AND_MEASURE):
                _, intercept0 = np.polyfit(Ls, baseline, 1)
                readout_part = intercept - intercept0
                expected_part = arch.tr + arch.t1
                assert abs(readout_part - expected_part) <= 0.25 * expected_part, \
                    variant


def _random_circuit(rng, L, max_gates=20):
    n = int(rng.integers(1, max_gates + 1))
    ops = []
    for _ in range(n):
        if rng.random() < 0.8:
            while True:
                a = tuple(int(x) for x in rng.integers(0, L, 2))
                b = tuple(int(x) for x in rng.integers(0, L, 2))
                if a != b:
                    break
            ops.append(LogicalCZ(a, b))
        else:
            gate = (GateKind.H, GateKind.Z, GateKind.X)[int(rng.integers(0, 3))]
            ops.append(Logical1Q(gate, tuple(int(x) for x in rng.integers(0, L, 2))))
    return LogicalCircuit(L, tuple(ops))


def test_criterion_7_scheduler_safety():
    with criterion(7, "500 seeded random circuits per variant schedule with "
                      "no blockade/exclusion/lifecycle/qubit-overlap/"
                      "presence violations"):
        for variant in Variant:
            arch = ArchitectureSpec(variant, 8)
            rng = np.random.default_rng(20240800 + ord(variant.value[0]))
            for _ in range(500):
                circuit = _random_circuit(rng, 8)
                prog = schedule(circuit, arch)
                violations = check_conflicts(prog, arch)
                assert violations == [], (variant, violations[0].message)


MEASUREMENT_CASES = [
    (Variant.ONE_WAY_BELT, ((0, 0), (3, 3))),   # case 1
    (Variant.ONE_WAY_BELT, ((0, 3), (3, 0))),   # case 2
    (Variant.THROW_AND_MEASURE, ((0, 0), (3, 3))),
]


def test_criterion_8_mutation_sensitivity(tmp_path):
    with criterion(8, "dropping the final conditioned correction breaks at "
                      "least one branch and verify exits 4"):
        for variant, (a, b) in MEASUREMENT_CASES:
            assert one_way_case(a, b) in (1, 2)
            arch = ArchitectureSpec(variant, 4)
            records = verify_logical_cz(arch, a, b, drop_final_correction=True)
            assert not all(r.ok for r in records)
            assert min(r.fidelity for r in records) <= 0.5

            cfg = tmp_path / f"{variant.value}.arch"
            cfg.write_text(f"variant = {variant.value}\nL = 4\n")
            code = cli_main(["verify", "--arch", str(cfg),
                             "--pair", f"{a[0]},{a[1]},{b[0]},{b[1]}",
                             "--drop-final-correction",
                             "--out", str(tmp_path / "out")])
            assert code == 4
