import itertools
import math

import pytest
from hypothesis import assume, given, strategies as st

from atomshuttle.architectures import (ArchitectureSpec, Variant, decompose_cz,
                                       gate_counts, load_arch_config,
                                       manhattan_path,
                                       neighbor_chain_decompose, one_way_case,
                                       read_key_values)
from atomshuttle.ir import ActionKind, GateKind, QubitRef, in_lattice
from atomshuttle.scheduler import plan_trajectories

EXPECTED_COUNTS = {
    (Variant.TWO_WAY_BELT, None): (2, 6, 0),
    (Variant.ONE_WAY_BELT, 1): (2, 3, 1),
    (Variant.ONE_WAY_BELT, 2): (4, 3, 2),
    (Variant.THROW_CATCH_THROW, None): (2, 3, 0),
    (Variant.SHUTTLE_AND_ROUTE, None): (2, 3, 0),
    (Variant.THROW_AND_MEASURE, None): (2, 2, 1),
}


def all_pairs(L):
    cells = list(itertools.product(range(L), range(L)))
    return itertools.combinations(cells, 2)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("L", [2, 3, 4])
def test_counts_match_table_for_every_pair(variant, L):
    arch = ArchitectureSpec(variant, L)
    for a, b in all_pairs(L):
        d = decompose_cz(arch, a, b)
        assert d.counts.as_tuple() == EXPECTED_COUNTS[(variant, d.case)]


def test_gate_counts_lookup():
    for (variant, case), expected in EXPECTED_COUNTS.items():
        assert gate_counts(variant, case).as_tuple() == expected
    with pytest.raises(ValueError):
        gate_counts(Variant.ONE_WAY_BELT)  # case is mandatory here


coords = st.tuples(st.integers(0, 7), st.integers(0, 7))


@given(coords, coords)
def test_one_way_case_is_symmetric(a, b):
    assert one_way_case(a, b) == one_way_case(b, a)


def test_one_way_case_examples():
    assert one_way_case((0, 0), (3, 3)) == 1
    assert one_way_case((0, 0), (0, 5)) == 1   # same row still dominates
    assert one_way_case((0, 3), (3, 0)) == 2
    assert one_way_case((2, 1), (1, 2)) == 2


@given(st.sampled_from(list(Variant)), coords, coords)
def test_decomposition_names_its_targets_by_role(variant, a, b):
    # `a` is target A, the first CZ's computational partner in every
    # protocol; on the one-way belt, B dominates A componentwise in case 1
    # and has the larger column in case 2
    assume(a != b)
    d = decompose_cz(ArchitectureSpec(variant, 8), a, b)
    assert {d.a, d.b} == {a, b}
    assert d.gates[0].operands[0] == QubitRef.comp(*d.a)
    if d.case == 1:
        assert d.b[0] >= d.a[0] and d.b[1] >= d.a[1]
    elif d.case == 2:
        assert d.a[1] < d.b[1]


def test_decompose_rejects_bad_pairs():
    arch = ArchitectureSpec(Variant.TWO_WAY_BELT, 4)
    with pytest.raises(ValueError):
        decompose_cz(arch, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        decompose_cz(arch, (0, 0), (4, 0))


def test_serial_and_bit_allocation_is_disjoint():
    arch = ArchitectureSpec(Variant.ONE_WAY_BELT, 8)
    d1 = decompose_cz(arch, (0, 0), (3, 3), serial_start=0, bit_start=0)
    d2 = decompose_cz(arch, (0, 3), (3, 0), serial_start=2, bit_start=1)
    assert set(d1.messengers).isdisjoint(d2.messengers)
    bits1 = {g.bit for g in d1.gates if g.bit is not None}
    bits2 = {g.bit for g in d2.gates if g.bit is not None}
    assert bits1.isdisjoint(bits2)


def test_two_way_uses_four_messengers_on_four_belts():
    arch = ArchitectureSpec(Variant.TWO_WAY_BELT, 8)
    d = decompose_cz(arch, (0, 0), (7, 7))
    assert len(d.messengers) == 4
    loads = [e for e in plan_trajectories(arch, d).events if e.action is ActionKind.LOAD]
    assert sorted(e.belt for e in loads) == [0, 1, 2, 3]


@given(coords, coords)
def test_manhattan_path_is_a_lattice_path(a, b):
    path = manhattan_path(a, b)
    assert path[0] == a and path[-1] == b
    for p, q in zip(path, path[1:]):
        assert abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1
    d = abs(a[0] - b[0]) + abs(a[1] - b[1])
    assert len(path) == d + 1


@given(coords, coords)
def test_chain_two_qubit_count_is_linear_in_distance(a, b):
    if a == b:
        return
    d = abs(a[0] - b[0]) + abs(a[1] - b[1])
    dec = neighbor_chain_decompose(8, a, b)
    assert dec.counts.n2 == 2 * (d - 1) + 1
    assert dec.counts.n2_cz == 1
    assert dec.variant is None


def test_chain_gates_are_swap_out_cz_swap_back():
    dec = neighbor_chain_decompose(4, (0, 0), (0, 3))
    kinds = [g.gate for g in dec.gates]
    assert kinds == [GateKind.SWAP, GateKind.SWAP, GateKind.CZ,
                     GateKind.SWAP, GateKind.SWAP]


def test_spec_validation():
    with pytest.raises(ValueError):
        ArchitectureSpec(Variant.TWO_WAY_BELT, 1)
    with pytest.raises(ValueError):
        ArchitectureSpec(Variant.TWO_WAY_BELT, 4, R=4e-6)       # R > a
    with pytest.raises(ValueError):
        ArchitectureSpec(Variant.TWO_WAY_BELT, 4, v=4.0)        # v > a/t2
    for field in ("a", "R", "v", "t2", "t1", "tr", "t_route", "t_turnaround"):
        for bad in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(ValueError, match=f"^{field}="):
                ArchitectureSpec(Variant.THROW_AND_MEASURE, 4, **{field: bad})
    assert in_lattice((3, 3), 4) and not in_lattice((4, 0), 4)
    assert not in_lattice((0, -1), 4)


def test_load_arch_config(tmp_path):
    p = tmp_path / "a.arch"
    p.write_text("variant = throw-and-measure\nL = 16\nv_mps = 2.5  # fast\n")
    arch = load_arch_config(str(p), p.read_text())
    assert arch.variant is Variant.THROW_AND_MEASURE
    assert arch.L == 16 and arch.v == 2.5
    p.write_text("variant = throw-and-measure\nL = 16\nbogus = 1\n")
    with pytest.raises(ValueError):
        load_arch_config(str(p), p.read_text())
    p.write_text("L = 16\n")
    with pytest.raises(ValueError):
        load_arch_config(str(p), p.read_text())
    p.write_text("variant = throw-and-measure\nL = 16\nR_m = 4e-6\n")
    with pytest.raises(ValueError, match=r"a\.arch: R_m=4e-06 exceeds the lattice spacing"):
        load_arch_config(str(p), p.read_text())


def test_read_key_values_rejects_a_repeated_key(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("L = 8  # first\n\nL = 4\n")
    with pytest.raises(ValueError,
                       match=r"a\.cfg:3: duplicate key 'L' \(first set on line 1\)$"):
        read_key_values(str(p), {"L": ("L", int)}, p.read_text())
    p.write_text("L = 8\nM = 4\n")
    assert read_key_values(str(p), {"L": ("L", int), "M": ("m", int)},
                           p.read_text()) == {"L": 8, "m": 4}
