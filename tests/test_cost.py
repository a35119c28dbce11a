import math

import pytest
from hypothesis import given, strategies as st

from atomshuttle.architectures import (ArchitectureSpec, Variant, decompose_cz,
                                       gate_counts, neighbor_chain_decompose)
from atomshuttle.cost import (SWEEP_GRID_DEFAULT, CostParams, _level_contour,
                              architecture_comparison, contour_to_csv,
                              error_budget_sweep, load_cost_config,
                              logical_gate_fidelity, neighbor_chain_fidelity,
                              sweep_to_csv)
from atomshuttle.scheduler import plan_trajectories


def chain_fidelity(L, a, b, p2):
    """The exact budget of the compiled SWAP chain from `a` to `b`."""
    counts = neighbor_chain_decompose(L, a, b).counts
    return logical_gate_fidelity(counts, CostParams.from_errors(p2=p2)).F


def test_zero_error_gives_unit_fidelity():
    params = CostParams()
    for variant in Variant:
        cases = (1, 2) if variant is Variant.ONE_WAY_BELT else (None,)
        for case in cases:
            assert logical_gate_fidelity(gate_counts(variant, case), params).F == 1.0


def test_fidelity_is_the_literal_product():
    params = CostParams(f1=0.99, f2_cz=0.98, f2_swap=0.97, fr=0.96,
                        f_shuttle=0.95)
    rep = logical_gate_fidelity(gate_counts(Variant.ONE_WAY_BELT, 1), params)
    assert rep.F == 0.98 ** 2 * 0.97 * 0.99 ** 2 * 0.96 * 0.95
    assert rep.error == 1.0 - rep.F


def test_two_way_spot_value():
    params = CostParams.from_errors(p1=5e-4, p2=1e-3)
    rep = logical_gate_fidelity(gate_counts(Variant.TWO_WAY_BELT), params)
    assert rep.F == (1 - 1e-3) ** 6 * (1 - 5e-4) ** 2
    assert rep.F == pytest.approx(0.993021, abs=1e-6)


def test_throw_and_measure_spot_value():
    params = CostParams.from_errors(p1=5e-4, p2=1e-3, pr=3e-3)
    rep = logical_gate_fidelity(gate_counts(Variant.THROW_AND_MEASURE), params)
    assert rep.F == 0.999 ** 2 * 0.9995 ** 2 * 0.997
    assert rep.F == pytest.approx(0.994012, abs=1e-6)


errors = st.floats(min_value=0.0, max_value=0.5)


@given(errors, errors, errors, st.sampled_from(list(Variant)))
def test_fidelity_monotone_in_each_error(p1, p2, pr, variant):
    case = 1 if variant is Variant.ONE_WAY_BELT else None
    counts = gate_counts(variant, case)
    base = logical_gate_fidelity(counts, CostParams.from_errors(p1, p2, pr)).F
    for bump in (
        CostParams.from_errors(p1 + 0.1, p2, pr),
        CostParams.from_errors(p1, p2 + 0.1, pr),
        CostParams.from_errors(p1, p2, pr + 0.1),
    ):
        assert logical_gate_fidelity(counts, bump).F <= base + 1e-15


def test_neighbor_chain_forms_and_agreement():
    assert neighbor_chain_fidelity(100, 0.0) == 1.0
    assert neighbor_chain_fidelity(100, 1e-3) == pytest.approx(math.exp(-0.1))
    # the asymptotic form, at L = n2, and the compiled chain's exact budget
    # agree within 5% while p2 * n2 <= 0.2
    for d in (6, 26, 100):
        n2 = neighbor_chain_decompose(d + 1, (0, 0), (0, d)).counts.n2
        p2 = 0.2 / n2
        asym = neighbor_chain_fidelity(n2, p2)
        exact = chain_fidelity(d + 1, (0, 0), (0, d), p2)
        assert abs(asym - exact) / exact < 0.05


@pytest.mark.parametrize("p2", [-1e-3, 1.0, 1.5])
@pytest.mark.parametrize("exact", [False, True])
def test_neighbor_chain_fidelity_rejects_p2_outside_the_unit_interval(p2, exact):
    # the exact budget rejects it through the two-qubit fidelity 1 - p2
    if exact:
        with pytest.raises(ValueError, match=rf"^f2_cz={1 - p2} outside \(0, 1\]$"):
            chain_fidelity(4, (0, 0), (3, 3), p2)
    else:
        with pytest.raises(ValueError, match=rf"^p2={p2} outside \[0, 1\)$"):
            neighbor_chain_fidelity(10, p2)


def test_exact_chain_fidelity_uses_compiled_count():
    # corner-to-corner on L=4: d=6, n2=11
    assert chain_fidelity(4, (0, 0), (3, 3), 1e-3) == pytest.approx((1 - 1e-3) ** 11)


def test_sweep_grid_and_fixed_values():
    res = error_budget_sweep(Variant.TWO_WAY_BELT, "p1")
    assert len(res.errors) == 50 and {len(row) for row in res.errors} == {50}
    # 50 log-spaced errors from 1e-5 to 1e-1 on both axes
    grid = res.axis1
    assert grid[0] == 1e-5 and grid[-1] == 1e-1
    assert [b / a for a, b in zip(grid, grid[1:])] == pytest.approx([10 ** (4 / 49)] * 49,
                                                                    rel=1e-12)
    # pointwise against the closed form with pr pinned to 3e-3 (unused here)
    i, j = 17, 31
    p1, p2 = res.axis1[i], res.p2[j]
    assert res.errors[i][j] == pytest.approx(
        1 - (1 - p2) ** 6 * (1 - p1) ** 2, rel=1e-12)


def test_sweep_readout_axis_pins_single_qubit_error():
    res = error_budget_sweep(Variant.THROW_AND_MEASURE, "pr")
    i, j = 5, 40
    pr, p2 = res.axis1[i], res.p2[j]
    assert res.errors[i][j] == pytest.approx(
        1 - (1 - p2) ** 2 * (1 - 5e-4) ** 2 * (1 - pr), rel=1e-12)


def test_no_measurement_variant_ignores_readout_axis_only_via_nr():
    res = error_budget_sweep(Variant.THROW_CATCH_THROW, "pr")
    # nr = 0: every row identical
    assert all(row == res.errors[0] for row in res.errors)


def test_throw_catch_throw_and_shuttle_route_sweeps_coincide():
    r1 = error_budget_sweep(Variant.THROW_CATCH_THROW, "p1")
    r2 = error_budget_sweep(Variant.SHUTTLE_AND_ROUTE, "p1")
    assert r1.errors == r2.errors


@pytest.mark.parametrize("axis", ["p1", "pr"])
@pytest.mark.parametrize("variant, case", [
    pytest.param(v, c, id=f"{v.value}-{c}") for v in Variant
    for c in ((1, 2) if v is Variant.ONE_WAY_BELT else (None,))])
def test_every_sweep_cell_is_the_gate_budget_at_its_error_rates(variant, case, axis):
    # the axis not swept is pinned: pr = 3e-3 when sweeping p1, p1 = 5e-4
    # when sweeping pr
    res = error_budget_sweep(variant, axis, case)
    counts = gate_counts(variant, case)
    assert res.axis1 == res.p2 == SWEEP_GRID_DEFAULT
    for y, row in zip(res.axis1, res.errors, strict=True):
        rates = {"p1": y, "pr": 3e-3} if axis == "p1" else {"p1": 5e-4, "pr": y}
        assert [repr(e) for e in row] == [
            repr(logical_gate_fidelity(counts, CostParams.from_errors(p2=p2, **rates)).error)
            for p2 in res.p2]


def test_contour_points_sit_on_the_level():
    res = error_budget_sweep(Variant.TWO_WAY_BELT, "p1")
    assert res.contour
    for p2, p1 in res.contour:
        err = 1 - (1 - p2) ** 6 * (1 - p1) ** 2 * (1 - 3e-3) ** 0
        assert err == pytest.approx(1e-2, rel=0.05)  # log-interp on the grid


def test_a_row_that_starts_on_the_level_crosses_it_at_its_first_column():
    p2 = (1e-4, 1e-3, 1e-2)
    errors = ((1e-2, 2e-2, 3e-2),    # on the level at its first column
              (2e-2, 3e-2, 4e-2),    # above it throughout
              (1e-3, 1e-2, 2e-2))    # on it at its middle column
    assert _level_contour([5e-4, 6e-4, 7e-4], p2, errors, 1e-2) == \
        [(1e-4, 5e-4), (pytest.approx(1e-3, rel=1e-12), 7e-4)]


def test_sweep_rejects_bad_axes():
    with pytest.raises(ValueError):
        error_budget_sweep(Variant.TWO_WAY_BELT, "p3")


def test_sweep_csv_round_shape():
    res = error_budget_sweep(Variant.ONE_WAY_BELT, "p1", case=2)
    csv = sweep_to_csv(res)
    lines = csv.strip().splitlines()
    assert len(lines) == 51 and lines[0].startswith("p1,")
    contour = contour_to_csv(res).strip().splitlines()
    assert contour[0] == "x,y"


def test_comparison_rankings():
    # equal gate fidelities, perfect readout: fewest gates wins
    rows = architecture_comparison(CostParams.from_errors(p1=1e-3, p2=1e-3), 8)
    assert rows[0].variant is Variant.THROW_AND_MEASURE
    # poor readout: measurement-free variants outrank measurement ones
    rows = architecture_comparison(
        CostParams(f1=0.9999, f2_cz=0.9999, f2_swap=0.9999, fr=0.9), 8)
    measured = {Variant.ONE_WAY_BELT, Variant.THROW_AND_MEASURE}
    first_measured = min(i for i, r in enumerate(rows) if r.variant in measured)
    last_free = max(i for i, r in enumerate(rows) if r.variant not in measured)
    assert last_free < first_measured
    # identical params: the two flight/route variants tie on error
    rows = architecture_comparison(CostParams.from_errors(p1=1e-3, p2=1e-3, pr=1e-3), 8)
    by_var = {r.variant: r.report.error for r in rows}
    assert by_var[Variant.THROW_CATCH_THROW] == by_var[Variant.SHUTTLE_AND_ROUTE]


@pytest.mark.parametrize("L", [2, 8, 16])
def test_comparison_rows_are_compiled_gates(L):
    # each row is one compiled CZ: the corner pair, plus the anti-diagonal
    # for the one-way belt's case 2
    params = CostParams.from_errors(p1=5e-4, p2=1e-3, pr=3e-3)
    rows = architecture_comparison(params, L)
    assert sorted((r.variant.value, r.case or 0) for r in rows) == sorted(
        [(v.value, 0) for v in Variant if v is not Variant.ONE_WAY_BELT]
        + [(Variant.ONE_WAY_BELT.value, 1), (Variant.ONE_WAY_BELT.value, 2)])
    for row in rows:
        arch = ArchitectureSpec(row.variant, L)
        pair = ((0, L - 1), (L - 1, 0)) if row.case == 2 else ((0, 0), (L - 1, L - 1))
        d = decompose_cz(arch, *pair)
        assert d.case == row.case
        assert row.report.counts == d.counts
        assert row.report.F == logical_gate_fidelity(d.counts, params).F
        assert row.report.makespan == plan_trajectories(arch, d).makespan


def test_size_independence_of_messenger_fidelity():
    params = CostParams.from_errors(p1=5e-4, p2=1e-3, pr=3e-3)
    for variant in Variant:
        case = 1 if variant is Variant.ONE_WAY_BELT else None
        counts = gate_counts(variant, case)
        # counts (hence F) do not depend on the pair at all
        assert logical_gate_fidelity(counts, params).F == \
            logical_gate_fidelity(gate_counts(variant, case), params).F
    # ... while the baseline decays with distance
    assert chain_fidelity(8, (0, 0), (7, 7), 1e-3) < chain_fidelity(8, (0, 0), (0, 1), 1e-3)


def test_params_validation_and_config(tmp_path):
    with pytest.raises(ValueError):
        CostParams(f1=0.0)
    for bad in (math.nan, math.inf, 1.5):
        with pytest.raises(ValueError, match="f_shuttle"):
            CostParams(f_shuttle=bad)
    p = tmp_path / "c.cost"
    p.write_text("f1 = 0.9995\nf2_cz = 0.999\nf2_swap = 0.999\nfr = 0.997\n")
    params = load_cost_config(str(p), p.read_text())
    assert params.f1 == 0.9995 and params.fr == 0.997
    for key in ("nope", "kappa", "p2_baseline"):
        p.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            load_cost_config(str(p), p.read_text())
