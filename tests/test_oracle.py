import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomshuttle.architectures import ArchitectureSpec, Variant, decompose_cz
from atomshuttle.ir import GateKind, GateStep, QubitRef
from atomshuttle.oracle import (CZ_2Q, FIDELITY_THRESHOLD, KET_0, KET_1, KET_PLUS, NORM_ABORT,
                                PURITY_THRESHOLD, STACK_INPUTS, STANDARD_INPUTS,
                                NothingToDropError, NumericalInstabilityError,
                                PureState, VerificationRecord, _1Q_MATRICES, _apply_1q,
                                _apply_2q, _branches, _norms_squared, _reduced,
                                branch_execute, haar_random_two_qubit_inputs, purity,
                                records_to_jsonl, reduced_density, verify_logical_cz,
                                verify_sequence)

A = QubitRef.comp(0, 0)
B = QubitRef.comp(0, 1)
M = QubitRef.mess(0)


def product_state(qubits, kets) -> PureState:
    amps = np.array([1.0 + 0j])
    for k in kets:
        amps = np.kron(amps, k)
    return PureState(amps, tuple(qubits))


def run_unitary(steps, state: PureState) -> PureState:
    """`state` after `steps` with no measurement: their one branch."""
    [branch] = branch_execute(steps, state)
    assert branch.outcomes == {} and branch.probability == pytest.approx(1.0)
    return branch.state


def test_a_qubit_outside_the_state_raises():
    state = product_state([A, B], [KET_0, KET_PLUS])
    with pytest.raises(KeyError):
        reduced_density(state, [M])
    with pytest.raises(KeyError):
        branch_execute([GateStep(GateKind.H, (M,))], state)


def test_unitary_steps_match_dense_matrices():
    rng = np.random.default_rng(7)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    state = PureState(v.copy(), (A, B))

    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    for step, matrix in ((GateStep(GateKind.H, (A,)), np.kron(h, np.eye(2))),
                         (GateStep(GateKind.CZ, (A, B)), CZ_2Q),
                         (GateStep(GateKind.SWAP, (A, B)), swap)):
        np.testing.assert_allclose(run_unitary([step], state).amplitudes, matrix @ v,
                                   atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.sampled_from([GateKind.H, GateKind.Z, GateKind.X,
                                           GateKind.CZ, GateKind.SWAP]),
                          st.integers(0, 2), st.integers(0, 2)),
                max_size=50),
       st.integers(0, 2 ** 31 - 1))
def test_random_gate_words_preserve_norm(word, seed):
    qs = (QubitRef.comp(0, 0), QubitRef.comp(0, 1), QubitRef.comp(0, 2))
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    steps = [GateStep(gate, (qs[i], qs[j]) if gate.is_two_qubit else (qs[i],))
             for gate, i, j in word if not (gate.is_two_qubit and i == j)]
    state = run_unitary(steps, PureState(v / np.linalg.norm(v), qs))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9


def test_branch_execute_enumerates_both_outcomes():
    steps = [GateStep(GateKind.MEASURE_X, (M,), bit=0)]
    init = product_state([M], [KET_0])  # |0> = (|+> + |->)/sqrt(2)
    branches = branch_execute(steps, init)
    assert [(b.outcomes[0], round(b.probability, 12)) for b in branches] == \
        [(0, 0.5), (1, 0.5)]


def test_branch_execute_prunes_impossible_outcome():
    steps = [GateStep(GateKind.MEASURE_X, (M,), bit=0)]
    init = product_state([M], [KET_PLUS])
    branches = branch_execute(steps, init)
    assert len(branches) == 1 and branches[0].outcomes == {0: 0}


def test_branch_execute_is_deterministic():
    steps = [GateStep(GateKind.H, (M,)),
             GateStep(GateKind.MEASURE_X, (M,), bit=0),
             GateStep(GateKind.COND_Z, (A,), bit=0)]
    init = product_state([A, M], [KET_PLUS, KET_0])
    first = branch_execute(steps, init)
    second = branch_execute(steps, init)
    assert [b.outcomes for b in first] == [b.outcomes for b in second]
    for x, y in zip(first, second):
        np.testing.assert_array_equal(x.state.amplitudes, y.state.amplitudes)


def test_conditional_on_unwritten_bit_raises():
    steps = [GateStep(GateKind.COND_Z, (A,), bit=5)]
    with pytest.raises(ValueError):
        branch_execute(steps, product_state([A], [KET_0]))


def test_reduced_density_and_purity():
    # Bell state: each marginal is maximally mixed
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = reduced_density(PureState(v, (A, B)), [A])
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)
    assert purity(rho) == pytest.approx(0.5)
    prod = product_state([A, B], [KET_PLUS, KET_0])
    assert purity(reduced_density(prod, [A])) == pytest.approx(1.0)


def test_a_global_phase_on_the_input_leaves_the_fidelity_unchanged():
    d = decompose_cz(ArchitectureSpec(Variant.THROW_AND_MEASURE, 4), (0, 0), (3, 3))
    v = haar_random_two_qubit_inputs(1, seed=3)["haar0"]
    inputs = {"11": np.kron(KET_1, KET_1), "-i 11": -1j * np.kron(KET_1, KET_1),
              "v": v, "phased v": np.exp(0.7j) * v}
    records = verify_sequence(list(d.gates), (0, 0), (3, 3), list(d.messengers),
                              two_qubit_inputs=inputs)
    by_label = {label: [r for r in records if r.input_label == label] for label in inputs}
    for plain, phased in (("11", "-i 11"), ("v", "phased v")):
        assert len(by_label[plain]) == len(by_label[phased]) == 2
        for r, q in zip(by_label[plain], by_label[phased]):
            assert r.outcomes == q.outcomes and q.ok
            assert q.fidelity == pytest.approx(r.fidelity, abs=1e-14)
            assert q.fidelity == pytest.approx(1.0)


@pytest.mark.parametrize("variant", list(Variant))
def test_compiled_protocols_implement_cz(variant):
    arch = ArchitectureSpec(variant, 4)
    records = verify_logical_cz(arch, (0, 0), (3, 3))
    assert all(r.ok for r in records), [r for r in records if not r.ok][:3]


@pytest.mark.parametrize("variant", list(Variant))
def test_haar_random_inputs_spot_check(variant):
    from atomshuttle.architectures import decompose_cz
    arch = ArchitectureSpec(variant, 4)
    d = decompose_cz(arch, (1, 0), (2, 3))
    records = verify_sequence(list(d.gates), (1, 0), (2, 3), list(d.messengers),
                              two_qubit_inputs=haar_random_two_qubit_inputs(20, seed=1))
    assert all(r.ok for r in records)
    assert all(r.fidelity >= 1 - 1e-10 for r in records)


def test_a_bare_cz_verifies_with_no_messenger():
    # no messenger to trace out: every record's purity is 1.0 exactly
    records = verify_sequence([GateStep(GateKind.CZ, (A, B))], (0, 0), (0, 1), [])
    assert [r.input_label for r in records] == list(STANDARD_INPUTS)
    assert all(r.ok and r.outcomes == () and r.min_messenger_purity == 1.0 for r in records)
    assert all(r.fidelity == pytest.approx(1.0) and r.probability == pytest.approx(1.0)
               for r in records)


def test_verification_catches_a_wrong_protocol():
    # SWAP instead of CZ: entangles nothing correctly
    steps = [GateStep(GateKind.SWAP, (A, M)),
             GateStep(GateKind.SWAP, (M, B))]
    records = verify_sequence(steps, (0, 0), (0, 1), [0])
    assert not all(r.ok for r in records)


def test_state_rejects_a_repeated_qubit():
    with pytest.raises(ValueError):
        PureState(np.array([1, 0, 0, 0], dtype=complex), (A, A))


@pytest.mark.parametrize("length", [1, 2, 3, 8])
def test_state_rejects_an_amplitude_count_that_is_not_two_to_the_qubits(length):
    with pytest.raises(ValueError, match="^amplitude length does not match qubit count$"):
        PureState(np.eye(1, length, dtype=complex)[0], (A, B))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
       st.sampled_from([GateKind.H, GateKind.Z, GateKind.X]),
       st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
def test_1q_kernel_has_the_bits_of_tensordot(nq, gate, seed, k):
    # the kernel is np.tensordot + np.moveaxis minus their axis handling, on
    # k rows at once; each row gets the bits tensordot gives it alone.  A
    # one-qubit row alone is a matrix-vector product, which BLAS may round
    # unlike the matrix product of a stack, so one-qubit stacks are not
    # claimed (every register the oracle verifies has at least two qubits).
    n, q = nq
    k = 1 if n == 1 else k
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(k, 2 ** n)) + 1j * rng.normal(size=(k, 2 ** n))
    mat = _1Q_MATRICES[gate]
    out = _apply_1q(amps, mat, q, n)
    assert out.shape == amps.shape
    for row, psi in zip(out, amps):
        reference = np.moveaxis(np.tensordot(mat, psi.reshape([2] * n), axes=([1], [q])),
                                0, q).reshape(-1)
        assert row.tobytes() == reference.tobytes()


AB_AXIS = {A: 0, B: 1}


def test_norm_drift_in_one_row_of_a_stack_raises():
    rows = np.tile(np.array([1, 0, 0, 0], dtype=complex), (3, 1))
    rows[1] *= 1 + 1e-6
    with pytest.raises(NumericalInstabilityError, match="norm drifted"):
        _branches([GateStep(GateKind.H, (A,))], rows, AB_AXIS)
    with pytest.raises(NumericalInstabilityError, match="norm drifted"):
        _branches([GateStep(GateKind.CZ, (A, B))], rows, AB_AXIS)


def test_a_drifted_row_raises_before_a_measurement_renormalizes_it():
    rows = np.tile(np.array([1, 0, 0, 0], dtype=complex), (3, 1))
    rows[1] *= 1 + 1e-6
    # after the measurement every row has norm 1 again, so only a check
    # before it sees the drift
    steps = [GateStep(GateKind.H, (A,)), GateStep(GateKind.MEASURE_X, (B,), bit=0),
             GateStep(GateKind.H, (A,))]
    with pytest.raises(NumericalInstabilityError, match="norm drifted"):
        _branches(steps, rows, AB_AXIS)
    # a drift under NORM_ABORT passes that check; its probabilities do not
    # pass their sum
    rows[1] = rows[0] * (1 + 2e-10)
    with pytest.raises(NumericalInstabilityError, match="branch probabilities sum to"):
        _branches(steps, rows, AB_AXIS)


def test_a_nan_row_raises_at_the_end_of_a_unitary_run():
    # no measurement, so no branch probability can show the NaN
    rows = np.tile(np.array([1, 0, 0, 0], dtype=complex), (3, 1))
    rows[2, 0] = np.nan
    with pytest.raises(NumericalInstabilityError, match="norm drifted to nan"):
        _branches([GateStep(GateKind.H, (A,)), GateStep(GateKind.CZ, (A, B))], rows, AB_AXIS)


def test_a_drifted_row_of_probability_0_is_not_reported():
    # |+>|0> never gives outcome 1 on A: that branch's row is all zeros,
    # a norm of 0, and rides through the later gates unchecked
    rows = np.array([np.kron(KET_PLUS, KET_0), np.kron(KET_0, KET_0)])
    steps = [GateStep(GateKind.MEASURE_X, (A,), bit=0), GateStep(GateKind.H, (B,)),
             GateStep(GateKind.COND_Z, (B,), bit=0), GateStep(GateKind.CZ, (A, B))]
    outcomes, probs, amps = _branches(steps, rows, AB_AXIS)
    assert outcomes == [{0: 0}, {0: 1}]
    assert probs[2] == 0.0 and np.linalg.norm(amps[2]) == 0.0
    assert all(abs(np.linalg.norm(row) - 1.0) <= NORM_ABORT for row in amps[[0, 1, 3]])


def test_nan_amplitude_raises():
    nan_state = PureState(np.array([np.nan, 0, 0, 0], dtype=complex), (A, B))
    with pytest.raises(NumericalInstabilityError, match="nan"):
        branch_execute([GateStep(GateKind.H, (A,))], nan_state)
    # no unitary runs: the check before the measurement sees the input
    with pytest.raises(NumericalInstabilityError, match="norm drifted to nan"):
        branch_execute([GateStep(GateKind.MEASURE_X, (A,), bit=0)], nan_state)


def _record_json(r):
    """A record as `json.dumps` writes it: the reference of `records_to_jsonl`."""
    return json.dumps({"variant": r.variant, "pair": list(map(list, r.pair)),
                       "input": r.input_label, "outcomes": list(r.outcomes),
                       "probability": r.probability, "fidelity": r.fidelity,
                       "purity": r.min_messenger_purity, "ok": r.ok}, sort_keys=True) + "\n"


def test_records_to_jsonl_has_the_bytes_of_json_dumps():
    standard = verify_logical_cz(ArchitectureSpec(Variant.ONE_WAY_BELT, 5), (0, 4), (4, 0))
    haar = verify_logical_cz(ArchitectureSpec(Variant.TWO_WAY_BELT, 4), (1, 2), (3, 0),
                             two_qubit_inputs=haar_random_two_qubit_inputs(4, seed=2))
    mutant = verify_logical_cz(ArchitectureSpec(Variant.THROW_AND_MEASURE, 4), (0, 0), (3, 3),
                               drop_final_correction=True)
    records = standard + haar + mutant
    assert not all(r.ok for r in mutant) and any(r.outcomes for r in records)
    assert records_to_jsonl(records) == "".join(_record_json(r) for r in records)
    assert records_to_jsonl([]) == ""


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(list(Variant)), st.integers(4, 6), st.data(),
       st.integers(0, 40), st.integers(0, 2 ** 31 - 1), st.booleans())
def test_stacked_inputs_give_the_records_of_one_input_at_a_time(variant, L, data, n_haar,
                                                                 seed, drop):
    # 5 standard inputs plus up to 40 Haar ones span two STACK_INPUTS chunks
    cells = [(r, c) for r in range(L) for c in range(L)]
    a, b = data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
    arch = ArchitectureSpec(variant, L)
    drop = drop and variant in (Variant.ONE_WAY_BELT, Variant.THROW_AND_MEASURE)
    inputs = {**STANDARD_INPUTS, **haar_random_two_qubit_inputs(n_haar, seed)}
    stacked = verify_logical_cz(arch, a, b, drop_final_correction=drop,
                                two_qubit_inputs=inputs)
    alone = [r for label, vec in inputs.items()
             for r in verify_logical_cz(arch, a, b, drop_final_correction=drop,
                                        two_qubit_inputs={label: vec})]
    assert [repr(r) for r in stacked] == [repr(r) for r in alone]


def reference_branches(steps, amps, axis):
    """`_branches` with a norm check after every unitary step and `np.vdot`
    on each row for the branch probabilities."""
    k, n = len(amps), len(axis)
    outcomes, probs = [{}], np.ones(k)

    def unitary(amps, gate, axes, checked):
        if gate.is_two_qubit:
            amps = _apply_2q(amps, gate, axes[0], axes[1], n)
        else:
            amps = _apply_1q(amps, _1Q_MATRICES[gate], axes[0], n)
        norms = np.linalg.norm(amps, axis=1)
        if (~(np.abs(norms - 1.0) <= NORM_ABORT) & checked).any():
            raise NumericalInstabilityError(norms)
        return amps

    for step in steps:
        axes = tuple(axis[q] for q in step.operands)
        if step.gate is GateKind.MEASURE_X:
            x_amps = _apply_1q(amps, _1Q_MATRICES[GateKind.X], axes[0], n)
            proj = np.concatenate([(0.5 * (amps + sign * x_amps)).reshape(len(outcomes), 1, k, -1)
                                   for sign in (1.0, -1.0)], axis=1).reshape(2 * len(amps), -1)
            p = np.array([np.vdot(row, row).real for row in proj])
            amps = proj / np.sqrt(np.where(p > 0, p, 1.0))[:, None]
            probs = (probs.reshape(-1, 1, k) * p.reshape(-1, 2, k)).reshape(-1)
            outcomes = [{**o, step.bit: v} for o in outcomes for v in (0, 1)]
        elif step.gate.reads_bit:
            fired = np.repeat([o[step.bit] == 1 for o in outcomes], k)
            amps = np.where(fired[:, None], unitary(amps, GateKind.Z, axes, fired & (probs > 0)),
                            amps)
        else:
            amps = unitary(amps, step.gate, axes, probs > 0)
    return outcomes, probs, amps


def reference_verify_logical_cz(arch, a, b, drop, inputs):
    """`verify_logical_cz` with the purity of each messenger and the fidelity
    of each record computed on their own."""
    d = decompose_cz(arch, a, b)
    steps = list(d.gates)
    if drop:
        del steps[[i for i, s in enumerate(steps) if s.gate.reads_bit][-1]]
    qa, qb = QubitRef.comp(*a), QubitRef.comp(*b)
    mess = [QubitRef.mess(s) for s in d.messengers]
    axis = {q: i for i, q in enumerate((qa, qb, *mess))}
    n, items, records = len(axis), list(inputs.items()), []
    for start in range(0, len(items), STACK_INPUTS):
        chunk = items[start:start + STACK_INPUTS]
        k = len(chunk)
        amps = np.array([vec for _, vec in chunk])
        for _ in mess:
            amps = np.multiply.outer(amps, KET_PLUS).reshape(k, -1)
        outcomes, probs, amps = reference_branches(steps, amps, axis)
        min_pur = np.min([purity(_reduced(amps, (axis[m],), n)) for m in mess], axis=0)
        rho_ab = _reduced(amps, (axis[qa], axis[qb]), n)
        for j, (label, vec) in enumerate(chunk):
            t = CZ_2Q @ vec
            for row in range(j, len(amps), k):
                p = float(probs[row])
                if p > 1e-12:
                    fid = float((t.conj() @ rho_ab[row] @ t).real)
                    pur = float(min_pur[row])
                    records.append(VerificationRecord(
                        arch.variant.value, (a, b), label,
                        tuple(sorted(outcomes[row // k].items())), p, fid, pur,
                        fid >= FIDELITY_THRESHOLD and pur >= PURITY_THRESHOLD))
    return records


@pytest.mark.thorough
@settings(deadline=None)
@given(st.sampled_from(list(Variant)), st.integers(4, 6), st.data(),
       st.integers(0, 40), st.integers(0, 2 ** 31 - 1), st.booleans())
def test_stacked_oracle_gives_the_records_of_the_per_row_reference(variant, L, data, n_haar,
                                                                   seed, drop):
    # the stacked probabilities, purities and fidelities rest on how BLAS
    # rounds a stack; the reference does each row's arithmetic on its own
    cells = [(r, c) for r in range(L) for c in range(L)]
    a, b = data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
    arch = ArchitectureSpec(variant, L)
    drop = drop and variant in (Variant.ONE_WAY_BELT, Variant.THROW_AND_MEASURE)
    inputs = {**STANDARD_INPUTS, **haar_random_two_qubit_inputs(n_haar, seed)}
    records = verify_logical_cz(arch, a, b, drop_final_correction=drop,
                                two_qubit_inputs=inputs)
    reference = reference_verify_logical_cz(arch, a, b, drop, inputs)
    assert [repr(r) for r in records] == [repr(r) for r in reference]


@pytest.mark.thorough
@settings(deadline=None)
@given(st.integers(2, 8), st.integers(1, 64), st.integers(0, 2 ** 31 - 1))
def test_stacked_squared_norms_have_the_bits_of_vdot(n, k, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, 2 ** n)) + 1j * rng.normal(size=(k, 2 ** n))
    rows[rng.random(k) < 0.25] = 0   # rows of probability 0, as a measurement leaves them
    reference = np.array([np.vdot(row, row).real for row in rows])
    assert _norms_squared(rows).tobytes() == reference.tobytes()


def test_a_branch_impossible_for_one_input_is_dropped_for_that_input_only():
    # measuring A in the X basis: "++" never gives outcome 1, whose row of
    # zeros then rides through the later gates without a norm check
    steps = [GateStep(GateKind.MEASURE_X, (A,), bit=0), GateStep(GateKind.H, (M,)),
             GateStep(GateKind.COND_Z, (B,), bit=0), GateStep(GateKind.H, (M,))]
    stacked = verify_sequence(steps, (0, 0), (0, 1), [0])
    alone = [r for label, vec in STANDARD_INPUTS.items()
             for r in verify_sequence(steps, (0, 0), (0, 1), [0],
                                      two_qubit_inputs={label: vec})]
    assert [repr(r) for r in stacked] == [repr(r) for r in alone]
    assert [r.outcomes for r in stacked if r.input_label == "++"] == [((0, 0),)]
    assert len(stacked) == 9


def test_dropping_a_correction_that_is_not_there_raises():
    with pytest.raises(NothingToDropError):
        verify_logical_cz(ArchitectureSpec(Variant.TWO_WAY_BELT, 4), (0, 0), (3, 3),
                          drop_final_correction=True)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 6))
def test_input_outer_products_have_the_bits_of_kron(seed, n_extra):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps = reference = v / np.linalg.norm(v)
    for ket in [KET_PLUS, KET_0] * (n_extra // 2) + [KET_PLUS] * (n_extra % 2):
        amps = np.multiply.outer(amps, ket).reshape(-1)
        reference = np.kron(reference, ket)
    assert amps.tobytes() == reference.tobytes()


def test_oracle_caps_register_size():
    qs = [QubitRef.comp(0, i) for i in range(9)]
    with pytest.raises(ValueError):
        product_state(qs, [KET_0] * 9)
