import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomshuttle.architectures import ArchitectureSpec, Variant
from atomshuttle.ir import GateKind, GateStep, QubitRef
from atomshuttle.oracle import (CZ_2Q, KET_0, KET_PLUS, PureState, _1Q_MATRICES,
                                _apply_1q, branch_execute, fidelity_with,
                                haar_random_two_qubit_inputs, product_state,
                                purity, reduced_density, apply_gate,
                                verify_logical_cz, verify_sequence)

A = QubitRef.comp(0, 0)
B = QubitRef.comp(0, 1)
M = QubitRef.mess(0)


def test_product_state_and_indexing():
    st_ = product_state([A, B], [KET_0, KET_PLUS])
    assert st_.n_qubits == 2
    np.testing.assert_allclose(st_.amplitudes,
                               [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])
    with pytest.raises(KeyError):
        st_.index_of(M)


def test_apply_gate_matches_dense_matrices():
    rng = np.random.default_rng(7)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    state = PureState(v.copy(), (A, B))

    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(
        apply_gate(state, GateKind.H, (A,)).amplitudes,
        np.kron(h, np.eye(2)) @ v, atol=1e-12)
    np.testing.assert_allclose(
        apply_gate(state, GateKind.CZ, (A, B)).amplitudes,
        CZ_2Q @ v, atol=1e-12)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    np.testing.assert_allclose(
        apply_gate(state, GateKind.SWAP, (A, B)).amplitudes,
        swap @ v, atol=1e-12)


def test_apply_gate_rejects_measurement_and_conditionals():
    state = product_state([A], [KET_0])
    with pytest.raises(ValueError):
        apply_gate(state, GateKind.MEASURE_X, (A,))
    with pytest.raises(ValueError):
        apply_gate(state, GateKind.COND_Z, (A,))


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
    state = PureState(v / np.linalg.norm(v), qs)
    for gate, i, j in word:
        if gate.is_two_qubit:
            if i == j:
                continue
            state = apply_gate(state, gate, (qs[i], qs[j]))
        else:
            state = apply_gate(state, gate, (qs[i],))
    assert abs(state.norm() - 1.0) < 1e-9


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
    unpruned = branch_execute(steps, init, prune=False)
    assert len(unpruned) == 2


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


def test_fidelity_with_is_phase_insensitive():
    v = np.array([0, 1], dtype=complex)
    rho = np.outer(-1j * v, (-1j * v).conj())
    assert fidelity_with(rho, v) == pytest.approx(1.0)


@pytest.mark.parametrize("variant", list(Variant))
def test_compiled_protocols_implement_cz(variant):
    arch = ArchitectureSpec(variant, 4)
    report = verify_logical_cz(arch, (0, 0), (3, 3))
    assert report.ok, report.failures()[:3]


@pytest.mark.parametrize("variant", list(Variant))
def test_haar_random_inputs_spot_check(variant):
    from atomshuttle.architectures import decompose_cz
    arch = ArchitectureSpec(variant, 4)
    d = decompose_cz(arch, (1, 0), (2, 3))
    report = verify_sequence(list(d.gates), (1, 0), (2, 3), list(d.messengers),
                             two_qubit_inputs=haar_random_two_qubit_inputs(20, seed=1))
    assert report.ok
    assert all(r.fidelity >= 1 - 1e-10 for r in report.records)


def test_verification_catches_a_wrong_protocol():
    # SWAP instead of CZ: entangles nothing correctly
    steps = [GateStep(GateKind.SWAP, (A, M)),
             GateStep(GateKind.SWAP, (M, B))]
    report = verify_sequence(steps, (0, 0), (0, 1), [0])
    assert not report.ok


def test_state_rejects_a_repeated_qubit():
    with pytest.raises(ValueError):
        PureState(np.array([1, 0, 0, 0], dtype=complex), (A, A))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
       st.sampled_from([GateKind.H, GateKind.Z, GateKind.X]),
       st.integers(0, 2 ** 31 - 1))
def test_1q_kernel_has_the_bits_of_tensordot(nq, gate, seed):
    # the kernel is np.tensordot + np.moveaxis minus their axis handling
    n, q = nq
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    mat = _1Q_MATRICES[gate]
    reference = np.moveaxis(np.tensordot(mat, amps.reshape([2] * n), axes=([1], [q])),
                            0, q).reshape(-1)
    assert _apply_1q(amps, mat, q, n).tobytes() == reference.tobytes()


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
