"""Brute-force state-vector oracle for compiled protocols.

Dense simulation over at most 8 qubits with branch enumeration over
mid-circuit X-basis measurements.  Used to prove that each architecture's
compiled sequence implements a logical CZ (up to a branch-global phase)
and leaves every messenger disentangled before disposal.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .architectures import decompose_cz
from .ir import GateKind, GateStep, QubitRef

MAX_QUBITS = 8
NORM_ABORT = 1e-9

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_1Q_MATRICES = {GateKind.H: _H, GateKind.Z: _Z, GateKind.X: _X}

# CZ on the two target computational qubits, for reference targets
CZ_2Q = np.diag([1, 1, 1, -1]).astype(complex)


class NumericalInstabilityError(RuntimeError):
    pass


@dataclass(frozen=True)
class PureState:
    amplitudes: np.ndarray
    qubit_order: tuple[QubitRef, ...]

    def __post_init__(self):
        n = len(self.qubit_order)
        if len(self.amplitudes) != 2 ** n:
            raise ValueError("amplitude length does not match qubit count")
        if n > MAX_QUBITS:
            raise ValueError(f"dense oracle capped at {MAX_QUBITS} qubits")
        axis = {q: i for i, q in enumerate(self.qubit_order)}
        if len(axis) != n:
            raise ValueError("qubit order names a qubit twice")
        object.__setattr__(self, "_axis", axis)

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_order)

    def index_of(self, q: QubitRef) -> int:
        try:
            return self._axis[q]
        except KeyError:
            raise KeyError(f"qubit {q!r} not in state") from None

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def product_state(qubits: list[QubitRef], kets: list[np.ndarray]) -> PureState:
    amps = np.array([1.0 + 0j])
    for k in kets:
        amps = np.kron(amps, k)
    return PureState(amps, tuple(qubits))


@functools.cache
def _axes_1q(q: int, n: int):
    """The shape of an n-qubit state, the axis order that brings qubit q to
    the front, and the order that puts it back."""
    rest = tuple(i for i in range(n) if i != q)
    return (2,) * n, (q,) + rest, tuple(range(1, q + 1)) + (0,) + tuple(range(q + 1, n))


def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    # np.tensordot(mat, psi, axes=([1], [q])) then np.moveaxis(psi, 0, q),
    # without their Python-side axis handling: the same transposes and the
    # same np.dot call on identically laid-out operands
    shape, front, back = _axes_1q(q, n)
    psi = amps.reshape(shape).transpose(front).reshape(2, -1)
    return np.dot(mat, psi).reshape(shape).transpose(back).reshape(-1)


def _apply_2q(amps: np.ndarray, gate: GateKind, q0: int, q1: int, n: int) -> np.ndarray:
    psi = amps.reshape([2] * n).copy()

    def idx(v0, v1):
        i: list = [slice(None)] * n
        i[q0], i[q1] = v0, v1
        return tuple(i)

    if gate is GateKind.CZ:
        psi[idx(1, 1)] = -psi[idx(1, 1)]
    elif gate is GateKind.SWAP:
        a, b = psi[idx(0, 1)].copy(), psi[idx(1, 0)].copy()
        psi[idx(0, 1)], psi[idx(1, 0)] = b, a
    else:
        raise ValueError(f"not a two-qubit gate: {gate}")
    return psi.reshape(-1)


def _unitary(amps: np.ndarray, gate: GateKind, axes: list[int], n: int) -> np.ndarray:
    """`amps` after the unitary `gate` on the qubits at `axes`; raises when
    the norm drifts by more than NORM_ABORT."""
    if gate.is_two_qubit:
        if axes[0] == axes[1]:
            raise ValueError("two-qubit gate operands must be distinct")
        amps = _apply_2q(amps, gate, axes[0], axes[1], n)
    else:
        amps = _apply_1q(amps, _1Q_MATRICES[gate], axes[0], n)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_ABORT:
        raise NumericalInstabilityError(f"norm drifted to {norm}")
    return amps


def apply_gate(state: PureState, gate: GateKind, operands: tuple[QubitRef, ...]) -> PureState:
    """Apply a unitary gate; measurement/conditional gates are rejected here."""
    if gate is GateKind.MEASURE_X or gate.reads_bit:
        raise ValueError(f"{gate.value} is handled by branch_execute, not apply_gate")
    axes = [state.index_of(q) for q in operands]
    return PureState(_unitary(state.amplitudes, gate, axes, state.n_qubits), state.qubit_order)


@dataclass
class Branch:
    outcomes: dict  # classical bit id -> 0 (+) or 1 (-)
    probability: float
    state: PureState


def branch_execute(steps: list[GateStep], initial: PureState) -> list[Branch]:
    """Execute a gate-level program, enumerating all measurement branches.

    Branches are ordered lexicographically over bit outcomes (outcome 0
    first).  Both outcomes of each measurement are kept during
    enumeration and zero-probability branches pruned at the end, so a
    protocol bug that breaks outcome symmetry shows up as an asymmetric
    branch set rather than being silently dropped.
    """
    n = initial.n_qubits
    branches = [[{}, 1.0, initial.amplitudes]]   # [outcomes, probability, amplitudes]
    for step in steps:
        axes = [initial.index_of(q) for q in step.operands]
        if step.gate is GateKind.MEASURE_X:
            new_branches = []
            for outcomes, prob, amps in branches:
                x_amps = _apply_1q(amps, _X, axes[0], n)
                for outcome, sign in ((0, 1.0), (1, -1.0)):
                    proj = 0.5 * (amps + sign * x_amps)
                    p = float(np.vdot(proj, proj).real)
                    if p > 0:
                        proj = proj / np.sqrt(p)
                    new_branches.append([{**outcomes, step.bit: outcome}, prob * p, proj])
            branches = new_branches
        elif step.gate.reads_bit:
            base = GateKind.Z if step.gate is GateKind.COND_Z else GateKind.X
            for br in branches:
                if br[0].get(step.bit) is None:
                    raise ValueError(f"conditional reads unwritten bit {step.bit}")
                if br[0][step.bit] == 1 and br[1] > 0:
                    br[2] = _unitary(br[2], base, axes, n)
        else:
            for br in branches:
                if br[1] > 0:
                    br[2] = _unitary(br[2], step.gate, axes, n)
    total = sum(prob for _, prob, _ in branches)
    if abs(total - 1.0) > 1e-10:
        raise NumericalInstabilityError(f"branch probabilities sum to {total}")
    return [Branch(outcomes, prob, PureState(amps, initial.qubit_order))
            for outcomes, prob, amps in branches if prob > 1e-12]


# --- reduced states ---------------------------------------------------------

@functools.cache
def _keep_first(keep: tuple[int, ...], n: int):
    """The shape of an n-qubit state, the axis order that brings the qubits
    `keep` to the front, and their dimension."""
    rest = tuple(i for i in range(n) if i not in keep)
    return (2,) * n, keep + rest, 2 ** len(keep)


def reduced_density(state: PureState, keep: list[QubitRef]) -> np.ndarray:
    """Partial trace keeping `keep` (in the given order)."""
    shape, order, dim = _keep_first(tuple(state.index_of(q) for q in keep), state.n_qubits)
    psi = state.amplitudes.reshape(shape).transpose(order).reshape(dim, -1)
    return psi @ psi.conj().T


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def fidelity_with(rho: np.ndarray, target: np.ndarray) -> float:
    """|<target|rho|target>| for a pure target vector (phase-insensitive)."""
    return float((target.conj() @ rho @ target).real)


# --- logical-CZ verification ------------------------------------------------

STANDARD_INPUTS = {
    "00": np.kron(KET_0, KET_0),
    "01": np.kron(KET_0, KET_1),
    "10": np.kron(KET_1, KET_0),
    "11": np.kron(KET_1, KET_1),
    "++": np.kron(KET_PLUS, KET_PLUS),
}

FIDELITY_THRESHOLD = 1 - 1e-10
PURITY_THRESHOLD = 1 - 1e-10


@dataclass(frozen=True)
class VerificationRecord:
    variant: str
    pair: tuple
    input_label: str
    outcomes: tuple
    probability: float
    fidelity: float
    min_messenger_purity: float
    ok: bool

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "pair": list(map(list, self.pair)),
            "input": self.input_label,
            "outcomes": list(self.outcomes),
            "probability": self.probability,
            "fidelity": self.fidelity,
            "purity": self.min_messenger_purity,
            "ok": self.ok,
        }


@dataclass
class VerificationReport:
    records: list[VerificationRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def failures(self) -> list[VerificationRecord]:
        return [r for r in self.records if not r.ok]


def verify_sequence(
    steps: list[GateStep],
    a: tuple[int, int],
    b: tuple[int, int],
    messengers: list[int],
    variant: str = "?",
    two_qubit_inputs: dict | None = None,
) -> VerificationReport:
    """Check that a gate sequence on A=`a`, B=`b` and the `messengers`
    implements CZ between A and B.

    Messengers start in |+>.  Every measurement branch must map each input
    to CZ|input> on (A, B) up to a global phase, and each messenger must
    be disentangled (reduced-state purity ~ 1) at the end.
    """
    qa, qb = QubitRef.comp(*a), QubitRef.comp(*b)
    mess = [QubitRef.mess(s) for s in messengers]
    inputs = two_qubit_inputs if two_qubit_inputs is not None else STANDARD_INPUTS
    report = VerificationReport()
    for label, ab_vec in inputs.items():
        target = CZ_2Q @ ab_vec
        # np.kron of two vectors is their outer product, flattened
        amps = ab_vec
        for _ in mess:
            amps = np.multiply.outer(amps, KET_PLUS).reshape(-1)
        initial = PureState(amps, (qa, qb, *mess))
        for br in branch_execute(steps, initial):
            purities = [purity(reduced_density(br.state, [m])) for m in mess]
            min_pur = min(purities) if purities else 1.0
            rho_ab = reduced_density(br.state, [qa, qb])
            fid = fidelity_with(rho_ab, target)
            ok = fid >= FIDELITY_THRESHOLD and min_pur >= PURITY_THRESHOLD
            outcomes = tuple(sorted(br.outcomes.items()))
            report.records.append(
                VerificationRecord(variant, (a, b), label, outcomes,
                                   br.probability, fid, min_pur, ok)
            )
    return report


def verify_logical_cz(arch, a: tuple[int, int], b: tuple[int, int],
                      drop_final_correction: bool = False) -> VerificationReport:
    """Oracle-verify the compiled protocol of `arch` for the pair (a, b).

    `drop_final_correction` mutates the sequence by removing its last
    conditional gate; used to confirm the oracle actually catches broken
    protocols.
    """
    d = decompose_cz(arch, a, b)
    steps = list(d.gates)
    if drop_final_correction:
        for i in range(len(steps) - 1, -1, -1):
            if steps[i].gate.reads_bit:
                del steps[i]
                break
    return verify_sequence(steps, a, b, list(d.messengers),
                           variant=arch.variant.value)


def haar_random_two_qubit_inputs(n: int, seed: int = 0) -> dict:
    """Haar-random two-qubit pure states for the randomized spot check."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(n):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        out[f"haar{i}"] = v / np.linalg.norm(v)
    return out
