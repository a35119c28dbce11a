"""Brute-force state-vector oracle for compiled protocols.

Dense simulation over at most 8 qubits with branch enumeration over
mid-circuit X-basis measurements.  Used to prove that each architecture's
compiled sequence implements a logical CZ (up to a branch-global phase)
and leaves every messenger disentangled before disposal.
"""
from __future__ import annotations

import functools
from json.encoder import encode_basestring_ascii as _json_str

from typing import NamedTuple

import numpy as np

from .architectures import decompose_cz
from .ir import GateKind, GateStep, QubitRef, checked_make

MAX_QUBITS = 8
NORM_ABORT = 1e-9
# inputs that `verify_sequence` runs in one stacked pass; bounds the size of
# its amplitude arrays, not of its inputs or records
STACK_INPUTS = 32

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


def _axis_map(qubit_order: tuple[QubitRef, ...], length: int) -> dict:
    """{qubit: axis} of the register `qubit_order`, whose states hold
    `length` amplitudes; raises unless it is a register the oracle takes."""
    n = len(qubit_order)
    if length != 2 ** n:
        raise ValueError("amplitude length does not match qubit count")
    if n > MAX_QUBITS:
        raise ValueError(f"dense oracle capped at {MAX_QUBITS} qubits")
    axis = {q: i for i, q in enumerate(qubit_order)}
    if len(axis) != n:
        raise ValueError("qubit order names a qubit twice")
    return axis


def _axes(axis: dict, qubits) -> tuple[int, ...]:
    try:
        return tuple(axis[q] for q in qubits)
    except KeyError as e:
        raise KeyError(f"qubit {e.args[0]!r} not in state") from None


class _StateFields(NamedTuple):
    amplitudes: np.ndarray
    qubit_order: tuple[QubitRef, ...]


class PureState(_StateFields):
    """The amplitudes of the register `qubit_order`; every constructor checks
    that the oracle takes that register."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _axis_map(self.qubit_order, len(self.amplitudes))
        return self

    _make = classmethod(checked_make)


# --- kernels ----------------------------------------------------------------
# Each kernel works on a stack of n-qubit states, one per row of an array of
# shape (k, 2**n).  For n >= 2 each row gets the bits it gets on its own: a
# stack only widens the matrix that each BLAS call already multiplies.

@functools.cache
def _axes_1q(q: int, n: int):
    """The shape that splits a stack of n-qubit states into qubit axes, the
    axis order that brings qubit q to the front (then the rows), the shape
    after that move and the order that puts q back."""
    front = (q + 1, 0) + tuple(i + 1 for i in range(n) if i != q)
    back = tuple(front.index(i) for i in range(n + 1))
    return (-1,) + (2,) * n, front, (2, -1) + (2,) * (n - 1), back


def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    # per row, np.tensordot(mat, psi, axes=([1], [q])) then np.moveaxis(psi,
    # 0, q), without their Python-side axis handling: the same transposes and
    # one np.dot over the columns of every row
    split, front, moved, back = _axes_1q(q, n)
    psi = amps.reshape(split).transpose(front).reshape(2, -1)
    return np.dot(mat, psi).reshape(moved).transpose(back).reshape(len(amps), -1)


@functools.cache
def _blocks_2q(q0: int, q1: int, n: int):
    """The shape that splits a stack of n-qubit states into qubit axes, and
    the indices of its |11>, |01> and |10> blocks on qubits (q0, q1)."""
    def block(v0, v1):
        i: list = [slice(None)] * (n + 1)
        i[q0 + 1], i[q1 + 1] = v0, v1
        return tuple(i)
    return (-1,) + (2,) * n, block(1, 1), block(0, 1), block(1, 0)


def _apply_2q(amps: np.ndarray, gate: GateKind, q0: int, q1: int, n: int) -> np.ndarray:
    split, b11, b01, b10 = _blocks_2q(q0, q1, n)
    psi = amps.reshape(split).copy()
    if gate is GateKind.CZ:
        psi[b11] = -psi[b11]
    else:   # SWAP, the other two-qubit gate
        b = psi[b10].copy()
        psi[b10] = psi[b01]
        psi[b01] = b
    return psi.reshape(len(amps), -1)


def _check_norms(amps: np.ndarray, checked: np.ndarray) -> None:
    """Raise when the norm of a row that the boolean mask `checked` picks
    is more than NORM_ABORT from 1 or is NaN."""
    norms = np.linalg.norm(amps, axis=1)
    drift = ~(np.abs(norms - 1.0) <= NORM_ABORT) & checked
    if drift.any():
        raise NumericalInstabilityError(f"norm drifted to {norms[drift.argmax()]}")


def _norms_squared(rows: np.ndarray) -> np.ndarray:
    """<psi|psi> of each row of a stack (k, d), as one stacked product that
    has the bits of np.vdot(row, row).real on each row."""
    return (rows.conj()[:, None, :] @ rows[:, :, None]).real.reshape(-1)


def _branches(steps: list[GateStep], amps: np.ndarray, axis: dict):
    """Run `steps` on each row of `amps` (k, 2**n), the register `axis`,
    enumerating all measurement branches.

    Returns the outcomes of each branch, its probability for each input row
    and its amplitudes, branch-major: input row j of branch b is row
    b * k + j.  Norms are checked once per run of unitary steps, on every
    row of nonzero probability: before each measurement (which
    renormalizes each row) and after the last step.  A row of probability
    0 is carried along unchecked.
    """
    k, n = len(amps), len(axis)
    outcomes = [{}]       # per branch: classical bit id -> 0 (+) or 1 (-)
    probs = np.ones(k)
    for step in steps:
        axes = _axes(axis, step.operands)
        if step.gate is GateKind.MEASURE_X:
            _check_norms(amps, probs > 0)
            x_amps = _apply_1q(amps, _X, axes[0], n)
            split = (len(outcomes), 1, k, -1)
            proj = np.concatenate([(0.5 * (amps + sign * x_amps)).reshape(split)
                                   for sign in (1.0, -1.0)], axis=1).reshape(2 * len(amps), -1)
            p = _norms_squared(proj)
            amps = proj / np.sqrt(np.where(p > 0, p, 1.0))[:, None]
            probs = (probs.reshape(-1, 1, k) * p.reshape(-1, 2, k)).reshape(-1)
            outcomes = [{**o, step.bit: v} for o in outcomes for v in (0, 1)]
        elif step.gate.reads_bit:
            if step.bit not in outcomes[0]:
                raise ValueError(f"conditional reads unwritten bit {step.bit}")
            fired = np.repeat([o[step.bit] == 1 for o in outcomes], k)
            amps = np.where(fired[:, None], _apply_1q(amps, _Z, axes[0], n), amps)
        elif step.gate.is_two_qubit:
            amps = _apply_2q(amps, step.gate, axes[0], axes[1], n)
        else:
            amps = _apply_1q(amps, _1Q_MATRICES[step.gate], axes[0], n)
    _check_norms(amps, probs > 0)
    totals = probs.reshape(-1, k).sum(axis=0)
    drift = ~(np.abs(totals - 1.0) <= 1e-10)
    if drift.any():
        raise NumericalInstabilityError(f"branch probabilities sum to {totals[drift.argmax()]}")
    return outcomes, probs, amps


class Branch(NamedTuple):
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
    axis = _axis_map(initial.qubit_order, len(initial.amplitudes))
    outcomes, probs, amps = _branches(steps, initial.amplitudes[None], axis)
    return [Branch(o, float(p), PureState(row, initial.qubit_order))
            for o, p, row in zip(outcomes, probs, amps) if p > 1e-12]


# --- reduced states ---------------------------------------------------------

@functools.cache
def _keep_first(keep: tuple[int, ...], n: int):
    """The shape that splits a stack of n-qubit states into qubit axes, the
    axis order that brings the qubits `keep` to the front of each row, and
    their dimension."""
    rest = tuple(i for i in range(n) if i not in keep)
    return (-1,) + (2,) * n, (0,) + tuple(i + 1 for i in keep + rest), 2 ** len(keep)


def _moved(amps: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    """Each row of `amps` as a (d, rest) matrix whose row index runs over the
    qubits at `keep` (in that order), stacked: shape (k, d, rest)."""
    split, order, dim = _keep_first(keep, n)
    return amps.reshape(split).transpose(order).reshape(len(amps), dim, -1)


def _reduced(amps: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    """The density matrix of each row of `amps` on the qubits at `keep` (in
    that order), stacked: shape (k, d, d)."""
    psi = _moved(amps, keep, n)
    return psi @ psi.conj().transpose(0, 2, 1)


def reduced_density(state: PureState, keep: list[QubitRef]) -> np.ndarray:
    """Partial trace keeping `keep` (in the given order)."""
    axis = _axis_map(state.qubit_order, len(state.amplitudes))
    return _reduced(state.amplitudes[None], _axes(axis, keep), len(axis))[0]


def purity(rho: np.ndarray):
    """tr(rho^2) of a density matrix, or of each in a stack (k, d, d)."""
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


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


class VerificationRecord(NamedTuple):
    variant: str
    pair: tuple
    input_label: str
    outcomes: tuple
    probability: float
    fidelity: float
    min_messenger_purity: float
    ok: bool


def records_to_jsonl(records: list[VerificationRecord]) -> str:
    """One JSON object per record and line, in the bytes `json.dumps(obj,
    sort_keys=True)` would give for {variant, pair, input, outcomes,
    probability, fidelity, purity, ok}.  Numbers are written with `repr`,
    as `json` writes ints and finite floats, and strings as it escapes them.
    """
    lines = []
    for r in records:
        (r1, c1), (r2, c2) = r.pair
        outcomes = ", ".join(f"[{bit!r}, {v!r}]" for bit, v in r.outcomes)
        lines.append(f'{{"fidelity": {r.fidelity!r}, "input": {_json_str(r.input_label)}, '
                     f'"ok": {"true" if r.ok else "false"}, "outcomes": [{outcomes}], '
                     f'"pair": [[{r1!r}, {c1!r}], [{r2!r}, {c2!r}]], '
                     f'"probability": {r.probability!r}, "purity": {r.min_messenger_purity!r}, '
                     f'"variant": {_json_str(r.variant)}}}\n')
    return "".join(lines)


def verify_sequence(
    steps: list[GateStep],
    a: tuple[int, int],
    b: tuple[int, int],
    messengers: list[int],
    variant: str = "?",
    two_qubit_inputs: dict | None = None,
) -> list[VerificationRecord]:
    """Check that a gate sequence on A=`a`, B=`b` and the `messengers`
    implements CZ between A and B.

    Messengers start in |+>.  Every measurement branch must map each input
    to CZ|input> on (A, B) up to a global phase, and each messenger must
    be disentangled (reduced-state purity ~ 1) at the end.  The inputs run
    together, STACK_INPUTS at a time, one row each; records come per input,
    in input order, then per branch; a record is ok when its branch passes
    both checks.
    """
    qa, qb = QubitRef.comp(*a), QubitRef.comp(*b)
    mess = [QubitRef.mess(s) for s in messengers]
    inputs = list((two_qubit_inputs if two_qubit_inputs is not None
                   else STANDARD_INPUTS).items())
    records = []
    for start in range(0, len(inputs), STACK_INPUTS):
        chunk = inputs[start:start + STACK_INPUTS]
        k = len(chunk)
        # np.kron of two vectors is their outer product, flattened
        amps = np.array([ab_vec for _, ab_vec in chunk])
        for _ in mess:
            amps = np.multiply.outer(amps, KET_PLUS).reshape(k, -1)
        axis = _axis_map((qa, qb, *mess), amps.shape[1])
        outcomes, probs, amps = _branches(steps, amps, axis)
        n = len(axis)
        rows = len(amps)
        if mess:
            # every messenger's reduced state of every row, in one stack
            psi = np.concatenate([_moved(amps, (axis[m],), n) for m in mess])
            purities = purity(psi @ psi.conj().transpose(0, 2, 1))
            min_pur = purities.reshape(len(mess), rows).min(axis=0)
        else:
            min_pur = np.ones(rows)
        rho_ab = _reduced(amps, (axis[qa], axis[qb]), n)
        outcome_items = [tuple(sorted(o.items())) for o in outcomes]
        probs, min_pur = probs.tolist(), min_pur.tolist()
        for j, (label, ab_vec) in enumerate(chunk):
            # <t|rho|t> of each branch of input j, as two stacked products
            # that keep the bits of (t.conj() @ rho @ t) on each row
            target = CZ_2Q @ ab_vec
            fids = ((target.conj() @ rho_ab[j::k])[:, None, :] @ target[:, None]).real.reshape(-1)
            for row, fid in zip(range(j, rows, k), fids.tolist()):
                p = probs[row]
                if p > 1e-12:
                    pur = min_pur[row]
                    ok = fid >= FIDELITY_THRESHOLD and pur >= PURITY_THRESHOLD
                    records.append(VerificationRecord(
                        variant, (a, b), label, outcome_items[row // k], p, fid, pur, ok))
    return records


class NothingToDropError(ValueError):
    """`drop_final_correction` on a protocol without a conditional gate."""


def verify_logical_cz(arch, a: tuple[int, int], b: tuple[int, int],
                      drop_final_correction: bool = False,
                      two_qubit_inputs: dict | None = None) -> list[VerificationRecord]:
    """Oracle-verify the compiled protocol of `arch` for the pair (a, b), on
    `two_qubit_inputs` (default STANDARD_INPUTS).

    `drop_final_correction` mutates the sequence by removing its last
    conditional gate; used to confirm the oracle actually catches broken
    protocols.  A protocol with no conditional gate raises
    NothingToDropError.
    """
    d = decompose_cz(arch, a, b)
    steps = list(d.gates)
    if drop_final_correction:
        conditional = [i for i, s in enumerate(steps) if s.gate.reads_bit]
        if not conditional:
            raise NothingToDropError(f"{arch.variant.value}: no conditional gate to drop")
        del steps[conditional[-1]]
    return verify_sequence(steps, a, b, list(d.messengers),
                           variant=arch.variant.value, two_qubit_inputs=two_qubit_inputs)


def haar_random_two_qubit_inputs(n: int, seed: int = 0) -> dict:
    """Haar-random two-qubit pure states for the randomized spot check."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(n):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        out[f"haar{i}"] = v / np.linalg.norm(v)
    return out
