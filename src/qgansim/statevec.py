"""Dense state-vector simulation of small quantum registers.

Conventions shared by the whole package:

* Qubit 0 is the most significant bit of the basis index, so the basis
  state |j1 j2 ... jn> has index j1*2^(n-1) + ... + jn.
* All operations are pure: inputs are never mutated and returned values
  can be shared freely across threads.
* Width is capped at MAX_QUBITS because amplitudes are stored densely.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

MAX_QUBITS = 20

_NORM_TOL = 1e-10
_UNITARY_TOL = 1e-10


# Setting checks shared by the package's config types. Each message starts
# with "key = value", so a caller can qualify the key (see cli.py). Bools
# are neither integers nor real numbers here.
def check_int(key: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError naming `key` unless value is an integer in [low, high]."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{key} = {value!r} is not an integer {bounds}")


def check_real(key: str, value) -> None:
    """Raise ValueError naming `key` unless value is a finite real number."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    # Exact for Python ints too: one beyond the float range is no float.
    if not (real and abs(value) <= sys.float_info.max):
        raise ValueError(f"{key} = {value!r} is not a finite real number")


class StateVector:
    """Unit-norm complex amplitude vector over 2^num_qubits basis states."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps):
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}"
            )
        arr = np.asarray(amps, dtype=np.complex128)
        if arr.shape != (2**num_qubits,):
            raise ValueError(
                f"expected {2**num_qubits} amplitudes, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm^2 is {norm_sq}, not 1")
        self.num_qubits = num_qubits
        self.amps = arr

    def probabilities(self) -> np.ndarray:
        """Born-rule outcome probabilities |amps|^2."""
        return np.abs(self.amps) ** 2

    def __repr__(self):
        return f"StateVector(num_qubits={self.num_qubits})"


@dataclass(frozen=True)
class UnitaryGate:
    """A 2^arity x 2^arity unitary matrix acting on `arity` qubits."""

    arity: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        dim = 2**self.arity
        if mat.shape != (dim, dim):
            raise ValueError(f"gate matrix must be {dim}x{dim}, got {mat.shape}")
        err = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
        if err > _UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (max |UU^dag - I| = {err})")
        object.__setattr__(self, "matrix", mat)
        diag = np.ascontiguousarray(np.diag(mat))
        is_diag = bool(np.max(np.abs(mat - np.diag(diag))) == 0.0)
        object.__setattr__(self, "_diag", diag if is_diag else None)


@dataclass(frozen=True)
class CircuitOp:
    """A gate bound to target wires, conditioned on control wires being |1>."""

    gate: UnitaryGate
    targets: tuple
    controls: tuple = ()

    def __post_init__(self):
        targets = tuple(int(q) for q in self.targets)
        controls = tuple(int(q) for q in self.controls)
        if len(targets) != self.gate.arity:
            raise ValueError(
                f"gate arity {self.gate.arity} needs {self.gate.arity} targets, "
                f"got {len(targets)}"
            )
        touched = targets + controls
        if len(set(touched)) != len(touched):
            raise ValueError("target and control qubits must be distinct")
        if any(q < 0 for q in touched):
            raise ValueError("qubit indices must be nonnegative")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)

    def max_qubit(self):
        return max(self.targets + self.controls)


@dataclass(frozen=True)
class QuantumCircuit:
    """Ordered list of CircuitOps over a fixed register width."""

    num_qubits: int
    ops: tuple

    def __post_init__(self):
        ops = tuple(self.ops)
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")
        for op in ops:
            if op.max_qubit() >= self.num_qubits:
                raise ValueError(
                    f"op touches qubit {op.max_qubit()} but circuit has "
                    f"{self.num_qubits} qubits"
                )
        object.__setattr__(self, "ops", ops)


@dataclass(frozen=True)
class Projector:
    """Measurement projector onto one outcome of one qubit."""

    qubit: int
    outcome: int

    def __post_init__(self):
        if self.outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        if self.qubit < 0:
            raise ValueError("qubit index must be nonnegative")


def basis_ket(num_qubits: int, index: int) -> StateVector:
    """|index> on num_qubits qubits."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits become the most significant."""
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amps, b.amps))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the left argument conjugated."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states must have equal width")
    return complex(np.vdot(a.amps, b.amps))


def _apply_in_place(amps: np.ndarray, num_qubits: int, op: CircuitOp):
    # Qubit q has bit significance num_qubits - 1 - q.
    cmask = 0
    for c in op.controls:
        cmask |= 1 << (num_qubits - 1 - c)
    diag = op.gate._diag
    if diag is not None:
        _kernels.apply_diag(amps, diag, op.targets, num_qubits, cmask)
    else:
        _kernels.apply_dense(amps, op.gate.matrix, op.targets, num_qubits, cmask)


def apply_op(state: StateVector, op: CircuitOp) -> StateVector:
    """Apply one gate (with controls) to a state."""
    if op.max_qubit() >= state.num_qubits:
        raise ValueError(
            f"op touches qubit {op.max_qubit()} but state has "
            f"{state.num_qubits} qubits"
        )
    amps = state.amps.copy()
    _apply_in_place(amps, state.num_qubits, op)
    return StateVector(state.num_qubits, amps)


def run_circuit(circuit: QuantumCircuit, input: StateVector) -> StateVector:
    """Left-to-right composition of the circuit's ops."""
    if circuit.num_qubits != input.num_qubits:
        raise ValueError("circuit and state widths differ")
    amps = input.amps.copy()
    for op in circuit.ops:
        _apply_in_place(amps, circuit.num_qubits, op)
    return StateVector(circuit.num_qubits, amps)


def circuit_matrix(circuit: QuantumCircuit) -> np.ndarray:
    """Dense matrix of the whole circuit (columns are images of basis kets)."""
    dim = 2**circuit.num_qubits
    cols = np.eye(dim, dtype=np.complex128)
    for j in range(dim):
        # Row j of `cols` is the contiguous image of basis ket j.
        for op in circuit.ops:
            _apply_in_place(cols[j], circuit.num_qubits, op)
    return cols.T.copy()


def outcome_probability(state: StateVector, projector: Projector) -> float:
    """Probability that measuring `projector.qubit` yields `projector.outcome`."""
    q = projector.qubit
    if q >= state.num_qubits:
        raise ValueError(f"qubit {q} out of range")
    probs = state.probabilities()
    # Axis split: leading 2^q block indices, the measured qubit, the rest.
    cube = probs.reshape(2**q, 2, -1)
    return float(cube[:, projector.outcome, :].sum())


def register_distribution(state: StateVector, num_leading: int) -> np.ndarray:
    """Marginal outcome distribution of the first `num_leading` qubits."""
    if not 1 <= num_leading <= state.num_qubits:
        raise ValueError("register width out of range")
    return state.probabilities().reshape(2**num_leading, -1).sum(axis=1)


def hadamard() -> UnitaryGate:
    """Single-qubit Hadamard."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    return UnitaryGate(1, h)


def pauli_x() -> UnitaryGate:
    """Single-qubit bit flip."""
    return UnitaryGate(1, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128))


def ry(theta: float) -> UnitaryGate:
    """Rotation about Y: RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>."""
    if not np.isfinite(theta):
        raise ValueError("angle must be finite")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return UnitaryGate(1, np.array([[c, -s], [s, c]], dtype=np.complex128))


def cry(theta: float) -> UnitaryGate:
    """Two-qubit controlled RY; first qubit is the control."""
    if not np.isfinite(theta):
        raise ValueError("angle must be finite")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    mat = np.eye(4, dtype=np.complex128)
    mat[2:, 2:] = [[c, -s], [s, c]]
    return UnitaryGate(2, mat)


def crz(alpha: float) -> UnitaryGate:
    """Two-qubit controlled phase diag(1, 1, 1, e^(2*i*pi*alpha))."""
    if not np.isfinite(alpha):
        raise ValueError("phase must be finite")
    mat = np.eye(4, dtype=np.complex128)
    mat[3, 3] = np.exp(2j * np.pi * alpha)
    return UnitaryGate(2, mat)


def swap() -> UnitaryGate:
    """Two-qubit SWAP."""
    mat = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]
    return UnitaryGate(2, mat)


def diagonal(phases) -> UnitaryGate:
    """Diagonal gate Diag(e^(2*i*pi*phases[x])) over a power-of-two domain."""
    ph = np.asarray(phases, dtype=np.float64)
    if ph.ndim != 1 or ph.size < 2 or ph.size & (ph.size - 1):
        raise ValueError("phases length must be a power of 2, at least 2")
    arity = int(ph.size).bit_length() - 1
    return UnitaryGate(arity, np.diag(np.exp(2j * np.pi * ph)))


def shift_circuit(circuit: QuantumCircuit, offset: int, new_width: int) -> QuantumCircuit:
    """Re-house a circuit with every qubit index moved up by `offset`."""
    ops = tuple(
        CircuitOp(
            op.gate,
            tuple(q + offset for q in op.targets),
            tuple(q + offset for q in op.controls),
        )
        for op in circuit.ops
    )
    return QuantumCircuit(new_width, ops)
