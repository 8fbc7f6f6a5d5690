"""Quantum phase estimation on an explicit eigenstate.

The ancilla register (most significant qubits) is prepared with
Hadamards, each ancilla controls the unitary raised to its bit weight,
and an inverse QFT turns the accumulated phases into an m-bit estimate.
estimation_circuit builds that construction for every phase estimation
in the package, the quantum neuron's two included, and register_readout
runs each of them and reads its register.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import inverse_qft_circuit
from .statevec import (
    MAX_QUBITS,
    CircuitOp,
    QuantumCircuit,
    StateVector,
    UnitaryGate,
    apply_op,
    basis_ket,
    check_int,
    check_real,
    hadamard,
    register_distribution,
    run_circuit,
    shift_circuit,
    tensor,
)

_EIGEN_TOL = 1e-8


def size_ancillas(accuracy_bits: int, failure_prob: float) -> int:
    """Ancilla count m = accuracy_bits + the ceiling of log2(2 + 1/(2*eps))."""
    check_int("accuracy_bits", accuracy_bits, 1)
    check_real("failure_prob", failure_prob)
    if not 0.0 < failure_prob < 1.0:
        raise ValueError(f"failure_prob = {failure_prob!r} is not in (0, 1)")
    return accuracy_bits + math.ceil(math.log2(2.0 + 1.0 / (2.0 * failure_prob)))


def estimation_circuit(width: int, first: int, m: int, kernel_ops) -> QuantumCircuit:
    """Phase estimation on register qubits first .. first+m-1 of `width`.

    Hadamards on the register, then `kernel_ops`, in which register qubit
    first+s controls the kernel raised to its bit weight 2^(m-1-s), then
    the gate-level inverse QFT on the register (Cleve et al.,
    quant-ph/9708016).
    """
    inverse = shift_circuit(inverse_qft_circuit(m), first, width)
    ops = [CircuitOp(hadamard(), (first + s,)) for s in range(m)]
    ops.extend(kernel_ops)
    ops.extend(inverse.ops)
    return QuantumCircuit(width, tuple(ops))


def register_readout(
    circuit: QuantumCircuit, ancillas: int, data: StateVector, read: int
) -> np.ndarray:
    """Distribution of the first `read` qubits after `circuit` runs on |0>^ancillas (x) data."""
    initial = tensor(basis_ket(ancillas, 0), data)
    return register_distribution(run_circuit(circuit, initial), read)


def _check_eigenstate(unitary: UnitaryGate, eigenstate: StateVector) -> None:
    if eigenstate.num_qubits != unitary.arity:
        raise ValueError("eigenstate width does not match the unitary")
    image = apply_op(eigenstate, CircuitOp(unitary, range(unitary.arity))).amps
    lam = np.vdot(eigenstate.amps, image)
    residual = np.linalg.norm(image - lam * eigenstate.amps)
    if residual > _EIGEN_TOL:
        raise ValueError(f"state is not an eigenvector (residual {residual:g})")


def _squared(gate: UnitaryGate) -> UnitaryGate:
    # U^2 in the form U is held in, so powers of a diagonal stay diagonal.
    if gate.diag is not None:
        return UnitaryGate(gate.arity, diag=gate.diag * gate.diag)
    if gate.perm is not None:
        return UnitaryGate(gate.arity, perm=tuple(gate.perm[j] for j in gate.perm))
    return UnitaryGate(gate.arity, gate.matrix @ gate.matrix)


def qpe_circuit(unitary: UnitaryGate, ancillas: int) -> QuantumCircuit:
    """Estimation circuit: H's, controlled powers, inverse QFT on ancillas."""
    k = unitary.arity
    # First, so an oversized register is refused before the m squarings.
    check_int("ancillas", ancillas, 1, MAX_QUBITS - k)
    m = ancillas
    eig_targets = tuple(range(m, m + k))
    # Ancilla s has bit weight 2^(m-1-s) in the register value, so it
    # controls U^(2^(m-1-s)); powers come from repeated squaring.
    powers = [unitary]
    for _ in range(m - 1):
        powers.append(_squared(powers[-1]))
    kernel = [CircuitOp(powers[m - 1 - s], eig_targets, (s,)) for s in range(m)]
    return estimation_circuit(m + k, 0, m, kernel)


def qpe_distribution(
    unitary: UnitaryGate, eigenstate: StateVector, ancillas: int
) -> np.ndarray:
    """Exact measurement distribution over the 2^m ancilla outcomes."""
    _check_eigenstate(unitary, eigenstate)
    return register_readout(qpe_circuit(unitary, ancillas), ancillas, eigenstate, ancillas)


def estimate_phase(
    unitary: UnitaryGate, eigenstate: StateVector, ancillas: int, rng_seed: int
) -> float:
    """Sample one outcome k from the m-ancilla QPE distribution; returns k / 2^m.

    size_ancillas gives the m that meets an accuracy and failure budget.
    """
    dist = qpe_distribution(unitary, eigenstate, ancillas)
    rng = np.random.default_rng(rng_seed)
    outcome = int(rng.choice(dist.size, p=dist / dist.sum()))
    return outcome / 2**ancillas
