"""Quantum phase estimation on an explicit eigenstate.

The ancilla register (most significant qubits) is prepared with
Hadamards, each ancilla controls the unitary raised to its bit weight,
and an inverse QFT turns the accumulated phases into an m-bit estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import inverse_qft_gate
from .statevec import (
    CircuitOp,
    QuantumCircuit,
    StateVector,
    UnitaryGate,
    basis_ket,
    hadamard,
    register_distribution,
    run_circuit,
    tensor,
)

_EIGEN_TOL = 1e-8


def size_ancillas(accuracy_bits: int, failure_prob: float) -> int:
    """Ancilla count m = accuracy_bits + ceil(log2(2 + 1/(2*eps)))."""
    if accuracy_bits < 1:
        raise ValueError("accuracy_bits must be at least 1")
    if not 0.0 < failure_prob < 1.0:
        raise ValueError(f"failure_prob must be in (0, 1), got {failure_prob}")
    return accuracy_bits + math.ceil(math.log2(2.0 + 1.0 / (2.0 * failure_prob)))


@dataclass(frozen=True)
class QpeConfig:
    """Ancilla budget, target accuracy in bits, and failure probability."""

    ancillas: int
    accuracy_bits: int
    failure_prob: float

    def __post_init__(self):
        if self.ancillas < 1:
            raise ValueError("ancillas must be at least 1")
        if not 0.0 < self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in (0, 1)")

    @classmethod
    def from_accuracy(cls, accuracy_bits: int, failure_prob: float) -> "QpeConfig":
        m = size_ancillas(accuracy_bits, failure_prob)
        return cls(ancillas=m, accuracy_bits=accuracy_bits, failure_prob=failure_prob)


def _check_eigenstate(unitary: UnitaryGate, eigenstate: StateVector) -> None:
    if 2**eigenstate.num_qubits != unitary.matrix.shape[0]:
        raise ValueError("eigenstate width does not match the unitary")
    image = unitary.matrix @ eigenstate.amps
    lam = np.vdot(eigenstate.amps, image)
    residual = np.linalg.norm(image - lam * eigenstate.amps)
    if residual > _EIGEN_TOL:
        raise ValueError(f"state is not an eigenvector (residual {residual:g})")


def qpe_circuit(unitary: UnitaryGate, ancillas: int) -> QuantumCircuit:
    """Estimation circuit: H's, controlled powers, inverse QFT on ancillas."""
    m = ancillas
    # First, so an oversized register is refused before the m squarings.
    inverse = inverse_qft_gate(m)
    k = unitary.arity
    width = m + k
    eig_targets = tuple(range(m, width))
    ops = [CircuitOp(hadamard(), (s,)) for s in range(m)]
    power = unitary.matrix
    # Ancilla s has bit weight 2^(m-1-s) in the register value, so it
    # controls U^(2^(m-1-s)); powers come from repeated matrix squaring.
    powers = [power]
    for _ in range(m - 1):
        powers.append(powers[-1] @ powers[-1])
    for s in range(m):
        gate = UnitaryGate(k, powers[m - 1 - s])
        ops.append(CircuitOp(gate, eig_targets, (s,)))
    ops.append(CircuitOp(inverse, tuple(range(m))))
    return QuantumCircuit(width, tuple(ops))


def qpe_distribution(
    unitary: UnitaryGate, eigenstate: StateVector, ancillas: int
) -> np.ndarray:
    """Exact measurement distribution over the 2^m ancilla outcomes."""
    if ancillas < 1:
        raise ValueError("ancillas must be at least 1")
    _check_eigenstate(unitary, eigenstate)
    circuit = qpe_circuit(unitary, ancillas)
    initial = tensor(basis_ket(ancillas, 0), eigenstate)
    final = run_circuit(circuit, initial)
    return register_distribution(final, ancillas)


def estimate_phase(
    unitary: UnitaryGate,
    eigenstate: StateVector,
    config: QpeConfig,
    rng_seed: int,
) -> float:
    """Sample one outcome k from the QPE distribution; returns k / 2^m."""
    dist = qpe_distribution(unitary, eigenstate, config.ancillas)
    rng = np.random.default_rng(rng_seed)
    outcome = int(rng.choice(dist.size, p=dist / dist.sum()))
    return outcome / 2**config.ancillas
