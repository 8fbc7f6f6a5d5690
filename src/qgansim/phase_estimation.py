"""Quantum phase estimation on an explicit eigenstate.

The ancilla register (most significant qubits) is prepared with
Hadamards, each ancilla controls the unitary raised to its bit weight,
and an inverse QFT turns the accumulated phases into an m-bit estimate.
Every unitary estimated in the package is diagonal, so qpe_circuit
builds each phase estimation from its eigenphases: QPE, and the quantum
neuron's inner product and activation stage. register_readout runs each
of them and reads its register.
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
    basis_ket,
    check_int,
    check_real,
    diagonal,
    hadamard,
    register_distribution,
    run_circuit,
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


def register_readout(
    circuit: QuantumCircuit, ancillas: int, data: StateVector, read: int
) -> np.ndarray:
    """Distribution of the first `read` qubits after `circuit` runs on |0>^ancillas (x) data."""
    initial = tensor(basis_ket(ancillas, 0), data)
    return register_distribution(run_circuit(circuit, initial), read)


def _check_eigenstate(phases, eigenstate: StateVector) -> None:
    entries = diagonal(phases).entries
    if eigenstate.amps.size != entries.size:
        raise ValueError("eigenstate width does not match the unitary")
    image = entries * eigenstate.amps
    lam = np.vdot(eigenstate.amps, image)
    residual = np.linalg.norm(image - lam * eigenstate.amps)
    if residual > _EIGEN_TOL:
        raise ValueError(f"state is not an eigenvector (residual {residual:g})")


def qpe_circuit(phases, ancillas: int) -> QuantumCircuit:
    """Estimation circuit of Diag(e^(2*i*pi*phases)) on an m = `ancillas` register.

    Hadamards on wires 0..m-1; then ancilla s controls that diagonal on
    wires m.. with the phases, reduced mod 1, scaled by its bit weight
    2^(m-1-s), so every power is exact and every scaled phase finite; then
    the gate-level inverse QFT on the register (Cleve et al.,
    quant-ph/9708016).
    """
    k = diagonal(phases).arity  # refuses non-finite phases and bad lengths
    check_int("ancillas", ancillas, 1, MAX_QUBITS - k)  # before the m powers
    m = ancillas
    reduced = np.remainder(phases, 1.0)
    hadamards = [CircuitOp(hadamard(), (s,)) for s in range(m)]
    powers = [
        CircuitOp(diagonal(reduced * 2 ** (m - 1 - s)), range(m, m + k), (s,)) for s in range(m)
    ]
    return QuantumCircuit(m + k, (*hadamards, *powers, *inverse_qft_circuit(m).ops))


def qpe_distribution(phases, eigenstate: StateVector, ancillas: int) -> np.ndarray:
    """Exact distribution of the 2^m outcomes estimating the eigenphase of
    Diag(e^(2*i*pi*phases)) on `eigenstate`, which must be an eigenvector."""
    circuit = qpe_circuit(phases, ancillas)
    _check_eigenstate(phases, eigenstate)
    return register_readout(circuit, ancillas, eigenstate, ancillas)


def estimate_phase(phases, eigenstate: StateVector, ancillas: int, rng_seed: int) -> float:
    """Sample one outcome j of qpe_distribution(phases, ...); returns j / 2^m.

    size_ancillas gives the m that meets an accuracy and failure budget.
    """
    dist = qpe_distribution(phases, eigenstate, ancillas)
    rng = np.random.default_rng(rng_seed)
    outcome = int(rng.choice(dist.size, p=dist / dist.sum()))
    return outcome / 2**ancillas
