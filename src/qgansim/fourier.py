"""Quantum Fourier transform, its inverse, and binary-fraction encoding.

The QFT maps amplitudes by output_k = 2^(-n/2) * sum_j e^(2*i*pi*j*k/2^n)
input_j. Whole-state transforms go through the FFT, which evaluates that
exact sum. Inside wider circuits (the ancilla registers of phase
estimation) the transform is built from gates: Hadamards, controlled
phases and a bit reversal. The dense matrix is kept only as the
reference definition the circuits are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import (
    _MAX_GATE_QUBITS,
    MAX_QUBITS,
    CircuitOp,
    QuantumCircuit,
    StateVector,
    check_int,
    diagonal,
    hadamard,
    swap,
)


def qft_matrix(num_qubits: int) -> np.ndarray:
    """Dense QFT matrix F[k, j] = e^(2*i*pi*j*k/2^n) / sqrt(2^n)."""
    check_int("num_qubits", num_qubits, 1, _MAX_GATE_QUBITS)
    dim = 2**num_qubits
    # Entries are read from the 2^n roots of unity by jk mod 2^n, so the only
    # d x d temporary is the int32 exponent table (jk < 2^24 at 12 qubits).
    roots = np.exp(2j * np.pi * np.arange(dim) / dim) / np.sqrt(dim)
    jk = np.outer(np.arange(dim, dtype=np.int32), np.arange(dim, dtype=np.int32))
    jk &= dim - 1
    return roots[jk]


def qft(state: StateVector) -> StateVector:
    """Apply the QFT to a whole state."""
    # ifft with orthonormal scaling evaluates 2^(-n/2) sum_j e^(+2 i pi jk/N).
    return StateVector(state.num_qubits, np.fft.ifft(state.amps, norm="ortho"))


def inverse_qft(state: StateVector) -> StateVector:
    """Apply the inverse QFT to a whole state."""
    return StateVector(state.num_qubits, np.fft.fft(state.amps, norm="ortho"))


def qft_circuit(num_qubits: int, *, _sign: float = 1.0) -> QuantumCircuit:
    """Gate-level QFT: Hadamards, controlled phases, and a bit reversal.

    Its unitary is qft_matrix(num_qubits); on a whole state it agrees with
    qft() up to rounding.
    """
    # Checked before the n(n-1)/2 controlled phases are built.
    check_int("num_qubits", num_qubits, 1, MAX_QUBITS)
    ops = []
    for q in range(num_qubits):
        ops.append(CircuitOp(hadamard(), (q,)))
        for t in range(q + 1, num_qubits):
            # Phase 2*pi/2^(t-q+1), times _sign, on |1>|1> of (control t, target q).
            ops.append(CircuitOp(diagonal([0.0, _sign * 2.0 ** -(t - q + 1)]), (q,), (t,)))
    for q in range(num_qubits // 2):
        ops.append(CircuitOp(swap(), (q, num_qubits - 1 - q)))
    return QuantumCircuit(num_qubits, tuple(ops))


def inverse_qft_circuit(num_qubits: int) -> QuantumCircuit:
    """Gate-level inverse QFT: qft_circuit with every phase negated.

    The QFT matrix is symmetric, so its inverse is its conjugate, and the
    conjugate of a product of gates is the product of their conjugates.
    """
    return qft_circuit(num_qubits, _sign=-1.0)


@dataclass(frozen=True)
class BinaryFraction:
    """Bits (j1, ..., jm) of the fraction value = sum_i j_i / 2^i in [0, 1)."""

    bits: tuple
    value: float

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")
        recon = sum(b / 2 ** (i + 1) for i, b in enumerate(self.bits))
        if recon != self.value:
            raise ValueError("value does not match bits")


def encode_fraction(x: float, bits: int) -> BinaryFraction:
    """Best `bits`-bit binary fraction below or equal to x.

    x = 1.0 is clamped to the largest representable fraction so that
    inputs from the closed interval [0, 1] are accepted.
    """
    if bits < 1:
        raise ValueError("bits must be at least 1")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    scaled = min(int(np.floor(x * 2**bits)), 2**bits - 1)
    bit_tuple = tuple((scaled >> (bits - 1 - i)) & 1 for i in range(bits))
    return BinaryFraction(bit_tuple, scaled / 2**bits)
