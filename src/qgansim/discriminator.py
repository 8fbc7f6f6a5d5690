"""Quantum perceptron discriminator.

Register layout, most significant first: [m1 activation | m2 inner
product | n data]. Each data qubit is one input feature (bit precision
1), so a basis state |j> presents its bit vector to the weights. At
precision 1 a bit enters the accumulated phase as b/2, which is exactly
the halved-phase signed encoding: the doubling decode recovers the raw
dot product bits . w on the even integer grid. A second phase
estimation writes the activation of that estimate onto the m1 register.
Measuring the most significant activation qubit as |1> is the label
"Real" (activation at least one half).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log2

import numpy as np

from .fourier import inverse_qft_gate
from .qneuron import ActivationFn, WeightVector, activation_stage, activation_table, build_u_wm
from .qneuron import signed_decode, sigmoid_activation
from .statevec import (
    MAX_QUBITS,
    CircuitOp,
    Projector,
    QuantumCircuit,
    StateVector,
    basis_ket,
    check_int,
    hadamard,
    outcome_probability,
    run_circuit,
    shift_circuit,
    tensor,
)

DiscriminatorWeights = WeightVector


def threshold_activation(m1: int, bound: float) -> ActivationFn:
    """Affine activation centred between two activation registers.

    Values of 1/2 (or any cell boundary) are exactly representable on
    the activation register, so the estimation leaves them there with
    probability 1 and the label probability develops a flat spot; a zero
    inner product would then always be labelled Real. Centring sigma(0)
    on the midpoint of the cell just below the Real/Fake boundary makes
    the label probability cross one half at t = 0 with the steepest
    slope the register resolves. The slope keeps sigma within [0, 1)
    over decoded products in [-bound, bound).
    """
    if m1 < 1 or bound <= 0.0:
        raise ValueError("need m1 >= 1 and positive bound")
    offset = 0.5 - 2.0 ** -(m1 + 1)
    slope = offset / bound
    return ActivationFn("custom", lambda t: offset + slope * t)


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Ancilla budget and activation of the perceptron."""

    m1: int = 1
    m2: int = 1
    activation: ActivationFn = field(default_factory=sigmoid_activation)

    def __post_init__(self):
        check_int("m1", self.m1, 1)
        check_int("m2", self.m2, 1)
        if self.m1 + self.m2 >= MAX_QUBITS:
            raise ValueError(
                f"m1 = {self.m1} and m2 = {self.m2} ancillas leave no data qubit "
                f"within the {MAX_QUBITS}-qubit circuit limit"
            )

    @staticmethod
    def min_m2(n: int) -> int:
        # The register sees bits.w / 2 in [-n/2, n/2]; both endpoints must
        # decode distinctly, so 2^(m2-1) > n/2 - 1, i.e. m2 > log2(n).
        return ceil(log2(n)) + 1 if n > 1 else 1

    def check_width(self, n: int) -> np.ndarray:
        """Raise unless the perceptron circuit on n data qubits can be built.

        Returns the activation table: sigma[r] is the activation of the
        signed product that m2-register outcome r decodes to.
        """
        if self.m2 < self.min_m2(n):
            raise ValueError(
                f"m2 = {self.m2} cannot hold signed products of {n} features; "
                f"need at least {self.min_m2(n)}"
            )
        if self.m1 + self.m2 + n > MAX_QUBITS:
            raise ValueError(
                f"m1 = {self.m1} and m2 = {self.m2} ancillas with {n} data qubits "
                f"exceed the {MAX_QUBITS}-qubit circuit limit"
            )
        products = signed_decode(np.arange(2**self.m2), self.m2)
        return activation_table(self.activation, products)

    @classmethod
    def for_width(cls, n: int) -> "DiscriminatorConfig":
        """Smallest sigmoid perceptron accepting n data qubits."""
        return cls(m1=1, m2=cls.min_m2(n))


def build_discriminator(
    w: DiscriminatorWeights, cfg: DiscriminatorConfig, n: int
) -> QuantumCircuit:
    """The full perceptron circuit on m1 + m2 + n qubits."""
    if w.w.size != n:
        raise ValueError(f"need one weight per data qubit ({n}), got {w.w.size}")
    sigma = cfg.check_width(n)
    m1, m2 = cfg.m1, cfg.m2
    width = m1 + m2 + n
    ops = [CircuitOp(hadamard(), (m1 + s,)) for s in range(m2)]
    # Precision-1 inputs already halve the phase; weights pass unscaled.
    ops.extend(shift_circuit(build_u_wm(w, m2, 1), m1, width).ops)
    ops.append(CircuitOp(inverse_qft_gate(m2), tuple(range(m1, m1 + m2))))
    ops.extend(activation_stage(sigma, m1).ops)
    return QuantumCircuit(width, tuple(ops))


def label_real_probability(
    w: DiscriminatorWeights, cfg: DiscriminatorConfig, input: StateVector
) -> float:
    """P(first activation qubit measures 1) = P(label Real)."""
    circuit = build_discriminator(w, cfg, input.num_qubits)
    initial = tensor(basis_ket(cfg.m1 + cfg.m2, 0), input)
    final = run_circuit(circuit, initial)
    return outcome_probability(final, Projector(0, 1))


class FastDiscriminator:
    """Closed-form evaluator of the same label probability.

    Every gate on the data register is diagonal, so basis state x is
    labelled on its own: p_real(w, a) = sum_x |a_x|^2 r_x(w). The inner
    product register estimates t_x = bits_x . w / 2 and holds outcome b
    with the Fejer weight |1/N sum_a e^(2 i pi a (t - b) / N)|^2, N = 2^m2
    (Cleve et al., quant-ph/9708016); the activation stage then reads
    Real with a fixed probability c_b. Summing over b, r_x is the
    N-periodic trigonometric polynomial

        r(t) = a0 + sum_{k=1}^{N-1} alpha_k cos(2 pi k t / N)
                                   + beta_k sin(2 pi k t / N),

    whose coefficients depend only on (cfg, n) and are computed here with
    one FFT. label_probs evaluates the series as Re(sum_k (alpha_k -
    i beta_k) z^k) from a running product of z = e^(2 i pi t / N), so it
    takes one complex exponential per basis state, not one cosine and one
    sine per frequency. Agreement with the circuit (label_real_probability)
    is covered by tests.
    """

    def __init__(self, cfg: DiscriminatorConfig, n: int):
        sigma = cfg.check_width(n)
        self.cfg = cfg
        self.n = n
        m1, m2 = cfg.m1, cfg.m2
        # Bit matrix of the data register, most significant bit first, at
        # the half scale the bits enter the phase with (p = 1).
        self._half_bits = (
            (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
        ) / 2.0
        size = 2**m2
        # Activation estimation of sigma_b on the m1 register (its inverse
        # QFT is an FFT along the register axis), then the probability c_b
        # that its most significant qubit reads 1.
        act = np.exp(2j * np.pi * np.arange(2**m1)[:, None] * sigma[None, :])
        act = np.fft.fft(act, axis=0) / 2**m1
        readout = np.sum(np.abs(act[2 ** (m1 - 1) :]) ** 2, axis=0)
        # The Fejer weight is (1/N^2) sum_{|k|<N} (N - |k|) e^(2 i pi k (t - b) / N);
        # pairing k with -k leaves the real series above, whose coefficients
        # alpha_k - i beta_k are the weighted FFT fft(readout)[k]
        # = sum_b c_b e^(-2 i pi k b / N).
        k = np.arange(1, size)
        weight = 2.0 * (size - k) / size**2
        self._a0 = float(readout.sum()) / size
        coef = weight * np.fft.fft(readout)[1:]
        # With z = e^(omega t), omega = 2 i pi / N: r = a0 + Re(z^k @ coef)
        # and dr/dt = Re(z^k @ (omega k) coef).
        self._omega = 2j * np.pi / size
        self._cols = np.stack([coef, self._omega * k * coef], axis=1)

    def label_probs(self, w: np.ndarray) -> tuple:
        """Label probabilities r(w) of the data basis states and their Jacobian.

        `w` holds one weight vector (shape (n,)) or a batch of them
        (shape (..., n)). Returns r with shape (..., 2^n), where r[..., x]
        is P(label Real | basis state x), and dr/dw with shape
        (..., 2^n, n).
        """
        t = np.asarray(w, dtype=np.float64) @ self._half_bits.T
        # Powers z^1 .. z^(N-1) of one complex exponential per basis state.
        z = np.exp(self._omega * t)
        powers = np.multiply.accumulate(
            np.broadcast_to(z[..., None], z.shape + (self._cols.shape[0],)), axis=-1
        )
        series = (powers @ self._cols).real
        return self._a0 + series[..., 0], series[..., 1, None] * self._half_bits

    def p_real(self, w: np.ndarray, data_amps: np.ndarray) -> float:
        """P(label Real) for the data register in state `data_amps`."""
        return float(np.abs(data_amps) ** 2 @ self.label_probs(w)[0])
