"""Quantum neuron primitives: input encoding, phase-encoded inner
products, and the perceptron circuit with its activation stage.

On data basis state x the inner-product kernel U_wm is the phase
e^(2*i*pi*t/2^m), where t = x~ . w is the dot product of the truncated
input with the weights. Its phase estimation on an m-qubit register is
qpe_circuit of the eigenphases t / 2^m, so after the inverse QFT the
register concentrates on t. Halving the weights doubles the register's
period, which frees the upper half of the register to represent negative
products in two's complement (even values only, so the resolution is 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np

from .fourier import encode_fraction
from .phase_estimation import qpe_circuit, register_readout
from .statevec import MAX_QUBITS, QuantumCircuit, StateVector, basis_ket, check_int, shift_circuit


@dataclass(frozen=True)
class WeightVector:
    """Weights w in [-1, 1]^n."""

    w: np.ndarray

    def __post_init__(self):
        arr = np.array(self.w, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        if np.max(np.abs(arr)) > 1.0:
            raise ValueError("every |w_j| must be at most 1")
        arr.flags.writeable = False
        object.__setattr__(self, "w", arr)


@dataclass(frozen=True)
class ActivationFn:
    """Named real function mapping register values into [0, 1).

    `fn` is called once with a numpy array of all register values and
    returns their activations, as an array of that shape or a scalar. Its
    outputs are validated at circuit build (see activation_table).
    """

    name: str
    fn: object

    def __post_init__(self):
        if self.name not in ("sigmoid", "identity", "threshold", "custom"):
            raise ValueError("name must be sigmoid, identity, threshold, or custom")


def sigmoid_activation() -> ActivationFn:
    """Logistic sigmoid 1 / (1 + e^-t); range (0, 1) on all reals."""
    return ActivationFn("sigmoid", lambda t: 1.0 / (1.0 + np.exp(-t)))


def scaled_identity_activation(input_qubits: int) -> ActivationFn:
    """t / 2^q, the identity scaled into [0, 1) on {0, ..., 2^q - 1}."""
    scale = 2.0**input_qubits
    return ActivationFn("identity", lambda t: t / scale)


def activation_table(fn: ActivationFn, inputs: np.ndarray) -> np.ndarray:
    """fn over `inputs`, in one call; raises unless every value is in [0, 1).

    The error names the first failing input. Non-finite values (a
    sigmoid's exp overflowing, say) are rejected, not warned about.
    """
    with np.errstate(all="ignore"):
        sigma = np.broadcast_to(np.asarray(fn.fn(inputs), dtype=np.float64), inputs.shape)
    bad = np.flatnonzero(~((sigma >= 0.0) & (sigma < 1.0)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"activation = {fn.name} maps {inputs[i]} to {float(sigma[i])!r}, outside [0, 1)"
        )
    return sigma


def encode_input(x, precision: int) -> StateVector:
    """Basis state |x_{0,1} ... x_{n-1,p}> of the p-bit digits of each x_j."""
    all_bits = [b for v in x for b in encode_fraction(float(v), precision).bits]
    if not all_bits:
        raise ValueError("input vector must be nonempty")
    index = 0
    for b in all_bits:
        index = (index << 1) | b
    return basis_ket(len(all_bits), index)


def truncated(x, precision: int) -> np.ndarray:
    """The p-bit truncations x~ actually seen by the quantum circuits."""
    return np.array([encode_fraction(float(v), precision).value for v in x])


def _products(w: WeightVector, ancillas: int, precision: int) -> np.ndarray:
    """t = x~ . w on every basis state x of the n * precision data qubits.

    The qubits follow encode_input's order: digit k of input j weighs
    w_j / 2^k. The width of the m = `ancillas` register beside them is
    checked before the 2^(n * precision) products are.
    """
    check_int("ancillas", ancillas, 1)
    check_int("precision", precision, 1)
    n = w.w.size
    width = ancillas + n * precision
    if width > MAX_QUBITS:
        raise ValueError(
            f"ancillas = {ancillas} with {n} inputs at precision = {precision} needs "
            f"{width} qubits, over the {MAX_QUBITS}-qubit circuit limit"
        )
    t = np.zeros(1)
    for wj in w.w:
        for k in range(1, precision + 1):
            t = np.add.outer(t, [0.0, wj / 2**k]).ravel()
    return t


def qip(x, w: WeightVector, ancillas: int, precision: int):
    """Estimate the nonnegative inner product x~ . w on an m-bit register.

    Returns (estimate, distribution): the modal register outcome and the
    exact outcome distribution. Outcomes within 1e-12 of the largest
    probability tie, and the lowest of them is the estimate. Integer
    products below 2^m are recovered with probability 1.
    """
    t = _products(w, ancillas, precision)
    circuit = qpe_circuit(t / 2**ancillas, ancillas)
    dist = register_readout(circuit, ancillas, encode_input(x, precision), ancillas)
    # argmax of a boolean array is its first True.
    return int(np.argmax(dist >= dist.max() - 1e-12)), dist


def min_signed_ancillas(n: int) -> int:
    """Fewest register qubits holding the signed products of n inputs.

    The halved-weight register sees products in [-n/2, n/2]; both ends
    must decode distinctly, so 2^(m-1) > n/2 - 1, i.e. m > log2(n).
    """
    return ceil(log2(n)) + 1


def signed_decode(outcome, ancillas: int):
    """Two's-complement style decode of a halved-weight register outcome.

    Takes one outcome or an integer array of them.
    """
    return 2 * (outcome - 2**ancillas * (outcome >= 2 ** (ancillas - 1)))


def qip_signed(x, w: WeightVector, ancillas: int, precision: int) -> float:
    """Estimate a signed inner product via the halved-weight scheme.

    Requires ancillas >= min_signed_ancillas(n) so that |x~ . w| < 2^m and the
    register's positive and negative halves cannot collide. The returned
    estimate lives on the even grid, so it matches the true product only
    up to the register resolution of 2.
    """
    n = len(tuple(x))
    required = min_signed_ancillas(n)
    if ancillas < required:
        raise ValueError(f"need ancillas >= {required} for n = {n} inputs")
    estimate, _ = qip(x, WeightVector(np.asarray(w.w) / 2.0), ancillas, precision)
    return float(signed_decode(estimate, ancillas))


def neuron_circuit(w: WeightVector, sigma: np.ndarray, m1: int, precision: int) -> QuantumCircuit:
    """The perceptron on [m1 activation | m2 inner product | data] qubits.

    `sigma` holds the activations in [0, 1) of the 2^m2 register values.
    """
    m2 = sigma.size.bit_length() - 1
    t = _products(w, m2, precision)
    width = m1 + m2 + w.w.size * precision
    product = shift_circuit(qpe_circuit(t / 2**m2, m2), m1, width)
    # The activation stage: sigma[x] is the eigenphase on register value x.
    return QuantumCircuit(width, product.ops + qpe_circuit(sigma, m1).ops)


def check_neuron_width(m1: int, m2: int, inputs: int, precision: int) -> None:
    """Raise unless the neuron on [m1 | m2 | inputs x precision] qubits fits.

    Cheap, so callers check before building the 2^m2 activation table.
    """
    check_int("m1", m1, 1)
    check_int("m2", m2, 1)
    check_int("precision", precision, 1)
    width = m1 + m2 + inputs * precision
    if width > MAX_QUBITS:
        raise ValueError(
            f"ancillas m1 = {m1} and m2 = {m2} with {inputs} inputs at precision = {precision} "
            f"need {width} qubits, over the {MAX_QUBITS}-qubit circuit limit"
        )


def neuron_forward(
    x, w: WeightVector, fn: ActivationFn, m1: int, m2: int, precision: int
) -> np.ndarray:
    """Exact outcome distribution of the activation register.

    Pipeline on [m1 activation | m2 inner product | data] qubits: encode
    the input, estimate the (nonnegative) inner product on the m2
    register, then estimate fn of that register's value on the m1
    register. Only the activation register is measured.
    """
    check_neuron_width(m1, m2, w.w.size, precision)
    circuit = neuron_circuit(w, activation_table(fn, np.arange(2**m2)), m1, precision)
    return register_readout(circuit, m1 + m2, encode_input(x, precision), m1)
