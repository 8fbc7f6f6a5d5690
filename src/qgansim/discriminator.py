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

from dataclasses import dataclass

import numpy as np

from .phase_estimation import register_readout
from .qneuron import ActivationFn, WeightVector, activation_table, check_neuron_width
from .qneuron import min_signed_ancillas, neuron_circuit, signed_decode
from .statevec import QuantumCircuit, StateVector

DiscriminatorWeights = WeightVector


def threshold_activation(m1: int, bound: float) -> ActivationFn:
    """Affine activation with sigma(0) mid-cell below the Real/Fake boundary.

    Off the register values, sigma(0) leaves the label probability
    crossing one half at t = 0 with the steepest slope the register
    resolves (see adversarial.training_discriminator). The slope keeps
    sigma within [0, 1) over decoded products in [-bound, bound).
    """
    if m1 < 1 or bound <= 0.0:
        raise ValueError("need m1 >= 1 and positive bound")
    offset = 0.5 - 2.0 ** -(m1 + 1)
    slope = offset / bound
    return ActivationFn("threshold", lambda t: offset + slope * t)


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Ancilla budget and activation of the perceptron.

    An activation of None, the default, stands for the threshold activation
    of these registers, threshold_activation(m1, 2^m2), the one train()
    takes. It is resolved where it is read, so a config copied with
    dataclasses.replace and other m1 or m2 gets that of its own registers.
    """

    m1: int = 1
    m2: int = 1
    activation: ActivationFn | None = None

    def __post_init__(self):
        # At least one data qubit must fit beside the two registers.
        check_neuron_width(self.m1, self.m2, 1, 1)

    def check_width(self, n: int) -> np.ndarray:
        """Raise unless the perceptron circuit on n data qubits can be built.

        Returns the activation table: sigma[r] is the activation of the
        signed product that m2-register outcome r decodes to.
        """
        if self.m2 < min_signed_ancillas(n):
            raise ValueError(
                f"m2 = {self.m2} cannot hold signed products of {n} features; "
                f"need at least {min_signed_ancillas(n)}"
            )
        check_neuron_width(self.m1, self.m2, n, 1)
        products = signed_decode(np.arange(2**self.m2), self.m2)
        fn = self.activation or threshold_activation(self.m1, 2.0**self.m2)
        return activation_table(fn, products)


def build_discriminator(
    w: DiscriminatorWeights, cfg: DiscriminatorConfig, n: int
) -> QuantumCircuit:
    """The full perceptron circuit on m1 + m2 + n qubits."""
    if w.w.size != n:
        raise ValueError(f"need one weight per data qubit ({n}), got {w.w.size}")
    # Precision-1 inputs already halve the phase; weights pass unscaled.
    return neuron_circuit(w, cfg.check_width(n), cfg.m1, 1)


def label_real_probability(
    w: DiscriminatorWeights, cfg: DiscriminatorConfig, input: StateVector
) -> float:
    """P(first activation qubit measures 1) = P(label Real).

    That qubit reads 1 on the upper half of the m1-register outcomes.
    """
    circuit = build_discriminator(w, cfg, input.num_qubits)
    dist = register_readout(circuit, cfg.m1 + cfg.m2, input, cfg.m1)
    return float(dist[2 ** (cfg.m1 - 1) :].sum())


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
    one FFT. It is Re(sum_k (alpha_k - i beta_k) z^k) on a powers table,
    the running product of z = e^(2 i pi t_x / N): one complex exponential
    per product, not one cosine and one sine per frequency. `label_probs`,
    `weight_probes` and `weight_differences` all read that table, and the
    distributions they weigh enter once, folded with the bit matrix by
    `probe_weighting`. Exact ascent needs only the score's central
    difference: `weight_differences` reads it from one sine-weighted series
    column against the folded Delta = p_t - p_g. Sampled ascent draws each
    probe's own probability, so `weight_probes` keeps the (target,
    generated) pair of every probe w +- s e_j.
    Agreement with the circuit (label_real_probability) is covered by tests.
    """

    def __init__(self, cfg: DiscriminatorConfig, n: int):
        sigma = cfg.check_width(n)
        m1, m2 = cfg.m1, cfg.m2
        # Bit matrix of the data register, most significant bit first:
        # bits[x, j] is bit j of basis state x. The bits enter the phase at
        # half scale (p = 1), so t_x = bits[x] . w / 2.
        bits = (
            (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
        ).astype(np.float64)
        self._half_bits = bits / 2.0
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
        # With z = e^(omega t), omega = 2 i pi / N: r = a0 + Re(z^k @ coef).
        self._coef = weight * np.fft.fft(readout)[1:]
        self._omega = 2j * np.pi / size
        self._step_coefs = (None, None)  # (step, its real series coefficients) last probed
        self._last_r = (None, None)  # ((shape, bytes) of w, its read-only r) last labelled

    def _powers(self, w: np.ndarray) -> np.ndarray:
        # Powers z^1 .. z^(N-1) per product t_x: a running product over a stride-0
        # view of z, np.broadcast_to's view without its Python cost (12 calls an epoch).
        z = np.exp(self._omega * (np.asarray(w, dtype=np.float64) @ self._half_bits.T))
        view = np.ndarray(z.shape + (self._coef.size,), z.dtype, z, 0, z.strides + (0,))
        return np.multiply.accumulate(view, axis=-1)

    def label_probs(self, w: np.ndarray) -> np.ndarray:
        """Label probabilities r(w) of the data basis states.

        `w` holds one weight vector (shape (n,)) or a batch of them
        (shape (..., n)). Returns r with shape (..., 2^n), where r[..., x]
        is P(label Real | basis state x). The last r is kept, read-only, and
        returned again for a `w` of the same shape and bytes.
        """
        w = np.asarray(w, dtype=np.float64)
        key = (w.shape, w.tobytes())
        # One tuple, read once: a key is never paired with another w's r.
        last, r = self._last_r
        if last != key:
            # einsum, not a BLAS matrix-vector product: OpenBLAS threads those from
            # a few thousand entries; at n = 8 its threads stalled for milliseconds.
            r = self._a0 + np.einsum("...k,k->...", self._powers(w), self._coef).real
            r.flags.writeable = False
            self._last_r = (key, r)
        return r

    def probe_weighting(self, probs: np.ndarray) -> np.ndarray:
        """Probability rows folded with the bit matrix, for the weight probes.

        `probs` holds c distributions over the data basis states, one per
        row (shape (c, 2^n)). Returns the (c + n c, 2^n) weighting whose
        first c rows are the distributions and whose row c + j c + k is bit
        j of each basis state times distribution k.
        """
        rows = np.asarray(probs, dtype=np.float64)
        out = np.empty((self._half_bits.shape[1] + 1,) + rows.shape)
        out[0] = rows
        # Half a bit times a doubled probability is bit times probability, exactly.
        np.multiply(self._half_bits.T[:, None, :], 2.0 * rows, out=out[1:])
        return out.reshape(-1, rows.shape[1])

    def _probe_coefs(self, step: float) -> tuple:
        # Real series coefficients at a probe step, cached per step: the
        # (2(N-1), 3) columns of r and of both moves, then the difference
        # column of the two moves, e^(i h) - e^(-i h) = 2i sin(h).
        if self._step_coefs[0] != step:
            # e^(+-i h) - 1 = -2 sin^2(h / 2) +- i sin(h), exact at small h.
            h = self._omega.imag * np.arange(1, self._coef.size + 1) * step / 2.0
            shift = -2.0 * np.sin(h / 2.0) ** 2 + 1j * np.sin(h)
            cols = self._coef[:, None] * np.stack(
                [np.ones_like(shift), shift, shift.conj(), 2j * np.sin(h)], 1
            )
            # Re(z^k @ cols) is one real product on the table's float64 view,
            # (Re z, Im z, Re z^2, ...), with the rows Re cols_k, -Im cols_k.
            real = np.stack([cols.real, -cols.imag], 1).reshape(-1, 4)
            self._step_coefs = (step, (real[:, :3].copy(), real[:, 3].copy()))
        return self._step_coefs[1]

    def weight_probes(self, w: np.ndarray, step: float, weighting: np.ndarray) -> np.ndarray:
        """The probes w + step e_j and w - step e_j against c distributions.

        `weighting` is `probe_weighting(probs)`. Returns shape (n, 2, c) with
        [j, 0, k] = r(w + step e_j) . probs[k] and [j, 1, k] at w - step e_j.
        Probe w +- s e_j moves t_x by +-s/2 where bit j of x is set, and
        r(t +- s/2) - r(t) = Re(z^k @ coef (e^(+-i pi k s / N) - 1)): the
        powers table at t gives r and both moves, subtracting no nearly
        equal r, and the probe against distribution k is r . probs[k] plus
        bits_j . (move * probs[k]). Probes may leave [-1, 1]; r is
        periodic, the circuit's at any w.
        """
        # r(t), then the move of each side; the table is freed on return.
        series = self._powers(w).view(np.float64) @ self._probe_coefs(step)[0]
        series[:, 0] += self._a0
        folded = weighting @ series
        n = self._half_bits.shape[1]
        c = folded.shape[0] // (n + 1)
        moves = folded[c:, 1:].reshape(n, c, 2).transpose(0, 2, 1)
        # C order: rng.binomial takes another layout's probes several times slower.
        return np.add(folded[:c, 0], moves, out=np.empty((n, 2, c)))

    def weight_differences(self, w: np.ndarray, step: float, rows: np.ndarray) -> np.ndarray:
        """Central differences r(w + step e_j) - r(w - step e_j), contracted.

        `rows` has shape (c, 2^n); returns rows @ d with shape (c,), where d_x
        = r(t_x + step/2) - r(t_x - step/2) is how far basis state x moves
        between the probes w +- step e_j when bit j of x is set. So with
        rows[j] bit j of each basis state times the score's weighting
        Delta = p_t - p_g (`probe_weighting((Delta,))[1:]`), entry j is
        S(w + step e_j) - S(w - step e_j). The difference of the two moves
        of `weight_probes` is Re(z^k @ coef 2i sin(pi k step / N)): one real
        column on the powers table's float64 view, no pair per probe.
        """
        return rows @ (self._powers(w).view(np.float64) @ self._probe_coefs(step)[1])

    def p_real(self, w: np.ndarray, data_amps: np.ndarray) -> float:
        """P(label Real) for the data register in state `data_amps`."""
        return float(np.abs(data_amps) ** 2 @ self.label_probs(w))
