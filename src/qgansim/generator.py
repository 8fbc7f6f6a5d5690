"""Generator circuits producing real-amplitude wave functions.

Two constructions share the conditional-Bernoulli picture, where the
amplitude of basis state x factors into chained conditionals and the
angle for a prefix satisfies cos(theta/2) = sqrt(P[next bit 0 | prefix]):

* the exact circuit conditions every rotation on the full prefix and can
  load any distribution, and
* the parametric ansatz truncates the conditioning to the previous qubit
  (plus a mixing layer), giving 3n - 3 trainable angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevec import (
    CircuitOp,
    QuantumCircuit,
    StateVector,
    basis_ket,
    ry,
    run_circuit,
)
from .svi import DiscreteDistribution


@dataclass(frozen=True)
class GeneratorParams:
    """Rotation angles (radians) for the parametric ansatz."""

    thetas: np.ndarray

    def __post_init__(self):
        arr = np.array(self.thetas, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("thetas must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("thetas must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "thetas", arr)


def num_params(n: int) -> int:
    """Parameter count of the ansatz: 1 for n = 1, else 3n - 3."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1 if n == 1 else 3 * n - 3


def param_kinds(n: int) -> tuple:
    """Gate kind ('ry' or 'cry') behind each ansatz parameter."""
    if n == 1:
        return ("ry",)
    kinds = ["ry"]
    for _ in range(2, n + 1):
        kinds.extend(["cry", "cry"])
    kinds.extend(["ry"] * (n - 2))
    return tuple(kinds)


def exact_angles(target: DiscreteDistribution) -> dict:
    """Conditional-Bernoulli angles loading the target exactly, by prefix.

    Key () is the root and key (b1, ..., bk) a prefix; the 2^n - 1 keys
    fix n. q = P[bit k = 0 | prefix] and cos(theta/2) = sqrt(q). Prefixes
    with zero mass are unobservable and get q = 1 (angle 0).
    """
    n = target.n_qubits
    masses = target.masses
    angles = {}
    for k in range(n):
        # Mass of each (k+1)-bit prefix: fold the tail qubits away.
        prefix_mass = masses.reshape(2 ** (k + 1), -1).sum(axis=1)
        for prefix_index in range(2**k):
            mass = prefix_mass[2 * prefix_index] + prefix_mass[2 * prefix_index + 1]
            if mass > 0.0:
                q = prefix_mass[2 * prefix_index] / mass
            else:
                q = 1.0
            q = min(max(q, 0.0), 1.0)
            prefix_bits = tuple((prefix_index >> (k - 1 - i)) & 1 for i in range(k))
            angles[prefix_bits] = 2.0 * np.arccos(np.sqrt(q))
    return angles


def build_exact_circuit(angles: dict) -> QuantumCircuit:
    """Multi-controlled RY chain realizing the conditional construction.

    The rotation for prefix b acts on qubit len(b), controlled by qubits
    0 .. len(b) - 1 with the bits of b as their control values: 2^n - 1
    ops in all.
    """
    n = len(angles).bit_length()
    ops = []
    for k in range(n):
        for prefix_index in range(2**k):
            prefix_bits = tuple((prefix_index >> (k - 1 - i)) & 1 for i in range(k))
            ops.append(CircuitOp(ry(angles[prefix_bits]), (k,), tuple(range(k)), prefix_bits))
    return QuantumCircuit(n, tuple(ops))


def build_parametric_circuit(n: int, params: GeneratorParams) -> QuantumCircuit:
    """Fixed RY/CRY ansatz with 3n - 3 angles (1 angle at n = 1), one op each.

    Layout: RY(t1) on qubit 0; for each stage k = 2..n a pair of CRYs on
    qubit k-1 controlled by qubit k-2, the first conditioned on control
    value 1 and the second on 0; then a mixing RY layer on qubits 2..n-1.
    """
    thetas = params.thetas
    if thetas.size != num_params(n):
        raise ValueError(
            f"ansatz for n = {n} needs {num_params(n)} parameters, got {thetas.size}"
        )
    ops = [CircuitOp(ry(thetas[0]), (0,))]
    idx = 1
    for k in range(2, n + 1):
        control, target = k - 2, k - 1
        ops.append(CircuitOp(ry(thetas[idx]), (target,), (control,)))
        ops.append(CircuitOp(ry(thetas[idx + 1]), (target,), (control,), (0,)))
        idx += 2
    for j in range(n - 2):
        ops.append(CircuitOp(ry(thetas[idx]), (j + 2,)))
        idx += 1
    return QuantumCircuit(n, tuple(ops))


def generate_state(n: int, params: GeneratorParams) -> StateVector:
    """Run the ansatz on |0...0>."""
    return run_circuit(build_parametric_circuit(n, params), basis_ket(n, 0))


def generate_amps(n: int, thetas: np.ndarray) -> np.ndarray:
    """Real amplitudes of the ansatz for a batch of angle sets.

    `thetas` has shape (B, num_params(n)); the result has shape (B, 2^n)
    and row i equals generate_state(n, GeneratorParams(thetas[i])).amps.
    Each stage k grows the state by its still-|0> target qubit k-1: the
    CRY pair rotates it by the first angle where qubit k-2 is 1 and by
    the second where it is 0. The mixing RYs then act on reshaped slices
    of the full state.

    The batch is the innermost axis of the work, (2^n, B) with q_0 most
    significant, so every multiply runs along at least B contiguous values
    whatever the qubit. Each amplitude takes its products in gate order,
    so a row does not depend on the batch. The work lives in `out` and in
    one buffer of twice its size, made once per call, until one transpose
    writes the C-contiguous (B, 2^n) result, which owns its buffer.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != num_params(n):
        raise ValueError(
            f"ansatz for n = {n} needs angle sets of shape (B, {num_params(n)}), "
            f"got {thetas.shape}"
        )
    batch, size = thetas.shape[0], 2**n
    # RY matrix rows [cos, -sin], [sin, cos] of every half angle, each entry a
    # contiguous (P, B) block: rot[a, s] is entry (a, s), trig[0::2] is (cos, sin).
    trig = np.empty((4,) + thetas.shape[::-1])
    np.divide(thetas.T, 2.0, out=trig[3])
    np.cos(trig[3], out=trig[0])
    np.sin(trig[3], out=trig[2])
    np.negative(trig[2], out=trig[1])
    trig[3] = trig[0]
    rot = trig.reshape((2, 2) + trig.shape[1:])
    out = np.empty((batch, size))
    work = np.empty(2 * size * batch)
    flat, terms = out.reshape(-1), work.reshape(2, -1)
    # Stage k appends qubit k - 1, growing (2^(k-2), q_(k-2), B) into
    # (2^(k-2), q_(k-2), q_(k-1), B). The stages alternate between `out` and
    # terms[0], so that the last lands in `out` if mixing RYs follow.
    bufs = (flat, terms[0]) if n > 2 else (terms[0], flat)
    amps = bufs[(n - 1) % 2][: 2 * batch].reshape(2, batch)
    np.copyto(amps, trig[0::2, 0])
    for k in range(2, n + 1):
        # fac[c, t]: cos (t = 0) or sin (t = 1) of the pair's angle for
        # control value c, angle rows 2k - 2 (c = 0) and 2k - 3 (c = 1).
        fac = trig[0::2, 2 * k - 2 : 2 * k - 4 : -1].transpose(1, 0, 2)
        grown = bufs[(n - k) % 2][: 2**k * batch].reshape(2 ** (k - 2), 2, 2, batch)
        np.multiply(amps.reshape(2 ** (k - 2), 2, 1, batch), fac, out=grown)
        amps = grown
    for j in range(n - 2):
        # Qubit j + 2 as axis s of (s, 2^(j+2), 1, 2^(n-j-3), B); terms[s, :, a] is
        # entry (a, s) times slice s, and slice a becomes terms[0, :, a] +
        # terms[1, :, a], in `out`, or in terms[0] after the last RY.
        # x + (-y) rounds as x - y, so slice 0 is c * zero - s * one bit for bit.
        before, after = 2 ** (j + 2), 2 ** (n - j - 3)
        view = flat.reshape(before, 2, 1, after, batch).swapaxes(0, 1)
        entries = rot[:, :, 2 * n - 1 + j].swapaxes(0, 1)[:, None, :, None]
        np.multiply(view, entries, out=work.reshape(2, before, 2, after, batch))
        np.add(terms[0], terms[1], out=terms[0] if j == n - 3 else flat)
    np.copyto(out, terms[0].reshape(size, batch).T)
    return out


def exact_params_2q(target: DiscreteDistribution) -> GeneratorParams:
    """Ansatz parameters reproducing any 2-qubit target exactly.

    At n = 2 the ansatz subsumes the exact construction: the CRY pair
    plays the two prefix angles (control value 1 first, then 0).
    """
    if target.n_qubits != 2:
        raise ValueError("only defined for 2-qubit targets")
    angles = exact_angles(target)
    return GeneratorParams(np.array([angles[()], angles[(1,)], angles[(0,)]]))
