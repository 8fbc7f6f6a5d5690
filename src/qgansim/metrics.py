"""Training monitors: fidelity, KL divergence, trace distance."""

from __future__ import annotations

import numpy as np

from .statevec import StateVector, inner
from .svi import DiscreteDistribution

KL_FLOOR = 1e-12


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, in [0, 1] for unit-norm states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"width mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return float(abs(inner(a, b)))


def kl_divergence(target: DiscreteDistribution, generated: StateVector) -> float:
    """KL(target || Born probabilities of generated).

    Bins with zero target mass contribute nothing; generated mass is
    floored at KL_FLOOR inside the log so the value stays finite while
    the generator still misses whole bins.
    """
    if generated.num_qubits != target.n_qubits:
        raise ValueError(
            f"width mismatch: target has {target.n_qubits} qubits, "
            f"state has {generated.num_qubits}"
        )
    p = target.masses
    q = np.maximum(generated.probabilities(), KL_FLOOR)
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def trace_distance_pure(a: StateVector, b: StateVector) -> float:
    """Trace norm ||rho_a - rho_b||_1 = 2 sqrt(1 - |<a|b>|^2) for pure states."""
    return _trace_distance(fidelity(a, b))


def _trace_distance(f: float) -> float:
    # Trace distance of two pure states from their fidelity f = |<a|b>|.
    return 2.0 * np.sqrt(max(1.0 - f * f, 0.0))
