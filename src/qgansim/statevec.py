"""Dense state-vector simulation of small quantum registers.

Conventions shared by the whole package:

* Qubit 0 is the most significant bit of the basis index, so the basis
  state |j1 j2 ... jn> has index j1*2^(n-1) + ... + jn.
* All operations are pure: inputs are never mutated and returned values
  can be shared freely across threads.
* Width is capped at MAX_QUBITS because amplitudes are stored densely.
* A gate is one unitary array, its diagonal or its matrix (UnitaryGate).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

MAX_QUBITS = 20

# Dense 2^n x 2^n matrices (circuit_matrix and fourier's reference QFT
# matrix) are refused above this width: 2^12 x 2^12 complex entries are
# already 256 MiB.
_MAX_GATE_QUBITS = 12

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
        check_int("num_qubits", num_qubits, 1, MAX_QUBITS)
        arr = np.asarray(amps, dtype=np.complex128)
        if arr.shape != (2**num_qubits,):
            raise ValueError(
                f"expected {2**num_qubits} amplitudes, got shape {arr.shape}"
            )
        # One pass, no temporaries: the norm is non-finite when an amplitude
        # is, and `abs(nan - 1) > tol` is False, so test that first.
        norm_sq = float(np.vdot(arr, arr).real)
        if not np.isfinite(norm_sq):
            raise ValueError("amplitudes must be finite")
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
    """A unitary on `arity` qubits: its 2^arity diagonal entries (1-d), each
    of modulus 1, or its 2^arity x 2^arity matrix (2-d).

    The kernel multiplies slices by a diagonal and multiplies by any
    matrix, X and SWAP too. circuit_matrix of a one-op circuit gives any
    gate's dense matrix. Every gate is checked here, the package factories'
    too. Two gates are equal when their entries have the same shape and
    bytes.
    """

    entries: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, UnitaryGate):
            return NotImplemented
        a, b = self.entries, other.entries
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def __hash__(self):
        return hash((self.entries.shape, self.entries.tobytes()))

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=np.complex128)
        dim = len(arr)
        if arr.shape not in ((dim,), (dim, dim)) or dim < 2 or dim & (dim - 1):
            raise ValueError(f"gate entries must be 2^k values or a 2^k x 2^k matrix, k >= 1; "
                             f"got shape {arr.shape}")
        # Off by max ||d| - 1| as a diagonal, max |UU^dag - I| as a matrix.
        diag = arr.ndim == 1
        err = np.max(np.abs(np.abs(arr) - 1.0 if diag else arr @ arr.conj().T - np.eye(dim)))
        # Written so that a NaN error fails too.
        if not err <= _UNITARY_TOL:
            raise ValueError(f"{'diagonal' if diag else 'matrix'} is not unitary (max error {err})")
        object.__setattr__(self, "entries", arr)

    @property
    def arity(self) -> int:
        return len(self.entries).bit_length() - 1


@dataclass(frozen=True)
class CircuitOp:
    """A gate bound to target wires, conditioned on each control wire
    reading its control value: 1 unless `control_values` gives 0 for it.

    `control_values` holds one 0 or 1 per control; None stands for all 1s,
    and an op stores and compares it spelled out.
    """

    gate: UnitaryGate
    targets: tuple
    controls: tuple = ()
    control_values: tuple | None = None

    def __post_init__(self):
        controls = tuple(self.controls)
        values = (1,) * len(controls) if self.control_values is None else self.control_values
        # Each field is checked before it is stored, so int() truncates nothing.
        for key, items, high in (
            ("targets", self.targets, None), ("controls", controls, None), ("control_values", values, 1)
        ):
            items = tuple(items)
            for x in items:
                check_int(key, x, 0, high)
            object.__setattr__(self, key, tuple(map(int, items)))
        if len(self.control_values) != len(controls):
            raise ValueError(f"control_values = {self.control_values!r} needs one value for "
                             f"each of {len(controls)} controls")
        if len(self.targets) != self.gate.arity:
            raise ValueError(
                f"gate arity {self.gate.arity} needs {self.gate.arity} targets, "
                f"got {len(self.targets)}"
            )
        touched = self.targets + self.controls
        if len(set(touched)) != len(touched):
            raise ValueError("target and control qubits must be distinct")

    def max_qubit(self):
        return max(self.targets + self.controls)


@dataclass(frozen=True)
class QuantumCircuit:
    """Ordered list of CircuitOps over a fixed register width."""

    num_qubits: int
    ops: tuple

    def __post_init__(self):
        ops = tuple(self.ops)
        check_int("num_qubits", self.num_qubits, 1, MAX_QUBITS)
        for op in ops:
            if op.max_qubit() >= self.num_qubits:
                raise ValueError(
                    f"op touches qubit {op.max_qubit()} but circuit has "
                    f"{self.num_qubits} qubits"
                )
        object.__setattr__(self, "ops", ops)


def basis_ket(num_qubits: int, index: int) -> StateVector:
    """|index> on num_qubits qubits."""
    # Checked before the 2^num_qubits amplitudes are allocated.
    check_int("num_qubits", num_qubits, 1, MAX_QUBITS)
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits become the most significant."""
    # Checked before the 2^(a + b) amplitudes are allocated.
    width = a.num_qubits + b.num_qubits
    check_int("num_qubits", width, 1, MAX_QUBITS)
    return StateVector(width, np.kron(a.amps, b.amps))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the left argument conjugated."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states must have equal width")
    return complex(np.vdot(a.amps, b.amps))


def _masks(controls, width):
    # The kernel's control bitmask and its bits that condition on 0, for a
    # {wire: value} dict: qubit q has bit significance width - 1 - q.
    cmask = zeros = 0
    for c, v in controls.items():
        cmask |= 1 << (width - 1 - c)
        zeros |= (1 - v) << (width - 1 - c)
    return cmask, zeros


def _wire_ops(ops):
    # CircuitOps as the (entries, targets, controls) triples that the
    # helpers below take, with controls as a {wire: value} dict.
    return [(op.gate.entries, op.targets, dict(zip(op.controls, op.control_values))) for op in ops]


def _touched(op):
    # The wires an (entries, targets, controls) op acts on or reads.
    return set(op[1]) | set(op[2])


def _groups(ops):
    # The (entries, targets, controls) ops in groups that run_circuit
    # applies in one pass each, as (ops, sorted touched qubits) pairs. An op
    # joins the first group that fits after the last group touching any of
    # its qubits (targets or controls), so it moves only past ops on other
    # qubits, which commute with it. An all-diagonal group spans at most
    # _kernels._BLOCK_QUBITS qubits. Any other group of two or more ops spans
    # a sorted run of at most _kernels._FUSE_QUBITS wires, so that its fused
    # matrix takes the kernel's span path. Last, each run of adjacent
    # all-diagonal groups is repacked (_repack).
    groups, last = [], {}
    for op in ops:
        touched = _touched(op)
        diag = op[0].ndim == 1
        g = max(last.get(q, 0) for q in touched)
        while g < len(groups):
            run, wires, all_diag = groups[g]
            union = wires | touched
            if diag and all_diag:
                fits = len(union) <= _kernels._BLOCK_QUBITS
            else:
                fits = len(union) <= _kernels._FUSE_QUBITS and max(union) - min(union) < len(union)
            if fits:
                break
            g += 1
        else:
            groups.append([[], set(), True])
        groups[g][0].append(op)
        groups[g][1] |= touched
        groups[g][2] &= diag
        last.update(dict.fromkeys(touched, g))
    out = []
    for all_diag, run in itertools.groupby(groups, key=lambda group: group[2]):
        run = list(run)
        out += _repack(run) if all_diag and len(run) > 1 else run
    return [(run, sorted(wires)) for run, wires, _ in out]


def _repack(groups):
    # Adjacent all-diagonal groups: their ops commute, so they may be pooled
    # and packed again, first-fit, into as few groups of at most
    # _kernels._BLOCK_QUBITS wires as fit. The pool is sorted by each op's
    # wires from the highest down, compared lexicographically, so ops on
    # low wires fill the first groups. The repacking is kept only when it
    # makes fewer groups: first-fit is not optimal for every circuit.
    pool = [op for run, _, _ in groups for op in run]
    pool.sort(key=lambda op: sorted(_touched(op), reverse=True))
    folds = []
    for op in pool:
        touched = _touched(op)
        fold = next((f for f in folds if len(f[1] | touched) <= _kernels._BLOCK_QUBITS), None)
        if fold is None:
            fold = [[], set(), True]
            folds.append(fold)
        fold[0].append(op)
        fold[1] |= touched
    return folds if len(folds) < len(groups) else groups


def _compose(ops, wires, amps: np.ndarray) -> np.ndarray:
    # Apply the (entries, targets, controls) `ops` in place to `amps`, whose
    # last len(wires) qubits stand for `wires` in that order, and return it.
    n = amps.size.bit_length() - 1
    axis = {q: n - len(wires) + i for i, q in enumerate(wires)}
    for entries, targets, controls in ops:
        kernel = _kernels.apply_diag if entries.ndim == 1 else _kernels.apply_dense
        cmask, zeros = _masks({axis[c]: v for c, v in controls.items()}, n)
        kernel(amps, entries, [axis[q] for q in targets], n, cmask, zeros=zeros)
    return amps


def _matrix(ops, wires) -> np.ndarray:
    # The 2^u x 2^u matrix of `ops` over the u qubits `wires`: on a 2u-qubit
    # register, row j of the identity becomes the image of basis ket j.
    dim = 2 ** len(wires)
    rows = _compose(ops, wires, np.eye(dim, dtype=np.complex128).reshape(-1))
    return rows.reshape(dim, dim).T


def apply_op(state: StateVector, op: CircuitOp) -> StateVector:
    """Apply one gate (with controls) to a state: a one-op run_circuit."""
    return run_circuit(QuantumCircuit(state.num_qubits, (op,)), state)


def _plan(circuit: QuantumCircuit):
    # The groups run_circuit applies and its final wire frame `where`
    # (logical wire -> axis of the amplitudes): an uncontrolled SWAP only
    # exchanges two entries of the frame, and every other op is mapped
    # through it into an (entries, targets, controls) triple.
    where, ops = list(range(circuit.num_qubits)), []
    for op in circuit.ops:
        if not op.controls and op.gate == _SWAP:
            a, b = op.targets
            where[a], where[b] = where[b], where[a]
        else:
            targets = tuple(where[q] for q in op.targets)
            controls = {where[q]: v for q, v in zip(op.controls, op.control_values)}
            ops.append((op.gate.entries, targets, controls))
    return _groups(ops), where


def run_circuit(circuit: QuantumCircuit, input: StateVector) -> StateVector:
    """Left-to-right composition of the circuit's ops.

    An uncontrolled SWAP moves no data: it exchanges two entries of a wire
    frame (logical wire -> axis of the amplitudes), and every later op acts
    on the axes its wires map to. The frame is applied once at the end, in
    place, and not at all when it is the identity. The other ops are
    applied in groups, one pass over the state each: an op may move ahead
    of ops on other qubits (with which it commutes) to join an earlier
    group, and the diagonal ops between two dense groups, which all
    commute, are repacked first-fit when that makes fewer groups. A group
    of diagonal ops is folded into one diagonal over up to 14 qubits; any
    other group of several ops, on a sorted run of up to 3 wires, is
    multiplied into one dense gate. Only rounding differs from applying
    the ops one at a time.
    """
    if circuit.num_qubits != input.num_qubits:
        raise ValueError("circuit and state widths differ")
    n = circuit.num_qubits
    groups, where = _plan(circuit)
    amps = input.amps.copy()
    for run, wires in groups:
        if len(run) == 1:
            _compose(run, range(n), amps)
        elif all(entries.ndim == 1 for entries, _, _ in run):
            diag = _compose(run, wires, np.ones(2 ** len(wires), dtype=np.complex128))
            _kernels.apply_diag(amps, diag, wires, n, 0)
        else:
            _kernels.apply_dense(amps, _matrix(run, wires), wires, n, 0)
    _kernels.permute_wires(amps, where, n)
    return StateVector(n, amps)


def circuit_matrix(circuit: QuantumCircuit) -> np.ndarray:
    """Dense matrix of the whole circuit (columns are images of basis kets)."""
    if circuit.num_qubits > _MAX_GATE_QUBITS:
        raise ValueError(
            f"num_qubits = {circuit.num_qubits}: circuit_matrix is limited to "
            f"{_MAX_GATE_QUBITS} qubits"
        )
    return _matrix(_wire_ops(circuit.ops), range(circuit.num_qubits)).copy()


def register_distribution(state: StateVector, num_leading: int) -> np.ndarray:
    """Marginal outcome distribution of the first `num_leading` qubits."""
    if not 1 <= num_leading <= state.num_qubits:
        raise ValueError("register width out of range")
    return state.probabilities().reshape(2**num_leading, -1).sum(axis=1)


def hadamard() -> UnitaryGate:
    """Single-qubit Hadamard."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    return UnitaryGate(h)


def pauli_x() -> UnitaryGate:
    """Single-qubit bit flip."""
    return UnitaryGate(np.array([[0.0, 1.0], [1.0, 0.0]]))


def ry(theta: float) -> UnitaryGate:
    """Rotation about Y: RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>."""
    if not np.isfinite(theta):
        raise ValueError("angle must be finite")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return UnitaryGate(np.array([[c, -s], [s, c]], dtype=np.complex128))


def swap() -> UnitaryGate:
    """Two-qubit SWAP."""
    return UnitaryGate(np.eye(4)[[0, 2, 1, 3]])


# run_circuit keeps an uncontrolled gate equal to this in its wire frame.
_SWAP = swap()


def diagonal(phases) -> UnitaryGate:
    """Diagonal gate Diag(e^(2*i*pi*phases[x])) over a power-of-two domain."""
    ph = np.asarray(phases, dtype=np.float64)
    if ph.ndim != 1 or ph.size < 2 or ph.size & (ph.size - 1):
        raise ValueError("phases length must be a power of 2, at least 2")
    if ph.size > 2**MAX_QUBITS:
        raise ValueError(f"diagonal gate on {ph.size} entries, over the limit of 2^{MAX_QUBITS}")
    if not np.all(np.isfinite(ph)):  # before np.exp warns about them
        raise ValueError("phases must be finite")
    # e^(2 i pi ph) has period 1. Reduced first, a huge phase cannot lose
    # its whole turns to rounding (or overflow) in the product with 2 pi.
    return UnitaryGate(np.exp(2j * np.pi * np.remainder(ph, 1.0)))


def shift_circuit(circuit: QuantumCircuit, offset: int, new_width: int) -> QuantumCircuit:
    """Re-house a circuit with every qubit index moved up by `offset`."""
    ops = tuple(
        CircuitOp(
            op.gate,
            tuple(q + offset for q in op.targets),
            tuple(q + offset for q in op.controls),
            op.control_values,
        )
        for op in circuit.ops
    )
    return QuantumCircuit(new_width, ops)
