"""The gate-application kernel: numpy operations on views of the amplitudes.

Both functions work in place on a flat, contiguous complex128 amplitude
array of an n-qubit register, so that its reshapes are views. Reshaped to
``(2,) * n``, axis q of that array is qubit q (qubit 0 is the most
significant bit of the basis index). A control is applied by fixing its
axis at 1 with ``slice(1, 2)``, so every selection stays a view of the
caller's array and nothing is gathered or scattered.

Arguments, in order: the amplitudes, the gate (matrix or diagonal), the
target qubits in gate order (``targets[0]`` is the most significant bit of
the gate's own basis index), the register width n, and the control bitmask
``cmask`` (bit significance n - 1 - c for control qubit c).
"""

import itertools

import numpy as np

BACKEND = "numpy"

# A dense gate is applied to sub-views of at most 2^_BLOCK_QUBITS amplitudes
# (256 KiB), so that its block copy and product stay in cache: on a 20-qubit
# register this halves the time of a 1-qubit gate against one whole-state pass.
_BLOCK_QUBITS = 14


def _view_index(n, cmask):
    # One slice per qubit axis, with every control axis fixed at 1.
    index = [slice(None)] * n
    while cmask:
        low = cmask & -cmask
        index[n - low.bit_length()] = slice(1, 2)
        cmask ^= low
    return index


def apply_dense(amps, mat, targets, n, cmask):
    """Apply the 2^k x 2^k matrix `mat` to the k target qubits."""
    view = amps.reshape((2,) * n)
    index = _view_index(n, cmask)
    k = len(targets)
    free = [q for q in range(n) if index[q] == slice(None) and q not in targets]
    # Fix the most significant free qubits, one sub-view per assignment.
    outer = free[: max(0, len(free) + k - _BLOCK_QUBITS)]
    for bits in itertools.product((0, 1), repeat=len(outer)):
        for q, bit in zip(outer, bits):
            index[q] = slice(bit, bit + 1)
        block = np.moveaxis(view[tuple(index)], targets, range(k))
        block[...] = (mat @ block.reshape(len(mat), -1)).reshape(block.shape)


def apply_diag(amps, diag, targets, n, cmask):
    """Multiply each target basis slice by its diagonal entry, skipping 1s."""
    view = amps.reshape((2,) * n)
    index = _view_index(n, cmask)
    k = len(targets)
    for g, entry in enumerate(diag):
        if entry == 1:
            continue
        for i, q in enumerate(targets):
            bit = (g >> (k - 1 - i)) & 1
            index[q] = slice(bit, bit + 1)
        view[tuple(index)] *= entry
