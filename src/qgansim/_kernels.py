"""The gate-application kernel: numpy operations on views of the amplitudes.

Every function works in place on a flat, contiguous complex128 amplitude
array of an n-qubit register, so that its reshapes are views. Reshaped to
``(2,) * n``, axis q of that array is qubit q (qubit 0 is the most
significant bit of the basis index). A control is applied by fixing its
axis at 1 with ``slice(1, 2)``, so every selection stays a view of the
caller's array and nothing is gathered or scattered.

Arguments, in order: the amplitudes, the gate (a matrix or a diagonal's
entries), the target qubits in gate order (``targets[0]`` is the most
significant bit of the gate's own basis index), the register width n, and
the control bitmask ``cmask`` (bit significance n - 1 - c for control
qubit c).

A permutation matrix (X, SWAP) moves slices and multiplies nothing. Any
other dense gate without controls whose targets are a sorted run of wires
(every fused block of an RY layer, most QFT blocks) takes the span path:
the amplitudes, viewed as (2^first, 2^k, cols), are multiplied in place by
BLAS one cache-sized piece at a time, with no copy of the target axes. A
real matrix (RY, H and their products) is applied to the float64 view,
where the (re, im) pair is one more column axis, with half the flops of
complex arithmetic. Other dense gates move their target axes to the front
of each sub-view and multiply a copy.
"""

import itertools

import numpy as np

BACKEND = "numpy"

# Dense and permutation gates are applied to sub-views, and the span path
# to pieces, of at most 2^_BLOCK_QUBITS amplitudes (256 KiB), so that their
# copies and product buffers stay in cache: on a 20-qubit register this
# halves the time of a 1-qubit gate against one whole-state pass. statevec
# also caps a folded diagonal run at this many qubits.
_BLOCK_QUBITS = 14

# statevec fuses ops into one dense gate over at most this many qubits. On
# the 20-qubit RY layer and QFT, widths 2, 4 and 5 were slower than 3; with
# the span path, width 4 runs the RY layer in 19-24 ms against 19-21 ms and
# the QFT in 115-158 ms against 86-119 ms.
_FUSE_QUBITS = 3


def _view_index(n, cmask):
    # One slice per qubit axis, with every control axis fixed at 1.
    index = [slice(None)] * n
    while cmask:
        low = cmask & -cmask
        index[n - low.bit_length()] = slice(1, 2)
        cmask ^= low
    return index


def _blocks(amps, targets, n, cmask):
    # Sub-views of at most 2^_BLOCK_QUBITS amplitudes, target axes first:
    # the most significant free qubits are fixed, one sub-view per assignment.
    view = amps.reshape((2,) * n)
    index = _view_index(n, cmask)
    k = len(targets)
    free = [q for q in range(n) if index[q] == slice(None) and q not in targets]
    outer = free[: max(0, len(free) + k - _BLOCK_QUBITS)]
    for bits in itertools.product((0, 1), repeat=len(outer)):
        for q, bit in zip(outer, bits):
            index[q] = slice(bit, bit + 1)
        yield np.moveaxis(view[tuple(index)], targets, range(k))


def _bits(g, k):
    # The k-bit target basis index g as one index per target axis.
    return tuple((g >> (k - 1 - i)) & 1 for i in range(k))


def _permutation(mat):
    # perm with column j of `mat` equal to e_perm[j], or None. The identity is
    # left to the product, which turns -0.0 into +0.0 (moving nothing keeps it).
    if np.count_nonzero(mat) != len(mat):
        return None
    cols, rows = np.nonzero(mat.T == 1)  # the 1s, column by column
    perm, order = rows.tolist(), list(range(len(mat)))
    if cols.tolist() != order or sorted(perm) != order or perm == order:
        return None
    return perm


def apply_dense(amps, mat, targets, n, cmask):
    """Apply the 2^k x 2^k matrix `mat` to the k target qubits.

    A permutation matrix moves slices. Otherwise uncontrolled targets that
    are a sorted run of wires take the span path; any other gate moves its
    target axes to the front of each sub-view and multiplies a copy.
    """
    perm = _permutation(mat)
    if perm is not None:
        _move(amps, perm, targets, n, cmask)
        return
    first, k = targets[0], len(targets)
    if not cmask and list(targets) == list(range(first, first + k)):
        _apply_span(amps, mat, first, n - first - k)
        return
    for block in _blocks(amps, targets, n, cmask):
        block[...] = (mat @ block.reshape(len(mat), -1)).reshape(block.shape)


def _apply_span(amps, mat, first, low):
    # `mat` on the wires first, first + 1, ..., with `low` wires after them.
    # matmul buffers the piece it overwrites, so its only temporary is
    # piece-sized.
    if not mat.imag.any():
        amps, mat, cols = amps.view(np.float64), np.ascontiguousarray(mat.real), 2 << low
    else:
        cols = 1 << low
    dim = len(mat)
    piece = 2**_BLOCK_QUBITS * 16 // amps.itemsize  # view elements in a sub-view's bytes
    if cols < 8:
        # Few columns make many tiny products. Each row of the
        # (rows, 2^k * cols) view is multiplied by kron(mat, I_cols)^T
        # instead: cols times the flops, in one product per piece. From 8
        # columns on, the tiny products were the faster (4.6 against 11 ms
        # for a real 3-qubit gate on 20 qubits).
        wide = np.kron(mat, np.eye(cols)).T
        view = amps.reshape(-1, dim * cols)
        step = max(1, piece // (dim * cols))
        for a in range(0, len(view), step):
            block = view[a : a + step]
            np.matmul(block, wide, out=block)
        return
    view = amps.reshape(-1, dim, cols)
    step, width = max(1, piece // (dim * cols)), min(cols, max(1, piece // dim))
    for a in range(0, len(view), step):
        for c in range(0, cols, width):
            block = view[a : a + step, :, c : c + width]
            np.matmul(mat, block, out=block)


def apply_diag(amps, diag, targets, n, cmask):
    """Multiply each target basis slice by its diagonal entry.

    Over one or two qubits this goes slice by slice and skips the entries
    equal to 1; over more it is one broadcast multiply.
    """
    view = amps.reshape((2,) * n)
    index = _view_index(n, cmask)
    k = len(targets)
    if k > 2:
        # The diagonal as a tensor with its axes in qubit order and size-1
        # axes on the other qubits.
        shape = [1] * n
        for q in targets:
            shape[q] = 2
        tensor = diag.reshape((2,) * k).transpose(np.argsort(targets)).reshape(shape)
        sub = view[tuple(index)]
        sub *= tensor
        return
    for g, entry in enumerate(diag):
        if entry == 1:
            continue
        for q, bit in zip(targets, _bits(g, k)):
            index[q] = slice(bit, bit + 1)
        view[tuple(index)] *= entry


def _move(amps, perm, targets, n, cmask):
    # Move each target basis slice g to slice perm[g], one cycle at a time.
    k = len(targets)
    cycles, seen = [], set()
    for g in range(len(perm)):
        if g in seen or perm[g] == g:
            continue
        cycle = [g]
        while perm[cycle[-1]] != g:
            cycle.append(perm[cycle[-1]])
        seen.update(cycle)
        cycles.append([_bits(h, k) for h in cycle])
    for block in _blocks(amps, targets, n, cmask):
        for cycle in cycles:
            # Slice cycle[i] moves to cycle[i + 1], and the last to the first.
            last = block[cycle[-1]].copy()
            for dst, src in zip(cycle[:0:-1], cycle[-2::-1]):
                block[dst] = block[src]
            block[cycle[0]] = last
