"""The gate-application kernel: numpy operations on views of the amplitudes.

Every function works in place on a flat, contiguous complex128 amplitude
array of an n-qubit register, so that its reshapes are views. Reshaped to
``(2,) * n``, axis q of that array is qubit q (qubit 0 is the most
significant bit of the basis index). A control is applied by fixing its
axis at the value it conditions on, ``slice(v, v + 1)``, so every
selection stays a view of the caller's array and nothing is gathered or
scattered.

Arguments, in order: the amplitudes, the gate (a matrix or a diagonal's
entries), the target qubits in gate order (``targets[0]`` is the most
significant bit of the gate's own basis index), the register width n, and
the control bitmask ``cmask`` (bit significance n - 1 - c for control
qubit c). The keyword ``zeros`` marks the controls of ``cmask`` that
condition on 0; every other control conditions on 1.

A dense gate without controls whose targets are a sorted run of wires
(every fused block of an RY layer, most QFT blocks) takes the span path:
the amplitudes, viewed as (2^first, 2^k, cols), are multiplied in place by
BLAS one cache-sized piece at a time, with no copy of the target axes. A
real matrix (RY, H and their products) is applied to the float64 view,
where the (re, im) pair is one more column axis, with half the flops of
complex arithmetic. Other dense gates move their target axes to the front
of each sub-view and multiply a copy. X, SWAP and other 0/1 matrices are
multiplied like any dense gate. Their product returns each finite
amplitude's bits in its new place, except that -0.0 becomes +0.0.

`permute_wires` applies a wire permutation (the frame of SWAPs that
statevec's run_circuit tracks instead of applying) in place, in at most
three passes over tiles of the (2^high, 2^low) view: wires that cross the
split into rows and columns are brought into line, then trade places in a
tiled transpose, and last the rows move along the cycles of the row
permutation, each row's columns gathered by the permutation of the low
wires. A pass whose permutation is the identity is skipped, and no
temporary is larger than a tile.
"""

import itertools

import numpy as np

BACKEND = "numpy"

# Dense gates are applied to sub-views, and the span path to pieces, of at
# most 2^_BLOCK_QUBITS amplitudes (256 KiB), so that their copies and
# product buffers stay in cache: on a 20-qubit register this halves the
# time of a 1-qubit gate against one whole-state pass. statevec also caps a
# folded diagonal run at this many qubits.
_BLOCK_QUBITS = 14

# statevec fuses ops into one dense gate over at most this many qubits. On
# the 20-qubit RY layer and QFT, widths 2, 4 and 5 were slower than 3; with
# the span path, width 4 runs the RY layer in 19-24 ms against 19-21 ms and
# the QFT in 115-158 ms against 86-119 ms.
_FUSE_QUBITS = 3

# permute_wires moves data in tiles of at most 2^_TILE_QUBITS amplitudes
# (64 KiB). For the (1024, 1024) transpose of a 20-qubit bit reversal,
# 2^12 was faster than 2^10 and 2^14.
_TILE_QUBITS = 12


def _view_index(n, cmask, zeros):
    # One slice per qubit axis, with every control axis fixed at its value.
    index = [slice(None)] * n
    while cmask:
        low = cmask & -cmask
        v = 0 if zeros & low else 1
        index[n - low.bit_length()] = slice(v, v + 1)
        cmask ^= low
    return index


def _blocks(amps, targets, n, cmask, zeros):
    # Sub-views of at most 2^_BLOCK_QUBITS amplitudes, target axes first:
    # the most significant free qubits are fixed, one sub-view per assignment.
    view = amps.reshape((2,) * n)
    index = _view_index(n, cmask, zeros)
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


def apply_dense(amps, mat, targets, n, cmask, *, zeros=0):
    """Apply the 2^k x 2^k matrix `mat` to the k target qubits.

    Uncontrolled targets that are a sorted run of wires take the span path;
    any other gate moves its target axes to the front of each sub-view and
    multiplies a copy.
    """
    first, k = targets[0], len(targets)
    if not cmask and list(targets) == list(range(first, first + k)):
        _apply_span(amps, mat, first, n - first - k)
        return
    for block in _blocks(amps, targets, n, cmask, zeros):
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


def apply_diag(amps, diag, targets, n, cmask, *, zeros=0):
    """Multiply each target basis slice by its diagonal entry.

    Over one or two qubits this goes slice by slice and skips the entries
    equal to 1; over more it is one broadcast multiply.
    """
    view = amps.reshape((2,) * n)
    index = _view_index(n, cmask, zeros)
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


def permute_wires(amps, where, n):
    """Move wire where[q] of the register to wire q, in place.

    The amplitudes become their (2,) * n view transposed by `where`. The
    identity moves nothing. Rows are the assignments of the first
    n - n // 2 wires, so a 20-qubit register has 2^10 rows of 2^10
    amplitudes. Wires that cross that split trade places in a tiled
    transpose; then rows move along the cycles of the row permutation,
    each gathered by the permutation of the wires after the split. All
    temporaries are tile-sized.
    """
    where = list(where)
    if where == list(range(n)):
        return
    low = n // 2
    high = n - low
    rising = sorted(w for w in where[:high] if w >= high)
    falling = sorted(w for w in where[high:] if w < high)
    c = len(rising)
    if c:
        # Bring the falling wires to the last c before the split and the
        # rising ones to the first c after it, trade those places, and
        # leave the rest to the row pass below.
        lineup = (
            [w for w in range(high) if w not in falling] + falling
            + rising + [w for w in range(high, n) if w not in rising]
        )
        _permute_rows(amps, lineup, high, n)
        _trade(amps.reshape(2 ** (high - c), 2**c, 2**c, 2 ** (low - c)))
        traded = list(range(n))
        traded[high - c : high + c] = traded[high : high + c] + traded[high - c : high]
        back = np.argsort(lineup).tolist()
        where = [traded[back[w]] for w in where]
    _permute_rows(amps, where, high, n)


def _source(where, k):
    # For each k-bit index x, the index it reads: bit where[q] of it is bit
    # q of x. None for the identity.
    if where == list(range(k)):
        return None
    x = np.arange(2**k)
    src = np.zeros_like(x)
    for q, w in enumerate(where):
        src |= ((x >> (k - 1 - q)) & 1) << (k - 1 - w)
    return src


def _permute_rows(amps, where, high, n):
    # `where` keeps the first `high` wires among themselves. Row r of the
    # (2^high, 2^low) view takes row rows[r], its columns gathered by cols.
    rows, cols = _source(where[:high], high), _source([w - high for w in where[high:]], n - high)
    if rows is None and cols is None:
        return
    view = amps.reshape(2**high, -1)
    step = max(1, 2**_TILE_QUBITS // view.shape[1])
    if rows is None:
        cycles = {1: np.arange(len(view))[:, None]}
    else:
        # Cycles r, rows[r], rows[rows[r]], ... by length; a row that stays
        # is one only if its columns move.
        f = rows.tolist()
        seen, cycles = [False] * len(f), {}
        for r in range(len(f)):
            if seen[r] or (f[r] == r and cols is None):
                continue
            cycle = [r]
            while f[cycle[-1]] != r:
                cycle.append(f[cycle[-1]])
            for s in cycle:
                seen[s] = True
            cycles.setdefault(len(cycle), []).append(cycle)
        cycles = {k: np.array(v) for k, v in cycles.items()}
    for by_length in cycles.values():
        for b in range(0, len(by_length), step):
            batch = by_length[b : b + step].T
            first = _gathered(view, batch[0], cols)
            for dst, src in zip(batch, batch[1:]):
                view[dst] = _gathered(view, src, cols)
            view[batch[-1]] = first


def _gathered(view, rows, cols):
    # A copy of rows `rows` of `view`, their columns gathered by `cols`.
    # `take` gathers columns faster than fancy indexing does.
    return view[rows] if cols is None else np.take(view[rows], cols, axis=1)


def _trade(view):
    # view[r, a, b, s] and view[r, b, a, s] trade places, one pair of tiles
    # at a time.
    rows, dim, _, cols = view.shape
    tile = 2**_TILE_QUBITS
    side = dim
    while side > 1 and side * side * cols > tile:
        side //= 2
    step = max(1, tile // (side * side * cols))
    for r in range(0, rows, step):
        for a in range(0, dim, side):
            for b in range(a, dim, side):
                p = view[r : r + step, a : a + side, b : b + side]
                if a == b:
                    p[...] = p.transpose(0, 2, 1, 3)  # numpy buffers the overlap
                    continue
                q = view[r : r + step, b : b + side, a : a + side]
                keep = p.copy()
                p[...] = q.transpose(0, 2, 1, 3)
                q[...] = keep.transpose(0, 2, 1, 3)
