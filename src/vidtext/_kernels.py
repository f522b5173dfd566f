"""The alignment kernels in numpy: word-pair edit costs and the DP fill.

``pair_cost_matrix`` computes one Levenshtein distance per pair of distinct
word types, not per cell.  The column types lie end to end in one flat row,
each behind one boundary cell that holds its j = 0 column, so the row has
one cell per code point plus one per column type.  The row types, sorted by
length, advance in blocks of ``ROW_BLOCK`` one code point at a time, each
step one DP row of every block row type against every column type at once.
``alignment_fill`` fills the alignment DP a row at a time with a running
minimum, and works out prefix sums and step codes a block of rows at a time.
Both compute in integers, so they match the per-cell loops in
``tests/oracles.py`` exactly.

The horizontal chain of the edit-distance DP, ``cur[j] = min(best[j],
cur[j - 1] + 1)``, is a running minimum once ``j`` is subtracted.  Over the
flat row the pair-cost kernel subtracts ``off[k] = k + t * bound`` from cell
``k`` of column type ``t``, where ``bound`` is one more than the longest row
word.  That offset jumps by more than any row word's length at each
boundary, so a running minimum over the whole row never carries a value
from one column type into the next.  The offsets reach about (column types
+ 2) * ``bound`` + cells, and the kernel computes in int32 when that fits
and in int64 when it does not.

Step codes, in tie-break priority order: 0 advances both sequences
(diagonal), 1 the column sequence only, 2 the row sequence only.
"""

from __future__ import annotations

import numpy as np

STEP_BOTH = 0
STEP_COL = 1
STEP_ROW = 2

ROW_BLOCK = 32  # row word types that advance together in pair_cost_matrix
FILL_BLOCK = 1 << 12  # cells per block of rows whose prefix sums alignment_fill takes at once

# perfbench still reads these and numba_active(); the next benchmark change removes all three.
pair_cost_matrix_nb = alignment_fill_nb = None


def numba_active() -> bool:
    """Always False: the kernels have one numpy implementation."""
    return False


def _word_types(flat: np.ndarray, offsets: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Distinct words in first-seen order, and each word's index among them."""
    bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    index: dict[bytes, int] = {}
    inverse = [index.setdefault(flat[s:e].tobytes(), len(index)) for s, e in bounds]
    return [np.frombuffer(key, dtype=flat.dtype) for key in index], np.array(inverse, np.intp)


def _type_distances(a_types: list[np.ndarray], b_types: list[np.ndarray], dtype) -> np.ndarray:
    """Levenshtein distance between every row type and every column type,
    computed in ``dtype``, which must hold the offsets (module docstring)."""
    a_len = np.array([len(w) for w in a_types], dtype=np.intp)
    b_len = np.array([len(w) for w in b_types], dtype=np.intp)
    lasts = np.cumsum(b_len + 1) - 1  # column type t fills cells lasts[t] - b_len[t] .. lasts[t]
    tid = np.repeat(np.arange(len(b_types)), b_len + 1)
    cell = np.arange(len(tid))
    j = cell - (lasts - b_len)[tid]
    codes = np.full(len(tid), -1, dtype=np.int32)  # -1 on the boundary cells
    codes[j > 0] = np.concatenate(b_types)
    off = (cell + tid * (int(a_len.max()) + 1)).astype(dtype)
    start = j - off  # q before any code point: d("", col[:j]) is j
    # After i code points of row type r, q[r, 1 + k] = d(row[:i], col[:j]) -
    # off[k] + i for cell k, column type col, position j.  The step that takes
    # code point c is then q'[k] = min over the cells k' <= k of
    # min(q[k' - 1] + (c != codes[k']), q[k'] + 2): diagonal and vertical,
    # then the horizontal chain as a running minimum.  q[:, 0] is a guard
    # that no diagonal takes; a boundary cell's diagonal reads the previous
    # type's last cell and loses to its vertical by the offset's jump.
    q = np.empty((ROW_BLOCK, len(tid) + 1), dtype=dtype)
    q[:, 0] = np.iinfo(dtype).max - 1
    diag = np.empty((ROW_BLOCK, len(tid)), dtype=dtype)
    mismatch = np.empty((ROW_BLOCK, len(tid)), dtype=bool)
    ends, end_off = lasts + 1, off[lasts]
    dist = np.empty((len(a_types), len(b_types)), dtype=np.int32)
    order = np.argsort(a_len, kind="stable")
    for lo in range(0, len(order), ROW_BLOCK):
        rows = order[lo : lo + ROW_BLOCK]
        lens = a_len[rows]
        steps = int(lens[-1])
        word = np.full((len(rows), steps), -1, dtype=np.int32)
        word[np.arange(steps) < lens[:, None]] = np.concatenate([a_types[t] for t in rows])
        done = np.searchsorted(lens, np.arange(steps + 1), side="right").tolist()
        q[: len(rows), 1:] = start
        s, e = 0, len(rows)  # rows s to e still have code points to take
        for i in range(steps + 1):
            if i:
                act = q[s:e]
                np.not_equal(codes, word[s:e, i - 1, None], out=mismatch[s:e])
                np.add(act[:, :-1], mismatch[s:e], out=diag[s:e])
                act[:, 1:] += 2
                np.minimum(diag[s:e], act[:, 1:], out=diag[s:e])
                np.minimum.accumulate(diag[s:e], axis=1, out=act[:, 1:])
            if done[i] > s:  # rows of length i are done: read their last cells
                dist[rows[s : done[i]]] = q[s : done[i], ends] - i + end_off
                s = done[i]
    return dist


def pair_cost_matrix(
    a_flat: np.ndarray, a_offsets: np.ndarray, b_flat: np.ndarray, b_offsets: np.ndarray
) -> np.ndarray:
    """Levenshtein distance between every (row word, column word) pair.

    Words arrive flattened: ``a_flat[a_offsets[i]:a_offsets[i + 1]]`` holds the
    code points of row word ``i``, and likewise for columns.
    """
    a_types, a_inverse = _word_types(a_flat, a_offsets)
    b_types, b_inverse = _word_types(b_flat, b_offsets)
    if not a_types or not b_types:
        return np.zeros((len(a_inverse), len(b_inverse)), dtype=np.int32)
    # Bounds every offset and value _type_distances holds, with room for its guard.
    top = len(b_flat) + (len(b_types) + 2) * (max(len(w) for w in a_types) + 2)
    dtype = np.int32 if top < np.iinfo(np.int32).max - 1 else np.int64
    dist = _type_distances(a_types, b_types, dtype)
    return dist[np.ix_(a_inverse, b_inverse)]


def alignment_fill(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative costs of the monotone full-coverage alignment DP over
    ``cost``, and the step code each cell took, ties going to the lowest."""
    n, m = cost.shape
    acc = np.empty((n, m), dtype=np.int64)
    step = np.empty((n, m), dtype=np.int8)
    step[0] = STEP_COL
    step[0, 0] = STEP_BOTH
    step[1:, 0] = STEP_ROW
    best = np.empty(m, dtype=np.int64)
    rows = max(1, FILL_BLOCK // max(m, 1))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        # acc[i, j] = min(best[j], acc[i, j - 1]) + cost[i, j], best being the
        # cheaper of the cells above, unrolls to run[j] + min over k <= j of
        # (best[k] - before[k]), with run and before the inclusive and
        # exclusive prefix sums of the row's costs.
        run = np.cumsum(cost[lo:hi], axis=1, dtype=np.int64)
        before = run - cost[lo:hi]
        if lo == 0:
            acc[0] = run[0]
        first = max(lo, 1)  # the block's first row with a row above it
        for i in range(first, hi):
            best[0] = acc[i - 1, 0]
            np.minimum(acc[i - 1, :-1], acc[i - 1, 1:], out=best[1:])
            np.subtract(best, before[i - lo], out=best)
            np.minimum.accumulate(best, out=acc[i])
            np.add(acc[i], run[i - lo], out=acc[i])
        diag, up = acc[first - 1 : hi - 1, :-1], acc[first - 1 : hi - 1, 1:]
        left = acc[first:hi, :-1]
        np.less(left, diag, out=step[first:hi, 1:])  # STEP_COL (1) if cheaper, else STEP_BOTH (0)
        np.copyto(step[first:hi, 1:], STEP_ROW, where=up < np.minimum(diag, left))
    return acc, step


def encode_words(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten words into (codepoint array, offsets array) for the kernels."""
    offsets = np.cumsum([0] + [len(w) for w in words], dtype=np.int64)
    flat = np.array([ord(ch) for w in words for ch in w], dtype=np.int32)
    return flat, offsets
