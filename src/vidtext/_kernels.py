"""The alignment kernels in numpy: word-pair edit costs and the DP fill.

``pair_cost_matrix`` computes one Levenshtein distance per pair of distinct
word types, not per cell, running each row type's DP across every column
type at once; ``alignment_fill`` fills the alignment DP a row at a time with
a running minimum.  Both compute in integers, so they match the per-cell
loops in ``tests/oracles.py`` exactly.

Step codes, in tie-break priority order: 0 advances both sequences
(diagonal), 1 the column sequence only, 2 the row sequence only.
"""

from __future__ import annotations

import numpy as np

STEP_BOTH = 0
STEP_COL = 1
STEP_ROW = 2

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


def pair_cost_matrix(
    a_flat: np.ndarray, a_offsets: np.ndarray, b_flat: np.ndarray, b_offsets: np.ndarray
) -> np.ndarray:
    """Levenshtein distance between every (row word, column word) pair.

    Words arrive flattened: ``a_flat[a_offsets[i]:a_offsets[i + 1]]`` holds the
    code points of row word ``i``, and likewise for columns.
    """
    a_types, a_inverse = _word_types(a_flat, a_offsets)
    b_types, b_inverse = _word_types(b_flat, b_offsets)
    b_len = np.array([len(w) for w in b_types], dtype=np.intp)
    width = int(b_len.max(initial=0))
    # Padding lies past each word's end, and a DP cell depends only on the
    # columns before it, so padding never reaches the cell read at the end.
    b_pad = np.full((len(b_types), width), -1, dtype=np.int32)
    for t, word in enumerate(b_types):
        b_pad[t, : len(word)] = word
    ramp = np.arange(width + 1, dtype=np.int32)
    columns = np.arange(len(b_types))
    dist = np.empty((len(a_types), len(b_types)), dtype=np.int32)
    for t, word in enumerate(a_types):
        prev = np.broadcast_to(ramp, (len(b_types), width + 1))
        for i, code in enumerate(word.tolist(), start=1):
            # Diagonal and vertical moves into cur[1:]; cur[0] is i.  The
            # horizontal chain cur[j + 1] = min(best[j], cur[j] + 1) is then a
            # running minimum of best - j, shifted back by j.
            best = np.minimum(prev[:, :-1] + (b_pad != code), prev[:, 1:] + 1)
            cur = np.empty_like(prev)
            cur[:, 0] = i
            cur[:, 1:] = best - ramp[1:]
            prev = np.minimum.accumulate(cur, axis=1) + ramp
        dist[t] = prev[columns, b_len]
    return dist[np.ix_(a_inverse, b_inverse)]


def alignment_fill(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative costs of the monotone full-coverage alignment DP over
    ``cost``, and the step code each cell took, ties going to the lowest."""
    n, m = cost.shape
    acc = np.empty((n, m), dtype=np.int64)
    step = np.full((n, m), STEP_COL, dtype=np.int8)
    acc[0] = np.cumsum(cost[0], dtype=np.int64)
    step[0, 0] = STEP_BOTH
    step[1:, 0] = STEP_ROW
    for i in range(1, n):
        # acc[i, j] = min(mm[j], acc[i, j - 1]) + cost[i, j] unrolls to C[j] +
        # min over k <= j of (mm[k] - C[k - 1]), C being the running row sum.
        diag, up = acc[i - 1, :-1], acc[i - 1, 1:]
        mm = acc[i - 1].copy()
        np.minimum(diag, up, out=mm[1:])
        run = np.cumsum(cost[i], dtype=np.int64)
        acc[i] = run + np.minimum.accumulate(mm - (run - cost[i]))
        left = acc[i, :-1]
        col = np.where(left < diag, STEP_COL, STEP_BOTH)
        step[i, 1:] = np.where(up < np.minimum(diag, left), STEP_ROW, col)
    return acc, step


def encode_words(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten words into (codepoint array, offsets array) for the kernels."""
    offsets = np.cumsum([0] + [len(w) for w in words], dtype=np.int64)
    flat = np.array([ord(ch) for w in words for ch in w], dtype=np.int32)
    return flat, offsets
