"""Hot inner-loop kernels with optional numba acceleration.

The word-distance matrix and the alignment DP fill dominate runtime when
aligning long transcripts, so both carry ``@njit`` versions.  They are used
when numba imports (the optional ``vidtext[numba]`` extra) and the pure
Python ``*_py`` fallbacks otherwise.  Both paths run integer arithmetic only,
so results are identical bit for bit; when numba is installed the test suite
checks this, and ``perfbench/run.py`` times both on its align workload.

Step codes used by the alignment fill, in tie-break priority order:

* 0 -- advance both sequences (diagonal)
* 1 -- advance the column sequence only
* 2 -- advance the row sequence only
"""

from __future__ import annotations

import numpy as np

STEP_BOTH = 0
STEP_COL = 1
STEP_ROW = 2


def levenshtein_codes_py(a: np.ndarray, b: np.ndarray) -> int:
    """Edit distance between two int32 code sequences (two-row DP)."""
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    prev = np.arange(m + 1, dtype=np.int32)
    cur = np.empty(m + 1, dtype=np.int32)
    for i in range(n):
        cur[0] = i + 1
        ai = a[i]
        for j in range(m):
            cost = 0 if ai == b[j] else 1
            cur[j + 1] = min(prev[j] + cost, prev[j + 1] + 1, cur[j] + 1)
        prev, cur = cur, prev
    return int(prev[m])


def pair_cost_matrix_py(
    a_flat: np.ndarray,
    a_offsets: np.ndarray,
    b_flat: np.ndarray,
    b_offsets: np.ndarray,
) -> np.ndarray:
    """Levenshtein distance between every (row word, column word) pair.

    Words arrive flattened: ``a_flat[a_offsets[i]:a_offsets[i + 1]]`` holds the
    code points of row word ``i``, and likewise for columns.
    """
    n = len(a_offsets) - 1
    m = len(b_offsets) - 1
    out = np.empty((n, m), dtype=np.int32)
    for i in range(n):
        ai = a_flat[a_offsets[i] : a_offsets[i + 1]]
        for j in range(m):
            bj = b_flat[b_offsets[j] : b_offsets[j + 1]]
            out[i, j] = levenshtein_codes_py(ai, bj)
    return out


def alignment_fill_py(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate the monotone full-coverage alignment DP over ``cost``.

    Returns the cumulative-cost matrix and a same-shape step matrix whose
    entries record which predecessor each cell used.  Ties go to the lowest
    step code, i.e. diagonal first, then advancing the column sequence.
    """
    n, m = cost.shape
    acc = np.empty((n, m), dtype=np.int64)
    step = np.empty((n, m), dtype=np.int8)
    acc[0, 0] = cost[0, 0]
    step[0, 0] = STEP_BOTH
    for j in range(1, m):
        acc[0, j] = acc[0, j - 1] + cost[0, j]
        step[0, j] = STEP_COL
    for i in range(1, n):
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
        step[i, 0] = STEP_ROW
        for j in range(1, m):
            best = acc[i - 1, j - 1]
            code = STEP_BOTH
            if acc[i, j - 1] < best:
                best = acc[i, j - 1]
                code = STEP_COL
            if acc[i - 1, j] < best:
                best = acc[i - 1, j]
                code = STEP_ROW
            acc[i, j] = best + cost[i, j]
            step[i, j] = code
    return acc, step


# Both variants stay importable, so benchmarks and tests can compare the
# paths in one process; the public aliases point at the jitted one if numba
# imports.
try:
    from numba import njit

    levenshtein_codes_nb = njit(cache=True)(levenshtein_codes_py)

    # pair_cost_matrix_py closes over the interpreted levenshtein, so the
    # jitted variant needs its own body that calls the jitted one.
    @njit(cache=True)
    def pair_cost_matrix_nb(a_flat, a_offsets, b_flat, b_offsets):
        n = len(a_offsets) - 1
        m = len(b_offsets) - 1
        out = np.empty((n, m), dtype=np.int32)
        for i in range(n):
            ai = a_flat[a_offsets[i] : a_offsets[i + 1]]
            for j in range(m):
                bj = b_flat[b_offsets[j] : b_offsets[j + 1]]
                out[i, j] = levenshtein_codes_nb(ai, bj)
        return out

    alignment_fill_nb = njit(cache=True)(alignment_fill_py)
except ImportError:
    levenshtein_codes_nb = None
    pair_cost_matrix_nb = None
    alignment_fill_nb = None

_USE_NUMBA = alignment_fill_nb is not None
if _USE_NUMBA:
    levenshtein_codes = levenshtein_codes_nb
    pair_cost_matrix = pair_cost_matrix_nb
    alignment_fill = alignment_fill_nb
else:
    levenshtein_codes = levenshtein_codes_py
    pair_cost_matrix = pair_cost_matrix_py
    alignment_fill = alignment_fill_py


def numba_active() -> bool:
    """True when numba imported, so the public aliases are the jitted kernels."""
    return _USE_NUMBA


def encode_words(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten words into (codepoint array, offsets array) for the kernels."""
    offsets = np.cumsum([0] + [len(w) for w in words], dtype=np.int64)
    flat = np.array([ord(ch) for w in words for ch in w], dtype=np.int32)
    return flat, offsets
