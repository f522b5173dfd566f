"""Independent reference implementations the tests compare against.

Everything here is written for clarity over speed and deliberately avoids
the package's own algorithms: recursion instead of DP tables, enumeration
instead of closed forms, finite differences instead of analytic gradients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import linear_sum_assignment

if TYPE_CHECKING:
    from vidtext.model import PackedExample, Segment


def levenshtein_recursive(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def exhaustive_alignment_cost(noisy: list[str], clean: list[str]) -> int:
    """Minimum total pair cost over all monotone full-coverage alignments."""

    @lru_cache(maxsize=None)
    def best(i: int, j: int) -> int:
        pair = levenshtein_recursive(noisy[i], clean[j])
        if i == len(noisy) - 1 and j == len(clean) - 1:
            return pair
        options = []
        if i + 1 < len(noisy) and j + 1 < len(clean):
            options.append(best(i + 1, j + 1))
        if j + 1 < len(clean):
            options.append(best(i, j + 1))
        if i + 1 < len(noisy):
            options.append(best(i + 1, j))
        return pair + min(options)

    return best(0, 0)


# Step codes of the alignment fill, in tie-break priority order.
STEP_BOTH = 0
STEP_COL = 1
STEP_ROW = 2


def alignment_fill_loop(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def brute_force_assignment(sim: np.ndarray) -> float:
    """Best total weight of any one-to-one matching of min(n, m) pairs."""
    n, m = sim.shape
    if n > m:
        return brute_force_assignment(sim.T)
    best = -math.inf
    for cols in itertools.permutations(range(m), n):
        best = max(best, sum(sim[r, c] for r, c in enumerate(cols)))
    return best


def resolve_per_cell_match(sim: np.ndarray) -> tuple[tuple[tuple[int, int], ...], float]:
    """Lexicographically smallest optimal matching of min(n, m) pairs: rows in
    order take their smallest column for which a fresh assignment solve of the
    remaining rows and columns still reaches the optimum, within 1e-9."""
    n, m = sim.shape
    k = min(n, m)

    def solve(rows: list[int], cols: list[int]) -> float:
        if not rows or not cols:
            return 0.0
        sub = sim[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub, maximize=True)
        return float(sub[r, c].sum())

    target = solve(list(range(n)), list(range(m)))
    cols_left = list(range(m))
    pairs: list[tuple[int, int]] = []
    acc = 0.0
    for row in range(n):
        if len(pairs) == k:
            break
        rest_rows = list(range(row + 1, n))
        need = k - len(pairs) - 1
        for col in cols_left:
            rest_cols = [c for c in cols_left if c != col]
            if min(len(rest_rows), len(rest_cols)) < need:
                continue
            cand = acc + sim[row, col] + (solve(rest_rows, rest_cols) if need else 0.0)
            if math.isclose(cand, target, rel_tol=1e-9, abs_tol=1e-9):
                pairs.append((row, col))
                acc += sim[row, col]
                cols_left.remove(col)
                break
    assert len(pairs) == k, "the re-solves lost the optimum"
    return tuple(pairs), float(acc)


def brute_force_best_permutation(log_probs: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Argmax over permutations scored cell by cell, first maximum wins."""
    n = log_probs.shape[0]
    best_perm: tuple[int, ...] | None = None
    best_score = -math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i == perm[j]:
                    cls = 0
                elif i < perm[j]:
                    cls = 1
                else:
                    cls = 2
                total += log_probs[i, j, cls]
        if total > best_score:
            best_perm, best_score = perm, total
    assert best_perm is not None
    return best_perm, best_score


def relation_table_score(log_probs: np.ndarray, perm) -> float:
    """Sum of each (caption, element) cell's relation class under ``perm``."""
    n = log_probs.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            cls = 0 if i == perm[j] else (1 if i < perm[j] else 2)
            total += log_probs[i, j, cls]
    return total


def smallest_near_best(n: int, score) -> tuple[tuple[int, ...], float]:
    """The lexicographically smallest permutation of range(n) whose score is
    within 1e-9 of the best one, with its score."""
    scored = [(perm, score(perm)) for perm in itertools.permutations(range(n))]
    best = max(total for _, total in scored)
    return next(
        (perm, total)
        for perm, total in scored  # permutations() yields lexicographic order
        if math.isclose(total, best, rel_tol=1e-9, abs_tol=1e-9)
    )


def brute_force_frame_ordering(two_way: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Best frame order of a 2-way {before, after} table by enumeration."""
    n = two_way.shape[0]

    def score(perm) -> float:
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    total += two_way[i, j, 0 if perm[i] < perm[j] else 1]
        return total

    return smallest_near_best(n, score)


def greedy_word_packing(word_lengths: list[int], l_max: int) -> list[list[int]]:
    """Expected segment boundaries: word indices per segment, greedy fill."""
    segments: list[list[int]] = []
    current: list[int] = []
    used = 0
    for idx, length in enumerate(word_lengths):
        if length > l_max:
            raise ValueError(f"word {idx} alone exceeds {l_max}")
        if used + length > l_max and current:
            segments.append(current)
            current, used = [], 0
        current.append(idx)
        used += length
    if current:
        segments.append(current)
    return segments


@dataclass(frozen=True)
class Violation:
    """One failed invariant, naming the offending field."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


def _validate_segment(seg: Segment, where: str, l_max: int) -> list[Violation]:
    out: list[Violation] = []
    if len(seg.tokens) > l_max:
        out.append(
            Violation(
                f"{where}.tokens",
                f"segment holds {len(seg.tokens)} tokens, limit is {l_max}",
            )
        )
    spans: dict[int, tuple[float, float]] = {}
    prev_word = -1
    prev_end = None
    for k, tok in enumerate(seg.tokens):
        if tok.word_index < prev_word:
            out.append(
                Violation(
                    f"{where}.tokens[{k}].word_index",
                    f"word order regressed from {prev_word} to {tok.word_index}",
                )
            )
        span = (tok.start_s, tok.end_s)
        if tok.word_index in spans and spans[tok.word_index] != span:
            out.append(
                Violation(
                    f"{where}.tokens[{k}]",
                    f"tokens of word {tok.word_index} disagree on its time span",
                )
            )
        spans.setdefault(tok.word_index, span)
        if (
            prev_end is not None
            and tok.word_index != prev_word
            and tok.start_s < prev_end
        ):
            out.append(
                Violation(
                    f"{where}.tokens[{k}].start_s",
                    f"word {tok.word_index} starts at {tok.start_s} before the "
                    f"previous word ends at {prev_end}",
                )
            )
        prev_word = tok.word_index
        prev_end = tok.end_s
    if not seg.start_s <= seg.frame_time_s <= seg.end_s:
        out.append(
            Violation(
                f"{where}.frame_time_s",
                f"frame time {seg.frame_time_s} outside span "
                f"[{seg.start_s}, {seg.end_s}]",
            )
        )
    return out


def example_violations(example: PackedExample, n_segments: int = 16, l_max: int = 32) -> list[Violation]:
    """Every broken invariant of a packed example: its segment count, and per
    segment its token cap, word order, word spans and frame time.  An empty
    list means the example is clean."""
    out: list[Violation] = []
    if len(example.segments) != n_segments:
        out.append(
            Violation(
                "segments",
                f"packed example holds {len(example.segments)} segments, "
                f"expected exactly {n_segments}",
            )
        )
    for idx, seg in enumerate(example.segments):
        out.extend(_validate_segment(seg, f"segments[{idx}]", l_max))
    return out


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_mean(logits: np.ndarray, labels: list[int], sentinel: int = -100) -> float:
    """Mean negative log-likelihood over non-sentinel rows."""
    lsm = log_softmax_rows(np.asarray(logits, dtype=np.float64))
    picked = [
        -lsm[row, lab] for row, lab in enumerate(labels) if lab != sentinel
    ]
    return float(np.mean(picked))


def finite_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bump = np.zeros_like(x)
        bump[idx] = h
        grad[idx] = (fn(x + bump) - fn(x - bump)) / (2.0 * h)
        it.iternext()
    return grad


def spearman_reference(a, b) -> float:
    """Plain definition: Pearson correlation of the two rank vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 1:
        return 1.0
    am, bm = a - a.mean(), b - b.mean()
    return float((am * bm).sum() / math.sqrt((am * am).sum() * (bm * bm).sum()))


def pairwise_accuracy_reference(pred, true) -> float:
    n = len(true)
    if n < 2:
        return 1.0
    good = total = 0
    for e in range(n):
        for f in range(e + 1, n):
            total += 1
            if (pred[e] < pred[f]) == (true[e] < true[f]):
                good += 1
    return good / total


def mean_cosine_reference(rows: np.ndarray) -> float:
    sims = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            u, v = rows[i], rows[j]
            sims.append(
                float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
            )
    return float(np.mean(sims))


def numpy_mean_cosine(features) -> float:
    """The thumbnail gate's mean cosine as numpy computes it: row norms,
    unit rows, ``unit @ unit.T`` and the mean of its upper triangle."""
    feats = np.asarray(features, dtype=np.float64)
    unit = feats / np.linalg.norm(feats, axis=1)[:, None]
    sims = unit @ unit.T
    return float(sims[np.triu_indices(len(feats), k=1)].mean())


def numpy_thumbnail_reason(
    probs, features, prob_threshold, min_objects, sim_threshold, distinct_classes
) -> str:
    """The thumbnail gate's reason in numpy: count the (thumbnail, class)
    cells, or the classes, at or above ``prob_threshold``, then compare
    ``numpy_mean_cosine`` with ``sim_threshold``."""
    hits = np.asarray(probs, dtype=np.float64) >= prob_threshold
    count = int(hits.any(axis=0).sum()) if distinct_classes else int(hits.sum())
    if count < min_objects:
        return "too_few_objects"
    if numpy_mean_cosine(features) > sim_threshold:
        return "static_visuals"
    return "passed"
