"""Temporal reordering: permutation scoring, matching baseline, and metrics.

A story of ``n`` elements carries an ``n x n x 4`` table of log-probabilities
over the relation between caption position ``i`` and the frame shown in slot
``sigma[j]``: same moment, caption-before-frame, caption-after-frame, or
different video.  Scoring a candidate permutation sums the log-probability
of the relation class each (caption, frame) pair would have under it.

Permutations are plain index sequences: ``sigma[j]`` is the temporal slot
assigned to element ``j``.  The different-video class never holds inside a
single story; it only participates through normalization.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

CLASS_SAME = 0
CLASS_BEFORE = 1  # caption precedes the frame
CLASS_AFTER = 2
CLASS_DIFFERENT = 3

MAX_FRAMES = 16  # best_frame_ordering's subset table holds 2^n * n values


@np.errstate(all="ignore")  # an infinite or NaN result is the caller's to check
def logsumexp(a, axis=None, keepdims: bool = False):
    """``log(sum(exp(a)))`` over ``axis`` by scipy 1.17's formula, bit for bit:
    the maxima are counted apart from the rest, which is shifted by the max (by 0
    where the max is not finite), and the result is
    ``log1p(rest / count) + log(count) + max``."""
    a = np.asarray(a, dtype=np.float64)
    top = a.max(axis=axis, keepdims=True)
    ties = a == top
    count = ties.sum(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    rest = np.exp(np.where(ties, -np.inf, a) - shift).sum(axis=axis, keepdims=True)
    out = np.log1p(rest / count) + np.log(count) + top
    return (out if keepdims else np.squeeze(out, axis=axis))[()]


def check_permutation(sigma: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate a bijection over range(n) and return it as a tuple."""
    perm = tuple(int(s) for s in sigma)
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"{sigma!r} is not a permutation of 0..{n - 1}")
    return perm


def check_normalized(log_probs: np.ndarray) -> None:
    """Require each (i, j) cell of an (n, n, classes) table to be a normalized
    distribution, within 1e-6."""
    if np.any(np.isnan(log_probs)) or np.any(log_probs == np.inf):
        raise ValueError("log-probabilities must be < inf and not NaN")
    mass = logsumexp(log_probs, axis=2)
    worst = float(np.abs(mass).max())
    if worst > 1e-6:
        i, j = np.unravel_index(int(np.abs(mass).argmax()), mass.shape)
        raise ValueError(
            f"cell ({i}, {j}) is not normalized: logsumexp {mass[i, j]:.3g} "
            "(tolerance 1e-06)"
        )


def _table_array(lp, classes: int) -> np.ndarray:
    """``lp`` as a float64 (n, n, classes) table with n >= 1."""
    lp = np.asarray(lp, dtype=np.float64)
    if lp.ndim != 3 or lp.shape[0] != lp.shape[1] or lp.shape[2] != classes:
        raise ValueError(f"log_probs must be (n, n, {classes}), got shape {lp.shape}")
    if lp.shape[0] < 1:
        raise ValueError("table must cover at least one element")
    return lp


def table_from_flat(n: int, flat: Sequence[float], classes: int) -> np.ndarray:
    """Decode the wire format of either table kind, row-major flattened
    n*n*classes, into a table that passes ``check_normalized``."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r:.40}")
    arr = np.asarray(list(flat), dtype=np.float64)
    need = n * n * classes
    if arr.size != need:
        # No list is longer than sys.maxsize; a larger count may be too long to print.
        count = need if need <= sys.maxsize else f"n*n*{classes}"
        raise ValueError(f"expected {count} log-probabilities for n={n!r:.40}, got {arr.size}")
    lp = _table_array(arr.reshape(n, n, classes), classes)
    check_normalized(lp)
    return lp


@dataclass(frozen=True)
class PairwiseRelationTable:
    log_probs: np.ndarray  # (n, n, 4), [caption, frame, class]

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_probs", _table_array(self.log_probs, 4))

    @property
    def n(self) -> int:
        return int(self.log_probs.shape[0])

    def validate(self) -> None:
        """``check_normalized`` of the table."""
        check_normalized(self.log_probs)

    @classmethod
    def from_flat(cls, n: int, flat: Sequence[float]) -> "PairwiseRelationTable":
        """``table_from_flat`` of a 4-class table."""
        return cls(table_from_flat(n, flat, 4))

    @classmethod
    def uniform(cls, n: int) -> "PairwiseRelationTable":
        return cls(np.full((n, n, 4), math.log(0.25)))

    @classmethod
    def oracle_from_order(
        cls, truth: Sequence[int], correct_mass: float = 0.97
    ) -> "PairwiseRelationTable":
        """Concentrate ``correct_mass`` on each pair's true relation class."""
        n = len(truth)
        perm = check_permutation(truth, n)
        if not 0.0 < correct_mass < 1.0:
            raise ValueError(f"correct_mass must be in (0, 1), got {correct_mass}")
        rest = math.log((1.0 - correct_mass) / 3.0)
        lp = np.full((n, n, 4), rest)
        np.put_along_axis(lp, _class_matrix(perm)[:, :, None], math.log(correct_mass), axis=2)
        return cls(lp)


def _class_matrix(sigma: tuple[int, ...]) -> np.ndarray:
    """cls[i, j] = relation class of caption i vs the slot sigma assigns j."""
    n = len(sigma)
    slots = np.asarray(sigma, dtype=np.int64)[None, :]
    captions = np.arange(n, dtype=np.int64)[:, None]
    cls = np.where(captions < slots, CLASS_BEFORE, CLASS_AFTER)
    cls[captions == slots] = CLASS_SAME
    return cls


def score_permutation(table: PairwiseRelationTable, sigma: Sequence[int]) -> float:
    """Summed log-probability of every pair's relation under ``sigma``."""
    perm = check_permutation(sigma, table.n)
    cls = _class_matrix(perm)
    picked = np.take_along_axis(table.log_probs, cls[:, :, None], axis=2)
    return float(picked.sum())


def _slot_scores(table: PairwiseRelationTable) -> np.ndarray:
    """S[j, s] = score contribution of placing element j at slot s."""
    cls = _class_matrix(tuple(range(table.n)))  # cls[i, s]: caption i vs slot s
    captions = np.arange(table.n)
    return np.stack([table.log_probs[captions, :, c].sum(axis=0) for c in cls.T], axis=1)


@np.errstate(all="ignore")  # a sum may overflow to a -inf score, the caller's to check
def best_ordering(table: PairwiseRelationTable) -> tuple[tuple[int, ...], float]:
    """Argmax of ``score_permutation`` as one assignment of elements to slots;
    ties pick the lexicographically smallest permutation."""
    scores = _slot_scores(table)
    finite = scores[np.isfinite(scores)]
    low, high = finite.min(initial=0.0), finite.max(initial=0.0)
    if not np.isfinite(low - table.n * (high - low) - 1.0):
        # An exact rescale, by a power of two, so the floor and the assignment's sums fit.
        k = (4 * table.n**3 + 4).bit_length()
        scores, low, high = (np.ldexp(x, -k) for x in (scores, low, high))
    # A -inf slot score becomes one low enough to lose to every finite assignment.
    pairs, _ = hungarian_match(np.maximum(scores, low - table.n * (high - low) - 1.0))
    perm = tuple(col for _, col in pairs)
    score = score_permutation(table, perm)
    if score == -math.inf:  # then every permutation scores -inf, so all tie
        perm = tuple(range(table.n))
    return perm, score


def frame_order_score(two_way: np.ndarray, sigma: Sequence[int]) -> float:
    """Score a frame permutation from a 2-way {before, after} table.

    ``two_way[i, j, 0]`` is the log-probability that frame ``i`` comes before
    frame ``j``; diagonal cells are ignored.
    """
    lp = _table_array(two_way, 2)
    perm = check_permutation(sigma, lp.shape[0])
    total = 0.0
    for i, j in itertools.permutations(range(lp.shape[0]), 2):
        total += lp[i, j, 0 if perm[i] < perm[j] else 1]
    return float(total)


def _frame_slot_optima(gains: np.ndarray, slot_of: dict[int, int]) -> tuple[float, np.ndarray]:
    """The best score, and ``at[s, e]``, the best score with frame e at slot s, over
    the orders that keep each frame of ``slot_of`` at its slot.

    A set of frames can fill the first s slots when it holds the fixed frames of
    those slots and free frames for the rest; only such sets are visited.  One
    pass forward gives ``head[S]``, the best score of S in the first slots, one
    pass backward ``tail[S]``, the best score of the other frames after them, and
    ``at[s, e]`` is the best ``head[S] + gains[S, e] + tail[S + e]`` over |S| = s.
    Each pass flips every frame's bit of every set it visits.  A flip that leads
    to a set no order of the fixed frames can fill, or to a layer not yet
    visited, reads -inf.  ``gains[S + e, e]`` equals ``gains[S, e]`` bit for bit,
    as it only leaves out the zero ``ahead[e, e]``.
    """
    n = gains.shape[1]
    frame_at = {s: e for e, s in slot_of.items()}
    subsets = size = np.zeros(1, dtype=np.int64)  # every set of free frames, and its size
    for e in range(n):
        if e not in slot_of:
            subsets = np.concatenate([subsets, subsets | 1 << e])
            size = np.concatenate([size, size + 1])
    layers, fixed, k = [], 0, 0  # layers[s]: the sets that can fill slots 0..s-1
    for s in range(n + 1):
        layers.append(fixed | subsets[size == s - k])  # k fixed frames sit before slot s
        if s in frame_at:
            fixed, k = fixed | 1 << frame_at[s], k + 1
    bits = 1 << np.arange(n)
    head = np.full(1 << n, -np.inf)
    head[0] = 0.0
    for sets in layers[1:]:  # head[S + e] = best head[S] + gains[S, e]
        head[sets] = (head[sets[:, None] ^ bits] + gains[sets]).max(axis=1)
    tail = np.full(1 << n, -np.inf)
    tail[-1] = 0.0
    at = np.full((n, n), -np.inf)
    for s in reversed(range(n)):
        sets = layers[s]
        through = gains[sets] + tail[sets[:, None] ^ bits]
        tail[sets] = through.max(axis=1)
        at[s] = (head[sets][:, None] + through).max(axis=0)
    return float(head[-1]), at


@np.errstate(all="ignore")  # a sum may overflow to a -inf score, the caller's to check
def best_frame_ordering(two_way: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exact argmax of ``frame_order_score`` for n up to ``MAX_FRAMES``, by dynamic
    programming over the set of frames in the first slots (Held & Karp 1962).

    Ties follow ``hungarian_match``: frame 0, then 1 and so on takes its smallest
    free slot whose constrained optimum is within tolerance of the best.  One
    solve gives every frame's optimum at every slot.  It is repeated, under the
    frames fixed so far, only after a frame that had more than one near-best
    slot.  That is exact: when a frame has one near-best slot, every near-best
    order already puts it there, so fixing it leaves the near-best slots of
    every later frame as they were.
    """
    lp = _table_array(two_way, 2)
    n = lp.shape[0]
    if n > MAX_FRAMES:
        raise ValueError(f"frame ordering is bounded at n={MAX_FRAMES}, got n={n}")
    ahead = lp[:, :, 0] + lp[:, :, 1].T  # ahead[e, k]: what placing e before k earns
    np.fill_diagonal(ahead, 0.0)
    if not (ahead < np.inf).all():
        raise ValueError("log-probabilities must be < inf and not NaN")
    gains = np.zeros((1 << n, n))  # gains[placed, e] = sum of ahead[e, k] over the unplaced k
    for k in range(n):
        gains[1 << k : 2 << k] = gains[: 1 << k]
        gains[: 1 << k] += ahead[:, k]
    slot_of: dict[int, int] = {}
    best, at = _frame_slot_optima(gains, slot_of)
    for e in range(n):
        taken = set(slot_of.values())
        near = [
            s for s in range(n)
            if s not in taken and math.isclose(at[s, e], best, rel_tol=1e-9, abs_tol=1e-9)
        ]
        slot_of[e] = near[0]
        if len(near) > 1:
            at = _frame_slot_optima(gains, slot_of)[1]
    perm = tuple(slot_of[e] for e in range(n))
    return perm, frame_order_score(lp, perm)


def _potentials(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column potentials ``u``, ``v`` with ``u[i] + v[j] <= cost[i, j]``
    everywhere and equality on a minimum-cost assignment ``col_of`` of the square
    ``cost``: each row whose cheapest column is still free takes it, and each
    other row one shortest augmenting path (Kuhn 1955)."""
    size = cost.shape[0]
    u, v = cost.min(axis=1), np.zeros(size + 1)
    row_of = np.full(size + 1, -1)  # row_of[j]: row on column j; column `size` is the root
    for i in range(size):
        cheap = np.flatnonzero((cost[i] == u[i]) & (row_of[:size] == -1))
        if cheap.size:
            row_of[cheap[0]] = i
    assigned = np.zeros(size, dtype=bool)
    assigned[row_of[row_of >= 0]] = True
    for i in np.flatnonzero(~assigned):
        row_of[size], j0 = i, size
        dist, prev = np.full(size + 1, np.inf), np.full(size + 1, size)
        used = np.zeros(size + 1, dtype=bool)
        while row_of[j0] != -1:  # grow the tree until it reaches a free column
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0] - u[i0] - v[:size]
            closer = ~used[:size] & (reduced < dist[:size])
            dist[:size][closer], prev[:size][closer] = reduced[closer], j0
            j1 = int(np.argmin(np.where(used[:size], np.inf, dist[:size])))
            delta = dist[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[~used] -= delta
            j0 = j1
        while j0 != size:  # flip the path back to the root
            row_of[j0] = row_of[prev[j0]]
            j0 = prev[j0]
    col_of = np.empty(size, dtype=np.int64)
    col_of[row_of[:size]] = np.arange(size)
    return u, v[:size], col_of


def hungarian_match(similarity) -> tuple[tuple[tuple[int, int], ...], float]:
    """Maximum-total-weight one-to-one assignment of min(n, m) pairs.

    Among equally weighted optima the lexicographically smallest pair
    sequence (sorted by row) wins: after one solve of the zero-padded square
    problem, rows in order take their smallest column whose edge the
    potentials make tight and that an alternating path over tight edges can
    free, since the optimal assignments are the perfect matchings of tight edges.
    """
    sim = np.asarray(similarity, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] < 1 or sim.shape[1] < 1:
        raise ValueError(f"similarity must be a non-empty matrix, got shape {sim.shape}")
    if not np.all(np.isfinite(sim)):
        raise ValueError("similarity contains non-finite entries")
    n, m = sim.shape
    size = max(n, m)
    cost = np.zeros((size, size))
    cost[:n, :m] = -sim
    u, v, col_of = _potentials(cost)
    best = float(cost[np.arange(size), col_of].sum())
    # Tight up to the rounding of the potentials, and so loosely that any perfect
    # matching of tight edges stays within 1e-9 of the optimum.
    tight = cost - u[:, None] - v <= 1e-9 * max(1.0, abs(best)) / size
    for i in range(n):
        target = col_of[i]
        if not tight[i, :target].any():
            continue
        row_of = np.argsort(col_of)
        reach = np.zeros(size, dtype=bool)  # rows after i that can move on towards target
        via = np.empty(size, dtype=np.int64)  # the column each such row moves to
        frontier = np.array([target])
        while frontier.size:
            hit = tight[:, frontier] & ((np.arange(size) > i) & ~reach)[:, None]
            found = np.flatnonzero(hit.any(axis=1))
            reach[found], via[found] = True, frontier[hit[found].argmax(axis=1)]
            frontier = col_of[found]
        free = tight[i] & reach[row_of]
        free[target] = True
        j = int(np.argmax(free))
        if j != target:  # i takes j; its owner moves on along the path to target
            r, col_of[i] = row_of[j], j
            while j != target:
                j = col_of[r] = via[r]
                r = row_of[j]
    pairs = tuple((i, int(col_of[i])) for i in range(n) if col_of[i] < m)
    return pairs, float(sum(sim[i, j] for i, j in pairs))


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class StoryEvalReport:
    spearman: float  # within [-1, 1]
    pairwise_accuracy: float  # within [0, 1]
    distance: float  # non-negative
    n_stories: int


def spearman_positions(a: Sequence[int], b: Sequence[int]) -> float:
    """Rank correlation of two position vectors (all ranks distinct).

    Uses the exact closed form for tie-free ranks; a single element is
    perfectly correlated by convention.
    """
    n = len(a)
    perm_a = check_permutation(a, n)
    perm_b = check_permutation(b, n)
    if n == 1:
        return 1.0
    d2 = sum((x - y) ** 2 for x, y in zip(perm_a, perm_b))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def story_metrics(
    predicted: Sequence[int], truth: Sequence[int], footrule: bool = False
) -> tuple[float, float, float]:
    """(spearman, pairwise accuracy, displacement) of predicted vs true slots.

    Displacement is the mean absolute position error per element; with
    ``footrule`` it is the sum instead.
    """
    n = len(truth)
    pred = check_permutation(predicted, n)
    true = check_permutation(truth, n)
    rho = spearman_positions(pred, true)
    pairs = list(itertools.combinations(range(n), 2))
    agree = sum((pred[e] < pred[f]) == (true[e] < true[f]) for e, f in pairs)
    accuracy = agree / len(pairs) if pairs else 1.0
    disp = sum(abs(p - t) for p, t in zip(pred, true))
    distance = float(disp) if footrule else disp / n
    return rho, accuracy, distance


def evaluate_story_set(
    tables: Sequence[PairwiseRelationTable],
    truths: Sequence[Sequence[int]],
    footrule: bool = False,
) -> StoryEvalReport:
    """Unscramble each story with ``best_ordering`` and macro-average the metrics."""
    if len(tables) == 0:
        raise ValueError("evaluate_story_set requires at least one story")
    if len(tables) != len(truths):
        raise ValueError(f"{len(tables)} tables but {len(truths)} truths")
    sums = (0.0, 0.0, 0.0)  # spearman, pairwise accuracy, distance
    for k, (table, truth) in enumerate(zip(tables, truths)):
        try:
            table.validate()
            predicted, _ = best_ordering(table)
            metrics = story_metrics(predicted, truth, footrule=footrule)
        except ValueError as e:
            raise ValueError(f"story {k}: {e}") from e
        sums = tuple(total + x for total, x in zip(sums, metrics))
    return StoryEvalReport(*(total / len(tables) for total in sums), n_stories=len(tables))
