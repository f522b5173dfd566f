"""Word-level alignment of noisy ASR transcripts to cleaned transcripts.

The alignment is a minimum-cost monotone path over the full cost matrix
``cost[i, j] = levenshtein(noisy[i], clean[j])`` with step moves
advance-both / advance-clean / advance-noisy, so every word on both sides
lands in at least one pair.  Ties prefer advance-both, then advance-clean,
then advance-noisy, which keeps output bit-reproducible.

Once aligned, each clean word takes the arithmetic mean of the start and
end times of the noisy words it pairs with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

from . import _kernels
from .model import round_ms


@dataclass(frozen=True)
class Alignment:
    pairs: tuple[tuple[int, int], ...]  # (noisy_index, clean_index), monotone
    total_cost: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs)
        )
        if self.total_cost < 0:
            raise ValueError(f"negative alignment cost {self.total_cost}")


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance between two strings."""
    if a == b:
        return 0
    cost = _kernels.pair_cost_matrix(*_kernels.encode_words([a]), *_kernels.encode_words([b]))
    return int(cost[0, 0])


def dtw_align(noisy: Sequence[str], clean: Sequence[str]) -> Alignment:
    """Minimum-total-cost monotone full-coverage alignment of two word lists.

    The cost of an alignment is the sum of ``levenshtein(noisy[i], clean[j])``
    over its pairs.  Raises ``ValueError`` when either side is empty.
    """
    if not noisy or not clean:
        raise ValueError("dtw_align requires two non-empty word lists")
    a_flat, a_off = _kernels.encode_words([str(w) for w in noisy])
    b_flat, b_off = _kernels.encode_words([str(w) for w in clean])
    cost = _kernels.pair_cost_matrix(a_flat, a_off, b_flat, b_off)
    acc, step = _kernels.alignment_fill(cost)
    i, j = len(noisy) - 1, len(clean) - 1
    rev: list[tuple[int, int]] = []
    while True:
        rev.append((i, j))
        if i == 0 and j == 0:
            break
        code = step[i, j]
        if code == _kernels.STEP_BOTH:
            i -= 1
            j -= 1
        elif code == _kernels.STEP_COL:
            j -= 1
        else:
            i -= 1
    return Alignment(pairs=tuple(reversed(rev)), total_cost=int(acc[-1, -1]))


def transfer_timing(
    alignment: Alignment,
    starts: Sequence[float],
    ends: Sequence[float],
    clean: Sequence[str],
) -> list[list]:
    """Give each clean word the mean timing of the noisy words aligned to it:
    the clean words as ``WORD_COLUMNS`` columns, from the noisy start and end columns.

    Times are summed left to right: ``sum`` of floats is compensated from
    Python 3.12 on, which can move a mean across a millisecond."""
    starts_of: dict[int, list[float]] = {}
    ends_of: dict[int, list[float]] = {}
    for ni, ci in alignment.pairs:
        if not 0 <= ni < len(starts):
            raise ValueError(f"alignment names noisy index {ni} outside the input")
        if not 0 <= ci < len(clean):
            raise ValueError(f"alignment names clean index {ci} outside the input")
        starts_of.setdefault(ci, []).append(starts[ni])
        ends_of.setdefault(ci, []).append(ends[ni])
    for ci in range(len(clean)):
        if ci not in starts_of:
            raise ValueError(f"clean index {ci} has no aligned noisy word")

    def means(times: dict[int, list[float]]) -> list[float]:
        return [round_ms(reduce(add, times[ci], 0.0) / len(times[ci])) for ci in range(len(clean))]

    return [[str(text) for text in clean], means(starts_of), means(ends_of)]


def align_and_time(words: Sequence[Sequence], clean: Sequence[str]) -> tuple[Alignment, list[list]]:
    """Align noisy timed words, as ``WORD_COLUMNS`` columns, against clean text
    and transfer the timing; the clean words come back as columns too."""
    texts, starts, ends = words
    alignment = dtw_align(texts, clean)
    return alignment, transfer_timing(alignment, starts, ends, clean)
