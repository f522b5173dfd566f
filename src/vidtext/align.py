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
from typing import Sequence

from . import _kernels
from .model import TimedWord


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
    noisy: Sequence[TimedWord],
    clean: Sequence[str],
) -> list[TimedWord]:
    """Give each clean word the mean timing of the noisy words aligned to it."""
    starts: dict[int, list[float]] = {}
    ends: dict[int, list[float]] = {}
    for ni, ci in alignment.pairs:
        if not 0 <= ni < len(noisy):
            raise ValueError(f"alignment names noisy index {ni} outside the input")
        if not 0 <= ci < len(clean):
            raise ValueError(f"alignment names clean index {ci} outside the input")
        starts.setdefault(ci, []).append(noisy[ni].start_s)
        ends.setdefault(ci, []).append(noisy[ni].end_s)
    out: list[TimedWord] = []
    for ci, text in enumerate(clean):
        if ci not in starts:
            raise ValueError(f"clean index {ci} has no aligned noisy word")
        out.append(
            TimedWord(
                text=str(text),
                start_s=sum(starts[ci]) / len(starts[ci]),
                end_s=sum(ends[ci]) / len(ends[ci]),
            )
        )
    return out


def align_and_time(
    noisy: Sequence[TimedWord], clean: Sequence[str]
) -> tuple[Alignment, list[TimedWord]]:
    """Align noisy timed words against clean text and transfer the timing."""
    alignment = dtw_align([w.text for w in noisy], clean)
    return alignment, transfer_timing(alignment, noisy, clean)
