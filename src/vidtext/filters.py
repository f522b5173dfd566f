"""Video retention gates over metadata and thumbnail evidence.

The metadata gates run in a fixed order (ASR presence, duration, category)
so the reported reason is deterministic; the thumbnail gate runs after them
when evidence is available.  A gate reads its thresholds from a
``PipelineConfig`` and returns ``REASON_PASSED`` or a reject reason.
Classifier probabilities and feature vectors are inputs here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from operator import add, mul

from .config import PipelineConfig

REASON_PASSED = "passed"
REASON_NO_ASR = "no_asr"
REASON_TOO_LONG = "too_long"
REASON_GAMING = "gaming_category"
REASON_TOO_FEW_OBJECTS = "too_few_objects"
REASON_STATIC_VISUALS = "static_visuals"

REJECT_REASONS = (
    REASON_NO_ASR,
    REASON_TOO_LONG,
    REASON_GAMING,
    REASON_TOO_FEW_OBJECTS,
    REASON_STATIC_VISUALS,
)

_THUMBNAILS = 4


@dataclass(frozen=True)
class ThumbnailEvidence:
    """Detector output for the four preview thumbnails of one video.

    Each field is given as four equally long rows of numbers (lists, tuples
    or a 2-D array) and stored as a tuple of tuples of floats.
    """

    object_probs: tuple[tuple[float, ...], ...]  # 4 x K class probabilities
    features: tuple[tuple[float, ...], ...]  # 4 x D feature rows

    def __post_init__(self) -> None:
        probs = _rows(self.object_probs, "object_probs")
        feats = _rows(self.features, "features")
        if not all(0.0 <= p <= 1.0 for row in probs for p in row):  # NaN fails too
            raise ValueError("object probabilities must lie within [0, 1]")
        if not all(map(math.isfinite, chain.from_iterable(feats))):
            raise ValueError("features must be finite")
        object.__setattr__(self, "object_probs", probs)
        object.__setattr__(self, "features", feats)


def _rows(value, name: str) -> tuple[tuple[float, ...], ...]:
    """``value`` as ``_THUMBNAILS`` equally long rows of floats."""
    rows = tuple(tuple(map(float, row)) for row in value)
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{name} rows must be equally long")
    if len(rows) != _THUMBNAILS:
        shape = (len(rows), len(rows[0])) if rows else (0,)  # numpy's spelling of it
        raise ValueError(f"{name} must have exactly {_THUMBNAILS} rows, got shape {shape}")
    return rows


def metadata_gate(meta, cfg: PipelineConfig) -> str:
    """First matching reason wins: no ASR, then longer than ``max_duration_s``,
    then gaming.

    ``meta`` is anything carrying ``has_english_asr``, ``duration_s`` and
    ``category`` attributes, a ``VideoRecord`` in particular.
    """
    if not meta.has_english_asr:
        return REASON_NO_ASR
    if meta.duration_s > cfg.max_duration_s:
        return REASON_TOO_LONG
    if str(meta.category).strip().lower() == "gaming":
        return REASON_GAMING
    return REASON_PASSED


def _norm(row: tuple[float, ...]) -> float:
    try:
        return math.sqrt(math.fsum(x * x for x in row))
    except OverflowError:  # finite squares whose sum is not: infinite, as in numpy
        return math.inf


def mean_pairwise_cosine(features) -> float:
    """Mean cosine similarity over all unordered row pairs.

    Norms and dot products are correctly rounded sums (``math.fsum``); the
    mean adds the cosines left to right, as numpy sums a few values (``sum``
    compensates from Python 3.12 on).  Fewer than two rows give NaN.
    """
    rows = [tuple(map(float, row)) for row in features]
    norms = [_norm(row) for row in rows]
    if 0.0 in norms:
        raise ValueError(f"feature row {norms.index(0.0)} has zero norm")
    unit = [[x / norm for x in row] for row, norm in zip(rows, norms)]
    sims = [math.fsum(map(mul, a, b)) for a, b in combinations(unit, 2)]
    return reduce(add, sims, 0.0) / len(sims) if sims else math.nan


def thumbnail_gate(ev: ThumbnailEvidence, cfg: PipelineConfig) -> str:
    """Reject visually empty or static videos.

    The object count is the number of (thumbnail, class) cells at or above
    ``prob_threshold``; with ``distinct_classes`` it is instead the number of
    classes present in at least one thumbnail.  A count under ``min_objects``
    rejects; videos passing it are rejected when the mean pairwise cosine
    similarity of the four feature rows exceeds ``sim_threshold``.
    """
    hits = [[p >= cfg.prob_threshold for p in row] for row in ev.object_probs]
    if cfg.distinct_classes:
        count = sum(map(any, zip(*hits)))
    else:
        count = sum(map(sum, hits))
    if count < cfg.min_objects:
        return REASON_TOO_FEW_OBJECTS
    if mean_pairwise_cosine(ev.features) > cfg.sim_threshold:
        return REASON_STATIC_VISUALS
    return REASON_PASSED
