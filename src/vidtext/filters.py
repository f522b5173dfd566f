"""Video retention gates over metadata and thumbnail evidence.

The metadata gates run in a fixed order (ASR presence, duration, category)
so the reported reason is deterministic; the thumbnail gate runs after them
when evidence is available.  Classifier probabilities and feature vectors
are inputs here; producing them is someone else's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

VERDICT_ACCEPT = "accept"
VERDICT_REJECT = "reject"

_THUMBNAILS = 4


@dataclass(frozen=True)
class FilterDecision:
    reason: str  # REASON_PASSED or one of REJECT_REASONS

    @property
    def accepted(self) -> bool:
        return self.reason == REASON_PASSED

    @property
    def verdict(self) -> str:
        return VERDICT_ACCEPT if self.accepted else VERDICT_REJECT


_ACCEPT = FilterDecision(REASON_PASSED)


@dataclass(frozen=True)
class ThumbnailEvidence:
    """Detector output for the four preview thumbnails of one video."""

    object_probs: np.ndarray  # 4 x K class probabilities
    features: np.ndarray  # 4 x D feature rows

    def __post_init__(self) -> None:
        probs = np.asarray(self.object_probs, dtype=np.float64)
        feats = np.asarray(self.features, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] != _THUMBNAILS:
            raise ValueError(
                f"object_probs must have exactly {_THUMBNAILS} rows, "
                f"got shape {probs.shape}"
            )
        if feats.ndim != 2 or feats.shape[0] != _THUMBNAILS:
            raise ValueError(
                f"features must have exactly {_THUMBNAILS} rows, got shape {feats.shape}"
            )
        if not np.all((probs >= 0.0) & (probs <= 1.0)):  # NaN fails too
            raise ValueError("object probabilities must lie within [0, 1]")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "object_probs", probs)
        object.__setattr__(self, "features", feats)


def metadata_gate(meta, max_duration_s: float = 1200.0) -> FilterDecision:
    """First matching reason wins: no ASR, then too long, then gaming.

    ``meta`` is anything carrying ``has_english_asr``, ``duration_s`` and
    ``category`` attributes, a ``VideoRecord`` in particular.
    """
    if not meta.has_english_asr:
        return FilterDecision(REASON_NO_ASR)
    if meta.duration_s > max_duration_s:
        return FilterDecision(REASON_TOO_LONG)
    if str(meta.category).strip().lower() == "gaming":
        return FilterDecision(REASON_GAMING)
    return _ACCEPT


def mean_pairwise_cosine(features: np.ndarray) -> float:
    """Mean cosine similarity over all unordered row pairs."""
    feats = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(feats, axis=1)
    if np.any(norms == 0.0):
        row = int(np.nonzero(norms == 0.0)[0][0])
        raise ValueError(f"feature row {row} has zero norm")
    unit = feats / norms[:, None]
    sims = unit @ unit.T
    idx_a, idx_b = np.triu_indices(feats.shape[0], k=1)
    return float(sims[idx_a, idx_b].mean())


def thumbnail_gate(
    ev: ThumbnailEvidence,
    prob_threshold: float = 0.30,
    min_objects: int = 4,
    sim_threshold: float = 0.9,
    distinct_classes: bool = False,
) -> FilterDecision:
    """Reject visually empty or static videos.

    The object count is the number of (thumbnail, class) cells at or above
    ``prob_threshold``; with ``distinct_classes`` it is instead the number of
    classes present in at least one thumbnail.  Videos passing the count are
    rejected when the mean pairwise cosine similarity of the four feature
    rows exceeds ``sim_threshold``.
    """
    hits = ev.object_probs >= prob_threshold
    if distinct_classes:
        count = int(hits.any(axis=0).sum())
    else:
        count = int(hits.sum())
    if count < min_objects:
        return FilterDecision(REASON_TOO_FEW_OBJECTS)
    if mean_pairwise_cosine(ev.features) > sim_threshold:
        return FilterDecision(REASON_STATIC_VISUALS)
    return _ACCEPT
