import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import mean_cosine_reference, numpy_mean_cosine, numpy_thumbnail_reason
from vidtext.config import PipelineConfig
from vidtext.filters import (
    REASON_GAMING,
    REASON_NO_ASR,
    REASON_PASSED,
    REASON_STATIC_VISUALS,
    REASON_TOO_FEW_OBJECTS,
    REASON_TOO_LONG,
    ThumbnailEvidence,
    mean_pairwise_cosine,
    metadata_gate,
    thumbnail_gate,
)
from vidtext.model import VideoRecord

CFG = PipelineConfig()


def meta(duration=600.0, category="Education", asr=True):
    return VideoRecord(
        video_id="v", duration_s=duration, category=category, has_english_asr=asr
    )


def evidence(probs=None, features=None):
    if probs is None:
        probs = np.full((4, 5), 0.5)
    if features is None:
        rng = np.random.default_rng(0)
        features = rng.normal(size=(4, 8))
    return ThumbnailEvidence(object_probs=probs, features=features)


def test_accepts_ordinary_video():
    assert metadata_gate(meta(), CFG) == REASON_PASSED


def test_rejects_missing_asr_first():
    # A video failing several gates reports the earliest one.
    assert metadata_gate(meta(duration=5000.0, category="Gaming", asr=False), CFG) == REASON_NO_ASR


def test_rejects_too_long_before_category():
    assert metadata_gate(meta(duration=5000.0, category="Gaming"), CFG) == REASON_TOO_LONG


def test_duration_limit_is_exclusive():
    assert metadata_gate(meta(duration=1200.0), CFG) == REASON_PASSED
    assert metadata_gate(meta(duration=1200.001), CFG) == REASON_TOO_LONG


def test_gaming_category_case_insensitive():
    assert metadata_gate(meta(category="gAmInG"), CFG) == REASON_GAMING
    assert metadata_gate(meta(category="Games"), CFG) == REASON_PASSED


def test_too_few_objects_counts_cells_across_thumbnails():
    probs = np.zeros((4, 6))
    probs[0, 0] = probs[0, 1] = probs[1, 2] = 0.5  # three qualifying cells
    assert thumbnail_gate(evidence(probs=probs), CFG) == REASON_TOO_FEW_OBJECTS


def test_prob_threshold_is_inclusive():
    probs = np.zeros((4, 6))
    probs[0, :4] = 0.30  # exactly at threshold: counts
    assert thumbnail_gate(evidence(probs=probs), CFG) != REASON_TOO_FEW_OBJECTS


def test_distinct_classes_mode_collapses_repeats():
    # Same single class fires on all four thumbnails: 4 cells, 1 class.
    probs = np.zeros((4, 6))
    probs[:, 0] = 0.9
    assert thumbnail_gate(evidence(probs=probs), CFG) != REASON_TOO_FEW_OBJECTS
    distinct = PipelineConfig(distinct_classes=True)
    assert thumbnail_gate(evidence(probs=probs), distinct) == REASON_TOO_FEW_OBJECTS


def test_static_visuals_on_near_identical_features():
    base = np.random.default_rng(1).normal(size=8)
    features = np.stack([base, base * 1.001, base * 0.999, base])
    assert thumbnail_gate(evidence(features=features), CFG) == REASON_STATIC_VISUALS


def test_similarity_threshold_is_strict():
    # Orthonormal pairs: mean cosine well under 0.9 -> passes.
    features = np.eye(4, 8)
    assert thumbnail_gate(evidence(features=features), CFG) == REASON_PASSED


def test_object_gate_runs_before_static_gate():
    base = np.random.default_rng(2).normal(size=8)
    features = np.stack([base] * 4)
    probs = np.zeros((4, 6))
    assert thumbnail_gate(evidence(probs=probs, features=features), CFG) == REASON_TOO_FEW_OBJECTS


def test_evidence_validates_shapes():
    with pytest.raises(ValueError):
        ThumbnailEvidence(object_probs=np.full((3, 5), 0.5), features=np.ones((4, 8)))
    with pytest.raises(ValueError):
        ThumbnailEvidence(object_probs=np.full((4, 5), 1.5), features=np.ones((4, 8)))


def test_mean_pairwise_cosine_rejects_zero_rows():
    features = np.zeros((4, 8))
    with pytest.raises(ValueError, match="zero"):
        mean_pairwise_cosine(features)


_feature_rows = arrays(
    np.float64, (4, 6), elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
).filter(lambda m: np.all(np.linalg.norm(m, axis=1) > 1e-6))


@given(_feature_rows)
@settings(max_examples=100)
def test_mean_pairwise_cosine_matches_reference(features):
    assert mean_pairwise_cosine(features) == pytest.approx(
        mean_cosine_reference(features), abs=1e-12
    )


def test_a_row_whose_squared_norm_overflows_has_an_infinite_norm_as_in_numpy():
    rows = [[1e154, 1e154], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]  # fsum of the squares overflows
    with np.errstate(over="ignore"):
        expected = numpy_mean_cosine(rows)
    assert mean_pairwise_cosine(rows) == expected


def test_evidence_stores_tuples_of_floats():
    ev = evidence(probs=[[1, 0.5]] * 4, features=np.eye(4, 3))
    assert ev.object_probs == ((1.0, 0.5),) * 4
    assert ev.features[0] == (1.0, 0.0, 0.0) and type(ev.features[0][0]) is float


@given(
    probs=arrays(np.float64, (4, 5), elements=st.floats(min_value=0.0, max_value=1.0)),
    features=_feature_rows,
    min_objects=st.integers(min_value=1, max_value=21),
    distinct_classes=st.booleans(),
    offset=st.one_of(st.floats(-2.0, 2.0), st.floats(-1e-9, 1e-9)),
    data=st.data(),
)
@settings(max_examples=300)
def test_thumbnail_gate_matches_numpy_reference(
    probs, features, min_objects, distinct_classes, offset, data
):
    # The gate's sums are correctly rounded and numpy's are not, so a mean
    # cosine within rounding of the threshold may decide either way.
    cosine = numpy_mean_cosine(features)
    sim_threshold = float(cosine + offset)
    assume(abs(cosine - sim_threshold) >= 1e-12)
    prob_threshold = data.draw(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from(probs.ravel().tolist()))
    )
    args = (prob_threshold, min_objects, sim_threshold, distinct_classes)
    cfg = PipelineConfig(
        prob_threshold=prob_threshold,
        min_objects=min_objects,
        sim_threshold=sim_threshold,
        distinct_classes=distinct_classes,
    )
    ev = ThumbnailEvidence(object_probs=probs, features=features.tolist())
    assert thumbnail_gate(ev, cfg) == numpy_thumbnail_reason(probs, features, *args)
