import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import example_violations, greedy_word_packing
from vidtext.config import PipelineConfig
from vidtext.model import VideoRecord, round_ms, validate_record
from vidtext.segmenting import (
    OversizeWordError,
    PackStats,
    pack_examples,
    segment_transcript,
    sequence_shape,
)
from vidtext.tokenizers import ByteTokenizer, tokenize_words


def timed_tokens(word_lengths, gap=0.1):
    """A token stream as ``TOKEN_COLUMNS`` columns, with the given number of
    tokens per word."""
    tokens = []
    t = 0.0
    for w, n in enumerate(word_lengths):
        start, end = round_ms(t), round_ms(t + 0.5)
        tokens += [(len(tokens), w, start, end) for _ in range(n)]
        t = end + gap
    return [list(column) for column in zip(*tokens)] or [[], [], [], []]


def segment_tokens(seg):
    """The token objects of one segment's JSON."""
    return json.loads(seg)["tokens"]


def test_segment_boundaries_match_greedy_oracle():
    lengths = [3, 5, 2, 8, 7, 1, 6, 4, 9, 2, 2, 3]
    segments = segment_transcript(timed_tokens(lengths), l_max=10)
    expected = greedy_word_packing(lengths, 10)
    got = [sorted({t["word_index"] for t in segment_tokens(seg)}) for seg in segments]
    assert got == expected


@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=40))
@settings(max_examples=150)
def test_words_never_split_across_segments(lengths):
    segments = segment_transcript(timed_tokens(lengths), l_max=8)
    seen = [sorted({t["word_index"] for t in segment_tokens(seg)}) for seg in segments]
    assert seen == greedy_word_packing(lengths, 8)
    # Each word appears in exactly one segment.
    flat = list(itertools.chain.from_iterable(seen))
    assert flat == sorted(set(flat)) == list(range(len(lengths)))
    for seg in segments:
        assert 1 <= len(segment_tokens(seg)) <= 8


def test_oversize_word_raises():
    with pytest.raises(OversizeWordError):
        segment_transcript(timed_tokens([5]), l_max=4)


def test_frame_time_is_segment_midpoint():
    segments = segment_transcript(timed_tokens([2, 2]), l_max=32)
    (seg,) = segments
    tokens = segment_tokens(seg)
    midpoint = (tokens[0]["start_s"] + tokens[-1]["end_s"]) / 2
    assert json.loads(seg)["frame_time_s"] == pytest.approx(midpoint)


def test_empty_token_stream_gives_no_segments():
    assert segment_transcript([[], [], [], []], l_max=32) == []


def test_segments_validate_as_records():
    texts = ["the", "quick", "brown", "fox", "jumps"] * 8
    starts = [i * 1.0 for i in range(len(texts))]
    tokens = tokenize_words([texts, starts, [t + 0.8 for t in starts]], ByteTokenizer())
    record = VideoRecord(
        video_id="v",
        duration_s=100.0,
        category="c",
        has_english_asr=True,
        segments=tuple(segment_transcript(tokens, l_max=32)),
    )
    assert validate_record(record) is None
    assert max(len(segment_tokens(seg)) for seg in record.segments) <= 32


# ---------------------------------------------------------------------------
# packing

FOUR = PipelineConfig(segments_per_example=4)


def record_with_segments(video_id, n, l_max=4):
    segs = tuple(
        segment_transcript(timed_tokens([2, 2]), l_max=l_max) for _ in range(n)
    )
    flat = tuple(s for pair in segs for s in pair)
    return VideoRecord(
        video_id=video_id,
        duration_s=1e5,
        category="c",
        has_english_asr=True,
        segments=flat[:n],
    )


def test_pack_exact_blocks_with_remainder_dropped():
    records = [record_with_segments("a", 5), record_with_segments("b", 4)]
    stats = PackStats()
    examples = list(pack_examples(iter(records), FOUR, stats))
    assert len(examples) == 2
    assert stats.segments_in == 9
    assert stats.examples_out == 2
    assert stats.segments_dropped == 1
    for ex in examples:
        assert len(ex.segments) == 4
        assert example_violations(ex, n_segments=4) == []


def test_pack_provenance_tracks_source_positions():
    records = [record_with_segments("a", 3), record_with_segments("b", 3)]
    examples = list(pack_examples(iter(records), FOUR))
    assert examples[0].provenance == (("a", 0), ("a", 1), ("a", 2), ("b", 0))


def test_pack_cross_video_merges_remainders():
    records = [record_with_segments(c, 3) for c in "abcd"]
    examples = list(pack_examples(iter(records), FOUR))
    assert len(examples) == 3  # 12 segments -> 3 full blocks


def test_pack_per_video_mode_drops_each_remainder():
    records = [record_with_segments(c, 5) for c in "ab"]
    stats = PackStats()
    per_video = PipelineConfig(segments_per_example=4, cross_video=False)
    examples = list(pack_examples(iter(records), per_video, stats))
    assert len(examples) == 2
    assert stats.segments_dropped == 2
    for ex in examples:
        assert len({v for v, _ in ex.provenance}) == 1


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=10))
@settings(max_examples=100)
def test_pack_conserves_segments(counts):
    records = [
        record_with_segments(f"v{i}", n) for i, n in enumerate(counts) if n > 0
    ]
    stats = PackStats()
    examples = list(pack_examples(iter(records), FOUR, stats))
    total = sum(counts)
    assert stats.segments_in == total
    assert stats.examples_out * 4 + stats.segments_dropped == total
    assert stats.segments_dropped < 4
    assert len(examples) == total // 4


# ---------------------------------------------------------------------------
# shape arithmetic


def test_default_shape_frozen_values():
    shape = sequence_shape(PipelineConfig())
    assert shape.cells_per_frame == 66
    assert shape.visual_tokens_per_frame == 67
    assert shape.joint_sequence_length == 396
    assert shape.language_only_length == 512


def test_shape_rejects_nondivisible_patching():
    with pytest.raises(ValueError, match="divi"):
        sequence_shape(PipelineConfig(patch=17))


def test_shape_scales_with_frame_size():
    shape = sequence_shape(PipelineConfig(image_width=704, image_height=384))
    # Doubling both sides quadruples the cell count.
    assert shape.cells_per_frame == 264
