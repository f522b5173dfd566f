import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import greedy_word_packing
from vidtext.config import PipelineConfig
from vidtext.model import TimedToken, TimedWord, validate_example, validate_record, VideoRecord
from vidtext.segmenting import (
    OversizeWordError,
    PackStats,
    group_for_joint,
    pack_examples,
    segment_transcript,
    sequence_shape,
)
from vidtext.tokenizers import ByteTokenizer, tokenize_words


def timed_tokens(word_lengths, gap=0.1):
    """Build a token stream with the given number of tokens per word."""
    tokens = []
    t = 0.0
    tid = 0
    for w, n in enumerate(word_lengths):
        start, end = t, t + 0.5
        for _ in range(n):
            tokens.append(TimedToken(id=tid, word_index=w, start_s=start, end_s=end))
            tid += 1
        t = end + gap
    return tokens


def test_segment_boundaries_match_greedy_oracle():
    lengths = [3, 5, 2, 8, 7, 1, 6, 4, 9, 2, 2, 3]
    segments = segment_transcript(timed_tokens(lengths), l_max=10)
    expected = greedy_word_packing(lengths, 10)
    got = [sorted({t.word_index for t in seg.tokens}) for seg in segments]
    assert got == expected


@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=40))
@settings(max_examples=150)
def test_words_never_split_across_segments(lengths):
    segments = segment_transcript(timed_tokens(lengths), l_max=8)
    seen = [sorted({t.word_index for t in seg.tokens}) for seg in segments]
    assert seen == greedy_word_packing(lengths, 8)
    # Each word appears in exactly one segment.
    flat = list(itertools.chain.from_iterable(seen))
    assert flat == sorted(set(flat)) == list(range(len(lengths)))
    for seg in segments:
        assert 1 <= len(seg.tokens) <= 8


def test_oversize_word_raises():
    with pytest.raises(OversizeWordError):
        segment_transcript(timed_tokens([5]), l_max=4)


def test_frame_time_is_segment_midpoint():
    segments = segment_transcript(timed_tokens([2, 2]), l_max=32)
    (seg,) = segments
    assert seg.frame_time_s == pytest.approx((seg.start_s + seg.end_s) / 2)


def test_empty_token_stream_gives_no_segments():
    assert segment_transcript([], l_max=32) == []


def test_segments_validate_as_records():
    words = [
        TimedWord(text=w, start_s=i * 1.0, end_s=i * 1.0 + 0.8)
        for i, w in enumerate(["the", "quick", "brown", "fox", "jumps"] * 8)
    ]
    tokens = tokenize_words(words, ByteTokenizer())
    record = VideoRecord(
        video_id="v",
        duration_s=100.0,
        category="c",
        has_english_asr=True,
        segments=tuple(segment_transcript(tokens, l_max=32)),
    )
    assert validate_record(record) == []


# ---------------------------------------------------------------------------
# packing


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
    examples = list(pack_examples(iter(records), n_segments=4, stats=stats))
    assert len(examples) == 2
    assert stats.segments_in == 9
    assert stats.examples_out == 2
    assert stats.segments_dropped == 1
    for ex in examples:
        assert len(ex.segments) == 4
        assert validate_example(ex, n_segments=4) == []


def test_pack_provenance_tracks_source_positions():
    records = [record_with_segments("a", 3), record_with_segments("b", 3)]
    examples = list(pack_examples(iter(records), n_segments=4))
    assert examples[0].provenance == (("a", 0), ("a", 1), ("a", 2), ("b", 0))


def test_pack_cross_video_merges_remainders():
    records = [record_with_segments(c, 3) for c in "abcd"]
    examples = list(pack_examples(iter(records), n_segments=4))
    assert len(examples) == 3  # 12 segments -> 3 full blocks


def test_pack_per_video_mode_drops_each_remainder():
    records = [record_with_segments(c, 5) for c in "ab"]
    stats = PackStats()
    examples = list(
        pack_examples(iter(records), n_segments=4, cross_video=False, stats=stats)
    )
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
    examples = list(pack_examples(iter(records), n_segments=4, stats=stats))
    total = sum(counts)
    assert stats.segments_in == total
    assert stats.examples_out * 4 + stats.segments_dropped == total
    assert stats.segments_dropped < 4
    assert len(examples) == total // 4


def test_group_for_joint_partitions_in_order():
    records = [record_with_segments("a", 8)]
    (example,) = pack_examples(iter(records), n_segments=8)
    groups = group_for_joint(example, group=4)
    assert len(groups) == 2
    assert [len(g) for g in groups] == [4, 4]
    assert tuple(groups[0]) + tuple(groups[1]) == example.segments


def test_group_for_joint_requires_divisibility():
    records = [record_with_segments("a", 6)]
    (example,) = pack_examples(iter(records), n_segments=6)
    with pytest.raises(ValueError):
        group_for_joint(example, group=4)


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
