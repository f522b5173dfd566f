import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidtext.model import (
    PackedExample,
    Segment,
    TimedToken,
    TimedWord,
    VideoRecord,
    dump_line,
    example_from_json,
    example_to_json,
    record_from_json,
    record_to_json,
    round_ms,
    validate_example,
    validate_record,
    write_jsonl,
)


def make_segment(n_tokens=4, word_tokens=2, t0=0.0, variant="clean"):
    tokens = []
    t = t0
    for k in range(n_tokens):
        word = k // word_tokens
        start = t0 + word * 1.0
        tokens.append(
            TimedToken(id=100 + k, word_index=word, start_s=start, end_s=start + 0.8)
        )
    return Segment.from_tokens(tokens, variant=variant)


def make_record(video_id="v0", n_segments=3):
    segs = tuple(make_segment(t0=i * 10.0) for i in range(n_segments))
    return VideoRecord(
        video_id=video_id,
        duration_s=100.0,
        category="Education",
        has_english_asr=True,
        segments=segs,
    )


def test_timed_word_rejects_reversed_span():
    with pytest.raises(ValueError, match="end"):
        TimedWord(text="x", start_s=2.0, end_s=1.0)


def test_segment_frame_time_is_span_midpoint():
    seg = make_segment()
    assert seg.frame_time_s == pytest.approx((seg.start_s + seg.end_s) / 2.0)


def test_round_ms_quantizes_to_milliseconds():
    assert round_ms(1.23456) == 1.235
    assert round_ms(2.0) == 2.0
    # Idempotent: a quantized value survives re-quantization unchanged.
    assert round_ms(round_ms(7.7774)) == round_ms(7.7774)


def test_validate_record_flags_token_order_violation():
    good = make_segment()
    # Swap two tokens from different words so start times go backwards.
    tokens = list(good.tokens)
    tokens[0], tokens[-1] = tokens[-1], tokens[0]
    bad = Segment(tokens=tuple(tokens), frame_time_s=good.frame_time_s)
    record = VideoRecord(
        video_id="v",
        duration_s=10.0,
        category="c",
        has_english_asr=True,
        segments=(bad,),
    )
    violations = validate_record(record)
    assert violations
    assert any("order" in v.message or "start" in v.message for v in violations)


def test_validate_record_passes_clean_record():
    assert validate_record(make_record()) == []


def test_validate_example_checks_segment_count():
    segs = tuple(make_segment(t0=i * 10.0) for i in range(3))
    example = PackedExample(segments=segs, provenance=(("v0", 0),) * 3)
    assert any("3" in v.message for v in validate_example(example, n_segments=16))
    assert validate_example(example, n_segments=3) == []


def test_record_round_trip_exact():
    record = make_record()
    assert record_from_json(json.loads(dump_line(record_to_json(record)))) == record


def test_example_round_trip_exact():
    segs = tuple(make_segment(t0=i * 5.0) for i in range(2))
    example = PackedExample(segments=segs, provenance=(("a", 0), ("b", 4)))
    assert example_from_json(json.loads(dump_line(example_to_json(example)))) == example


@pytest.mark.parametrize(
    "provenance, message",
    [
        ([["a", "3"]], "provenance[0][1] must be an integer"),
        ([["a", 3.0]], "provenance[0][1] must be an integer"),
        ([[7, 3]], "provenance[0][0] must be a string"),
        ([["a", 3, 4]], "provenance[0] must be a [video_id, index] pair"),
        ("a3", "provenance must be a list"),
    ],
)
def test_example_provenance_is_strict(provenance, message):
    segs = (make_segment(),)
    obj = json.loads(dump_line(example_to_json(PackedExample(segs, provenance=(("a", 3),)))))
    with pytest.raises(ValueError, match=re.escape(message)):
        example_from_json({**obj, "provenance": provenance})


def test_dump_line_is_compact_and_preserves_unicode():
    line = dump_line({"b": 1, "a": "café"})
    assert " " not in line
    assert "café" in line
    assert json.loads(line) == {"b": 1, "a": "café"}


def test_dump_line_writes_records_as_their_fields_in_order():
    token = TimedToken(id=3, word_index=1, start_s=0.5, end_s=0.75)
    line = '{"t":[{"id":3,"word_index":1,"start_s":0.5,"end_s":0.75}]}'
    assert dump_line({"t": (token,)}) == line


@pytest.mark.parametrize(
    "obj", [{"x": object()}, {"x": np.int64(1)}, TimedToken, {"x": TimedToken}]
)
def test_dump_line_rejects_what_is_not_json_or_a_record(obj):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dump_line(obj)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [make_record(f"v{i}") for i in range(3)]
    with open(path, "w", encoding="utf-8") as fp:
        write_jsonl(fp, (record_to_json(r) for r in records))
    with open(path, encoding="utf-8") as fp:
        loaded = [record_from_json(json.loads(line)) for line in fp]
    assert loaded == records


token_times = st.floats(min_value=0.0, max_value=3600.0, allow_nan=False)


@st.composite
def segments(draw):
    n_words = draw(st.integers(min_value=1, max_value=6))
    tokens = []
    t = draw(token_times)
    tid = 0
    for w in range(n_words):
        dur = draw(st.floats(min_value=0.001, max_value=2.0))
        start, end = round_ms(t), round_ms(t + dur)
        if end <= start:
            end = start + 0.001
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            tokens.append(TimedToken(id=tid, word_index=w, start_s=start, end_s=end))
            tid += 1
            if len(tokens) == 32:
                break
        if len(tokens) == 32:
            break
        t = end + draw(st.floats(min_value=0.001, max_value=1.0))
    return Segment.from_tokens(tokens)


@given(segments())
@settings(max_examples=100)
def test_generated_segments_validate_and_round_trip(seg):
    record = VideoRecord(
        video_id="v",
        duration_s=1e6,
        category="c",
        has_english_asr=True,
        segments=(seg,),
    )
    assert validate_record(record) == []
    assert record_from_json(json.loads(dump_line(record_to_json(record)))) == record
