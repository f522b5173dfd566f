import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Segment, TimedToken, example_violations, record_objects, segment_line
from vidtext.model import (
    TOKEN_COLUMNS,
    WORD_COLUMNS,
    PackedExample,
    VideoRecord,
    columns_field,
    dump_line,
    list_field,
    record_from_json,
    record_to_json,
    round_ms,
    token_from_json,
    validate_record,
    word_from_json,
)
from vidtext.segmenting import PackStats, segment_transcript


def make_segment(n_tokens=4, word_tokens=2, t0=0.0):
    """One segment's JSON, written by ``segment_transcript`` from token columns."""
    words = [k // word_tokens for k in range(n_tokens)]
    starts = [t0 + word * 1.0 for word in words]
    (seg,) = segment_transcript(
        [[100 + k for k in range(n_tokens)], words, starts, [t + 0.8 for t in starts]], l_max=n_tokens
    )
    return seg


def assert_round_trip(record):
    """The line of ``record``, a record of segment JSON, decodes to its segment
    JSON and is written back byte for byte; the reference decoder and writer
    agree with both."""
    line = record_to_json(record)
    assert tuple(map(segment_line, record_objects(json.loads(line)).segments)) == record.segments
    decoded = record_from_json(json.loads(line))
    assert decoded == record
    assert record_to_json(decoded) == line


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
    with pytest.raises(ValueError, match="^word 'x': end 1.0 before start 2.0$"):
        word_from_json({"text": "x", "start_s": 2.0, "end_s": 1.0})


def test_segment_frame_time_is_span_midpoint():
    seg = json.loads(make_segment())
    span = seg["tokens"][0]["start_s"], seg["tokens"][-1]["end_s"]
    assert seg["frame_time_s"] == pytest.approx(sum(span) / 2.0)


def test_round_ms_quantizes_to_milliseconds():
    assert round_ms(1.23456) == 1.235
    assert round_ms(2.0) == 2.0
    # Idempotent: a quantized value survives re-quantization unchanged.
    assert round_ms(round_ms(7.7774)) == round_ms(7.7774)


def test_validate_record_flags_token_order_violation():
    seg = json.loads(make_segment())
    # Swap two tokens from different words: word order regresses at token 1,
    # and only that first fault is named.
    tokens = seg["tokens"]
    tokens[0], tokens[-1] = tokens[-1], tokens[0]
    bad = json.dumps(seg)
    record = VideoRecord(
        video_id="v",
        duration_s=10.0,
        category="c",
        has_english_asr=True,
        segments=(bad,),
    )
    message = "invalid record: segments[0].tokens[1].word_index: word order regressed from 1 to 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_record(record)


def test_validate_record_passes_clean_record():
    assert validate_record(make_record()) is None


@st.composite
def rough_segments(draw):
    """Segments of up to 8 tokens whose words may regress, disagree on their
    span, overlap, or miss the frame time."""
    times = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
    spans = [(t, t + draw(st.sampled_from([0.0, 0.5]))) for t in draw(st.lists(times, min_size=5, max_size=5))]
    words = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8))
    if draw(st.booleans()):
        words.sort()
    tokens = []
    for k, word in enumerate(words):
        start, end = spans[word] if draw(st.integers(0, 3)) else (draw(times), 2.5)
        tokens.append(TimedToken(id=k, word_index=word, start_s=start, end_s=end))
    return segment_line(Segment(tuple(tokens), draw(times)))


@given(rough_segments())
@settings(max_examples=200)
def test_validate_record_names_the_first_violation_of_the_oracle(seg):
    record = VideoRecord(video_id="v", duration_s=10.0, category="c", has_english_asr=True, segments=(seg,))
    example = PackedExample((seg,), (("v", 0),))
    violations = example_violations(example, n_segments=1, l_max=len(json.loads(seg)["tokens"]))
    if not violations:
        assert validate_record(record) is None
        return
    with pytest.raises(ValueError) as raised:
        validate_record(record)
    assert str(raised.value) == f"invalid record: {violations[0]}"


def test_record_round_trip_exact():
    assert_round_trip(make_record())


def test_round_trip_keeps_the_words_of_one_instant_apart():
    # Two words of no length at one instant share a span: each keeps its index.
    segments = segment_transcript([[0, 1, 2, 3], [0, 0, 1, 1], [1.0] * 4, [1.0] * 4], l_max=4)
    assert_round_trip(dataclasses.replace(make_record(), segments=segments))


def test_dump_line_is_compact_and_preserves_unicode():
    line = dump_line({"b": 1, "a": "café"})
    assert " " not in line
    assert "café" in line
    assert json.loads(line) == {"b": 1, "a": "café"}


def test_dump_line_writes_records_as_their_fields_in_order():
    # ``pack --stats`` writes its record as its fields.
    line = '{"segments_in":5,"examples_out":1,"segments_dropped":1}'
    assert dump_line(vars(PackStats(segments_in=5, examples_out=1, segments_dropped=1))) == line


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
        fp.writelines(record_to_json(r) + "\n" for r in records)
    with open(path, encoding="utf-8") as fp:
        lines = fp.readlines()
    decoded = [record_from_json(json.loads(line)) for line in lines]
    assert decoded == records
    assert [record_to_json(r) + "\n" for r in decoded] == lines


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
            end = round_ms(start + 0.001)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            tokens.append((tid, w, start, end))
            tid += 1
            if len(tokens) == 32:
                break
        if len(tokens) == 32:
            break
        t = end + draw(st.floats(min_value=0.001, max_value=1.0))
    (seg,) = segment_transcript(list(map(list, zip(*tokens))), l_max=32)
    return seg


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
    assert validate_record(record) is None
    # The segment writer writes a segment as the reference writer does.
    assert_round_trip(record)


# Times at the edges of the millisecond rule, and values no field decoder takes.
_TIMES = st.one_of(
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.0, max_value=5.0),
    st.sampled_from([0.0005, 0.0015, 1e305, sys.float_info.max]),
)
_BAD = {  # by column kind
    str: [1, None, True, ["a"]],
    int: [-1, -(10**400), True, 1.0, "1", None],
    float: [-1, -0.0004, math.nan, math.inf, 10**400, -(10**400), True, "1", None],
}


@st.composite
def column_lists(draw):
    """``(kinds, decode, obj)``: up to four word or token objects under
    ``obj["items"]``, each end at or after its start, with at most one fault:
    a bad value, a missing field, an end before its start, or no object."""
    kinds, decode = draw(st.sampled_from([(WORD_COLUMNS, word_from_json), (TOKEN_COLUMNS, token_from_json)]))
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        item = {"text": draw(st.text(max_size=3))} if kinds is WORD_COLUMNS else {
            "id": draw(st.integers(min_value=0, max_value=5)),
            "word_index": draw(st.integers(min_value=0, max_value=5)),
        }
        item["start_s"] = draw(_TIMES)
        item["end_s"] = item["start_s"] + draw(st.sampled_from([0, 0.0004, 0.5]))
        items.append(item)
    fault = draw(st.sampled_from(["none", "value", "value", "value", "missing", "reversed", "not an object"]))
    if items and fault != "none":
        k, name = draw(st.integers(min_value=0, max_value=len(items) - 1)), draw(st.sampled_from(list(kinds)))
        if fault == "value":
            items[k][name] = draw(st.sampled_from(_BAD[kinds[name]]))
        elif fault == "missing":
            del items[k][name]
        elif fault == "reversed":
            items[k]["end_s"] = items[k]["start_s"] - draw(st.sampled_from([0.0004, 0.0006, 1]))
        else:
            items[k] = draw(st.sampled_from([None, "item", [], 0]))
    return kinds, decode, {"items": items}


@given(column_lists())
@settings(max_examples=400, deadline=None)
def test_columns_take_exactly_what_the_field_decoders_take(case):
    kinds, decode, obj = case

    def no_fallback(item):
        raise AssertionError("a list the object decoder takes is decoded as columns")

    try:
        decoded = list_field(obj, "items", decode)
    except ValueError as e:
        with pytest.raises(ValueError) as raised:
            columns_field(obj, "items", kinds, decode)
        assert str(raised.value) == str(e)
    else:
        columns = [[item[k] for item in decoded] for k in range(len(kinds))]
        assert columns_field(obj, "items", kinds, no_fallback) == columns
