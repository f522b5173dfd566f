import contextlib
import dataclasses
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import example_violations
from vidtext import cli, model, pipeline
from vidtext.cli import main
from vidtext.config import PipelineConfig
from vidtext.model import (
    PackedExample,
    VideoRecord,
    list_field,
    metadata_from_json,
    validate_record,
    word_from_json,
)
from vidtext.pipeline import decode_video, process_video_line, run_pipeline, segment_video
from vidtext.segmenting import pack_examples, segment_transcript, segment_words
from vidtext.tokenizers import load_tokenizer, tokenize_words


def run_to_strings(config, text, jobs=1):
    out = io.StringIO()
    manifest = run_pipeline(config, io.StringIO(text), out, jobs=jobs)
    return manifest, out.getvalue()


def video_line(video_id="v", n_words=50, **overrides):
    words = []
    t = 0.0
    for k in range(n_words):
        words.append({"text": "word", "start_s": t, "end_s": t + 0.4})
        t += 0.5
    record = {
        "video_id": video_id,
        "duration_s": t,
        "category": "Howto",
        "has_english_asr": True,
        "words": words,
    }
    record.update(overrides)
    return json.dumps(record)


def test_accepted_video_yields_record():
    kind, record = process_video_line(video_line())
    assert kind == "accepted"
    assert record.video_id == "v"
    assert record.segments


def test_rejection_reasons_surface():
    kind, reason = process_video_line(video_line(has_english_asr=False))
    assert (kind, reason) == ("rejected", "no_asr")
    kind, reason = process_video_line(video_line(duration_s=1201.0))
    assert (kind, reason) == ("rejected", "too_long")
    kind, reason = process_video_line(video_line(category="gaming"))
    assert (kind, reason) == ("rejected", "gaming_category")


def test_malformed_lines_become_errors():
    kind, msg = process_video_line("{oops")
    assert kind == "error"
    kind, msg = process_video_line(json.dumps({"video_id": "x"}))
    assert kind == "error"
    kind, msg = process_video_line(json.dumps({"video_id": "x", "duration_s": "soon",
                                               "category": "c", "has_english_asr": True,
                                               "words": []}))
    assert kind == "error"
    # Strict boundary types: each line names the offending field.
    thumbs = {"object_probs": [[float("nan")] * 3] * 4, "features": [[1.0, 0.0]] * 4}
    for line, where in [
        (video_line(duration_s=float("inf")), "duration_s"),
        (video_line(duration_s=float("nan")), "duration_s"),
        (video_line(duration_s="BIG").replace('"BIG"', "1e999"), "duration_s"),
        (video_line(duration_s="BIG").replace('"BIG"', "1" + "0" * 400), "duration_s"),
        (video_line(duration_s=-1.0), "duration_s"),
        (video_line(has_english_asr="false"), "has_english_asr"),
        (video_line(has_english_asr=0), "has_english_asr"),
        (video_line(video_id=7), "video_id"),
        (video_line(words=[{"text": "a", "start_s": -3, "end_s": True}]), "words[0]: start_s"),
        (video_line(words=[{"text": "a", "start_s": 0, "end_s": True}]), "words[0]: end_s"),
        (video_line(words=[{"text": "a", "start_s": 0, "end_s": "1"}]), "words[0]: end_s"),
        (video_line(words=[{"text": 5, "start_s": 0, "end_s": 1}]), "words[0]: text"),
        (video_line(words={"text": "a"}), "words"),
        (video_line(thumbnails=thumbs), "object_probs[0][0] must be a finite number"),
        (video_line(thumbnails=dict(thumbs, object_probs=[["0.9", True, 0.9]] * 4)),
         "object_probs[0][0] must be a finite number"),
        (video_line(thumbnails=dict(thumbs, object_probs=[[0.9, True, 0.9]] * 4)),
         "object_probs[0][1] must be a finite number"),
        (video_line(thumbnails=dict(thumbs, object_probs=[[1.5] * 3] * 4)),
         "object probabilities"),
        (video_line(thumbnails=[1]), "ValueError: thumbnails must be an object, got [1]"),
        (video_line(schema_version="9"), "schema_version"),
        ("[1, 2]", "JSON object"),
    ]:
        kind, msg = process_video_line(line)
        assert kind == "error", line
        assert where in msg, msg


def test_word_error_beats_rejection_and_thumbnails_wait_for_metadata():
    bad_word = [{"text": "a", "start_s": 2.0, "end_s": 1.0}]
    kind, _ = process_video_line(video_line(has_english_asr=False, words=bad_word))
    assert kind == "error"
    # A failed metadata gate leaves the thumbnails undecoded.
    kind, reason = process_video_line(video_line(category="Gaming", thumbnails="junk"))
    assert (kind, reason) == ("rejected", "gaming_category")
    kind, _ = process_video_line(video_line(thumbnails="junk"))
    assert kind == "error"


def test_manifest_counts_are_consistent():
    text = "\n".join(
        [
            video_line("a", 80),
            video_line("b', 'bad json",  # malformed by construction
                       ) + "}{",
            video_line("c", 80, has_english_asr=False),
            video_line("d", 80),
        ]
    )
    manifest, _ = run_to_strings(PipelineConfig(), text)
    assert manifest.input_records == 4
    assert manifest.data_errors == 1
    assert manifest.accepted == 2
    assert manifest.rejected["no_asr"] == 1
    assert (
        manifest.examples * 16 + manifest.segments_dropped == manifest.segments
    )
    assert manifest.error_samples


def test_blank_lines_are_skipped_silently():
    text = video_line("a", 60) + "\n\n\n" + video_line("b", 60) + "\n"
    manifest, _ = run_to_strings(PipelineConfig(), text)
    assert manifest.input_records == 2
    assert manifest.data_errors == 0


def test_output_examples_validate():
    manifest, produced = run_to_strings(PipelineConfig(), video_line("a", 400))
    lines = [l for l in produced.splitlines() if l]
    assert len(lines) == manifest.examples
    for line in lines:
        obj = json.loads(line)
        segments = map(json.dumps, obj["segments"])
        assert example_violations(PackedExample(segments, obj["provenance"])) == []


def test_manifest_json_snapshot_fields():
    manifest, _ = run_to_strings(PipelineConfig(), video_line("a", 60))
    blob = manifest.to_json()
    assert blob["schema_version"] == "1"
    assert blob["config_sha256"] == PipelineConfig().sha256()
    assert set(blob["counts"]) == {
        "input_records",
        "data_errors",
        "accepted",
        "rejected",
        "segments",
        "examples",
        "segments_dropped",
    }
    assert set(blob["counts"]["rejected"]) == {
        "no_asr",
        "too_long",
        "gaming_category",
        "too_few_objects",
        "static_visuals",
    }


def test_worker_pool_matches_inline(data_dir):
    text = (data_dir / "golden_input.jsonl").read_text(encoding="utf-8")
    m1, out1 = run_to_strings(PipelineConfig(), text, jobs=1)
    m2, out2 = run_to_strings(PipelineConfig(), text, jobs=3)
    assert out1 == out2
    assert m1.to_json() == m2.to_json()


def test_run_pipeline_leaves_no_config_behind():
    long_video = video_line(duration_s=1500.0)
    run_to_strings(PipelineConfig(max_duration_s=5000.0), "", jobs=1)
    assert process_video_line(long_video) == ("rejected", "too_long")


def test_error_samples_capped(capsys):
    text = "\n".join(["{bad"] * 25)
    for jobs in (1, 2):  # at --jobs 2 the 25 lines go out in four chunks to two workers
        manifest, _ = run_to_strings(PipelineConfig(), text, jobs=jobs)
        assert manifest.data_errors == 25
        assert len(manifest.error_samples) == 10
        # Every data error is noted on stderr in input order, not only the 10 kept.
        err = capsys.readouterr().err
        notes = re.findall(r"^line (\d+): skipped \(JSONDecodeError: ", err, re.M)
        assert notes == [str(k) for k in range(1, 26)], err


# ---------------------------------------------------------------------------
# The run path against the library views


def reference_run(lines, cfg, tokenizer):
    """Example lines and data-error notes of ``run`` on lines whose metadata
    passes the gates, built by the library views: words decoded one object
    at a time -> ``tokenize_words`` -> ``segment_transcript`` ->
    ``pack_examples``, each example written by ``json.dumps``."""
    records, notes = [], []
    for lineno, line in enumerate(lines, start=1):
        obj = json.loads(line)
        try:
            meta = metadata_from_json(obj)
            words = [list(column) for column in zip(*list_field(obj, "words", word_from_json))]
            tokens = tokenize_words(words or [[], [], []], tokenizer)
            segments = segment_transcript(tokens, l_max=cfg.tokens_per_segment)
        except ValueError as e:
            notes.append(f"line {lineno}: skipped ({type(e).__name__}: {e})\n")
            continue
        records.append(dataclasses.replace(meta, segments=tuple(segments)))
    examples = pack_examples(
        records, n_segments=cfg.segments_per_example, cross_video=cfg.cross_video
    )
    out = [
        json.dumps(
            {"schema_version": "1", "segments": list(map(json.loads, ex.segments)), "provenance": ex.provenance},
            ensure_ascii=False,
            separators=(",", ":"),
        )
        + "\n"
        for ex in examples
    ]
    return "".join(out), "".join(notes)


# Empty words, words the test BPE merges, multi-byte UTF-8 (which the test
# vocabulary lacks), and words of 4 to 6 bytes, which fill or overflow a
# segment of l_max 4 to 6.
WORD_TEXTS = st.sampled_from(["", "a", "the", "in", "é", "x y"] * 3 + ["abcd", "there", "日本"])
# Times in ms, plus half-ms ties that round_ms rounds half to even.
TIMES_MS = st.integers(0, 4000).map(lambda ms: ms / 1000) | st.integers(0, 4000).map(
    lambda ms: (ms + 0.5) / 1000
)


@st.composite
def transcripts(draw):
    words = []
    t = draw(TIMES_MS)
    for _ in range(draw(st.integers(0, 30))):
        end = t + draw(st.just(0.0) | TIMES_MS)
        if draw(st.integers(0, 299)) == 0:  # a reversed span
            t, end = end + 0.01, t
        words.append({"text": draw(WORD_TEXTS), "start_s": t, "end_s": end})
        # touching words, gaps, and now and then an overlap
        t = end + (-0.0015 if draw(st.integers(0, 299)) == 0 else draw(st.just(0.0) | TIMES_MS))
    if words and draw(st.booleans()):
        words[0]["start_s"] = int(words[0]["start_s"])  # a JSON integer time
    video_id = draw(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6))
    return json.dumps(
        {
            "video_id": video_id,
            "duration_s": 10.0,
            "category": "Howto",
            "has_english_asr": True,
            "words": words,
        },
        ensure_ascii=draw(st.booleans()),
    )


@given(
    st.lists(transcripts(), min_size=1, max_size=5),
    st.integers(4, 6),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_run_writes_what_the_object_api_writes(
    tiny_tokenizer_dir, lines, l_max, n_segments, cross_video, bpe
):
    cfg = PipelineConfig(
        tokens_per_segment=l_max,
        segments_per_example=n_segments,
        cross_video=cross_video,
        tokenizer_path=str(tiny_tokenizer_dir) if bpe else None,
    )
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        _, out = run_to_strings(cfg, "\n".join(lines))
    want_out, want_err = reference_run(lines, cfg, load_tokenizer(cfg.tokenizer_path))
    assert out == want_out
    assert err.getvalue() == want_err


@pytest.mark.parametrize("command", ["run", "pack", "align"])
def test_run_builds_no_token_objects(monkeypatch, data_dir, tmp_path, command):
    golden = data_dir / "golden_input.jsonl"
    expected = (data_dir / "golden_output.jsonl").read_text()
    if command == "pack":  # ``segment`` output, packed before and after the object decoders are refused
        segmented, out_path = tmp_path / "segmented.jsonl", tmp_path / "packed.jsonl"
        assert main(["segment", "--input", str(golden), "--output", str(segmented)]) == 0
        argv = ["pack", "--input", str(segmented), "--output", str(out_path), "--stats", str(tmp_path / "s")]
    if command == "align":  # each golden transcript aligned to every other one of its words
        records = [json.loads(line) for line in golden.read_text().splitlines()]
        pairs = [{"noisy": r["words"], "clean": [w["text"] for w in r["words"][::2]]} for r in records if r.get("words")]
        (tmp_path / "pairs.jsonl").write_text("".join(json.dumps(pair) + "\n" for pair in pairs))
        out_path = tmp_path / "aligned.jsonl"
        argv = ["align", "--input", str(tmp_path / "pairs.jsonl"), "--output", str(out_path)]
    if command != "run":
        assert main(argv) == 0
        expected = out_path.read_text()

    def refuse(obj):
        raise AssertionError(f"{obj} decoded one object at a time on the {command} path")

    # Valid words and tokens are decoded as columns only.
    monkeypatch.setattr(model, "token_from_json", refuse)
    monkeypatch.setattr(pipeline, "word_from_json", refuse)
    monkeypatch.setattr(cli, "word_from_json", refuse)
    if command != "run":
        assert main(argv) == 0
        out = out_path.read_text()
    else:
        _, out = run_to_strings(PipelineConfig(), golden.read_text())
    assert out == expected


@given(
    st.lists(st.tuples(WORD_TEXTS, st.integers(0, 500), st.integers(0, 500)), max_size=30),
    st.integers(4, 8),
    st.booleans(),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_library_view_segments_as_the_run_path(tiny_tokenizer_dir, words, l_max, bpe):
    """``segment_transcript`` over ``tokenize_words`` writes the segments that
    ``segment_words`` writes, or raises its error, for word columns that touch,
    leave gaps and have no length."""
    tokenizer = load_tokenizer(str(tiny_tokenizer_dir) if bpe else None)
    texts, starts, ends, ms = [], [], [], 0
    for text, gap, length in words:
        texts.append(text)
        starts.append((ms + gap) / 1000)
        ends.append((ms + gap + length) / 1000)
        ms += gap + length
    columns = [texts, starts, ends]
    try:
        want = segment_words(columns, tokenizer, l_max)[0]
    except ValueError as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            segment_transcript(tokenize_words(columns, tokenizer), l_max)
        return
    assert segment_transcript(tokenize_words(columns, tokenizer), l_max) == want


@given(st.lists(transcripts(), min_size=1, max_size=5), st.integers(4, 6), st.booleans())
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_validate_record_accepts_what_segment_writes(tiny_tokenizer_dir, lines, l_max, bpe):
    cfg = PipelineConfig(tokens_per_segment=l_max, tokenizer_path=str(tiny_tokenizer_dir) if bpe else None)
    tokenizer = load_tokenizer(cfg.tokenizer_path)
    for line in lines:
        try:
            record, _ = segment_video(*decode_video(json.loads(line)), cfg, tokenizer)
        except ValueError:  # a data error that ``segment`` skips
            continue
        assert validate_record(record) is None


def test_validate_record_accepts_the_golden_segment_output(capsys, data_dir):
    assert main(["segment", "--input", str(data_dir / "golden_input.jsonl")]) == 0
    for line in capsys.readouterr().out.splitlines():
        obj = json.loads(line)
        meta = {key: obj[key] for key in ("video_id", "duration_s", "category", "has_english_asr")}
        assert validate_record(VideoRecord(**meta, segments=map(json.dumps, obj["segments"]))) is None
