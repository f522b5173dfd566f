import io
import json

from vidtext.config import PipelineConfig
from vidtext.model import example_from_json, validate_example
from vidtext.pipeline import process_video_line, run_pipeline


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
        assert validate_example(example_from_json(json.loads(line))) == []


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


def test_error_samples_capped():
    text = "\n".join(["{bad"] * 25)
    manifest, _ = run_to_strings(PipelineConfig(), text)
    assert manifest.data_errors == 25
    assert len(manifest.error_samples) == 10
