"""Property: every input line lands in exactly one outcome, the same one from
``filter`` and from ``run``, and the run manifest conserves its counts.

Lines are generated valid, malformed, and with each strict-type defect the
decoder must turn into a data error.  Generated transcripts keep their words
in time order and short enough for one segment, so a line's outcome is
decided by decoding and the gates alone, which ``filter`` and ``run`` share.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vidtext.cli import main
from vidtext.pipeline import process_video_line

DEFECTS = (
    None,
    "inf_duration",
    "nan_duration",
    "overflow_literal",
    "negative_duration",
    "string_bool",
    "negative_word_time",
    "bool_word_time",
    "end_before_start",
    "nan_prob",
    "string_prob",
    "old_schema",
    "missing_key",
    "not_object",
    "truncated",
)
REQUIRED = ("video_id", "duration_s", "category", "has_english_asr")
BIG = "__BIG__"


@st.composite
def video_lines(draw):
    words = []
    t = draw(st.integers(0, 5000))
    for _ in range(draw(st.integers(0, 10))):
        d = draw(st.integers(0, 800))
        text = draw(st.text(alphabet="abxyz", max_size=8))
        words.append({"text": text, "start_s": t / 1000, "end_s": (t + d) / 1000})
        t += d + draw(st.integers(0, 300))
    rec = {
        "video_id": draw(st.sampled_from(["a", "b", "vid-7"])),
        "duration_s": draw(st.sampled_from([0, 12.5, 1200.0, 1200.001, 5000])),
        "category": draw(st.sampled_from(["Howto", "Gaming", " gaming ", "Travel"])),
        "has_english_asr": draw(st.booleans()),
        "words": words,
    }
    if draw(st.booleans()):
        cells = st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9]), min_size=3, max_size=3)
        feats = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
        rec["thumbnails"] = {
            "object_probs": draw(st.lists(cells, min_size=4, max_size=4)),
            "features": draw(st.lists(feats, min_size=4, max_size=4)),
        }
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "inf_duration":
        rec["duration_s"] = float("inf")
    elif defect == "nan_duration":
        rec["duration_s"] = float("nan")
    elif defect == "overflow_literal":
        rec["duration_s"] = BIG
    elif defect == "negative_duration":
        rec["duration_s"] = -1.5
    elif defect == "string_bool":
        rec["has_english_asr"] = draw(st.sampled_from(["true", "false"]))
    elif defect in ("negative_word_time", "bool_word_time", "end_before_start"):
        bad = {
            "negative_word_time": {"text": "a", "start_s": -3, "end_s": 1},
            "bool_word_time": {"text": "a", "start_s": 0, "end_s": True},
            "end_before_start": {"text": "a", "start_s": 2.0, "end_s": 1.0},
        }[defect]
        words.insert(draw(st.integers(0, len(words))), bad)
    elif defect in ("nan_prob", "string_prob"):  # metadata passes: thumbnails are read
        rec.update(duration_s=12.5, category="Howto", has_english_asr=True)
        bad = float("nan") if defect == "nan_prob" else draw(st.sampled_from(["0.9", True]))
        rec["thumbnails"] = {
            "object_probs": [[bad, 0.9, 0.9]] * 4,
            "features": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
        }
    elif defect == "old_schema":
        rec["schema_version"] = "9"
    elif defect == "missing_key":
        del rec[draw(st.sampled_from(REQUIRED))]
    line = json.dumps(rec).replace(f'"{BIG}"', "1e999")
    if defect == "not_object":
        line = json.dumps([rec["video_id"], 1])
    elif defect == "truncated":
        line = line[: draw(st.integers(1, len(line) - 1))].rstrip()
    return line, defect


def _main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@given(
    st.lists(
        st.one_of(video_lines(), st.just(("", None))), min_size=1, max_size=8
    )
)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_filter_and_run_agree_and_manifest_conserves(cases):
    numbered = [(k + 1, line, defect) for k, (line, defect) in enumerate(cases) if line]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.jsonl"
        src.write_text("\n".join(line for line, _ in cases) + "\n", encoding="utf-8")
        verdicts = Path(tmp) / "verdicts.jsonl"
        filter_code, filter_err = _main(
            ["filter", "--input", str(src), "--output", str(verdicts)]
        )
        rows = [json.loads(l) for l in verdicts.read_text().splitlines()]
        manifest_path = Path(tmp) / "manifest.json"
        run_code, _ = _main(
            [
                "run",
                "--input",
                str(src),
                "--output",
                str(Path(tmp) / "out.jsonl"),
                "--manifest",
                str(manifest_path),
            ]
        )
        counts = json.loads(manifest_path.read_text())["counts"]

    skipped = {int(n) for n in re.findall(r"^line (\d+): skipped", filter_err, re.M)}
    assert skipped <= {n for n, _, _ in numbered}
    assert len(rows) + len(skipped) == len(numbered)
    rows_left = iter(rows)
    outcomes = []
    for lineno, line, defect in numbered:
        kind, payload = process_video_line(line)
        outcomes.append((kind, payload))
        assert kind in ("accepted", "rejected", "error")
        if defect is not None:
            assert kind == "error", (defect, line, payload)
        if lineno in skipped:
            assert kind == "error", (line, payload)
            continue
        row = next(rows_left)
        if row["verdict"] == "accept":
            assert kind == "accepted", (line, payload)
        else:
            assert (kind, payload) == ("rejected", row["reason"]), line

    n_errors = sum(kind == "error" for kind, _ in outcomes)
    assert filter_code == run_code == (1 if n_errors else 0)
    assert counts["input_records"] == len(numbered)
    assert counts["data_errors"] == n_errors
    assert counts["accepted"] == sum(kind == "accepted" for kind, _ in outcomes)
    for reason, n in counts["rejected"].items():
        assert n == outcomes.count(("rejected", reason))
    assert (
        counts["accepted"] + sum(counts["rejected"].values()) + counts["data_errors"]
        == counts["input_records"]
    )
    segments = sum(len(rec.segments) for kind, rec in outcomes if kind == "accepted")
    assert counts["segments"] == segments
    assert counts["examples"] * 16 + counts["segments_dropped"] == segments
