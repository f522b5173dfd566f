"""Property: every input line lands in exactly one outcome, the same one from
``filter`` and from ``run``, and the run manifest conserves its counts.

Lines are generated valid, malformed, and with each strict-type defect the
decoder must turn into a data error.  Generated transcripts keep their words
in time order and short enough for one segment, so a line's outcome is
decided by decoding and the gates alone, which ``filter`` and ``run`` share.

The other streaming subcommands get mutated copies of valid seed lines: every
non-blank line ends as one output line or one skip note, never a traceback.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from functools import cache
from pathlib import Path

import pytest

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
        run_code, run_err = _main(
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
    assert {int(n) for n in re.findall(r"^line (\d+): skipped", run_err, re.M)} == skipped
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


def test_a_huge_integer_and_deep_nesting_are_named_data_errors(tmp_path):
    """Python's own messages for these two (a ``sys.set_int_max_str_digits`` hint
    and a RecursionError) become ``ValueError``s that say what the line holds."""
    digits = sys.get_int_max_str_digits()
    src = tmp_path / "in.jsonl"
    src.write_text('{"n": ' + "1" * (digits + 1) + "}\n" + "[" * 100_000 + "\n", encoding="utf-8")
    for command in ("filter", "score-order"):
        code, err = _main([command, "--input", str(src)])
        assert (code, err.splitlines()) == (
            1,
            [
                f"line 1: skipped (ValueError: integer of more than {digits} digits)",
                "line 2: skipped (ValueError: JSON nested too deeply)",
            ],
        )


def test_huge_table_integers_get_short_notes_that_name_their_field(tmp_path):
    """An ``n`` or ``classes`` of 4,000 digits parses, but its note is cut at 40
    characters, and a value count too large for any list is not printed."""
    big = "9" * 4000
    lines = {
        f'{{"n": {big}, "classes": 2, "log_probs": [0.0]}}':
            f"expected n*n*2 log-probabilities for n={'9' * 40}, got 1",
        f'{{"n": {big}, "log_probs": [0.0]}}':
            f"expected n*n*4 log-probabilities for n={'9' * 40}, got 1",
        f'{{"n": -{big}, "classes": 2, "log_probs": [0.0]}}':
            f"n must be at least 1, got -{'9' * 39}",
        f'{{"n": 2, "classes": {big}, "log_probs": [0.0]}}':
            f"classes must be 2 or 4, got {'9' * 40}",
        # Ordinary values keep their whole note.
        '{"n": 3, "classes": 2, "log_probs": [0.0]}': "expected 18 log-probabilities for n=3, got 1",
    }
    src = tmp_path / "tables.jsonl"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = _main(["score-order", "--input", str(src)])
    assert (code, err.splitlines()) == (
        1,
        [f"line {k}: skipped (ValueError: {note})" for k, note in enumerate(lines.values(), 1)],
    )

    # eval-story reads its tables through the same decoder; a bad line is fatal there.
    truths = tmp_path / "truths.jsonl"
    truths.write_text('{"order": [0]}\n', encoding="utf-8")
    for line, note in [
        (f'{{"n": {big}, "log_probs": [0.0]}}', f"expected n*n*4 log-probabilities for n={'9' * 40}, got 1"),
        (f'{{"n": -{big}, "log_probs": [0.0]}}', f"n must be at least 1, got -{'9' * 39}"),
        (f'{{"n": 1, "classes": {big}, "log_probs": [0.0]}}', f"classes must be 4, got {'9' * 40}"),
    ]:
        src.write_text(line + "\n", encoding="utf-8")
        code, err = _main(["eval-story", "--tables", str(src), "--truths", str(truths)])
        assert (code, err) == (2, f"error: {src} line 1: {note}\n")


# ---------------------------------------------------------------------------
# mutated seed lines of every other streaming subcommand

HALF, LIKELY, UNLIKELY = math.log(0.5), math.log(0.9), math.log(0.1)
VIDEO = json.dumps({
    "video_id": "v1", "duration_s": 30.0, "category": "Howto", "has_english_asr": True,
    "words": [{"text": w, "start_s": k * 0.6, "end_s": k * 0.6 + 0.5}
              for k, w in enumerate("so first we take the pan and heat it slowly".split())],
})
SEEDS = {
    "align": [
        json.dumps({"noisy": [{"text": "helo", "start_s": 0.0, "end_s": 0.4},
                              {"text": "wrld", "start_s": 0.5, "end_s": 0.9}],
                    "clean": ["hello", "world"]}),
        json.dumps({"noisy": [{"text": "newyork", "start_s": 1, "end_s": 2}],
                    "clean": ["new", "york", "city"]}),
    ],
    "corrupt": [json.dumps({"doc_id": "d1", "words": ["the", "cat", "sat", "down"]})],
    "segment": [VIDEO],
    "mask": [json.dumps({"sequence_id": "s1", "tokens": list(range(10, 22)),
                         "weights": [0.5, 0.1, 0.9, 0.3] * 3, "special_positions": [0, 11]})],
    "score-order": [
        json.dumps({"n": 2, "classes": 2, "log_probs": [HALF, HALF, LIKELY, UNLIKELY,
                                                        UNLIKELY, LIKELY, HALF, HALF]}),
        json.dumps({"n": 3, "log_probs": [math.log(0.25)] * 36}),
    ],
}
FLAGS = {
    "corrupt": ["--replace-prob", "0.5", "--filler-prob", "0.3"],
    "mask": ["--vocab-size", "40", "--mask-id", "3"],
}
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**30),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 40), max_size=3),
    st.just({}),
)


@cache
def seeds(command: str) -> list[str]:
    """``pack`` reads what ``segment`` writes."""
    if command != "pack":
        return SEEDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl"
        src.write_text(VIDEO + "\n", encoding="utf-8")
        assert _main(["segment", "--input", str(src), "--output", str(out)]) == (0, "")
        return out.read_text(encoding="utf-8").splitlines()


def _slots(value):
    """(container, key) of every value inside ``value``."""
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, inner in items:
        yield value, key
        yield from _slots(inner)


@st.composite
def mutated_lines(draw, command: str) -> str:
    obj = json.loads(draw(st.sampled_from(seeds(command))))
    for _ in range(draw(st.integers(0, 2))):
        slots = list(_slots(obj))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    line = json.dumps(obj)
    edit = draw(st.sampled_from(["none", "none", "none", "cut", "insert", "drop"]))
    at = draw(st.integers(0, len(line)))
    if edit == "cut":
        line = line[:at]
    elif edit == "insert":
        line = line[:at] + draw(st.characters(exclude_categories=["Cs"], exclude_characters="\n")) + line[at:]
    elif edit == "drop":
        line = line[:at] + line[at + 1:]
    return line


@pytest.mark.parametrize("command", [*SEEDS, "pack"])
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_line_of_every_subcommand_is_one_output_line_or_one_note(command, data):
    lines = data.draw(
        st.lists(st.one_of(mutated_lines(command), st.sampled_from(["", "  "])), min_size=1, max_size=6)
    )
    numbered = [k for k, line in enumerate(lines, 1) if line.encode().strip()]
    with tempfile.TemporaryDirectory() as tmp:
        src, out, stats = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl", Path(tmp) / "stats.json"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [command, "--input", str(src), "--output", str(out), *FLAGS.get(command, [])]
        code, err = _main(argv + (["--stats", str(stats)] if command == "pack" else []))
        written = out.read_text(encoding="utf-8")
        counts = json.loads(stats.read_text()) if command == "pack" else None

    notes = [re.fullmatch(r"line (\d+): skipped \(.+\)", note) for note in err.splitlines()]
    assert all(notes), err
    skipped = [int(note[1]) for note in notes]
    assert sorted(set(skipped)) == skipped and set(skipped) <= set(numbered)
    assert code == (1 if skipped else 0)
    kept = [lines[k - 1] for k in numbered if k not in skipped]
    if command == "pack":
        assert counts["segments_in"] == sum(len(json.loads(line)["segments"]) for line in kept)
    else:
        assert written.count("\n") == len(kept)
