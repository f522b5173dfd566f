"""Committed end-to-end outputs must reproduce byte for byte."""

import json

from vidtext.cli import main


def test_golden_run_reproduces_committed_bytes(tmp_path, data_dir):
    out_path = tmp_path / "out.jsonl"
    manifest_path = tmp_path / "manifest.json"
    code = main(
        [
            "run",
            "--input",
            str(data_dir / "golden_input.jsonl"),
            "--output",
            str(out_path),
            "--manifest",
            str(manifest_path),
        ]
    )
    assert code == 0
    assert out_path.read_bytes() == (data_dir / "golden_output.jsonl").read_bytes()
    assert (
        manifest_path.read_bytes() == (data_dir / "golden_manifest.json").read_bytes()
    )


def test_golden_manifest_counts_conserve(data_dir):
    manifest = json.loads((data_dir / "golden_manifest.json").read_text())
    counts = manifest["counts"]
    assert counts["accepted"] + sum(counts["rejected"].values()) + counts[
        "data_errors"
    ] == counts["input_records"]
    assert counts["examples"] * 16 + counts["segments_dropped"] == counts["segments"]
    assert all(v == 1 for v in counts["rejected"].values())


def test_segment_then_pack_of_accepted_lines_reproduces_the_golden_run(tmp_path, data_dir):
    """``segment`` and ``pack`` write segments as ``run`` does: the lines
    ``filter`` accepts, segmented then packed, give the golden output."""
    golden = data_dir / "golden_input.jsonl"
    verdicts = tmp_path / "verdicts.jsonl"
    assert main(["filter", "--input", str(golden), "--output", str(verdicts)]) == 0
    lines = [line for line in golden.read_text(encoding="utf-8").splitlines() if line.strip()]
    rows = [json.loads(line) for line in verdicts.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == len(lines)
    accepted = tmp_path / "accepted.jsonl"
    accepted.write_text(
        "".join(line + "\n" for line, row in zip(lines, rows) if row["verdict"] == "accept"),
        encoding="utf-8",
    )
    segmented, packed = tmp_path / "segmented.jsonl", tmp_path / "packed.jsonl"
    assert main(["segment", "--input", str(accepted), "--output", str(segmented)]) == 0
    stats = tmp_path / "stats.json"
    argv = ["pack", "--input", str(segmented), "--output", str(packed), "--stats", str(stats)]
    assert main(argv) == 0
    assert packed.read_bytes() == (data_dir / "golden_output.jsonl").read_bytes()


# The notes ``align`` prints for the faulty lines of the golden align input.
GOLDEN_ALIGN_NOTES = [
    "line 4: skipped (ValueError: noisy[0]: start_s must be a finite number >= 0, got True)",
    "line 5: skipped (ValueError: noisy[1]: start_s must be a finite number >= 0, got -0.5)",
    "line 6: skipped (ValueError: noisy[1]: end_s is missing)",
    "line 7: skipped (ValueError: noisy[1]: word 'b': end 1.5 before start 2.0)",
    "line 8: skipped (ValueError: noisy[1]: text must be a string, got 7)",
    "line 9: skipped (ValueError: noisy[1]: start_s must be a finite number >= 0, got '1.0')",
    "line 10: skipped (ValueError: noisy[1]: start_s must be a finite number >= 0, got 1e+308)",
    "line 11: skipped (JSONDecodeError: Expecting ',' delimiter: line 1 column 72 (char 71))",
    "line 12: skipped (ValueError: noisy[1] must be an object, got ['b', 1.0, 2.0])",
    "line 13: skipped (ValueError: noisy must be a list, got {'text': 'a'})",
    "line 14: skipped (ValueError: noisy is missing)",
    "line 15: skipped (ValueError: dtw_align requires two non-empty word lists)",
    "line 16: skipped (ValueError: dtw_align requires two non-empty word lists)",
    "line 17: skipped (ValueError: clean[1] must be a string, got 2)",
    "line 18: skipped (ValueError: noisy[1]: start_s must be a finite number >= 0, got True)",
]


def test_golden_align_reproduces_committed_bytes(capsys, tmp_path, data_dir):
    """Timings averaged over several noisy words, rounded to the millisecond,
    and the first fault of each bad line, byte for byte."""
    out_path = tmp_path / "out.jsonl"
    code = main(["align", "--input", str(data_dir / "golden_align_input.jsonl"), "--output", str(out_path)])
    assert (code, capsys.readouterr().err) == (1, "".join(note + "\n" for note in GOLDEN_ALIGN_NOTES))
    assert out_path.read_bytes() == (data_dir / "golden_align_output.jsonl").read_bytes()


def test_golden_score_order_and_eval_story_reproduce_committed_bytes(capsys, data_dir):
    """4-class tables of n = 1, 3, 5 and 8, a uniform table where every ordering
    ties, a table whose best score overflows to -inf, 2-class tables of n = 2, 6
    and 12 and a malformed line; then one story set, macro-averaged."""
    code = main(["score-order", "--input", str(data_dir / "golden_order_input.jsonl")])
    assert (code, *capsys.readouterr()) == (
        1,
        (data_dir / "golden_order_output.jsonl").read_text(encoding="utf-8"),
        (data_dir / "golden_order_stderr.txt").read_text(encoding="utf-8"),
    )
    argv = ["eval-story", "--tables", str(data_dir / "golden_story_tables.jsonl"),
            "--truths", str(data_dir / "golden_story_truths.jsonl")]
    assert (main(argv), *capsys.readouterr()) == (
        0, (data_dir / "golden_story_output.jsonl").read_text(encoding="utf-8"), ""
    )
