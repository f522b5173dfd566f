"""Committed end-to-end outputs must reproduce byte for byte."""

import json

from vidtext.cli import main
from vidtext.config import PipelineConfig
from vidtext.pipeline import run_pipeline


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


def test_golden_run_independent_of_worker_count(tmp_path, data_dir):
    outputs = []
    for jobs in (1, 4, 8):
        out_path = tmp_path / f"out{jobs}.jsonl"
        with open(data_dir / "golden_input.jsonl", encoding="utf-8") as fin, open(
            out_path, "w", encoding="utf-8"
        ) as fout:
            manifest = run_pipeline(PipelineConfig(), fin, fout, jobs=jobs)
        outputs.append((out_path.read_bytes(), json.dumps(manifest.to_json())))
    assert outputs[0] == outputs[1] == outputs[2]


def test_golden_run_repeatable_within_process(tmp_path, data_dir):
    blobs = []
    for rep in range(2):
        out_path = tmp_path / f"rep{rep}.jsonl"
        with open(data_dir / "golden_input.jsonl", encoding="utf-8") as fin, open(
            out_path, "w", encoding="utf-8"
        ) as fout:
            run_pipeline(PipelineConfig(), fin, fout)
        blobs.append(out_path.read_bytes())
    assert blobs[0] == blobs[1]


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
