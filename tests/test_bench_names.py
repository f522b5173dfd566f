"""The benchmark's tracer swaps module-level names of ``vidtext`` for timed
wrappers, and reads two names through the package root; this keeps a
simplification from deleting one of them unnoticed, and runs ``run`` once
under the tracer, as the benchmark's ``--trace 1`` does.
"""

import importlib.util
from pathlib import Path

import pytest

import vidtext
import vidtext.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_benchmark_traces_exists():
    tracing = _tracing()
    main = vidtext.cli.main
    with tracing.traced(tracing.Recorder(), trace_writes=True):
        assert vidtext.cli.main is not main
    assert vidtext.cli.main is main
    assert "open" not in vars(vidtext.cli)


def test_the_package_root_gives_the_two_names_the_benchmark_reads_and_no_other():
    from vidtext import _kernels, align

    assert vidtext.levenshtein is align.levenshtein
    assert vidtext.numba_active is _kernels.numba_active
    for name in ("PipelineConfig", "best_ordering", "__all__"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(vidtext, name)


def test_a_traced_run_writes_what_an_untraced_run_writes(tmp_path, data_dir):
    tracing = _tracing()
    src = tmp_path / "in.jsonl"
    src.write_bytes(b"".join((data_dir / "golden_input.jsonl").read_bytes().splitlines(keepends=True)[:3]))

    def run(tag):
        out, manifest = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}.manifest.json"
        argv = ["run", "--input", str(src), "--output", str(out), "--manifest", str(manifest)]
        assert vidtext.cli.main(argv) == 0
        return out.read_bytes(), manifest.read_bytes()

    recorder = tracing.Recorder()
    with tracing.traced(recorder, trace_writes=True):
        traced = run("traced")
    assert traced[0] and traced == run("untraced")
    assert recorder.spans["cli"] and recorder.spans["pipeline.write"]
