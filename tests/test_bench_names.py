"""The benchmark's tracer swaps module-level names of ``vidtext`` for timed
wrappers; this keeps a simplification from deleting one of them unnoticed.
"""

import importlib.util
from pathlib import Path

import vidtext.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_name_the_benchmark_traces_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    main = vidtext.cli.main
    with tracing.traced(tracing.Recorder(), trace_writes=True):
        assert vidtext.cli.main is not main
    assert vidtext.cli.main is main
    assert "open" not in vars(vidtext.cli)
