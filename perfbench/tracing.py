"""Timing spans around the module-level names the vidtext CLI calls.

``traced(recorder)`` swaps each name for a wrapper that records a span:
its name, its wall time and its self time (wall time minus the spans it
caused).  Spans stay in memory and the swap is undone on exit.  Nothing in
``vidtext`` itself is changed on disk, so the same code runs traced and
untraced.

Only the calling process is traced.  With ``--jobs 2`` the pool workers are
forked copies whose spans are lost, so worker-side layers are measured on
``run-j1`` and the parent-side ones on ``run-j2``.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Iterator


class Recorder:
    """Spans per name as (wall, self, label), plus named counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list[tuple[float, float, str]]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._child: list[float] = []  # time covered by children, per open span

    def _open(self) -> float:
        self._child.append(0.0)
        return time.perf_counter()

    def _close(self, t0: float) -> tuple[float, float]:
        """End the innermost open span; return its wall and self time."""
        dt = time.perf_counter() - t0
        child = self._child.pop()
        if self._child:
            self._child[-1] += dt
        return dt, dt - child

    def wrap(
        self,
        fn: Callable,
        name: str,
        label: Callable[..., str] | None = None,
        count: tuple[str, Callable[[Any], int]] | None = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt, own = self._close(t0)
                self.spans[name].append((dt, own, label(*args, **kwargs) if label else ""))
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced_call

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """One span per generator, summing the time spent inside ``next``."""

        def traced_gen(*args, **kwargs) -> Iterator:
            it = fn(*args, **kwargs)
            wall = own = 0.0
            try:
                while True:
                    t0 = self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt, dt_own = self._close(t0)
                        wall += dt
                        own += dt_own
                    yield item
            finally:
                self.spans[name].append((wall, own, ""))

        return traced_gen

    def wall(self, name: str) -> float:
        return sum((s[0] for s in self.spans.get(name, ())), 0.0)

    def own(self, name: str) -> float:
        return sum((s[1] for s in self.spans.get(name, ())), 0.0)

    def median_ms(self, name: str, label: str) -> float:
        walls = [s[0] for s in self.spans.get(name, ()) if s[2] == label]
        return statistics.median(walls) * 1e3 if walls else 0.0


class _TimedWriter:
    """A text file whose writes, flush and close are one span each."""

    def __init__(self, fp, recorder: Recorder) -> None:
        self._fp = fp
        self._write = recorder.wrap(fp.write, "pipeline.write")
        self._close = recorder.wrap(fp.close, "pipeline.write")

    def write(self, s: str) -> int:
        return self._write(s)

    def close(self) -> None:
        self._close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, attr):
        return getattr(self._fp, attr)


def _n_label(table) -> str:
    return f"n{table.n}"


def _shape_label(two_way) -> str:
    return f"n{len(two_way)}"


def _bytes(s: str) -> int:
    return len(s.encode("utf-8"))


@contextlib.contextmanager
def traced(recorder: Recorder, trace_writes: bool):
    """Swap the layer entry points for traced wrappers until the block exits."""
    mods = {
        m: importlib.import_module(f"vidtext.{m}")
        for m in ("cli", "pipeline", "align", "_kernels", "ordering")
    }
    cli, pipeline, align, kernels = mods["cli"], mods["pipeline"], mods["align"], mods["_kernels"]
    w, g = recorder.wrap, recorder.wrap_generator
    patches: list[tuple[Any, str, Any]] = [
        (cli, "main", w(cli.main, "cli")),
        (pipeline, "process_video_line", w(pipeline.process_video_line, "pipeline.process_video_line")),
        (pipeline, "_result_stream", g(pipeline._result_stream, "pipeline.result_stream")),
        (pipeline, "metadata_gate", w(pipeline.metadata_gate, "filters.gates")),
        (pipeline, "thumbnail_gate", w(pipeline.thumbnail_gate, "filters.gates")),
        (pipeline, "tokenize_words", w(pipeline.tokenize_words, "tokenizers.tokenize_words",
                                       count=("tokenizers.tokens", len))),
        (pipeline, "segment_transcript", w(pipeline.segment_transcript, "segmenting.segment_transcript",
                                           count=("segmenting.segments", len))),
        (pipeline, "validate_record", w(pipeline.validate_record, "model.validate_record")),
        (pipeline, "pack_examples", g(pipeline.pack_examples, "segmenting.pack_examples")),
        (pipeline, "example_to_json", w(pipeline.example_to_json, "model.serialize")),
        (pipeline, "dump_line", w(pipeline.dump_line, "model.serialize",
                                  count=("model.bytes_out", _bytes))),
        (kernels, "encode_words", w(kernels.encode_words, "kernels.encode_words")),
        (kernels, "pair_cost_matrix", w(kernels.pair_cost_matrix, "kernels.pair_cost_matrix",
                                        count=("kernels.cells", lambda c: int(c.size)))),
        (kernels, "alignment_fill", w(kernels.alignment_fill, "kernels.alignment_fill")),
        (align, "dtw_align", w(align.dtw_align, "align.dtw_align")),
        (align, "transfer_timing", w(align.transfer_timing, "align.transfer_timing")),
        (cli, "best_ordering", w(cli.best_ordering, "ordering.best_ordering", label=_n_label)),
        (cli, "best_frame_ordering", w(cli.best_frame_ordering, "ordering.best_frame_ordering",
                                       label=_shape_label)),
    ]
    table_cls = mods["ordering"].PairwiseRelationTable
    from_flat = table_cls.__dict__["from_flat"]
    patches.append(
        (table_cls, "from_flat", classmethod(w(from_flat.__func__, "ordering.from_flat")))
    )
    if trace_writes:
        def timed_open(file, mode="r", *args, **kwargs):
            fp = builtins.open(file, mode, *args, **kwargs)
            return _TimedWriter(fp, recorder) if "w" in mode else fp

        patches.append((cli, "open", timed_open))
    saved = [(obj, attr, obj.__dict__.get(attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield recorder
    finally:
        for obj, attr, old in saved:
            if old is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass; layers the pass never entered read 0."""
    pvl = sorted(s[0] for s in rec.spans.get("pipeline.process_video_line", ()))
    cells = rec.counts["kernels.cells"]
    wait = rec.own("pipeline.result_stream")
    in_pipeline = "pipeline.result_stream" in rec.spans
    pair_cost = rec.wall("kernels.pair_cost_matrix")
    return {
        "pipeline.process_video_line.p50_ms": _quantile(pvl, 0.50) * 1e3,
        "pipeline.process_video_line.p99_ms": _quantile(pvl, 0.99) * 1e3,
        "pipeline.decode_s": rec.own("pipeline.process_video_line"),
        "pipeline.parent_wait_s": wait,
        "pipeline.parent_busy_share": 1.0 - wait / wall_s if in_pipeline else 0.0,
        "pipeline.write_s": rec.wall("pipeline.write"),
        "filters.gates_s": rec.wall("filters.gates"),
        "tokenizers.tokenize_words_s": rec.wall("tokenizers.tokenize_words"),
        "tokenizers.tokens": rec.counts["tokenizers.tokens"],
        "segmenting.segment_transcript_s": rec.wall("segmenting.segment_transcript"),
        "segmenting.segments": rec.counts["segmenting.segments"],
        "segmenting.pack_examples_s": rec.own("segmenting.pack_examples"),
        "model.validate_record_s": rec.wall("model.validate_record"),
        "model.serialize_s": rec.wall("model.serialize"),
        "model.bytes_out": rec.counts["model.bytes_out"],
        "kernels.encode_words_s": rec.wall("kernels.encode_words"),
        "kernels.pair_cost_matrix_s": pair_cost,
        "kernels.alignment_fill_s": rec.wall("kernels.alignment_fill"),
        "kernels.pair_cost_ns_per_cell": pair_cost / cells * 1e9 if cells else 0.0,
        "kernels.cells": cells,
        "align.backtrack_s": rec.own("align.dtw_align"),
        "align.transfer_timing_s": rec.wall("align.transfer_timing"),
        "ordering.from_flat_s": rec.wall("ordering.from_flat"),
        "ordering.best_ordering_s": rec.wall("ordering.best_ordering"),
        "ordering.best_ordering.n8_ms": rec.median_ms("ordering.best_ordering", "n8"),
        "ordering.best_frame_ordering_s": rec.wall("ordering.best_frame_ordering"),
        "ordering.best_frame_ordering.n8_ms": rec.median_ms("ordering.best_frame_ordering", "n8"),
        "cli.self_s": rec.own("cli"),
    }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, max(0, int(-(-q * len(sorted_values) // 1)) - 1))
    return sorted_values[k]
