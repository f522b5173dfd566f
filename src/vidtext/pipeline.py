"""End-to-end corpus run: filter, segment, and pack a stream of raw videos.

Input is line-delimited JSON, one video per line:

    {"video_id": ..., "duration_s": ..., "category": ...,
     "has_english_asr": ..., "words": [{"text", "start_s", "end_s"}, ...],
     "thumbnails": {"object_probs": [[...]x4], "features": [[...]x4]}}

``thumbnails`` is optional; without it only the metadata gates run.  Output
is packed-example JSONL plus a manifest of per-stage counts and the config
hash.  Records are processed by a pool whose results are consumed in input
order, so worker count never changes a single output byte.  A worker
decodes, gates, tokenizes and segments a line and writes each segment's
JSON; the parent packs those and joins each ``segments_per_example`` into
an example line (``write_examples``, which ``pack`` uses too).  ``filter``
and ``segment`` use its video decoder and gate composition.  Each line goes
through ``model``'s line driver (``decode_line``, ``line_outcome``, ``outcomes``,
``note_skip``), as in every streaming subcommand.
"""

from __future__ import annotations

import dataclasses
import itertools
import signal
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Iterator

from .config import PipelineConfig
from .filters import (
    REASON_PASSED,
    REJECT_REASONS,
    ThumbnailEvidence,
    metadata_gate,
    thumbnail_gate,
)
from .model import (
    ACCEPTED,
    ERROR,
    REJECTED,
    SCHEMA_VERSION,
    WORD_COLUMNS,
    Outcome,
    VideoRecord,
    columns_field,
    example_to_json,
    line_outcome,
    metadata_from_json,
    note_skip,
    numbered_lines,
    outcomes,
    typed_rows,
    word_from_json,
)
from .segmenting import PackStats, pack_examples, segment_words
from .tokenizers import load_tokenizer

# perfbench/tracing.py patches these names in this module; nothing here calls them.
from .model import dump_line, validate_record  # noqa: F401
from .segmenting import segment_transcript  # noqa: F401
from .tokenizers import tokenize_words  # noqa: F401

_CHUNKSIZE = 8

_worker: tuple[PipelineConfig, Any] | None = None  # (config, tokenizer), pool workers only


@dataclass
class RunManifest:
    config: dict[str, Any]
    config_sha256: str
    input_records: int = 0
    data_errors: int = 0
    accepted: int = 0
    rejected: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in REJECT_REASONS}
    )
    segments: int = 0
    examples: int = 0
    segments_dropped: int = 0
    error_samples: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "config_sha256": self.config_sha256,
            "counts": {
                "input_records": self.input_records,
                "data_errors": self.data_errors,
                "accepted": self.accepted,
                "rejected": dict(self.rejected),
                "segments": self.segments,
                "examples": self.examples,
                "segments_dropped": self.segments_dropped,
            },
            "error_samples": list(self.error_samples),
        }


def _init_worker(cfg: PipelineConfig, tokenizer) -> None:
    global _worker
    # Ctrl-C reaches the whole process group; the parent alone handles it and
    # ends the pool, so a worker neither prints a traceback nor dies mid-task.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker = (cfg, tokenizer)


def decode_video(obj: dict[str, Any]) -> tuple[VideoRecord, list[list]]:
    """A raw video line as its metadata (no segments) and its words' ``WORD_COLUMNS``."""
    meta = metadata_from_json(obj)
    words = columns_field(obj, "words", WORD_COLUMNS, word_from_json) if "words" in obj else ([], [], [])
    return meta, words


def apply_gates(meta: VideoRecord, obj: dict[str, Any], cfg: PipelineConfig) -> str:
    """The metadata gate, then the thumbnail gate if metadata passes: the
    first gate's reason that is not ``REASON_PASSED``, else that.

    Thumbnails are optional and decoded only when the thumbnail gate runs,
    as lists of rows of finite JSON numbers.
    """
    reason = metadata_gate(meta, cfg)
    if reason == REASON_PASSED and "thumbnails" in obj:
        thumbs = obj["thumbnails"]
        if type(thumbs) is not dict:
            raise ValueError(f"thumbnails must be an object, got {thumbs!r:.40}")
        evidence = ThumbnailEvidence(
            typed_rows(thumbs, "object_probs", float),
            typed_rows(thumbs, "features", float),
        )
        reason = thumbnail_gate(evidence, cfg)
    return reason


def segment_video(
    meta: VideoRecord, words: list[list], cfg: PipelineConfig, tokenizer
) -> tuple[VideoRecord, list[float]]:
    """One transcript as a record of segment JSON, and its frame times.  Its
    segments keep every ``check_segments`` invariant by construction, so
    they are not checked."""
    segments, frames = segment_words(words, tokenizer, l_max=cfg.tokens_per_segment)
    return dataclasses.replace(meta, segments=tuple(segments)), frames


def _video_outcome(obj: dict[str, Any], cfg: PipelineConfig, tokenizer) -> Outcome:
    meta, words = decode_video(obj)
    reason = apply_gates(meta, obj, cfg)
    if reason != REASON_PASSED:
        return REJECTED, reason
    return ACCEPTED, segment_video(meta, words, cfg, tokenizer)[0]


def process_video_line(
    raw: str | bytes, config: PipelineConfig | None = None, tokenizer=None
) -> Outcome:
    """One video through decode, gates, and segmentation.

    Returns ("error", message), ("rejected", reason), or ("accepted",
    VideoRecord) whose ``segments`` are segment JSON strings.  Without a
    config this uses ``PipelineConfig()``, and without a tokenizer it loads
    the config's.
    """
    cfg = config if config is not None else PipelineConfig()
    tok = tokenizer if tokenizer is not None else load_tokenizer(cfg.tokenizer_path)
    return line_outcome(_video_outcome, raw, cfg, tok)


def _numbered_video_line(item: tuple[int, Any]) -> tuple[int, Outcome]:
    lineno, raw = item
    return lineno, process_video_line(raw, *_worker)


def _result_stream(
    numbered: Iterator[tuple[int, Any]], cfg: PipelineConfig, tokenizer, jobs: int
) -> Iterator[tuple[int, Outcome]]:
    if jobs <= 1:
        yield from ((lineno, process_video_line(raw, cfg, tokenizer)) for lineno, raw in numbered)
        return
    first = next(numbered, None)
    if first is None:  # an empty input starts no workers
        return
    import multiprocessing  # only a pool needs it

    stopped = False
    lines = itertools.chain([first], itertools.takewhile(lambda _: not stopped, numbered))
    # The workers get the parent's tokenizer: a pool whose initializer raises
    # starts new workers for ever.
    with multiprocessing.Pool(
        processes=jobs, initializer=_init_worker, initargs=(cfg, tokenizer)
    ) as pool:
        try:
            yield from pool.imap(_numbered_video_line, lines, chunksize=_CHUNKSIZE)
        finally:
            # However the stream ends (Ctrl-C included), stop feeding lines and let
            # the workers finish the ones they hold: ``Pool.terminate`` alone
            # deadlocks when a worker is in the middle of sending a large result.
            stopped = True
            pool.close()
            pool.join()


def write_examples(
    records: Iterable[VideoRecord], cfg: PipelineConfig, output_fp: IO[str]
) -> PackStats:
    """Pack records of segment JSON into examples and write each as a line."""
    stats = PackStats()
    for example in pack_examples(records, cfg, stats):
        output_fp.write(example_to_json(example))
        output_fp.write("\n")
    return stats


def run_pipeline(
    config: PipelineConfig,
    input_fp: IO[str],
    output_fp: IO[str],
    jobs: int = 1,
) -> RunManifest:
    """Drive the full filter -> segment -> pack pipeline over JSONL streams.

    Each data error gets a ``note_skip`` in input order; the manifest keeps
    the first 10 messages."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tok = load_tokenizer(config.tokenizer_path)
    manifest = RunManifest(config=config.to_json(), config_sha256=config.sha256())

    def note(lineno: int, message: str) -> None:
        note_skip(lineno, message)
        if len(manifest.error_samples) < 10:
            manifest.error_samples.append(message)

    tally: Counter = Counter()
    results = _result_stream(numbered_lines(input_fp), config, tok, jobs)

    def accepted_records() -> Iterator[VideoRecord]:
        for status, payload in outcomes(results, note, tally):
            if status == REJECTED:
                manifest.rejected[payload] += 1
            else:
                yield payload

    stats = write_examples(accepted_records(), config, output_fp)
    manifest.input_records = sum(tally.values())
    manifest.accepted = tally[ACCEPTED]
    manifest.data_errors = tally[ERROR]
    manifest.segments = stats.segments_in
    manifest.examples = stats.examples_out
    manifest.segments_dropped = stats.segments_dropped
    return manifest
