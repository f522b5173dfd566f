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
JSON; the parent packs those and joins each 16 into an example line.
``decode_line``
applies the line rules of every reader; it, the decoders, the gate
composition, the line driver and ``note_skip`` are shared by every
streaming subcommand, so ``filter`` decides and reports a line as ``run`` does.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable, Iterator

from .config import PipelineConfig
from .filters import (
    REJECT_REASONS,
    FilterDecision,
    ThumbnailEvidence,
    metadata_gate,
    thumbnail_gate,
)
from .model import (
    SCHEMA_VERSION,
    VideoRecord,
    Words,
    example_to_json,
    metadata_from_json,
    numbered_lines,
    record_from_json,
    segment_to_json,
    typed_rows,
    validate_record,
    words_field,
)
from .segmenting import PackStats, pack_examples, segment_words
from .tokenizers import load_tokenizer

# perfbench/tracing.py patches these names in this module; nothing here calls them.
from .model import dump_line  # noqa: F401
from .segmenting import segment_transcript  # noqa: F401
from .tokenizers import tokenize_words  # noqa: F401

_CHUNKSIZE = 8

ACCEPTED, REJECTED, ERROR = "accepted", "rejected", "error"
Outcome = tuple[str, Any]  # (status, payload): a record, a reject reason or a message
# What a malformed line can raise; each becomes a data error, never a
# traceback.  json.JSONDecodeError and UnicodeDecodeError are ValueErrors, and
# JSON nested too deeply for the parser raises RecursionError.
DATA_ERRORS = (ValueError, TypeError, KeyError, OverflowError, RecursionError)
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

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
    _worker = (cfg, tokenizer)


def decode_line(raw: str | bytes) -> dict[str, Any]:
    """One input line as a JSON object of the supported schema version.

    A byte line must be UTF-8, optionally after a BOM, and no string in the
    line may hold a lone surrogate such as the escape ``"\\ud800"``: it does
    not encode back to UTF-8.  Any failure raises one of ``DATA_ERRORS``.
    """
    text = raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw
    obj = json.loads(text)
    if _SURROGATE_ESCAPE.search(text):  # only an escape puts a surrogate in UTF-8
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    if not isinstance(obj, dict):
        raise ValueError("line must hold a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:  # the string "1": the integer 1 is another version
        raise ValueError(f"unsupported schema_version {version!r}")
    return obj


def decode_video(obj: dict[str, Any]) -> tuple[VideoRecord, Words]:
    """A raw video line as its metadata (no segments) and its timed words."""
    meta = metadata_from_json(obj)
    words = words_field(obj, "words") if "words" in obj else ([], [], [])
    return meta, words


def decode_record(obj: dict[str, Any]) -> VideoRecord:
    """A segmented video record (``segment`` output, ``pack`` input), with its
    segments as segment JSON.  ``validate_record`` raises at the first
    invariant it breaks.

    The token cap per segment is chosen when ``segment`` runs, so a segment
    of any length passes here.
    """
    record = record_from_json(obj)
    validate_record(record)
    return dataclasses.replace(record, segments=tuple(map(segment_to_json, record.segments)))


def apply_gates(
    meta: VideoRecord, obj: dict[str, Any], cfg: PipelineConfig
) -> FilterDecision:
    """The metadata gate, then the thumbnail gate if metadata passes.

    Thumbnails are optional and decoded only when the thumbnail gate runs,
    as lists of rows of finite JSON numbers.
    """
    decision = metadata_gate(meta, max_duration_s=cfg.max_duration_s)
    if decision.accepted and "thumbnails" in obj:
        thumbs = obj["thumbnails"]
        if type(thumbs) is not dict:
            raise ValueError(f"thumbnails must be an object, got {thumbs!r:.40}")
        decision = thumbnail_gate(
            ThumbnailEvidence(
                typed_rows(thumbs, "object_probs", float),
                typed_rows(thumbs, "features", float),
            ),
            prob_threshold=cfg.prob_threshold,
            min_objects=cfg.min_objects,
            sim_threshold=cfg.sim_threshold,
            distinct_classes=cfg.distinct_classes,
        )
    return decision


def segment_video(
    meta: VideoRecord, words: Words, cfg: PipelineConfig, tokenizer
) -> tuple[VideoRecord, list[float]]:
    """One transcript as a record of segment JSON, and its frame times.  Its
    segments keep every ``validate_record`` invariant by construction, so
    they are not validated."""
    segments, frames = segment_words(words, tokenizer, l_max=cfg.tokens_per_segment)
    return dataclasses.replace(meta, segments=tuple(segments)), frames


def line_outcome(handle: Callable[..., Outcome], raw: str | bytes, *args) -> Outcome:
    """``handle(decode_line(raw), *args)``, or ("error", message) on a data error."""
    try:
        return handle(decode_line(raw), *args)
    except DATA_ERRORS as e:
        return ERROR, f"{type(e).__name__}: {e}"


def _video_outcome(obj: dict[str, Any], cfg: PipelineConfig, tokenizer) -> Outcome:
    meta, words = decode_video(obj)
    decision = apply_gates(meta, obj, cfg)
    if not decision.accepted:
        return REJECTED, decision.reason
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


def note_skip(lineno: int, message: str) -> None:
    """The stderr note for a line skipped as a data error."""
    print(f"line {lineno}: skipped ({message})", file=sys.stderr)


def outcomes(
    results: Iterable[tuple[int, Outcome]],
    on_error: Callable[[int, str], None],
    tally: Counter,
) -> Iterator[Outcome]:
    """Every numbered outcome, counted in ``tally`` by status, in input order.

    A data error goes to ``on_error(lineno, message)`` instead of being yielded.
    """
    for lineno, (status, payload) in results:
        tally[status] += 1
        if status == ERROR:
            on_error(lineno, payload)
        else:
            yield status, payload


def _numbered_video_line(item: tuple[int, Any]) -> tuple[int, Outcome]:
    lineno, raw = item
    return lineno, process_video_line(raw, *_worker)


def _result_stream(
    numbered: Iterator[tuple[int, Any]], cfg: PipelineConfig, tokenizer, jobs: int
) -> Iterator[tuple[int, Outcome]]:
    if jobs <= 1:
        yield from ((lineno, process_video_line(raw, cfg, tokenizer)) for lineno, raw in numbered)
        return
    # The workers get the parent's tokenizer: a pool whose initializer raises
    # starts new workers for ever.
    with multiprocessing.Pool(
        processes=jobs, initializer=_init_worker, initargs=(cfg, tokenizer)
    ) as pool:
        yield from pool.imap(_numbered_video_line, numbered, chunksize=_CHUNKSIZE)


def write_examples(
    records: Iterable[VideoRecord], cfg: PipelineConfig, output_fp: IO[str]
) -> PackStats:
    """Pack records of segment JSON into examples and write each as a line."""
    stats = PackStats()
    for example in pack_examples(
        records,
        n_segments=cfg.segments_per_example,
        cross_video=cfg.cross_video,
        stats=stats,
    ):
        output_fp.write(example_to_json(example))
        output_fp.write("\n")
    return stats


def check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def run_pipeline(
    config: PipelineConfig,
    input_fp: IO[str],
    output_fp: IO[str],
    jobs: int = 1,
    tokenizer=None,
) -> RunManifest:
    """Drive the full filter -> segment -> pack pipeline over JSONL streams.

    Without a tokenizer this loads the config's.  Each data error gets a
    ``note_skip`` in input order; the manifest keeps the first 10 messages."""
    check_jobs(jobs)
    tok = tokenizer if tokenizer is not None else load_tokenizer(config.tokenizer_path)
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
