"""End-to-end corpus run: filter, segment, and pack a stream of raw videos.

Input is line-delimited JSON, one video per line:

    {"video_id": ..., "duration_s": ..., "category": ...,
     "has_english_asr": ..., "words": [{"text", "start_s", "end_s"}, ...],
     "thumbnails": {"object_probs": [[...]x4], "features": [[...]x4]}}

``thumbnails`` is optional; without it only the metadata gates run.  Output
is packed-example JSONL plus a manifest of per-stage counts and the config
hash.  Records are processed by a pool whose results are consumed in input
order, so worker count never changes a single output byte.  The decoders,
the gate composition and the line driver defined here are shared by every
streaming subcommand, so ``filter`` decides a line exactly as ``run`` does.
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
    TimedWord,
    VideoRecord,
    dump_line,
    example_to_json,
    list_field,
    metadata_from_json,
    numbered_lines,
    record_from_json,
    typed_rows,
    validate_record,
    word_from_json,
)
from .segmenting import PackStats, pack_examples, segment_transcript
from .tokenizers import load_tokenizer, tokenize_words

_CHUNKSIZE = 8

ACCEPTED, REJECTED, ERROR = "accepted", "rejected", "error"
Outcome = tuple[str, Any]  # (status, payload): a record, a reject reason or a message
# What a malformed line can raise; each becomes a data error, never a
# traceback.  json.JSONDecodeError and UnicodeDecodeError are ValueErrors, and
# JSON nested too deeply for the parser raises RecursionError.
DATA_ERRORS = (ValueError, TypeError, KeyError, OverflowError, RecursionError)
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

_worker_cfg: PipelineConfig | None = None
_worker_tok = None


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


def _init_worker(cfg_fields: dict[str, Any]) -> None:
    global _worker_cfg, _worker_tok
    _worker_cfg = PipelineConfig(**cfg_fields)
    _worker_tok = load_tokenizer(_worker_cfg.tokenizer_path)


def check_line(obj: Any) -> dict[str, Any]:
    """A parsed line, checked to be an object of the supported schema version."""
    if not isinstance(obj, dict):
        raise ValueError("line must hold a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    return obj


def decode_video(obj: Any) -> tuple[VideoRecord, list[TimedWord]]:
    """A raw video line as its metadata (no segments) and its timed words."""
    meta = metadata_from_json(check_line(obj))
    words = list_field(obj, "words", word_from_json) if "words" in obj else []
    return meta, words


def decode_record(obj: Any) -> VideoRecord:
    """A segmented video record (``segment`` output, ``pack`` input), validated.

    The token cap per segment is chosen when ``segment`` runs, so any
    segment length passes here; every other invariant is checked.
    """
    return _checked(record_from_json(check_line(obj)), sys.maxsize)


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
    meta: VideoRecord, words: list[TimedWord], cfg: PipelineConfig, tokenizer
) -> VideoRecord:
    """Tokenize and segment one transcript into a validated record."""
    tokens = tokenize_words(words, tokenizer)
    segments = segment_transcript(tokens, l_max=cfg.tokens_per_segment)
    record = dataclasses.replace(meta, segments=segments)
    return _checked(record, cfg.tokens_per_segment)


def _checked(record: VideoRecord, l_max: int) -> VideoRecord:
    violations = validate_record(record, l_max=l_max)
    if violations:
        raise ValueError(f"invalid record: {'; '.join(str(v) for v in violations[:3])}")
    return record


def line_outcome(handle: Callable[..., Outcome], raw: str | bytes, *args) -> Outcome:
    """``handle(json.loads(raw), *args)``, or ("error", message) on a data error,
    which a line also is when it is not UTF-8 or a string in it does not encode
    back to UTF-8, as with the lone surrogate escape ``"\\ud800"``."""
    try:
        text = raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw
        obj = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):  # only an escape puts a surrogate in UTF-8
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        return handle(obj, *args)
    except DATA_ERRORS as e:
        return ERROR, f"{type(e).__name__}: {e}"


def _video_outcome(obj: Any, cfg: PipelineConfig, tokenizer) -> Outcome:
    meta, words = decode_video(obj)
    decision = apply_gates(meta, obj, cfg)
    if not decision.accepted:
        return REJECTED, decision.reason
    return ACCEPTED, segment_video(meta, words, cfg, tokenizer)


def process_video_line(
    raw: str | bytes, config: PipelineConfig | None = None, tokenizer=None
) -> Outcome:
    """One video through decode, gates, and segmentation.

    Returns ("error", message), ("rejected", reason), or
    ("accepted", VideoRecord).  Without an explicit config this reads the
    pool-worker state set by `_init_worker`.
    """
    cfg = config if config is not None else _worker_cfg
    if cfg is None:
        cfg = PipelineConfig()
    tok = tokenizer if tokenizer is not None else _worker_tok
    if tok is None:
        tok = load_tokenizer(cfg.tokenizer_path)
    return line_outcome(_video_outcome, raw, cfg, tok)


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
    return lineno, process_video_line(raw)


def _result_stream(
    numbered: Iterator[tuple[int, Any]], cfg: PipelineConfig, jobs: int
) -> Iterator[tuple[int, Outcome]]:
    if jobs <= 1:
        _init_worker(cfg.to_json())
        yield from map(_numbered_video_line, numbered)
        return
    with multiprocessing.Pool(
        processes=jobs, initializer=_init_worker, initargs=(cfg.to_json(),)
    ) as pool:
        yield from pool.imap(_numbered_video_line, numbered, chunksize=_CHUNKSIZE)


def write_examples(
    records: Iterable[VideoRecord], cfg: PipelineConfig, output_fp: IO[str]
) -> PackStats:
    """Pack records into examples and write each as a JSON line."""
    stats = PackStats()
    for example in pack_examples(
        records,
        n_segments=cfg.segments_per_example,
        cross_video=cfg.cross_video,
        stats=stats,
    ):
        output_fp.write(dump_line(example_to_json(example)))
        output_fp.write("\n")
    return stats


def run_pipeline(
    config: PipelineConfig,
    input_fp: IO[str],
    output_fp: IO[str],
    jobs: int = 1,
    max_error_samples: int = 10,
) -> RunManifest:
    """Drive the full filter -> segment -> pack pipeline over JSONL streams."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    manifest = RunManifest(config=config.to_json(), config_sha256=config.sha256())

    def sample(lineno: int, message: str) -> None:
        if len(manifest.error_samples) < max_error_samples:
            manifest.error_samples.append(message)

    tally: Counter = Counter()
    results = _result_stream(numbered_lines(input_fp), config, jobs)

    def accepted_records() -> Iterator[VideoRecord]:
        for status, payload in outcomes(results, sample, tally):
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


def print_errors(manifest: RunManifest, stream: IO[str] = sys.stderr) -> None:
    for msg in manifest.error_samples:
        print(f"skipped record: {msg}", file=stream)
    extra = manifest.data_errors - len(manifest.error_samples)
    if extra > 0:
        print(f"... and {extra} more skipped records", file=stream)
