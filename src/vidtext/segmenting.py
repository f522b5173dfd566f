"""Segment construction, example packing, and sequence-shape arithmetic.

Segments are filled greedily left to right, never splitting a word's tokens
across a boundary: when the next word's tokens would push the buffer past
the limit, the buffer is flushed and the word opens a new segment.  Each
segment's frame is sampled at the midpoint of its time span.  That rule is
``segment_bounds``, over words as columns.  A segment is its JSON
(``model.segment_json``).  ``segment_words`` cuts decoded word columns (the
``segment`` and ``run`` path), and ``segment_transcript`` cuts token columns
(the library view of ``tokenize_words``' output); both write segments and
time frames by one helper, ``_cut``.

``pack_examples`` concatenates segment streams across videos and emits
fixed-size blocks; the trailing remainder is dropped, never padded.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Iterable, Iterator, Sequence

from .config import PipelineConfig
from .model import (
    PackedExample,
    VideoRecord,
    round_ms,
    segment_json,
    token_runs_json,
    tokens_by_word,
)
from .tokenizers import Tokenizer, encode_words


class OversizeWordError(ValueError):
    """A single word expanded to more tokens than fit in one segment."""


@dataclass(frozen=True)
class SequenceShape:
    cells_per_frame: int
    visual_tokens_per_frame: int
    joint_sequence_length: int
    language_only_length: int


def sequence_shape(cfg: PipelineConfig = PipelineConfig()) -> SequenceShape:
    """Derive the encoder sequence lengths implied by a config's shape fields."""
    cell = cfg.patch * cfg.pool
    if cfg.image_width % cell or cfg.image_height % cell:
        raise ValueError(
            f"image {cfg.image_width}x{cfg.image_height} is not divisible by "
            f"patch*pool = {cell}"
        )
    cells = (cfg.image_width // cell) * (cfg.image_height // cell)
    visual = cells + 1  # one CLS cell per frame
    return SequenceShape(
        cells_per_frame=cells,
        visual_tokens_per_frame=visual,
        joint_sequence_length=cfg.group_segments * (visual + cfg.tokens_per_segment),
        language_only_length=cfg.segments_per_example * cfg.tokens_per_segment,
    )


def segment_bounds(
    word_index: Sequence[int],
    n_tokens: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
    l_max: int = 32,
) -> list[tuple[int, int]]:
    """The ``[lo, hi)`` word ranges of greedy segments of at most ``l_max`` tokens.

    The columns describe the words that make tokens, in order: each word's
    index in its transcript, token count and span.  A word that starts before
    the previous one ends is a ``ValueError``, checked over all words first;
    a word of more than ``l_max`` tokens is an ``OversizeWordError``.
    """
    if l_max < 1:
        raise ValueError(f"l_max must be at least 1, got {l_max}")
    early = list(map(lt, starts[1:], ends))
    if True in early:
        k = early.index(True) + 1
        raise ValueError(
            f"word {word_index[k]} starts at {starts[k]} before the "
            f"previous word ends at {ends[k - 1]}"
        )
    if n_tokens and max(n_tokens) > l_max:
        k = next(k for k, n in enumerate(n_tokens) if n > l_max)
        raise OversizeWordError(
            f"word {word_index[k]} expands to {n_tokens[k]} tokens, segment limit is {l_max}"
        )
    bounds: list[tuple[int, int]] = []
    lo = filled = 0
    for k, n in enumerate(n_tokens):
        if filled + n > l_max:
            bounds.append((lo, k))
            lo, filled = k, 0
        filled += n
    if filled:
        bounds.append((lo, len(n_tokens)))
    return bounds


def _cut(
    ids: list[list[int]], index: Sequence[int], starts: Sequence[float], ends: Sequence[float], l_max: int
) -> tuple[list[str], list[float]]:
    """Words that make tokens, as columns (each word's token ids, index and
    span), cut by ``segment_bounds``: each segment as its JSON, and its frame
    time, the midpoint of its span rounded once."""
    bounds = segment_bounds(index, list(map(len, ids)), starts, ends, l_max)
    runs = token_runs_json(ids, index, starts, ends)
    frames = [round_ms((starts[lo] + ends[hi - 1]) / 2.0) for lo, hi in bounds]
    return [segment_json(runs[lo:hi], t) for (lo, hi), t in zip(bounds, frames)], frames


def segment_words(words: list[list], tokenizer: Tokenizer, l_max: int = 32) -> tuple[list[str], list[float]]:
    """Tokenize decoded words (``model.columns_field``) and cut them by
    ``segment_bounds``: each segment as its JSON, and its frame time.

    This is ``segment_transcript`` over ``tokenize_words``, but each word is
    encoded once and its tokens are written as one run (``token_runs_json``).
    """
    texts, starts, ends = words
    ids = encode_words(texts, tokenizer)
    index = range(len(ids))
    if not all(ids):  # a word that makes no tokens is not in the token stream
        index = [k for k, word_ids in enumerate(ids) if word_ids]
        ids = [ids[k] for k in index]
        starts = [starts[k] for k in index]
        ends = [ends[k] for k in index]
    return _cut(ids, index, starts, ends, l_max)


def segment_transcript(tokens: list[list], l_max: int = 32) -> list[str]:
    """Split a token stream, as ``TOKEN_COLUMNS`` columns whose tokens of one
    word are adjacent and share its index and span (``tokenize_words``), into
    segments of at most ``l_max`` tokens, each as its JSON."""
    return _cut(*tokens_by_word(tokens), l_max)[0]


@dataclass
class PackStats:
    segments_in: int = 0
    examples_out: int = 0
    segments_dropped: int = 0


def pack_examples(
    stream: Iterable[VideoRecord],
    n_segments: int = 16,
    cross_video: bool = True,
    stats: PackStats | None = None,
) -> Iterator[PackedExample]:
    """Emit consecutive blocks of exactly ``n_segments`` segments.

    Segments are taken in stream order; with ``cross_video`` (the default) a
    block may span adjacent videos.  Without it, each video's trailing
    remainder is dropped at that video's end instead of at end-of-stream.
    """
    if n_segments < 1:
        raise ValueError(f"n_segments must be at least 1, got {n_segments}")
    stats = stats if stats is not None else PackStats()
    buf: list[str] = []
    provenance: list[tuple[str, int]] = []
    for record in stream:
        for idx, seg in enumerate(record.segments):
            stats.segments_in += 1
            buf.append(seg)
            provenance.append((record.video_id, idx))
            if len(buf) == n_segments:
                yield PackedExample(segments=tuple(buf), provenance=tuple(provenance))
                stats.examples_out += 1
                buf = []
                provenance = []
        if not cross_video and buf:
            stats.segments_dropped += len(buf)
            buf = []
            provenance = []
    stats.segments_dropped += len(buf)
