"""Segment construction, example packing, and sequence-shape arithmetic.

``segment_transcript`` fills segments greedily left to right, never splitting
a word's tokens across a boundary: when the next word's tokens would push the
buffer past the limit, the buffer is flushed and the word opens a new
segment.  Each segment's frame is sampled at the midpoint of its time span.

``pack_examples`` concatenates segment streams across videos and emits
fixed-size blocks; the trailing remainder is dropped, never padded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

from .config import PipelineConfig
from .model import PackedExample, Segment, TimedToken, VideoRecord


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


def segment_transcript(tokens: Sequence[TimedToken], l_max: int = 32) -> list[Segment]:
    """Split a timed token stream into segments of at most ``l_max`` tokens;
    a word that starts before the previous word ends is a ``ValueError``."""
    if l_max < 1:
        raise ValueError(f"l_max must be at least 1, got {l_max}")
    # Group the stream by word so boundaries never split a word.
    words = [list(g) for _, g in itertools.groupby(tokens, key=attrgetter("word_index"))]
    for prev, word in zip(words, words[1:]):
        if word[0].start_s < prev[-1].end_s:
            raise ValueError(
                f"word {word[0].word_index} starts at {word[0].start_s} before the "
                f"previous word ends at {prev[-1].end_s}"
            )
    segments: list[Segment] = []
    buf: list[TimedToken] = []
    for group in words:
        if len(group) > l_max:
            raise OversizeWordError(
                f"word {group[0].word_index} expands to {len(group)} tokens, "
                f"segment limit is {l_max}"
            )
        if len(buf) + len(group) > l_max:
            segments.append(Segment.from_tokens(buf))
            buf = []
        buf.extend(group)
    if buf:
        segments.append(Segment.from_tokens(buf))
    return segments


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
    buf: list[Segment] = []
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


def group_for_joint(example: PackedExample, group: int = 4) -> list[tuple[Segment, ...]]:
    """Partition an example into consecutive groups of ``group`` segments."""
    n = len(example.segments)
    if group < 1:
        raise ValueError(f"group must be at least 1, got {group}")
    if n % group:
        raise ValueError(f"{n} segments cannot be split into groups of {group}")
    return [
        tuple(example.segments[i : i + group]) for i in range(0, n, group)
    ]


def frame_manifest(records: Iterable[VideoRecord]) -> Iterator[dict[str, Any]]:
    """A ``{video_id, frame_time_s}`` row per segment, for frame extraction."""
    for record in records:
        for seg in record.segments:
            yield {"video_id": record.video_id, "frame_time_s": seg.frame_time_s}
