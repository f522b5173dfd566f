"""Domain types for timed transcripts and their serialized form.

Everything here is an immutable value.  Timestamps are kept at millisecond
precision: constructors round to 1 ms and all comparisons made by the
validators happen on those rounded values, so serialization round-trips
are exact.

The line format (one JSON object per line, ``schema_version`` "1" first) is
each record's fields in declaration order, as ``dump_line`` writes them:

* video record: ``video_id``, ``duration_s``, ``category``,
  ``has_english_asr``, ``segments``
* segment: ``tokens``, ``frame_time_s``, ``variant``
* token: ``id``, ``word_index``, ``start_s``, ``end_s``
* packed example: ``segments`` plus ``provenance`` as
  ``[[video_id, original_segment_index], ...]``
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable, Iterator

SCHEMA_VERSION = "1"

VARIANT_CLEAN = "clean"
VARIANT_NOISY = "noisy"
_VARIANTS = (VARIANT_CLEAN, VARIANT_NOISY)


def round_ms(seconds: float) -> float:
    """Round a time in seconds to millisecond precision."""
    return round(seconds * 1000.0) / 1000.0


@dataclass(frozen=True)
class TimedWord:
    text: str
    start_s: float  # seconds, ms precision
    end_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_s", round_ms(self.start_s))
        object.__setattr__(self, "end_s", round_ms(self.end_s))
        if self.end_s < self.start_s:
            raise ValueError(
                f"word {self.text!r}: end {self.end_s} before start {self.start_s}"
            )


@dataclass(frozen=True)
class TimedToken:
    id: int  # tokenizer vocabulary id
    word_index: int  # index of the source word in its transcript
    start_s: float  # inherited from the source word
    end_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_s", round_ms(self.start_s))
        object.__setattr__(self, "end_s", round_ms(self.end_s))
        if self.id < 0:
            raise ValueError(f"token id must be non-negative, got {self.id}")
        if self.word_index < 0:
            raise ValueError(f"word_index must be non-negative, got {self.word_index}")
        if self.end_s < self.start_s:
            raise ValueError(
                f"token {self.id}: end {self.end_s} before start {self.start_s}"
            )


@dataclass(frozen=True)
class Segment:
    """A bounded run of tokens with the frame sample time for that span."""

    tokens: tuple[TimedToken, ...]
    frame_time_s: float
    variant: str = VARIANT_CLEAN

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "frame_time_s", round_ms(self.frame_time_s))
        if not self.tokens:
            raise ValueError("segment must contain at least one token")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")

    @property
    def start_s(self) -> float:
        return self.tokens[0].start_s

    @property
    def end_s(self) -> float:
        return self.tokens[-1].end_s

    @classmethod
    def from_tokens(cls, tokens: Iterable[TimedToken], variant: str = VARIANT_CLEAN) -> "Segment":
        """Build a segment whose frame time is the midpoint of its span."""
        toks = tuple(tokens)
        if not toks:
            raise ValueError("segment must contain at least one token")
        return cls(toks, (toks[0].start_s + toks[-1].end_s) / 2.0, variant)


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    duration_s: float
    category: str
    has_english_asr: bool
    segments: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "duration_s", round_ms(self.duration_s))


@dataclass(frozen=True)
class PackedExample:
    """Exactly ``segments_per_example`` segments, possibly from several videos."""

    segments: tuple[Segment, ...]
    provenance: tuple[tuple[str, int], ...]  # (video_id, original segment index)

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(
            self, "provenance", tuple((str(v), int(i)) for v, i in self.provenance)
        )
        if len(self.segments) != len(self.provenance):
            raise ValueError(
                f"provenance length {len(self.provenance)} does not match "
                f"segment count {len(self.segments)}"
            )


@dataclass(frozen=True)
class Violation:
    """One failed invariant, naming the offending field."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


def _validate_segment(seg: Segment, where: str, l_max: int) -> list[Violation]:
    out: list[Violation] = []
    if len(seg.tokens) > l_max:
        out.append(
            Violation(
                f"{where}.tokens",
                f"segment holds {len(seg.tokens)} tokens, limit is {l_max}",
            )
        )
    spans: dict[int, tuple[float, float]] = {}
    prev_word = -1
    prev_end = None
    for k, tok in enumerate(seg.tokens):
        if tok.word_index < prev_word:
            out.append(
                Violation(
                    f"{where}.tokens[{k}].word_index",
                    f"word order regressed from {prev_word} to {tok.word_index}",
                )
            )
        span = (tok.start_s, tok.end_s)
        if tok.word_index in spans and spans[tok.word_index] != span:
            out.append(
                Violation(
                    f"{where}.tokens[{k}]",
                    f"tokens of word {tok.word_index} disagree on its time span",
                )
            )
        spans.setdefault(tok.word_index, span)
        if (
            prev_end is not None
            and tok.word_index != prev_word
            and tok.start_s < prev_end
        ):
            out.append(
                Violation(
                    f"{where}.tokens[{k}].start_s",
                    f"word {tok.word_index} starts at {tok.start_s} before the "
                    f"previous word ends at {prev_end}",
                )
            )
        prev_word = tok.word_index
        prev_end = tok.end_s
    if not seg.start_s <= seg.frame_time_s <= seg.end_s:
        out.append(
            Violation(
                f"{where}.frame_time_s",
                f"frame time {seg.frame_time_s} outside span "
                f"[{seg.start_s}, {seg.end_s}]",
            )
        )
    return out


def validate_record(record: VideoRecord, l_max: int = 32) -> list[Violation]:
    """Check every structural invariant; an empty list means the record is clean."""
    out: list[Violation] = []
    if not record.video_id:
        out.append(Violation("video_id", "must be non-empty"))
    if record.duration_s < 0:
        out.append(Violation("duration_s", f"negative duration {record.duration_s}"))
    prev_end = None
    for idx, seg in enumerate(record.segments):
        where = f"segments[{idx}]"
        out.extend(_validate_segment(seg, where, l_max))
        if prev_end is not None and seg.start_s < prev_end:
            out.append(
                Violation(
                    f"{where}.start_s",
                    f"segment starts at {seg.start_s} before the previous one "
                    f"ends at {prev_end}",
                )
            )
        prev_end = seg.end_s
    return out


def validate_example(example: PackedExample, n_segments: int = 16, l_max: int = 32) -> list[Violation]:
    out: list[Violation] = []
    if len(example.segments) != n_segments:
        out.append(
            Violation(
                "segments",
                f"packed example holds {len(example.segments)} segments, "
                f"expected exactly {n_segments}",
            )
        )
    for idx, seg in enumerate(example.segments):
        out.extend(_validate_segment(seg, f"segments[{idx}]", l_max))
    return out


# ---------------------------------------------------------------------------
# JSON serialization
#
# The decoders are strict: numbers are JSON numbers (never booleans or
# strings), times are finite and non-negative, flags are JSON booleans.
# Every error names the offending field path.


def _member(obj: dict[str, Any], key: str) -> Any:
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{key} is missing") from None


_KINDS = {str: "a string", bool: "true or false", int: "an integer", float: "a finite number"}


def _typed(value: Any, kind: type, where: str) -> Any:
    """``value`` if it is exactly of JSON type ``kind`` (a bool is no int); for
    ``float``, any finite JSON number, returned as a float."""
    if type(value) is kind and kind is not float:
        return value
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # NaN fails the comparison, a huge integer exceeds it
    raise ValueError(f"{where} must be {_KINDS[kind]}, got {value!r:.40}")


def typed_field(obj: dict[str, Any], key: str, kind: type) -> Any:
    """``obj[key]``, checked by ``_typed``."""
    return _typed(_member(obj, key), kind, key)


def _seconds_field(obj: dict[str, Any], key: str) -> float:
    """A time in seconds: a JSON number, non-negative and finite in milliseconds."""
    value = _member(obj, key)
    if type(value) is float or type(value) is int:
        try:
            if 0.0 <= value * 1000.0 < math.inf:  # NaN fails both comparisons
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{key} must be a finite number >= 0, got {value!r:.40}")


def _list(items: Any, where: str) -> list:
    if type(items) is not list:
        raise ValueError(f"{where} must be a list, got {items!r:.40}")
    return items


def _typed_items(items: Any, kind: type, where: str) -> list:
    return [_typed(item, kind, f"{where}[{k}]") for k, item in enumerate(_list(items, where))]


def typed_list(obj: dict[str, Any], key: str, kind: type) -> list:
    """A list of JSON values, each checked by ``_typed``."""
    return _typed_items(_member(obj, key), kind, key)


def typed_rows(obj: dict[str, Any], key: str, kind: type) -> list[list]:
    """A list of equally long lists of JSON values, each checked by ``_typed``."""
    rows = _list(_member(obj, key), key)
    out = [_typed_items(row, kind, f"{key}[{r}]") for r, row in enumerate(rows)]
    for r, row in enumerate(out):
        if len(row) != len(out[0]):
            raise ValueError(f"{key}[{r}] has {len(row)} entries, {key}[0] has {len(out[0])}")
    return out


def list_field(obj: dict[str, Any], key: str, decode: Callable) -> list:
    """Decode a list of objects; errors are prefixed with ``key[index]``."""
    out = []
    for k, item in enumerate(_list(_member(obj, key), key)):
        if type(item) is not dict:
            raise ValueError(f"{key}[{k}] must be an object, got {item!r:.40}")
        try:
            out.append(decode(item))
        except ValueError as e:
            raise ValueError(f"{key}[{k}]: {e}") from None
    return out


def token_from_json(obj: dict[str, Any]) -> TimedToken:
    return TimedToken(
        id=typed_field(obj, "id", int),
        word_index=typed_field(obj, "word_index", int),
        start_s=_seconds_field(obj, "start_s"),
        end_s=_seconds_field(obj, "end_s"),
    )


def word_from_json(obj: dict[str, Any]) -> TimedWord:
    return TimedWord(
        text=typed_field(obj, "text", str),
        start_s=_seconds_field(obj, "start_s"),
        end_s=_seconds_field(obj, "end_s"),
    )


def segment_from_json(obj: dict[str, Any]) -> Segment:
    return Segment(
        tokens=list_field(obj, "tokens", token_from_json),
        frame_time_s=_seconds_field(obj, "frame_time_s"),
        variant=typed_field(obj, "variant", str),
    )


def record_to_json(record: VideoRecord) -> dict[str, Any]:
    """The line of a record, for ``dump_line``."""
    return {"schema_version": SCHEMA_VERSION, **vars(record)}


def metadata_from_json(obj: dict[str, Any]) -> VideoRecord:
    """The video-level fields of a record, without segments."""
    record = VideoRecord(
        video_id=typed_field(obj, "video_id", str),
        duration_s=_seconds_field(obj, "duration_s"),
        category=typed_field(obj, "category", str),
        has_english_asr=typed_field(obj, "has_english_asr", bool),
    )
    if not record.video_id:
        raise ValueError("video_id must be non-empty")
    return record


def record_from_json(obj: dict[str, Any]) -> VideoRecord:
    return dataclasses.replace(
        metadata_from_json(obj), segments=list_field(obj, "segments", segment_from_json)
    )


def example_to_json(example: PackedExample) -> dict[str, Any]:
    """The line of a packed example, for ``dump_line``."""
    return {"schema_version": SCHEMA_VERSION, **vars(example)}


def _provenance_item(item: Any, where: str) -> tuple[str, int]:
    if type(item) is not list or len(item) != 2:
        raise ValueError(f"{where} must be a [video_id, index] pair, got {item!r:.40}")
    return _typed(item[0], str, f"{where}[0]"), _typed(item[1], int, f"{where}[1]")


def example_from_json(obj: dict[str, Any]) -> PackedExample:
    items = _list(_member(obj, "provenance"), "provenance")
    return PackedExample(
        segments=list_field(obj, "segments", segment_from_json),
        provenance=tuple(_provenance_item(p, f"provenance[{k}]") for k, p in enumerate(items)),
    )


def _fields(obj: Any) -> dict[str, Any]:
    """A record's fields, in the declaration order its constructor sets them in."""
    if hasattr(type(obj), "__dataclass_fields__"):
        return vars(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_line(obj: Any) -> str:
    """Canonical one-line JSON used everywhere a file must be reproducible: a record
    (a dataclass instance) as its fields, a tuple as a list.  Records are frozen
    trees, so the cycle check is off."""
    return json.dumps(
        obj, ensure_ascii=False, separators=(",", ":"), default=_fields, check_circular=False
    )


def write_jsonl(fp: IO[str], objs: Iterable[Any]) -> None:
    for obj in objs:
        fp.write(dump_line(obj))
        fp.write("\n")


def numbered_lines(fp: IO) -> Iterator[tuple[int, Any]]:
    """The non-blank lines of a text or byte stream, stripped, numbered from 1."""
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if line:
            yield lineno, line
