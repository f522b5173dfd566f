"""Domain types for timed transcripts and their serialized form.

Everything here is an immutable value.  Timestamps are kept at millisecond
precision: constructors round to 1 ms, and the constructors' checks and
``validate_record``, the one check of a record's segment invariants, compare
those rounded values, so serialization round-trips are exact.

The line format (one JSON object per line, ``schema_version`` "1" first) is
each record's fields in declaration order:

* video record: ``video_id``, ``duration_s``, ``category``,
  ``has_english_asr``, ``segments``
* segment: ``tokens``, ``frame_time_s``, ``variant``
* token: ``id``, ``word_index``, ``start_s``, ``end_s``
* packed example: ``segments`` plus ``provenance`` as
  ``[[video_id, original_segment_index], ...]``

A segment is written by one writer, ``segment_json``, from the token runs
of its words (``token_runs_json``): the tokens of one word share its index
and span, so that tail is formatted once per word.  On the write paths
(``segment``, ``pack`` and ``run``) a record's or an example's ``segments``
hold that JSON, not ``Segment`` objects.  A ``run`` pool worker returns each
accepted video as a ``VideoRecord`` of segment JSON, so the worker writes
every token, and the parent only joins 16 segments and their provenance
into an example line (``example_to_json``).  ``segment_to_json`` writes a
``Segment`` object through the same writer.  ``dump_line`` writes every
other record from its fields.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import attrgetter, itemgetter, lt, mul, truediv
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

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
    segments: tuple[Segment, ...] = ()  # or their segment JSON, on the write paths

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "duration_s", round_ms(self.duration_s))


@dataclass(frozen=True)
class PackedExample:
    """Exactly ``segments_per_example`` segments, possibly from several videos."""

    segments: tuple[Segment, ...]  # or their segment JSON, on the write paths
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


def _invalid(field: str, message: str) -> ValueError:
    return ValueError(f"invalid record: {field}: {message}")


def validate_record(record: VideoRecord) -> None:
    """Check the segment invariants of a decoded record; raise
    ``ValueError("invalid record: <field path>: <message>")`` at the first fault.

    Per token: words in order, one time span per word, and no word starting
    before the previous word ends.  Per segment, after its tokens: the frame
    time inside its span, and no start before the previous segment ends.
    """
    seg_end = -math.inf
    for s, seg in enumerate(record.segments):
        where = f"segments[{s}]"
        spans: dict[int, tuple[float, float]] = {}
        prev_word, prev_end = -1, -math.inf
        for k, tok in enumerate(seg.tokens):
            if tok.word_index < prev_word:
                raise _invalid(
                    f"{where}.tokens[{k}].word_index",
                    f"word order regressed from {prev_word} to {tok.word_index}",
                )
            span = (tok.start_s, tok.end_s)
            if spans.setdefault(tok.word_index, span) != span:
                raise _invalid(
                    f"{where}.tokens[{k}]",
                    f"tokens of word {tok.word_index} disagree on its time span",
                )
            if tok.word_index != prev_word and tok.start_s < prev_end:
                raise _invalid(
                    f"{where}.tokens[{k}].start_s",
                    f"word {tok.word_index} starts at {tok.start_s} before the "
                    f"previous word ends at {prev_end}",
                )
            prev_word, prev_end = tok.word_index, tok.end_s
        if not seg.start_s <= seg.frame_time_s <= seg.end_s:
            raise _invalid(
                f"{where}.frame_time_s",
                f"frame time {seg.frame_time_s} outside span [{seg.start_s}, {seg.end_s}]",
            )
        if seg.start_s < seg_end:
            raise _invalid(
                f"{where}.start_s",
                f"segment starts at {seg.start_s} before the previous one ends at {seg_end}",
            )
        seg_end = seg.end_s


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


Words = tuple[list[str], list[float], list[float]]  # text, start_s, end_s per word


def _rounded_seconds(values: list) -> list[float] | None:
    """``round_ms`` of every value if each would pass ``_seconds_field``, else None."""
    if not set(map(type, values)) <= {float, int}:
        return None
    try:
        ms = list(map(mul, values, repeat(1000.0)))
    except OverflowError:  # an integer beyond the float range
        return None
    if ms and not (0.0 <= min(ms) and max(ms) < math.inf and not any(map(math.isnan, ms))):
        return None
    return list(map(truediv, map(round, ms), repeat(1000.0)))


def words_field(obj: dict[str, Any], key: str) -> Words:
    """The timed words in ``obj[key]`` as parallel lists: text, and start_s and
    end_s rounded by ``round_ms``, as ``word_from_json`` decodes each word.

    The checks run over whole columns.  A list that fails one is decoded
    word by word, which raises its first fault under its ``key[k]`` path.
    """
    items = _member(obj, key)
    if type(items) is list and set(map(type, items)) <= {dict}:
        try:
            texts = list(map(itemgetter("text"), items))
            starts = _rounded_seconds(list(map(itemgetter("start_s"), items)))
            ends = _rounded_seconds(list(map(itemgetter("end_s"), items)))
        except KeyError:
            pass
        else:
            if (
                set(map(type, texts)) <= {str}
                and starts is not None
                and ends is not None
                and True not in map(lt, ends, starts)
            ):
                return texts, starts, ends
    words = list_field(obj, key, word_from_json)
    return [w.text for w in words], [w.start_s for w in words], [w.end_s for w in words]


def segment_from_json(obj: dict[str, Any]) -> Segment:
    return Segment(
        tokens=list_field(obj, "tokens", token_from_json),
        frame_time_s=_seconds_field(obj, "frame_time_s"),
        variant=typed_field(obj, "variant", str),
    )


def token_runs_json(
    ids: Sequence[Sequence[int]],
    word_index: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> list[str]:
    """Per word, its token objects comma-joined, from columns: the word's token
    ids (at least one), index and span.  A word's tokens share its index and
    span, so that tail is formatted once per word, with numbers as ``json``
    writes them."""
    tails = [
        f',"word_index":{w},"start_s":{s!r},"end_s":{e!r}}}'
        for w, s, e in zip(word_index, starts, ends)
    ]
    return ['{"id":' + (tail + ',{"id":').join(map(str, i)) + tail for i, tail in zip(ids, tails)]


def segment_json(token_runs: Iterable[str], frame_time_s: float, variant: str = VARIANT_CLEAN) -> str:
    """A segment as JSON, from its words' ``token_runs_json``: the one writer
    of the segment wire format.  A variant needs no escapes."""
    runs = ",".join(token_runs)
    return f'{{"tokens":[{runs}],"frame_time_s":{frame_time_s!r},"variant":"{variant}"}}'


def segment_to_json(seg: Segment) -> str:
    """``segment_json`` of a ``Segment``, with one token run per word and span."""
    runs = [
        (word, [tok.id for tok in toks])
        for word, toks in groupby(seg.tokens, key=attrgetter("word_index", "start_s", "end_s"))
    ]
    word_index, starts, ends = zip(*(word for word, _ in runs))
    token_runs = token_runs_json([ids for _, ids in runs], word_index, starts, ends)
    return segment_json(token_runs, seg.frame_time_s, seg.variant)


def record_to_json(record: VideoRecord) -> str:
    """The line of a record whose segments are segment JSON: its other fields
    by ``dump_line``, then its segments, the last field."""
    head = dump_line({"schema_version": SCHEMA_VERSION, **vars(record), "segments": ()})
    return head.removesuffix("]}") + ",".join(record.segments) + "]}"


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


def example_to_json(example: PackedExample) -> str:
    """The line of a packed example whose segments are segment JSON."""
    segments = ",".join(example.segments)
    provenance = dump_line(example.provenance)
    return f'{{"schema_version":"{SCHEMA_VERSION}","segments":[{segments}],"provenance":{provenance}}}'


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


# ---------------------------------------------------------------------------
# The line driver, shared by every streaming subcommand
#
# ``decode_line`` applies the line rules of every reader; ``line_outcome``,
# ``outcomes`` and ``note_skip`` turn each numbered line into one outcome and
# report its data errors, so ``filter`` decides and reports a line as ``run`` does.

ACCEPTED, REJECTED, ERROR = "accepted", "rejected", "error"
Outcome = tuple[str, Any]  # (status, payload): a record, a reject reason or a message
# What a malformed line can raise; each becomes a data error, never a
# traceback.  json.JSONDecodeError and UnicodeDecodeError are ValueErrors.
# ``decode_line`` turns the parser's RecursionError into a ValueError; it stays
# here for code that walks a record nested nearly as deep as the parser allows.
DATA_ERRORS = (ValueError, TypeError, KeyError, OverflowError, RecursionError)
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def decode_line(raw: str | bytes) -> dict[str, Any]:
    """One input line as a JSON object of the supported schema version.

    A byte line must be UTF-8, optionally after a BOM, and no string in the
    line may hold a lone surrogate such as the escape ``"\\ud800"``: it does
    not encode back to UTF-8.  Any failure raises one of ``DATA_ERRORS``; an
    integer too long for ``int`` and nesting too deep for the parser raise a
    ``ValueError`` that says so.
    """
    text = raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other ValueError the parser raises is int's
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"integer of more than {limit} digits") from None
    if _SURROGATE_ESCAPE.search(text):  # only an escape puts a surrogate in UTF-8
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    if not isinstance(obj, dict):
        raise ValueError("line must hold a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:  # the string "1": the integer 1 is another version
        raise ValueError(f"unsupported schema_version {version!r}")
    return obj


def line_outcome(handle: Callable[..., Outcome], raw: str | bytes, *args) -> Outcome:
    """``handle(decode_line(raw), *args)``, or ("error", message) on a data error."""
    try:
        return handle(decode_line(raw), *args)
    except DATA_ERRORS as e:
        return ERROR, f"{type(e).__name__}: {e}"


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
