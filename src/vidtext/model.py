"""Domain types for timed transcripts and their serialized form.

A video record and a packed example are immutable values.  Words, tokens
and segments have no object type: words and tokens are columns, one list
per field (``WORD_COLUMNS``, ``TOKEN_COLUMNS``), and a segment is its JSON.
Timestamps are kept at millisecond precision: the decoders round to 1 ms,
and their checks and ``check_segments``, the one check of a record's segment
invariants, compare those rounded values, so serialization round-trips are exact.

The line format (one JSON object per line, ``schema_version`` "1" first) is
each record's fields in declaration order:

* video record: ``video_id``, ``duration_s``, ``category``,
  ``has_english_asr``, ``segments``
* segment: ``tokens``, ``frame_time_s``, ``variant``
* token: ``id``, ``word_index``, ``start_s``, ``end_s``
* packed example: ``segments`` plus ``provenance`` as
  ``[[video_id, original_segment_index], ...]``

Words and tokens are decoded by ``columns_field``; a list with a fault is
decoded one object at a time (``word_from_json``, ``token_from_json``), which
names its first fault.  A segment is written by one writer, ``segment_json``,
from the token runs of its words (``token_runs_json``): a word's tokens share
its index and span, so that tail is formatted once per word.  A record's or
an example's ``segments`` hold that JSON: ``pack`` reads a record by
``record_from_json``, ``validate_record`` checks one, and the ``run`` parent
joins its workers' segment JSON into example lines (``example_to_json``).
``dump_line`` writes every other line.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, lt, mul, ne, truediv
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

SCHEMA_VERSION = "1"

VARIANT_CLEAN = "clean"
_VARIANTS = (VARIANT_CLEAN, "noisy")


def round_ms(seconds: float) -> float:
    """Round a time in seconds to millisecond precision."""
    return round(seconds * 1000.0) / 1000.0


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    duration_s: float
    category: str
    has_english_asr: bool
    segments: tuple[str, ...] = ()  # segment JSON

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "duration_s", round_ms(self.duration_s))


@dataclass(frozen=True)
class PackedExample:
    """Exactly ``segments_per_example`` segments, possibly from several videos."""

    segments: tuple[str, ...]  # segment JSON
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


def check_segments(segments: Iterable[tuple[list[list], float, str]]) -> None:
    """Check the invariants of a record's segments, each as ``record_from_json`` decodes
    it; raise ``ValueError("invalid record: <field path>: <message>")`` at the first fault.

    Per token: words in order, one time span per word, and no word starting
    before the previous word ends.  Per segment, after its tokens: the frame
    time inside its span, and no start before the previous segment ends.
    """
    seg_end = -math.inf
    for s, ((_, word_index, starts, ends), frame_time_s, _) in enumerate(segments):
        where = f"segments[{s}]"
        prev_word, prev_span = -1, (-math.inf, -math.inf)
        for k, span in enumerate(zip(starts, ends)):
            word = word_index[k]
            # Words never regress, so the tokens of a word are adjacent.
            if word == prev_word:
                if span != prev_span:
                    raise _invalid(
                        f"{where}.tokens[{k}]", f"tokens of word {word} disagree on its time span"
                    )
            elif word < prev_word:
                raise _invalid(
                    f"{where}.tokens[{k}].word_index",
                    f"word order regressed from {prev_word} to {word}",
                )
            elif span[0] < prev_span[1]:
                raise _invalid(
                    f"{where}.tokens[{k}].start_s",
                    f"word {word} starts at {span[0]} before the "
                    f"previous word ends at {prev_span[1]}",
                )
            prev_word, prev_span = word, span
        if not starts[0] <= frame_time_s <= ends[-1]:
            raise _invalid(
                f"{where}.frame_time_s",
                f"frame time {frame_time_s} outside span [{starts[0]}, {ends[-1]}]",
            )
        if starts[0] < seg_end:
            raise _invalid(
                f"{where}.start_s",
                f"segment starts at {starts[0]} before the previous one ends at {seg_end}",
            )
        seg_end = ends[-1]


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
    """A time in seconds: a JSON number, non-negative and finite in
    milliseconds, as ``_column`` checks it."""
    value = _member(obj, key)
    if _column([value], float) is None:
        raise ValueError(f"{key} must be a finite number >= 0, got {value!r:.40}")
    return float(value)


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


def _span(obj: dict[str, Any]) -> tuple[float, float]:
    return round_ms(_seconds_field(obj, "start_s")), round_ms(_seconds_field(obj, "end_s"))


def token_from_json(obj: dict[str, Any]) -> tuple[int, int, float, float]:
    """One token's ``TOKEN_COLUMNS`` values, checked one field at a time."""
    tid, word_index = typed_field(obj, "id", int), typed_field(obj, "word_index", int)
    start_s, end_s = _span(obj)
    if tid < 0:
        raise ValueError(f"token id must be non-negative, got {tid}")
    if word_index < 0:
        raise ValueError(f"word_index must be non-negative, got {word_index}")
    if end_s < start_s:
        raise ValueError(f"token {tid}: end {end_s} before start {start_s}")
    return tid, word_index, start_s, end_s


def word_from_json(obj: dict[str, Any]) -> tuple[str, float, float]:
    """One word's ``WORD_COLUMNS`` values, checked one field at a time."""
    text = typed_field(obj, "text", str)
    start_s, end_s = _span(obj)
    if end_s < start_s:
        raise ValueError(f"word {text!r}: end {end_s} before start {start_s}")
    return text, start_s, end_s


WORD_COLUMNS = {"text": str, "start_s": float, "end_s": float}
TOKEN_COLUMNS = {"id": int, "word_index": int, "start_s": float, "end_s": float}


def _column(values: list, kind: type) -> list | None:
    """``values`` if each is a ``kind`` as the field decoders take it, else None:
    a string, a non-negative integer, or a time in seconds, returned rounded by ``round_ms``."""
    if not set(map(type, values)) <= ({int, float} if kind is float else {kind}):
        return None
    if kind is not float:
        return values if kind is not int or min(values, default=0) >= 0 else None
    try:
        ms = list(map(mul, values, repeat(1000.0)))
    except OverflowError:  # an integer beyond the float range
        return None
    if ms and not (0.0 <= min(ms) and max(ms) < math.inf and not any(map(math.isnan, ms))):
        return None
    return list(map(truediv, map(round, ms), repeat(1000.0)))


def columns_field(obj: dict[str, Any], key: str, kinds: dict[str, type], decode: Callable) -> list[list]:
    """The objects in ``obj[key]`` as one column per field of ``kinds``, the
    fields and kinds of ``WORD_COLUMNS`` or ``TOKEN_COLUMNS``, each value as
    ``decode`` gives it.

    The checks run over whole columns.  A list that fails one is decoded
    object by object, which raises its first fault under its ``key[k]`` path.
    """
    items = _member(obj, key)
    if type(items) is list and set(map(type, items)) <= {dict}:
        try:
            columns = [_column(list(map(itemgetter(name), items)), kind) for name, kind in kinds.items()]
        except KeyError:
            pass
        else:
            named = dict(zip(kinds, columns))
            if None not in columns and True not in map(lt, named["end_s"], named["start_s"]):
                return columns
    return list(map(list, zip(*list_field(obj, key, decode))))


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


def _segment_columns(obj: dict[str, Any]) -> tuple[list[list], float, str]:
    """A segment's ``TOKEN_COLUMNS``, frame time and variant: at least one
    token, and a variant of ``_VARIANTS``."""
    tokens = columns_field(obj, "tokens", TOKEN_COLUMNS, token_from_json)
    frame_time_s = round_ms(_seconds_field(obj, "frame_time_s"))
    variant = typed_field(obj, "variant", str)
    if not tokens[0]:
        raise ValueError("segment must contain at least one token")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    return tokens, frame_time_s, variant


def tokens_by_word(tokens: list[list]) -> tuple[list, ...]:
    """``TOKEN_COLUMNS`` columns as word columns: per run of tokens of one
    ``word_index``, its token ids, and the index and span of its first token."""
    ids, word_index, starts, ends = tokens
    heads = list(compress(range(len(ids)), map(ne, word_index, [-1, *word_index])))
    return (
        [ids[lo:hi] for lo, hi in zip(heads, [*heads[1:], len(ids)])],
        *([column[k] for k in heads] for column in (word_index, starts, ends)),
    )


def _column_segment_json(tokens: list[list], frame_time_s: float, variant: str) -> str:
    """``segment_json`` of checked segment columns, one token run per word."""
    return segment_json(token_runs_json(*tokens_by_word(tokens)), frame_time_s, variant)


def record_from_json(obj: dict[str, Any]) -> VideoRecord:
    """A segmented video record (``segment`` output, ``pack`` input) with its
    segments as segment JSON.  It is decoded whole before ``check_segments``
    runs, so a field fault anywhere is named before an invariant fault.  The
    token cap is chosen when ``segment`` runs: segments of any length pass."""
    meta = metadata_from_json(obj)
    segments = list_field(obj, "segments", _segment_columns)
    check_segments(segments)
    return dataclasses.replace(meta, segments=tuple(_column_segment_json(*seg) for seg in segments))


def validate_record(record: VideoRecord) -> None:
    """``check_segments`` over a record of segment JSON, each segment decoded
    as ``record_from_json`` decodes it; a field fault raises as it does there."""
    segments = {"segments": list(map(json.loads, record.segments))}
    check_segments(list_field(segments, "segments", _segment_columns))


def example_to_json(example: PackedExample) -> str:
    """The line of a packed example whose segments are segment JSON."""
    segments = ",".join(example.segments)
    provenance = dump_line(example.provenance)
    return f'{{"schema_version":"{SCHEMA_VERSION}","segments":[{segments}],"provenance":{provenance}}}'


def dump_line(obj: Any) -> str:
    """Canonical one-line JSON used everywhere a file must be reproducible, a
    tuple written as a list.  Lines are trees, so the cycle check is off."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), check_circular=False)


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
# A MemoryError is a line too big for the memory at hand (an ``align`` pair's
# cost matrix): that line is skipped, and the lines after it are still handled.
DATA_ERRORS = (ValueError, TypeError, KeyError, OverflowError, RecursionError, MemoryError)
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
