"""Tokenizers that expand timed words into timed subword tokens.

Two implementations ship here.  ``ByteTokenizer`` maps UTF-8 bytes straight
to ids and needs no resource files, which keeps tests and small pipelines
self-contained.  ``ByteBpeTokenizer`` loads a byte-level BPE vocabulary from
the usual ``vocab.json`` + ``merges.txt`` pair; those files are user-supplied
and are not bundled.

Timed words and tokens are columns, one list per field (``model.WORD_COLUMNS``
and ``model.TOKEN_COLUMNS``); ``tokenize_words`` maps the one to the other,
and every token produced from a word inherits that word's full time span.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from pathlib import Path
from typing import Protocol, Sequence


class Tokenizer(Protocol):
    vocab_size: int
    special_ids: frozenset[int]

    def encode(self, text: str) -> list[int]: ...

    def decode(self, ids: Sequence[int]) -> str: ...


class ByteTokenizer:
    """UTF-8 bytes as token ids; id 256 is reserved as a mask sentinel."""

    def __init__(self) -> None:
        self.vocab_size = 257
        self.mask_id = 256
        self.special_ids = frozenset({self.mask_id})

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, ids: Sequence[int]) -> str:
        return bytes(i for i in ids if 0 <= i < 256).decode("utf-8", errors="replace")


def _bytes_to_unicode() -> dict[int, str]:
    """Reversible byte -> printable-character table used by byte-level BPE."""
    printable = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("\xa1"), ord("\xac") + 1))
        + list(range(ord("\xae"), ord("\xff") + 1))
    )
    chars = printable[:]
    shift = 0
    for b in range(256):
        if b not in printable:
            printable.append(b)
            chars.append(256 + shift)
            shift += 1
    return dict(zip(printable, (chr(c) for c in chars)))


class ByteBpeTokenizer:
    """Byte-level BPE with greedy lowest-rank merges.

    ``vocab.json`` maps token strings to ids; ``merges.txt`` lists merge pairs
    one per line in priority order (an optional ``#version`` header line is
    skipped).
    """

    def __init__(
        self,
        vocab: dict[str, int],
        merges: list[tuple[str, str]],
    ) -> None:
        if not isinstance(vocab, dict):
            raise ValueError(f"vocabulary must be an object of token ids, got {vocab!r:.40}")
        if not vocab:
            raise ValueError("vocabulary holds no token")
        for token, i in vocab.items():
            if type(i) is not int or i < 0:
                raise ValueError(f"id of {token!r:.40} must be a non-negative integer, got {i!r:.40}")
        self._vocab = dict(vocab)
        self._inverse = {i: t for t, i in self._vocab.items()}
        if len(self._inverse) != len(self._vocab):
            raise ValueError("vocabulary maps two token strings to the same id")
        self._ranks = {pair: r for r, pair in enumerate(merges)}
        self._byte_to_char = _bytes_to_unicode()
        self._char_to_byte = {c: b for b, c in self._byte_to_char.items()}
        self.vocab_size = max(self._vocab.values()) + 1
        self.special_ids: frozenset[int] = frozenset()
        self._cache: dict[str, list[int]] = {}

    @classmethod
    def from_files(cls, vocab_path: str | Path, merges_path: str | Path) -> "ByteBpeTokenizer":
        """A tokenizer from a ``vocab.json`` and a ``merges.txt``.  A fault in
        ``vocab.json`` raises a ``ValueError`` that names the file, and a
        ``merges.txt`` line that is not two tokens names the file and the line."""
        merges: list[tuple[str, str]] = []
        with open(merges_path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                pair = tuple(line.split(" "))
                if len(pair) != 2:
                    raise ValueError(f"{merges_path} line {lineno}: expected 2 tokens, got {line!r:.40}")
                merges.append(pair)
        try:
            with open(vocab_path, encoding="utf-8") as fp:
                return cls(json.load(fp), merges)
        except ValueError as e:
            raise ValueError(f"{vocab_path}: {e}") from None

    def _bpe(self, chars: list[str]) -> list[str]:
        parts = chars
        while len(parts) > 1:
            best_rank = None
            best_idx = -1
            for i in range(len(parts) - 1):
                rank = self._ranks.get((parts[i], parts[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_idx = i
            if best_rank is None:
                break
            parts = (
                parts[:best_idx]
                + [parts[best_idx] + parts[best_idx + 1]]
                + parts[best_idx + 2 :]
            )
        return parts

    def encode(self, text: str) -> list[int]:
        if text in self._cache:
            return list(self._cache[text])
        chars = [self._byte_to_char[b] for b in text.encode("utf-8")]
        ids: list[int] = []
        for part in self._bpe(chars) if chars else []:
            if part not in self._vocab:
                raise ValueError(f"no vocabulary entry for merged piece {part!r}")
            ids.append(self._vocab[part])
        self._cache[text] = list(ids)
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        chars: list[str] = []
        for i in ids:
            if i not in self._inverse:
                raise ValueError(f"id {i} outside the vocabulary")
            chars.extend(self._inverse[i])
        data = bytes(self._char_to_byte[c] for c in chars)
        return data.decode("utf-8", errors="replace")


def load_tokenizer(path: str | Path | None) -> Tokenizer:
    """Resolve a tokenizer resource directory, or fall back to raw bytes.

    A directory containing ``vocab.json`` and ``merges.txt`` selects the BPE
    tokenizer; ``None`` selects ``ByteTokenizer``.
    """
    if path is None:
        return ByteTokenizer()
    base = Path(path)
    vocab = base / "vocab.json"
    merges = base / "merges.txt"
    if not vocab.is_file() or not merges.is_file():
        raise FileNotFoundError(
            f"tokenizer directory {base} must contain vocab.json and merges.txt"
        )
    return ByteBpeTokenizer.from_files(vocab, merges)


def encode_words(texts: Sequence[str], tokenizer: Tokenizer) -> list[list[int]]:
    """Each text's token ids, checked non-negative; the first negative id in
    word order is a ``ValueError``, even when a later text fails to encode."""
    ids: list[list[int]] = []
    try:
        for text in texts:
            ids.append(tokenizer.encode(text))
    finally:  # raising here replaces a later text's encoding error
        if min(chain.from_iterable(ids), default=0) < 0:
            bad = next(i for i in chain.from_iterable(ids) if i < 0)
            raise ValueError(f"token id must be non-negative, got {bad}")
    return ids


def tokenize_words(words: Sequence[Sequence], tokenizer: Tokenizer) -> list[list]:
    """Expand timed words, as ``WORD_COLUMNS`` columns (texts, starts, ends),
    into subword tokens as ``TOKEN_COLUMNS`` columns (ids, word indexes,
    starts, ends), each token carrying its word's index and span.

    Words that encode to zero tokens are skipped; token order follows word
    order, so downstream segment invariants hold by construction.
    """
    texts, starts, ends = words
    ids = encode_words(texts, tokenizer)
    counts = list(map(len, ids))
    return [
        list(chain.from_iterable(ids)),
        *(list(chain.from_iterable(map(repeat, column, counts))) for column in (range(len(ids)), starts, ends)),
    ]
