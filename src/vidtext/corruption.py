"""Synthetic ASR-style corruption of clean transcripts, plus the quality gate.

``corrupt_document`` lowercases its input, strips punctuation, then walks the
surviving words drawing, per word and in this fixed order:

1. a replacement coin (``replace_prob``); on success a branch coin
   (``homophone_share``) picks the homophone route when the pronunciation
   table knows the word, otherwise a uniformly random token sequence of the
   same encoded length is decoded back into a word;
2. a filler coin (``filler_prob``); on success one filler word is inserted
   before the current word.

The two coins are independent, so both may fire on one word.  All draws come
from one ``numpy`` generator seeded with the per-document ``seed``, which makes
output bit-identical across runs and platforms.
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import PipelineConfig
from .masking import allowed_ids
from .tokenizers import Tokenizer


def strip_punctuation(text: str) -> str:
    """Drop every character in a Unicode punctuation category (P*)."""
    return "".join(c for c in text if not unicodedata.category(c).startswith("P"))


def normalize_words(words: Iterable[str]) -> list[str]:
    """Lowercase, strip punctuation, and drop words that end up empty."""
    out = []
    for w in words:
        w = strip_punctuation(str(w).lower())
        if w:
            out.append(w)
    return out


FILLER_LEXICON = ("umm", "hmm", "yeah")


class PronunciationTable:
    """Symmetric word -> same-pronunciation-words lookup."""

    def __init__(self, mapping: Mapping[str, Iterable[str]]) -> None:
        self._map: dict[str, tuple[str, ...]] = {
            w: tuple(sorted(set(vs))) for w, vs in mapping.items() if vs
        }
        for w, vs in self._map.items():
            for v in vs:
                if w not in self._map.get(v, ()):
                    raise ValueError(
                        f"pronunciation table is not symmetric: {v!r} lists {w!r} "
                        f"but not vice versa"
                    )

    def homophones(self, word: str) -> tuple[str, ...]:
        """Alternatives sharing a pronunciation, sorted, never containing `word`."""
        return self._map.get(word, ())

    @classmethod
    def empty(cls) -> "PronunciationTable":
        return cls({})

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable[str]]) -> "PronunciationTable":
        """Build from groups of words that share a pronunciation."""
        mapping: dict[str, set[str]] = {}
        for group in groups:
            words = sorted({w.lower() for w in group})
            for w in words:
                mapping.setdefault(w, set()).update(v for v in words if v != w)
        return cls(mapping)

    @classmethod
    def from_cmu_file(cls, path: str | Path) -> "PronunciationTable":
        """Load the CMU pronouncing dictionary's published text format.

        Lines look like ``WORD  HH AH0 L OW1`` with ``WORD(2)`` marking
        alternate pronunciations and ``;;;`` marking comments.  Words are
        lowercased; stress digits are kept, so homophony means an identical
        phone sequence including stress.
        """
        by_pron: dict[tuple[str, ...], set[str]] = {}
        with open(path, encoding="latin-1") as fp:
            for line in fp:
                line = line.strip()
                if not line or line.startswith(";;;"):
                    continue
                try:
                    head, phones = line.split(None, 1)
                except ValueError:
                    continue
                if head.endswith(")") and "(" in head:
                    head = head[: head.index("(")]
                word = head.lower()
                by_pron.setdefault(tuple(phones.split()), set()).add(word)
        return cls.from_groups(g for g in by_pron.values() if len(g) > 1)


@dataclass
class CorruptionCounters:
    words_in: int = 0  # surviving normalized words
    replaced: int = 0
    homophone_replacements: int = 0
    random_replacements: int = 0
    fillers: int = 0


def derive_seed(global_seed: int, item_id: str) -> int:
    """Stable 64-bit per-item seed so parallel order never changes output."""
    digest = hashlib.blake2b(
        f"{global_seed}:{item_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _random_word(
    rng: np.random.Generator, n_tokens: int, tokenizer: Tokenizer, allowed: np.ndarray
) -> str:
    ids = allowed[rng.integers(0, len(allowed), size=n_tokens)]
    return tokenizer.decode([int(i) for i in ids])


def corrupt_document(
    clean: Sequence[str],
    cfg: PipelineConfig,
    seed: int = 0,
    table: PronunciationTable | None = None,
    tokenizer: Tokenizer | None = None,
    counters: CorruptionCounters | None = None,
) -> list[str]:
    """Return the normalized, randomly corrupted copy of ``clean``.

    Of ``cfg`` only ``replace_prob``, ``homophone_share`` and ``filler_prob``
    are read, and ``seed`` seeds every random draw for this document.
    ``tokenizer`` is required whenever ``replace_prob`` > 0 because the random
    replacement route samples token sequences of the original word's encoded
    length.  Pass ``counters`` to collect how often each corruption fired.
    """
    words = normalize_words(clean)
    counters = counters if counters is not None else CorruptionCounters()
    counters.words_in += len(words)
    if cfg.replace_prob == 0.0 and cfg.filler_prob == 0.0:
        return words
    if cfg.replace_prob > 0.0 and tokenizer is None:
        raise ValueError("a tokenizer is required when replace_prob > 0")
    rng = np.random.default_rng(seed)
    allowed = None
    if tokenizer is not None:
        allowed = allowed_ids(tokenizer.vocab_size, tokenizer.special_ids)
        if len(allowed) == 0:
            raise ValueError("tokenizer has no non-special ids to sample from")
    if table is None:
        table = PronunciationTable.empty()

    out: list[str] = []
    for word in words:
        emitted = word
        if cfg.replace_prob > 0.0 and rng.random() < cfg.replace_prob:
            counters.replaced += 1
            homophones = (
                table.homophones(word) if rng.random() < cfg.homophone_share else ()
            )
            if homophones:
                emitted = homophones[int(rng.integers(0, len(homophones)))]
                counters.homophone_replacements += 1
            else:
                n_tokens = max(1, len(tokenizer.encode(word)))
                emitted = _random_word(rng, n_tokens, tokenizer, allowed)
                counters.random_replacements += 1
        if cfg.filler_prob > 0.0 and rng.random() < cfg.filler_prob:
            out.append(FILLER_LEXICON[int(rng.integers(0, len(FILLER_LEXICON)))])
            counters.fillers += 1
        out.append(emitted)
    return out
