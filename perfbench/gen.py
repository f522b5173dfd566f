"""Seeded synthetic inputs for the vidtext benchmark.

Every generator takes a ``seed`` and returns the exact lines a workload
feeds to the CLI, plus a *plan*: the outcome counts a correct program must
report for those lines.  The same seed gives the same bytes; inputs are
made before any timing starts.

Sizes that decide running time (words per record, pair lengths, table
sizes) are drawn by stratified sampling: each seed redraws the content but
keeps the per-category length distribution, so a different seed changes
which words appear, not how much work a run does.

Injected data errors are limited to kinds that every decoder must classify
as data errors: truncated JSON, a missing required key, and a word whose
``end_s`` precedes its ``start_s``.  Non-finite numbers, string booleans and
negative times are left out on purpose; see ``NOTES.md``.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

# Reject reasons in the order the metadata and thumbnail gates test them.
REJECT_REASONS = (
    "no_asr",
    "too_long",
    "gaming_category",
    "too_few_objects",
    "static_visuals",
)
ERROR_KINDS = ("truncated_json", "missing_key", "end_before_start")
REQUIRED_KEYS = ("video_id", "duration_s", "category", "has_english_asr")
CATEGORIES = ("Howto", "Education", "Travel", "Science", "Cooking", "Sports")

N_CLASSES = 10  # object classes per thumbnail
N_FEATURES = 16  # feature dimensions per thumbnail
MAX_DURATION_S = 1200.0  # PipelineConfig default for the too_long gate
ZIPF_S = 1.05  # Zipf exponent of the word draws

# Noise that derives each align pair's noisy side from its clean side.
DROP_P = 0.08  # per clean word
INSERT_P = 0.08  # per clean word
EDIT_P = 0.15  # one-character edit, per kept word

ORDER_SIGNAL = 2.0  # logit bonus of the true relation class


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs of the ``run`` corpus."""

    records: int = 200
    median_words: float = 600.0
    sigma_words: float = 0.5  # lognormal shape of words per record
    vocab_size: int = 20_000
    zipf_s: float = ZIPF_S
    # Share of records per reject reason; the rest are accepted.
    reject_share: dict[str, float] = field(
        default_factory=lambda: {r: 0.05 for r in REJECT_REASONS}
    )
    error_rate: float = 0.01  # share of malformed lines, at least one per kind


@dataclass(frozen=True)
class AlignSpec:
    """Knobs of the ``align`` pairs: clean lengths on a geometric ladder."""

    pairs: int = 5
    min_words: int = 50
    max_words: int = 600
    vocab_size: int = 20_000


@dataclass(frozen=True)
class OrderSpec:
    """Knobs of the ``order`` tables: ``copies`` tables per (classes, n)."""

    sizes: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
    copies: int = 3


def _rng(seed: int, stream: str) -> np.random.Generator:
    # One independent stream per purpose, so adding draws to one part of a
    # workload never shifts another part.
    tag = int.from_bytes(stream.encode("utf-8"), "little") % (2**63)
    return np.random.default_rng([seed, tag])


def vocabulary(seed: int, size: int) -> list[str]:
    """``size`` distinct lowercase ASCII types, shortest first (Zipf rank order)."""
    rng = _rng(seed, "vocab")
    letters = np.array(list(string.ascii_lowercase))
    # English-like type lengths; at most 14 bytes, so no word exceeds a
    # 32-token segment under the byte tokenizer.
    lengths = np.clip(np.round(rng.normal(6.5, 2.2, size=size * 2)), 1, 14).astype(int)
    seen: set[str] = set()
    out: list[str] = []
    for n in lengths:
        w = "".join(rng.choice(letters, size=int(n)))
        if w not in seen:
            seen.add(w)
            out.append(w)
            if len(out) == size:
                break
    while len(out) < size:  # short draws can collide; top up with long types
        w = "".join(rng.choice(letters, size=14))
        if w not in seen:
            seen.add(w)
            out.append(w)
    out.sort(key=len)
    return out


def zipf_words(rng: np.random.Generator, vocab: list[str], s: float, n: int) -> list[str]:
    ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
    p = ranks**-s
    p /= p.sum()
    return [vocab[i] for i in rng.choice(len(vocab), size=n, p=p)]


def stratified_lognormal(
    rng: np.random.Generator, n: int, median: float, sigma: float
) -> list[int]:
    """``n`` lengths, one from each of ``n`` equal-probability strata, shuffled."""
    inv = NormalDist().inv_cdf
    qs = (np.arange(n) + rng.random(n)) / n
    out = [max(2, int(round(median * np.exp(sigma * inv(float(q)))))) for q in qs]
    rng.shuffle(out)
    return out


def timed_words(rng: np.random.Generator, texts: list[str]) -> list[dict]:
    """Monotone, non-overlapping word times on whole milliseconds."""
    out = []
    t = int(rng.integers(0, 2000))
    durs = rng.integers(120, 450, size=len(texts))
    gaps = rng.integers(10, 60, size=len(texts))
    for text, d, g in zip(texts, durs, gaps):
        out.append({"text": text, "start_s": t / 1000, "end_s": (t + int(d)) / 1000})
        t += int(d) + int(g)
    return out


def _thumbnails(rng: np.random.Generator, outcome: str) -> dict:
    probs = rng.uniform(0.0, 0.25, size=(4, N_CLASSES))
    if outcome == "too_few_objects":
        probs[0, rng.integers(N_CLASSES)] = rng.uniform(0.5, 0.95)
    else:  # two confident classes per thumbnail: 8 cells pass min_objects=4
        for row in range(4):
            cols = rng.choice(N_CLASSES, size=2, replace=False)
            probs[row, cols] = rng.uniform(0.5, 0.95, size=2)
    if outcome == "static_visuals":
        base = rng.normal(size=N_FEATURES)
        feats = base[None, :] + rng.normal(scale=0.01, size=(4, N_FEATURES))
    else:
        feats = rng.normal(size=(4, N_FEATURES))
    return {
        "object_probs": np.round(probs, 4).tolist(),
        "features": np.round(feats, 4).tolist(),
    }


def _plan_counts(spec: CorpusSpec) -> tuple[list[str], int]:
    n_err = max(len(ERROR_KINDS), round(spec.error_rate * spec.records))
    outcomes: list[str] = []
    for reason in REJECT_REASONS:
        outcomes += [reason] * max(1, round(spec.reject_share[reason] * spec.records))
    outcomes += [ERROR_KINDS[k % len(ERROR_KINDS)] for k in range(n_err)]
    n_acc = spec.records - len(outcomes)
    if n_acc < 1:
        raise ValueError(f"{spec.records} records leave no room for accepted ones")
    return outcomes + ["accepted"] * n_acc, n_err


def corpus(seed: int, spec: CorpusSpec = CorpusSpec()) -> tuple[list[str], dict]:
    """JSONL video records for ``vidtext run`` and the manifest counts they must give."""
    rng = _rng(seed, "corpus")
    vocab = vocabulary(seed, spec.vocab_size)
    outcomes, n_err = _plan_counts(spec)
    # Stratify lengths within each outcome, so every seed hands each gate
    # and the accepted path the same length distribution.
    lengths: dict[str, list[int]] = {}
    for kind in sorted(set(outcomes)):
        lengths[kind] = stratified_lognormal(
            rng, outcomes.count(kind), spec.median_words, spec.sigma_words
        )
    order = rng.permutation(len(outcomes))
    lines: list[str] = []
    accepted_ids: list[str] = []
    words_total = 0
    for idx, k in enumerate(order):
        outcome = outcomes[int(k)]
        n_words = lengths[outcome].pop()
        words = timed_words(rng, zipf_words(rng, vocab, spec.zipf_s, n_words))
        words_total += n_words
        rec = {
            "video_id": f"v{seed}-{idx:06d}",
            "duration_s": min(
                round(words[-1]["end_s"] + rng.uniform(1, 30), 3), MAX_DURATION_S - 1
            ),
            "category": str(rng.choice(CATEGORIES)),
            "has_english_asr": outcome != "no_asr",
            "words": words,
            "thumbnails": _thumbnails(rng, outcome),
        }
        if outcome == "too_long":
            rec["duration_s"] = round(rng.uniform(MAX_DURATION_S + 100, 4000), 3)
        elif outcome == "gaming_category":
            rec["category"] = str(rng.choice(["Gaming", "gaming"]))
        elif outcome == "missing_key":
            del rec[REQUIRED_KEYS[int(rng.integers(len(REQUIRED_KEYS)))]]
        elif outcome == "end_before_start":
            w = words[int(rng.integers(1, len(words)))]
            w["end_s"] = round(w["start_s"] - int(rng.integers(1, 100)) / 1000, 3)
        if outcome == "accepted":
            accepted_ids.append(rec["video_id"])
        line = json.dumps(rec)
        if outcome == "truncated_json":
            line = line[: int(rng.integers(10, len(line) - 1))].rstrip()
        lines.append(line)
    rejected = {r: outcomes.count(r) for r in REJECT_REASONS}
    plan = {
        "accepted_ids": accepted_ids,
        "input_records": len(lines),
        "accepted": outcomes.count("accepted"),
        "rejected": rejected,
        "data_errors": n_err,
        "errors_by_kind": {k: outcomes.count(k) for k in ERROR_KINDS},
        "words": words_total,
    }
    return lines, plan


def _noisy_from_clean(
    rng: np.random.Generator, clean: list[str], vocab: list[str]
) -> list[str]:
    letters = string.ascii_lowercase
    out: list[str] = []
    for w in clean:
        if rng.random() >= DROP_P:
            if rng.random() < EDIT_P:
                pos = int(rng.integers(len(w)))
                op = int(rng.integers(3))
                ch = letters[int(rng.integers(26))]
                if op == 0 or len(w) == 1:
                    w = w[:pos] + ch + w[pos + 1 :]
                elif op == 1:
                    w = w[:pos] + ch + w[pos:]
                else:
                    w = w[:pos] + w[pos + 1 :]
            out.append(w)
        if rng.random() < INSERT_P:
            out.append(zipf_words(rng, vocab, ZIPF_S, 1)[0])
    return out or [clean[0]]


def align_pairs(seed: int, spec: AlignSpec = AlignSpec()) -> tuple[list[str], dict]:
    """JSONL (noisy timed words, clean words) pairs for ``vidtext align``."""
    rng = _rng(seed, "align")
    vocab = vocabulary(seed, spec.vocab_size)
    ladder = np.geomspace(spec.min_words, spec.max_words, spec.pairs)
    lines: list[str] = []
    words = 0
    for n in rng.permutation(np.round(ladder).astype(int)):
        clean = zipf_words(rng, vocab, ZIPF_S, int(n))
        noisy = _noisy_from_clean(rng, clean, vocab)
        words += len(noisy) + len(clean)
        lines.append(json.dumps({"noisy": timed_words(rng, noisy), "clean": clean}))
    plan = {"input_records": len(lines), "data_errors": 0, "words": words}
    return lines, plan


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def relation_table(rng: np.random.Generator, n: int, classes: int) -> list[float]:
    """Normalized log-probabilities with a noisy preference for a hidden order."""
    truth = rng.permutation(n)
    logits = rng.normal(size=(n, n, classes))
    for i in range(n):
        for j in range(n):
            if classes == 4:  # caption i vs the frame element j shows
                cls = 0 if i == truth[j] else (1 if i < truth[j] else 2)
            else:  # frame i before frame j
                cls = 0 if truth[i] < truth[j] else 1
            logits[i, j, cls] += ORDER_SIGNAL
    return _log_softmax(logits).ravel().tolist()


def order_tables(seed: int, spec: OrderSpec = OrderSpec()) -> tuple[list[str], dict]:
    """JSONL relation tables for ``vidtext score-order``: half 4-class, half 2-class."""
    rng = _rng(seed, "order")
    jobs = [(c, n) for c in (4, 2) for n in spec.sizes for _ in range(spec.copies)]
    lines = []
    for k in rng.permutation(len(jobs)):
        classes, n = jobs[int(k)]
        flat = relation_table(rng, n, classes)
        lines.append(json.dumps({"n": n, "classes": classes, "log_probs": flat}))
    return lines, {"input_records": len(lines), "data_errors": 0, "words": 0}


def hungarian_matrices(seed: int, count: int = 5, n: int = 64) -> list[np.ndarray]:
    """Similarity matrices on a coarse grid, so many optimal assignments tie."""
    rng = _rng(seed, "hungarian")
    return [rng.integers(0, 8, size=(n, n)).astype(np.float64) / 8 for _ in range(count)]
