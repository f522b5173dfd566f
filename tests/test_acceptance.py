"""Release gate: the ten checks that must hold before shipping.

Each test records one pass/fail line (printed in the terminal summary) and
then asserts, so a red run still reports every criterion's status.  All
tolerances and runtime bounds are pinned here, not in helper code.
"""

import itertools
import time

import numpy as np

from oracles import example_violations, exhaustive_alignment_cost, finite_difference
from vidtext.align import dtw_align
from vidtext.config import PipelineConfig
from vidtext.corruption import (
    CorruptionCounters,
    PronunciationTable,
    corrupt_document,
    derive_seed,
    normalize_words,
)
from vidtext.losses import contrastive_loss
from vidtext.masking import AttentionProfile, select_targets
from vidtext.model import VideoRecord, round_ms
from vidtext.ordering import (
    PairwiseRelationTable,
    best_ordering,
    evaluate_story_set,
    hungarian_match,
)
from vidtext.pipeline import run_pipeline
from vidtext.segmenting import PackStats, pack_examples, sequence_shape
from vidtext.selfcheck import selfcheck
from vidtext.tokenizers import ByteTokenizer

RESULTS: list[tuple[str, bool, str]] = []


def record(name: str, passed: bool, detail: str) -> str:
    RESULTS.append((name, passed, detail))
    return f"{name}: {detail}"


def test_criterion_01_shape_arithmetic():
    t0 = time.perf_counter()
    shape = sequence_shape(PipelineConfig())
    elapsed = time.perf_counter() - t0
    got = (
        shape.cells_per_frame,
        shape.joint_sequence_length,
        shape.language_only_length,
    )
    ok = got == (66, 396, 512) and elapsed < 1.0
    msg = record(
        "criterion-01 shape-arithmetic",
        ok,
        f"cells/joint/language = {got}, expected (66, 396, 512), {elapsed:.3f}s (< 1s)",
    )
    assert ok, msg


def test_criterion_02_contrastive_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    tau, h = 0.05, 1e-5
    worst = 0.0
    for _ in range(20):
        b = int(rng.integers(2, 9))  # B <= 8
        d = int(rng.integers(4, 17))  # D <= 16
        f = rng.normal(size=(b, d))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        c = rng.normal(size=(b, d))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        report = contrastive_loss(f, c, tau=tau, want_grads=True)
        fd_f = finite_difference(
            lambda x: contrastive_loss(x, c, tau=tau, norm_tol=1e-3).value, f, h
        )
        fd_c = finite_difference(
            lambda x: contrastive_loss(f, x, tau=tau, norm_tol=1e-3).value, c, h
        )
        for analytic, fd in (
            (report.gradients["frames"], fd_f),
            (report.gradients["captions"], fd_c),
        ):
            scale = max(float(np.abs(fd).max()), 1e-12)
            worst = max(worst, float(np.abs(analytic - fd).max()) / scale)
    v = rng.normal(size=(1, 8))
    v /= np.linalg.norm(v)
    single = contrastive_loss(v, v.copy(), tau=tau).value
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and single == 0.0 and elapsed < 10.0
    msg = record(
        "criterion-02 contrastive-gradients",
        ok,
        f"worst relative error {worst:.2e} (< 1e-4) over 20 instances, "
        f"B=1 loss {single} (== 0), {elapsed:.2f}s (< 10s)",
    )
    assert ok, msg


def test_criterion_03_hungarian_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    perm_cache: dict[tuple[int, int], np.ndarray] = {}

    def brute(sim: np.ndarray) -> float:
        n, m = sim.shape
        if n > m:
            return brute(sim.T)
        key = (n, m)
        if key not in perm_cache:
            perm_cache[key] = np.array(
                list(itertools.permutations(range(m), n)), dtype=np.int64
            )
        perms = perm_cache[key]
        return float(sim[np.arange(n)[None, :], perms].sum(axis=1).max())

    trials, mismatches = 1000, 0
    for _ in range(trials):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        sim = rng.normal(size=(n, m))
        _, total = hungarian_match(sim)
        if abs(total - brute(sim)) > 1e-9:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    msg = record(
        "criterion-03 hungarian-oracle",
        ok,
        f"{mismatches} mismatches over {trials} matrices up to 7x7 "
        f"(tolerance 1e-9), {elapsed:.2f}s (< 30s)",
    )
    assert ok, msg


def test_criterion_04_dtw_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    pool = [
        "the", "there", "their", "than", "then", "though", "through",
        "rain", "ran", "run", "sing", "song", "sun",
    ]
    trials, mismatches = 500, 0
    for _ in range(trials):
        noisy = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 9))]
        clean = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 9))]
        got = dtw_align(noisy, clean).total_cost
        if got != exhaustive_alignment_cost(noisy, clean):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    msg = record(
        "criterion-04 dtw-oracle",
        ok,
        f"{mismatches} mismatches over {trials} pairs (lengths <= 8), "
        f"{elapsed:.2f}s (< 30s)",
    )
    assert ok, msg


def test_criterion_05_reordering_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(550)
    tables, truths = [], []
    for _ in range(500):
        truth = [int(x) for x in rng.permutation(5)]
        tables.append(PairwiseRelationTable.oracle_from_order(truth, correct_mass=0.97))
        truths.append(truth)
    recovered = sum(
        best_ordering(t)[0] == tuple(tr) for t, tr in zip(tables, truths)
    )
    report = evaluate_story_set(tables, truths)
    uniform = PairwiseRelationTable.uniform(5)
    uniform_truths = [[int(x) for x in rng.permutation(5)] for _ in range(10_000)]
    uniform_report = evaluate_story_set([uniform] * 10_000, uniform_truths)
    elapsed = time.perf_counter() - t0
    recovery = recovered / 500
    ok = (
        recovery >= 0.99
        and report.spearman >= 0.99
        and abs(uniform_report.pairwise_accuracy - 0.50) <= 0.015
        and elapsed < 60.0
    )
    msg = record(
        "criterion-05 reordering-recovery",
        ok,
        f"recovery {recovery:.3f} (>= 0.99), spearman {report.spearman:.4f} "
        f"(>= 0.99), uniform pairwise {uniform_report.pairwise_accuracy:.4f} "
        f"(0.50 +/- 0.015 over 10^4), {elapsed:.2f}s (< 60s)",
    )
    assert ok, msg


def test_criterion_06_masking_statistics():
    t0 = time.perf_counter()
    n_seq, seq_len = 200, 500  # 10^5 tokens total
    specials = frozenset({0, seq_len - 1})
    weight_rng = np.random.default_rng(777)
    seeds_total = maskable_total = attended_total = special_hits = 0
    lefts: list[int] = []
    rights: list[int] = []
    action_counts = {"mask_token": 0, "random_token": 0, "keep": 0}
    for k in range(n_seq):
        weights = np.abs(weight_rng.normal(size=seq_len)) + 1e-9
        profile = AttentionProfile(weights=weights, special_positions=specials)
        rng = np.random.default_rng(derive_seed(4, f"seq-{k}"))
        plan = select_targets(seq_len, profile, rng)
        seeds_total += len(plan.seeds)
        maskable_total += seq_len - len(specials)
        attended_total += sum(plan.seed_from_attended)
        for left, right in plan.extensions:
            lefts.append(left)
            rights.append(right)
        for action in plan.actions.values():
            action_counts[action] += 1
        special_hits += len(set(plan.targets) & specials)
    rate = seeds_total / maskable_total
    att_share = attended_total / seeds_total
    left_mean = float(np.mean(lefts))
    right_mean = float(np.mean(rights))
    n_actions = sum(action_counts.values())
    split = tuple(
        action_counts[a] / n_actions for a in ("mask_token", "random_token", "keep")
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(rate - 0.20) <= 0.005
        and abs(att_share - 0.50) <= 0.01
        and abs(left_mean - 0.50) <= 0.02
        and abs(right_mean - 0.50) <= 0.02
        and abs(split[0] - 0.8) <= 0.01
        and abs(split[1] - 0.1) <= 0.01
        and abs(split[2] - 0.1) <= 0.01
        and special_hits == 0
        and elapsed < 30.0
    )
    msg = record(
        "criterion-06 masking-statistics",
        ok,
        f"rate {rate:.4f} (0.20 +/- 0.005), attended share {att_share:.4f} "
        f"(0.50 +/- 0.01), extension means L {left_mean:.4f} / R {right_mean:.4f} "
        f"(0.50 +/- 0.02), actions {split[0]:.4f}/{split[1]:.4f}/{split[2]:.4f} "
        f"(0.8/0.1/0.1 +/- 0.01), special hits {special_hits} (== 0), "
        f"{elapsed:.2f}s (< 30s)",
    )
    assert ok, msg


def test_criterion_07_corruption_statistics():
    t0 = time.perf_counter()
    pool = (
        "the quick brown fox jumps over lazy dog there their to too two "
        "because through sing rain light tall tree river stone window"
    ).split()
    table = PronunciationTable.from_groups(
        [("there", "their"), ("to", "too", "two")]
    )
    rng = np.random.default_rng(99)
    words = [pool[i] for i in rng.integers(0, len(pool), size=100_000)]
    counters = CorruptionCounters()
    corrupt_document(
        words,
        PipelineConfig(),  # defaults: replace 0.01, filler 0.01
        4,
        table,
        ByteTokenizer(),
        counters=counters,
    )
    replace_rate = counters.replaced / counters.words_in
    filler_rate = counters.fillers / counters.words_in

    messy = ["Hello,", "WORLD!", "don't", "...", "Stop."]
    reduced = corrupt_document(messy, PipelineConfig(replace_prob=0.0, filler_prob=0.0))
    exact = reduced == normalize_words(messy)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(replace_rate - 0.01) <= 0.001
        and abs(filler_rate - 0.01) <= 0.001
        and exact
        and elapsed < 30.0
    )
    msg = record(
        "criterion-07 corruption-statistics",
        ok,
        f"replace rate {replace_rate:.5f}, filler rate {filler_rate:.5f} "
        f"(each 0.01 +/- 0.001 over 10^5 words), zero-probability reduction "
        f"exact: {exact}, {elapsed:.2f}s (< 30s)",
    )
    assert ok, msg


def _random_video(rng: np.random.Generator, video_id: str) -> VideoRecord:
    from vidtext.segmenting import segment_transcript

    n_words = int(rng.integers(1, 120))
    tokens = []  # (id, word_index, start_s, end_s)
    t = 0.0
    for w in range(n_words):
        n_tok = int(rng.integers(1, 6))
        start, end = t, t + 0.4
        for _ in range(n_tok):
            tokens.append((len(tokens) % 1000, w, round_ms(start), round_ms(end)))
        t = end + 0.1
    return VideoRecord(
        video_id=video_id,
        duration_s=t + 1.0,
        category="Howto",
        has_english_asr=True,
        segments=tuple(segment_transcript([list(column) for column in zip(*tokens)], l_max=32)),
    )


def test_criterion_08_packing_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    records = [_random_video(rng, f"v{i}") for i in range(200)]
    total_segments = sum(len(r.segments) for r in records)
    stats = PackStats()
    bad_examples = 0
    n_examples = 0
    for example in pack_examples(iter(records), n_segments=16, stats=stats):
        n_examples += 1
        if example_violations(example, n_segments=16, l_max=32):
            bad_examples += 1
    conserved = (
        stats.segments_in == total_segments
        and n_examples * 16 + stats.segments_dropped == total_segments
        and stats.examples_out == n_examples
    )

    # Same law via the pipeline manifest on a generated stream.
    import io
    import json

    lines = []
    word_rng = np.random.default_rng(809)
    for i in range(30):
        words = []
        t = 0.0
        for _ in range(int(word_rng.integers(5, 200))):
            words.append({"text": "word", "start_s": t, "end_s": t + 0.4})
            t += 0.5
        lines.append(
            json.dumps(
                {
                    "video_id": f"m{i}",
                    "duration_s": t,
                    "category": "Howto",
                    "has_english_asr": True,
                    "words": words,
                }
            )
        )
    manifest = run_pipeline(
        PipelineConfig(), io.StringIO("\n".join(lines)), io.StringIO()
    )
    manifest_conserved = (
        manifest.examples * 16 + manifest.segments_dropped == manifest.segments
    )
    elapsed = time.perf_counter() - t0
    ok = conserved and manifest_conserved and bad_examples == 0 and elapsed < 10.0
    msg = record(
        "criterion-08 packing-conservation",
        ok,
        f"{total_segments} segments -> {n_examples} examples of 16 + "
        f"{stats.segments_dropped} dropped, invalid examples {bad_examples} (== 0), "
        f"manifest conserves: {manifest_conserved}, {elapsed:.2f}s (< 10s)",
    )
    assert ok, msg


def test_criterion_09_golden_determinism(tmp_path, data_dir):
    t0 = time.perf_counter()
    golden_out = (data_dir / "golden_output.jsonl").read_bytes()
    golden_manifest = (data_dir / "golden_manifest.json").read_bytes()
    import json

    runs = []
    for label, jobs in (("j1", 1), ("j4", 4), ("j8", 8), ("j1-again", 1)):
        out_path = tmp_path / f"{label}.jsonl"
        with open(data_dir / "golden_input.jsonl", encoding="utf-8") as fin, open(
            out_path, "w", encoding="utf-8"
        ) as fout:
            manifest = run_pipeline(PipelineConfig(), fin, fout, jobs=jobs)
        manifest_bytes = (
            json.dumps(manifest.to_json(), separators=(",", ":"), ensure_ascii=False)
            + "\n"
        ).encode("utf-8")
        runs.append((out_path.read_bytes(), manifest_bytes))
    all_match = all(
        out == golden_out and mb == golden_manifest for out, mb in runs
    )
    elapsed = time.perf_counter() - t0
    ok = all_match
    msg = record(
        "criterion-09 golden-determinism",
        ok,
        f"4 runs (workers 1/4/8 + repeat) byte-identical to committed fixture: "
        f"{all_match}, {elapsed:.2f}s",
    )
    assert ok, msg


def test_criterion_10_selfcheck():
    t0 = time.perf_counter()
    results = selfcheck()
    elapsed = time.perf_counter() - t0
    failures = [r.name for r in results if not r.passed]
    ok = not failures and len(results) == 4
    msg = record(
        "criterion-10 selfcheck",
        ok,
        f"{len(results) - len(failures)}/{len(results)} embedded checks pass"
        + (f", failing: {failures}" if failures else "")
        + f", {elapsed:.2f}s",
    )
    assert ok, msg
