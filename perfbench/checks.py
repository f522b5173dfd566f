"""Output checks for each workload.

Each check takes the workload's input lines, the program's output and the
generator's plan, and returns a list of problems; an empty list means the
output is correct.  The checks recompute what they compare against from the
input with independent code (``tests/oracles.py`` and plain loops), never
from the output itself.
"""

from __future__ import annotations

import json
import math
import random

TOKENS_PER_SEGMENT = 32  # PipelineConfig defaults the run workloads use
SEGMENTS_PER_EXAMPLE = 16
MAX_PROBLEMS = 5


def _round_ms(x: float) -> float:
    return round(x * 1000.0) / 1000.0


def _accepted_videos(lines: list[str], plan: dict) -> dict[str, list[dict]]:
    """Timed words of each video the plan accepts, keyed by video id."""
    out: dict[str, list[dict]] = {}
    for vid in plan["accepted_ids"]:
        out[vid] = []
    for line in lines:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if rec.get("video_id") in out:
            out[rec["video_id"]] = rec["words"]
    return out


def check_run(
    lines: list[str], output: bytes, manifest_bytes: bytes, plan: dict, oracles
) -> list[str]:
    """Manifest counts match the plan and every packed token matches its input word."""
    problems: list[str] = []
    manifest = json.loads(manifest_bytes)
    counts = manifest["counts"]
    for key in ("input_records", "accepted", "data_errors", "rejected"):
        if counts[key] != plan[key]:
            problems.append(f"manifest {key} {counts[key]!r}, planned {plan[key]!r}")
    videos = _accepted_videos(lines, plan)
    # Expected segments per video: greedy word packing over byte lengths,
    # since the default tokenizer emits one token per UTF-8 byte.
    expected: dict[str, list[list[int]]] = {
        vid: oracles.greedy_word_packing(
            [len(w["text"].encode("utf-8")) for w in words], TOKENS_PER_SEGMENT
        )
        for vid, words in videos.items()
    }
    n_segments = sum(len(v) for v in expected.values())
    want = {
        "segments": n_segments,
        "examples": n_segments // SEGMENTS_PER_EXAMPLE,
        "segments_dropped": n_segments % SEGMENTS_PER_EXAMPLE,
    }
    for key, value in want.items():
        if counts[key] != value:
            problems.append(f"manifest {key} {counts[key]}, expected {value}")
    out_lines = output.decode("utf-8").splitlines()
    if len(out_lines) != want["examples"]:
        problems.append(f"{len(out_lines)} examples written, expected {want['examples']}")
    for e, line in enumerate(out_lines):
        ex = json.loads(line)
        if len(ex["segments"]) != SEGMENTS_PER_EXAMPLE:
            problems.append(f"example {e} holds {len(ex['segments'])} segments")
        for seg, (vid, s_idx) in zip(ex["segments"], ex["provenance"]):
            problems += _check_segment(seg, vid, s_idx, videos, expected, f"example {e}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems[:MAX_PROBLEMS]


def _check_segment(seg, vid, s_idx, videos, expected, where) -> list[str]:
    if vid not in expected or not 0 <= s_idx < len(expected[vid]):
        return [f"{where}: provenance {vid}#{s_idx} names no planned segment"]
    words = videos[vid]
    want = []
    for wi in expected[vid][s_idx]:
        w = words[wi]
        start, end = _round_ms(w["start_s"]), _round_ms(w["end_s"])
        want += [[b, wi, start, end] for b in w["text"].encode("utf-8")]
    got = [[t["id"], t["word_index"], t["start_s"], t["end_s"]] for t in seg["tokens"]]
    if got != want:
        return [f"{where}: tokens of {vid}#{s_idx} differ from the input words"]
    if not want[0][2] <= seg["frame_time_s"] <= want[-1][3]:
        return [f"{where}: frame time of {vid}#{s_idx} outside its span"]
    return []


def check_align(lines: list[str], output: bytes, seed: int, vidtext) -> list[str]:
    """On a seeded sample of lines: monotone full-coverage pairs, and a
    ``total_cost`` equal to the summed word distances of those pairs."""
    out_lines = output.decode("utf-8").splitlines()
    if len(out_lines) != len(lines):
        return [f"{len(out_lines)} alignments for {len(lines)} pairs"]
    rng = random.Random(seed)
    sample = sorted(rng.sample(range(len(lines)), min(len(lines), 8)))
    problems = []
    for k in sample:
        src, got = json.loads(lines[k]), json.loads(out_lines[k])
        noisy = [w["text"] for w in src["noisy"]]
        clean = src["clean"]
        pairs = [tuple(p) for p in got["pairs"]]
        if not pairs or pairs[0] != (0, 0) or pairs[-1] != (len(noisy) - 1, len(clean) - 1):
            problems.append(f"line {k}: path does not join both corners")
            continue
        steps = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(pairs, pairs[1:])}
        if not steps <= {(1, 1), (0, 1), (1, 0)}:
            problems.append(f"line {k}: path is not monotone ({sorted(steps)})")
            continue
        cost = sum(vidtext.levenshtein(noisy[i], clean[j]) for i, j in pairs)
        if got["total_cost"] != cost:
            problems.append(f"line {k}: total_cost {got['total_cost']}, pairs sum to {cost}")
        if [w["text"] for w in got["clean_words"]] != clean:
            problems.append(f"line {k}: clean words changed")
    return problems[:MAX_PROBLEMS]


def check_order(lines: list[str], output: bytes, seed: int, ordering, oracles) -> list[str]:
    """Each score is the score of its permutation; a seeded sample of 4-class
    tables matches the brute-force oracle's permutation."""
    import numpy as np

    out_lines = output.decode("utf-8").splitlines()
    if len(out_lines) != len(lines):
        return [f"{len(out_lines)} results for {len(lines)} tables"]
    problems = []
    four_class = []
    for k, (src_line, out_line) in enumerate(zip(lines, out_lines)):
        src, got = json.loads(src_line), json.loads(out_line)
        n, perm = src["n"], got["permutation"]
        if sorted(perm) != list(range(n)):
            problems.append(f"line {k}: {perm} is not a permutation of 0..{n - 1}")
            continue
        lp = np.asarray(src["log_probs"], dtype=np.float64).reshape(n, n, src["classes"])
        if src["classes"] == 4:
            want = ordering.score_permutation(ordering.PairwiseRelationTable(lp), perm)
            if n < 8:  # the pure-Python oracle takes seconds at n=8
                four_class.append((k, lp, perm))
        else:
            want = ordering.frame_order_score(lp, perm)
        if not math.isclose(got["score"], want, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"line {k}: score {got['score']}, permutation scores {want}")
    rng = random.Random(seed)
    for k, lp, perm in rng.sample(four_class, min(3, len(four_class))):
        best, _ = oracles.brute_force_best_permutation(lp)
        if list(best) != perm:
            problems.append(f"line {k}: permutation {perm}, oracle gives {list(best)}")
    return problems[:MAX_PROBLEMS]
