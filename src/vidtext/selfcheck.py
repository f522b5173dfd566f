"""Built-in release checks runnable from the CLI without test infrastructure.

Each check recomputes its expectation from scratch (brute force or finite
differences) rather than trusting the library path it exercises.  ``tau``
and ``patch`` are taken as raw values, not validated config, so a
misconfigured build fails here with a readable diagnostic instead of an
import-time crash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .align import dtw_align, levenshtein
from .config import PipelineConfig
from .losses import contrastive_loss, l2_normalize
from .ordering import hungarian_match
from .segmenting import sequence_shape

_EXPECTED_DEFAULT_SHAPE = (66, 67, 396, 512)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_shape(patch: int) -> CheckResult:
    name = "shape-arithmetic"
    try:
        shape = sequence_shape(PipelineConfig(patch=patch))
    except ValueError as e:
        return CheckResult(name, False, str(e))
    got = (
        shape.cells_per_frame,
        shape.visual_tokens_per_frame,
        shape.joint_sequence_length,
        shape.language_only_length,
    )
    if patch == 16 and got != _EXPECTED_DEFAULT_SHAPE:
        return CheckResult(
            name, False, f"default shape {got}, expected {_EXPECTED_DEFAULT_SHAPE}"
        )
    return CheckResult(name, True, f"cells/visual/joint/language = {got}")


def _check_contrastive_gradients(tau: float, trials: int = 3) -> CheckResult:
    name = "contrastive-gradient"
    rng = np.random.default_rng(2024)
    h = 1e-5
    worst = 0.0
    for _ in range(trials):
        b = int(rng.integers(2, 7))
        d = int(rng.integers(4, 13))
        frames = l2_normalize(rng.standard_normal((b, d)))
        captions = l2_normalize(rng.standard_normal((b, d)))
        try:
            report = contrastive_loss(frames, captions, tau=tau, want_grads=True)
        except ValueError as e:
            return CheckResult(name, False, str(e))
        for key, mat in (("frames", frames), ("captions", captions)):
            grad = report.gradients[key]
            for r in range(b):
                for c in range(d):
                    bump = np.zeros_like(mat)
                    bump[r, c] = h
                    up = contrastive_loss(
                        mat + bump if key == "frames" else frames,
                        captions if key == "frames" else mat + bump,
                        tau=tau,
                        norm_tol=1e-3,
                    ).value
                    down = contrastive_loss(
                        mat - bump if key == "frames" else frames,
                        captions if key == "frames" else mat - bump,
                        tau=tau,
                        norm_tol=1e-3,
                    ).value
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(grad[r, c]), 1e-8)
                    worst = max(worst, abs(fd - grad[r, c]) / denom)
    if worst > 1e-4:
        return CheckResult(name, False, f"worst relative gradient error {worst:.3g}")
    return CheckResult(name, True, f"worst relative gradient error {worst:.3g}")


def _brute_force_assignment(sim: np.ndarray) -> float:
    n, m = sim.shape
    if n > m:
        return _brute_force_assignment(sim.T)
    best = -np.inf
    for cols in itertools.permutations(range(m), n):
        best = max(best, sum(sim[i, c] for i, c in enumerate(cols)))
    return float(best)


def _check_hungarian(trials: int = 60) -> CheckResult:
    name = "hungarian-brute-force"
    rng = np.random.default_rng(77)
    for t in range(trials):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        sim = np.round(rng.standard_normal((n, m)) * 4, 2)
        pairs, total = hungarian_match(sim)
        expect = _brute_force_assignment(sim)
        if abs(total - expect) > 1e-9:
            return CheckResult(
                name, False, f"trial {t}: got {total}, brute force {expect}"
            )
        if len({r for r, _ in pairs}) != len(pairs) or len(
            {c for _, c in pairs}
        ) != len(pairs):
            return CheckResult(name, False, f"trial {t}: assignment not one-to-one")
    return CheckResult(name, True, f"{trials} random matrices matched brute force")


def _exhaustive_alignment_cost(noisy: tuple[str, ...], clean: tuple[str, ...]) -> int:
    """Minimum pair-cost sum over all monotone full-coverage alignments."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        cost = levenshtein(noisy[i], clean[j])
        if i == 0 and j == 0:
            return cost
        options = []
        if i > 0 and j > 0:
            options.append(go(i - 1, j - 1))
        if j > 0:
            options.append(go(i, j - 1))
        if i > 0:
            options.append(go(i - 1, j))
        return cost + min(options)

    return go(len(noisy) - 1, len(clean) - 1)


_WORD_POOL = ("the", "a", "cat", "cart", "sat", "sit", "mat", "hat", "on", "one")


def _check_dtw(trials: int = 40) -> CheckResult:
    name = "dtw-brute-force"
    rng = np.random.default_rng(4242)
    for t in range(trials):
        noisy = tuple(
            _WORD_POOL[int(k)]
            for k in rng.integers(0, len(_WORD_POOL), size=int(rng.integers(1, 7)))
        )
        clean = tuple(
            _WORD_POOL[int(k)]
            for k in rng.integers(0, len(_WORD_POOL), size=int(rng.integers(1, 7)))
        )
        got = dtw_align(list(noisy), list(clean)).total_cost
        expect = _exhaustive_alignment_cost(noisy, clean)
        if got != expect:
            return CheckResult(
                name,
                False,
                f"trial {t}: {noisy} vs {clean}: got {got}, exhaustive {expect}",
            )
    return CheckResult(name, True, f"{trials} random pairs matched exhaustive search")


def selfcheck(tau: float = 0.05, patch: int = 16) -> list[CheckResult]:
    """Run every embedded check; failures are entries, never exceptions."""
    return [
        _check_shape(patch),
        _check_contrastive_gradients(tau),
        _check_hungarian(),
        _check_dtw(),
    ]
