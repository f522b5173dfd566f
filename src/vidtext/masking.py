"""Attention-guided span mask planning and application.

Planning happens in three deterministic phases driven by one generator:

1. seed selection: ``round(rate * maskable)`` distinct positions, each drawn
   either from the most-attended set (probability ``attended_share``) or
   uniformly from all maskable positions;
2. span extension: per seed, an independent geometric length in each
   direction (mean ``span_mean``); the walk stops at sequence bounds and at
   special positions, so spans stay contiguous;
3. action assignment: one draw per seed over mask/random/keep, inherited by
   that seed's extension positions.

Earlier seeds win conflicts, so a position extended into by one span and
seeded by a later draw keeps the earlier action.  Special positions are
never targeted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

ACTION_MASK = "mask_token"
ACTION_RANDOM = "random_token"
ACTION_KEEP = "keep"
_ACTIONS = (ACTION_MASK, ACTION_RANDOM, ACTION_KEEP)
_ACTION_PROBS = (0.8, 0.1, 0.1)  # the chance of each action, in _ACTIONS order

LABEL_SENTINEL = -100


@dataclass(frozen=True)
class AttentionProfile:
    """Per-position attention mass plus the positions masking must avoid."""

    weights: np.ndarray
    special_positions: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError(f"weights must be one-dimensional, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("attention weights must be finite")
        if w.size and w.min() < 0:
            raise ValueError("attention weights must be non-negative")
        object.__setattr__(self, "weights", w)
        specials = frozenset(int(i) for i in self.special_positions)
        for i in specials:
            if not 0 <= i < w.size:
                raise ValueError(f"special position {i} outside 0..{w.size - 1}")
        object.__setattr__(self, "special_positions", specials)

    def __len__(self) -> int:
        return int(self.weights.size)

    def maskable(self) -> list[int]:
        return [i for i in range(len(self)) if i not in self.special_positions]


@dataclass(frozen=True)
class MaskPlan:
    """Chosen positions with their actions, plus the draws that produced them."""

    actions: Mapping[int, str]  # position -> action, extensions included
    seeds: tuple[int, ...]  # in draw order
    seed_from_attended: tuple[bool, ...]  # which branch produced each seed
    seed_actions: tuple[str, ...]
    extensions: tuple[tuple[int, int], ...]  # drawn (left, right) per seed, unclipped

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "actions", {int(k): v for k, v in dict(self.actions).items()}
        )
        for pos, action in self.actions.items():
            if action not in _ACTIONS:
                raise ValueError(f"position {pos}: unknown action {action!r}")
        if not (
            len(self.seeds)
            == len(self.seed_from_attended)
            == len(self.seed_actions)
            == len(self.extensions)
        ):
            raise ValueError("per-seed fields must have equal lengths")

    @property
    def targets(self) -> frozenset[int]:
        return frozenset(self.actions)


def round_half_up(x: float) -> int:
    """Round with .5 going up, independent of the platform rounding mode."""
    return int(math.floor(x + 0.5))


def attended_set(profile: AttentionProfile, top_frac: float = 0.20) -> set[int]:
    """The most-attended maskable positions, ties broken by lower index."""
    maskable = profile.maskable()
    if not maskable:
        raise ValueError("attended_set requires at least one maskable position")
    if not 0.0 <= top_frac <= 1.0:
        raise ValueError(f"top_frac must be within [0, 1], got {top_frac}")
    k = math.ceil(top_frac * len(maskable))
    ranked = sorted(maskable, key=lambda i: (-profile.weights[i], i))
    return set(ranked[:k])


class _Pool:
    """Uniform without-replacement draws by rejection, compacting when sparse."""

    def __init__(self, items: Sequence[int]) -> None:
        self.items = list(items)
        self.free = len(self.items)

    def draw(self, rng: np.random.Generator, chosen: set[int]) -> int | None:
        if self.free == 0:
            return None
        if self.free * 8 < len(self.items):
            self.items = [p for p in self.items if p not in chosen]
        while True:
            cand = self.items[int(rng.integers(0, len(self.items)))]
            if cand not in chosen:
                return cand


def select_targets(
    n_tokens: int,
    profile: AttentionProfile,
    rng: np.random.Generator,
    rate: float = 0.20,
    attended_share: float = 0.50,
    span_mean: float = 0.5,
    top_frac: float = 0.20,
) -> MaskPlan:
    """Plan which positions get corrupted and how.

    ``span_mean`` is the expected extension length per direction; the
    geometric parameter follows from it.  Each seed's span gets the mask,
    random or keep action with probability 0.8, 0.1 or 0.1.
    """
    if n_tokens < 1:
        raise ValueError(f"n_tokens must be at least 1, got {n_tokens}")
    if len(profile) != n_tokens:
        raise ValueError(
            f"profile covers {len(profile)} positions but the sequence has {n_tokens}"
        )
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be within [0, 1], got {rate}")
    if not 0.0 <= attended_share <= 1.0:
        raise ValueError(f"attended_share must be within [0, 1], got {attended_share}")
    if span_mean < 0.0:
        raise ValueError(f"span_mean must be non-negative, got {span_mean}")

    maskable = profile.maskable()
    specials = profile.special_positions
    n_seeds = round_half_up(rate * len(maskable)) if maskable else 0
    empty: tuple = ()
    if n_seeds == 0:
        return MaskPlan({}, empty, empty, empty, empty)

    attended = sorted(attended_set(profile, top_frac))
    att_members = set(attended)
    att_pool = _Pool(attended)
    all_pool = _Pool(maskable)
    chosen: set[int] = set()
    seeds: list[int] = []
    from_attended: list[bool] = []
    for _ in range(n_seeds):
        use_attended = bool(rng.random() < attended_share)
        primary, secondary = (
            (att_pool, all_pool) if use_attended else (all_pool, att_pool)
        )
        pos = primary.draw(rng, chosen)
        if pos is None:
            pos = secondary.draw(rng, chosen)
        if pos is None:
            break
        chosen.add(pos)
        all_pool.free -= 1
        if pos in att_members:
            att_pool.free -= 1
        seeds.append(pos)
        from_attended.append(use_attended)

    # Geometric with mean m per direction: success probability 1/(1+m),
    # numpy counts the success itself so one is subtracted.
    succ = 1.0 / (1.0 + span_mean)
    extensions: list[tuple[int, int]] = []
    spans: list[list[int]] = []
    for seed in seeds:
        left = int(rng.geometric(succ)) - 1
        right = int(rng.geometric(succ)) - 1
        extensions.append((left, right))
        span = []
        for step in range(1, left + 1):
            pos = seed - step
            if pos < 0 or pos in specials:
                break
            span.append(pos)
        for step in range(1, right + 1):
            pos = seed + step
            if pos >= n_tokens or pos in specials:
                break
            span.append(pos)
        spans.append(span)

    cut = np.cumsum(_ACTION_PROBS)
    seed_actions: list[str] = []
    for _ in seeds:
        u = rng.random()
        seed_actions.append(_ACTIONS[int(np.searchsorted(cut, u, side="right"))])

    actions: dict[int, str] = {}
    for seed, span, action in zip(seeds, spans, seed_actions):
        actions.setdefault(seed, action)
        for pos in span:
            actions.setdefault(pos, action)

    return MaskPlan(
        actions=actions,
        seeds=tuple(seeds),
        seed_from_attended=tuple(from_attended),
        seed_actions=tuple(seed_actions),
        extensions=tuple(extensions),
    )


def check_vocabulary(vocab_size: int, mask_id: int) -> None:
    """Raise ``ValueError`` unless the vocabulary is non-empty and holds the mask id."""
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be positive, got {vocab_size}")
    if not 0 <= mask_id < vocab_size:
        raise ValueError(f"mask_id {mask_id} outside vocabulary of {vocab_size}")


def allowed_ids(vocab_size: int, banned: Iterable[int]) -> np.ndarray:
    """The ids ``0 .. vocab_size - 1`` not in ``banned``, in order, as int64;
    a banned id outside the vocabulary is ignored."""
    keep = np.ones(max(vocab_size, 0), dtype=bool)
    keep[[i for i in banned if 0 <= i < vocab_size]] = False
    return np.flatnonzero(keep).astype(np.int64, copy=False)


def apply_plan(
    tokens: Sequence[int],
    plan: MaskPlan,
    rng: np.random.Generator,
    vocab_size: int,
    mask_id: int,
    special_ids: Sequence[int] = (),
) -> tuple[list[int], list[int]]:
    """Corrupt ``tokens`` per plan; labels keep originals at target positions.

    Random replacements draw uniformly from the vocabulary minus
    ``special_ids`` and the mask id.  Positions outside the plan pass through
    untouched and get the sentinel label.
    """
    check_vocabulary(vocab_size, mask_id)
    n = len(tokens)
    for pos, tok in enumerate(tokens):
        if not 0 <= int(tok) < vocab_size:
            raise ValueError(
                f"token {tok} at position {pos} outside vocabulary of {vocab_size}"
            )
    for pos in plan.actions:
        if not 0 <= pos < n:
            raise ValueError(f"plan target {pos} outside sequence of {n} tokens")
    banned = set(int(i) for i in special_ids) | {int(mask_id)}
    allowed: np.ndarray | None = None
    out = [int(t) for t in tokens]
    labels = [LABEL_SENTINEL] * n
    for pos in sorted(plan.actions):
        action = plan.actions[pos]
        labels[pos] = out[pos]
        if action == ACTION_MASK:
            out[pos] = mask_id
        elif action == ACTION_RANDOM:
            if allowed is None:
                allowed = allowed_ids(vocab_size, banned)
                if allowed.size == 0:
                    raise ValueError("no non-special ids available for random tokens")
            out[pos] = int(allowed[int(rng.integers(0, allowed.size))])
    return out, labels
