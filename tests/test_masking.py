import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidtext.masking import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    LABEL_SENTINEL,
    AttentionProfile,
    allowed_ids,
    apply_plan,
    attended_set,
    round_half_up,
    select_targets,
)


def profile(n, specials=(), seed=0):
    rng = np.random.default_rng(seed)
    return AttentionProfile(
        weights=np.abs(rng.normal(size=n)) + 1e-9,
        special_positions=frozenset(specials),
    )


def test_round_half_up_midpoints():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(0.49) == 0


def test_attended_set_matches_sort_oracle():
    prof = profile(40, specials={0, 39})
    att = attended_set(prof, top_frac=0.25)
    maskable = prof.maskable()
    expected_size = math.ceil(0.25 * len(maskable))
    ranked = sorted(maskable, key=lambda i: (-prof.weights[i], i))
    assert att == frozenset(ranked[:expected_size])


def test_attended_set_breaks_weight_ties_by_lower_index():
    prof = AttentionProfile(
        weights=np.array([1.0, 1.0, 1.0, 1.0]), special_positions=frozenset()
    )
    assert attended_set(prof, top_frac=0.5) == frozenset({0, 1})


def test_seed_count_is_round_half_up_of_rate():
    prof = profile(27, specials={0})  # 26 maskable, rate 0.2 -> 5.2 -> 5
    plan = select_targets(27, prof, np.random.default_rng(0), rate=0.2, span_mean=0.0)
    assert len(plan.seeds) == 5


def test_same_rng_state_reproduces_plan():
    prof = profile(60, specials={0, 59})
    p1 = select_targets(60, prof, np.random.default_rng(123))
    p2 = select_targets(60, prof, np.random.default_rng(123))
    assert p1 == p2


def test_specials_never_targeted():
    specials = {0, 10, 20, 30, 49}
    prof = profile(50, specials=specials)
    for seed in range(20):
        plan = select_targets(50, prof, np.random.default_rng(seed), rate=0.4)
        assert not (set(plan.targets) & specials)


def test_extensions_are_contiguous_with_seed():
    prof = profile(80)
    plan = select_targets(80, prof, np.random.default_rng(5), span_mean=2.0)
    covered = set(plan.targets)
    for seed_pos, (left, right) in zip(plan.seeds, plan.extensions):
        # The realized span around each seed is an unbroken run.
        lo = seed_pos
        while lo - 1 in covered and seed_pos - lo < left:
            lo -= 1
        hi = seed_pos
        while hi + 1 in covered and hi - seed_pos < right:
            hi += 1
        for p in range(lo, hi + 1):
            assert p in covered


def test_extension_lengths_recorded_before_clipping():
    # A one-token sequence cannot extend, but the drawn lengths must still
    # be whatever the geometric sampler produced (possibly nonzero).
    prof = AttentionProfile(weights=np.ones(1), special_positions=frozenset())
    plan = select_targets(1, prof, np.random.default_rng(9), rate=1.0, span_mean=5.0)
    assert plan.seeds == (0,)
    assert set(plan.targets) == {0}
    left, right = plan.extensions[0]
    assert left >= 0 and right >= 0


def test_actions_inherited_by_extension_positions():
    prof = profile(100)
    plan = select_targets(100, prof, np.random.default_rng(11), span_mean=3.0)
    covered = set(plan.targets)
    for seed_pos, action, (left, right) in zip(
        plan.seeds, plan.seed_actions, plan.extensions
    ):
        for p in range(seed_pos - left, seed_pos + right + 1):
            if p in covered and p in plan.actions:
                if plan.actions[p] != action:
                    # Another seed claimed this position first.
                    assert p in plan.seeds or any(
                        s != seed_pos for s in plan.seeds
                    )


def test_zero_span_mean_means_no_extensions():
    prof = profile(50)
    plan = select_targets(50, prof, np.random.default_rng(3), span_mean=0.0)
    assert all(ext == (0, 0) for ext in plan.extensions)
    assert set(plan.targets) == set(plan.seeds)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_plan_targets_within_bounds_and_distinct(seed):
    n = 64
    prof = profile(n, specials={0, 1, 62, 63}, seed=1)
    plan = select_targets(n, prof, np.random.default_rng(seed), span_mean=1.0)
    targets = plan.targets
    assert len(set(targets)) == len(targets)
    assert all(2 <= t <= 61 for t in targets)


def test_apply_plan_masks_randomizes_and_keeps():
    n = 200
    prof = profile(n)
    rng = np.random.default_rng(21)
    plan = select_targets(n, prof, rng, rate=0.3, span_mean=0.0)
    tokens = list(range(1000, 1000 + n))
    out, labels = apply_plan(
        tokens, plan, rng, vocab_size=5000, mask_id=4999, special_ids=[0]
    )
    assert len(out) == len(labels) == n
    for pos in range(n):
        if pos in plan.actions:
            assert labels[pos] == tokens[pos]
            action = plan.actions[pos]
            if action == ACTION_MASK:
                assert out[pos] == 4999
            elif action == ACTION_KEEP:
                assert out[pos] == tokens[pos]
            else:
                assert action == ACTION_RANDOM
                assert out[pos] != 4999 or tokens[pos] == 4999
        else:
            assert labels[pos] == LABEL_SENTINEL
            assert out[pos] == tokens[pos]


def test_apply_plan_random_avoids_specials_and_mask():
    n = 64
    prof = profile(n)
    rng = np.random.default_rng(33)
    plan = select_targets(n, prof, rng, rate=0.9, span_mean=0.0)
    tokens = [7] * n
    out, _ = apply_plan(
        tokens, plan, rng, vocab_size=10, mask_id=9, special_ids=[0, 1, 2]
    )
    random_positions = [
        p for p, a in plan.actions.items() if a == ACTION_RANDOM
    ]
    for p in random_positions:
        assert out[p] not in {0, 1, 2}


def test_apply_plan_rejects_out_of_range_tokens():
    prof = profile(4)
    rng = np.random.default_rng(0)
    plan = select_targets(4, prof, rng, rate=0.5)
    with pytest.raises(ValueError):
        apply_plan([0, 1, 2, 99], plan, rng, vocab_size=10, mask_id=9)


def test_profile_validates_specials_in_range():
    with pytest.raises(ValueError):
        AttentionProfile(weights=np.ones(4), special_positions=frozenset({4}))
    with pytest.raises(ValueError):
        AttentionProfile(weights=-np.ones(4), special_positions=frozenset())


@given(
    st.integers(1, 300),
    st.lists(st.one_of(st.integers(-50, 400), st.integers()), max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_allowed_ids_are_the_vocabulary_minus_the_banned_ids(vocab_size, banned):
    # Banned ids outside the vocabulary are ignored.
    got = allowed_ids(vocab_size, banned)
    assert got.dtype == np.int64
    assert got.tolist() == [i for i in range(vocab_size) if i not in set(banned)]
