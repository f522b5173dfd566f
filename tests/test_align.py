import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    STEP_BOTH,
    STEP_COL,
    alignment_fill_loop,
    exhaustive_alignment_cost,
    levenshtein_recursive,
)
from vidtext._kernels import FILL_BLOCK, ROW_BLOCK
from vidtext.align import Alignment, align_and_time, dtw_align, levenshtein, transfer_timing
from vidtext.model import round_ms

word = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6
)


def test_levenshtein_frozen_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("same", "same") == 0


def test_one_noisy_two_clean_covers_both():
    alignment = dtw_align(["hi"], ["hi", "there"])
    assert alignment.pairs == ((0, 0), (0, 1))
    assert alignment.total_cost == levenshtein_recursive("hi", "there")


def test_identical_lists_align_on_diagonal_at_zero_cost():
    words = ["alpha", "beta", "gamma"]
    alignment = dtw_align(words, words)
    assert alignment.pairs == ((0, 0), (1, 1), (2, 2))
    assert alignment.total_cost == 0


def test_alignment_rejects_empty_side():
    with pytest.raises(ValueError):
        dtw_align([], ["a"])
    with pytest.raises(ValueError):
        dtw_align(["a"], [])


@given(st.lists(word, min_size=1, max_size=6), st.lists(word, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_alignment_cost_matches_exhaustive_search(noisy, clean):
    alignment = dtw_align(noisy, clean)
    assert alignment.total_cost == exhaustive_alignment_cost(noisy, clean)
    # Reported cost equals the sum over the reported path.
    path_cost = sum(levenshtein(noisy[i], clean[j]) for i, j in alignment.pairs)
    assert path_cost == alignment.total_cost


def _loop_path(noisy, clean):
    """The alignment path and its cost from per-cell oracles and the same backtrack."""
    pair = {(a, b): levenshtein_recursive(a, b) for a in set(noisy) for b in set(clean)}
    cost = np.array([[pair[a, b] for b in clean] for a in noisy])
    acc, step = alignment_fill_loop(cost)
    i, j = len(noisy) - 1, len(clean) - 1
    rev = [(i, j)]
    while (i, j) != (0, 0):
        if step[i, j] == STEP_BOTH:
            i, j = i - 1, j - 1
        elif step[i, j] == STEP_COL:
            j -= 1
        else:
            i -= 1
        rev.append((i, j))
    return tuple(reversed(rev)), int(acc[-1, -1])


@given(
    st.lists(st.sampled_from(["a", "ab", "b", "ba", "abc"]), min_size=1, max_size=8),
    st.lists(st.sampled_from(["a", "ab", "b", "ba", "abc"]), min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_alignment_pairs_match_loop_oracle(noisy, clean):
    # Short words from a small pool make many tied paths, so the pairs
    # check the tie order, which the total cost alone does not.
    assert dtw_align(noisy, clean).pairs == _loop_path(noisy, clean)[0]


def _zipf_pair(seed, words):
    """A clean word list drawn Zipf-like from a small vocabulary, and a noisy
    copy with words dropped, edited and inserted."""
    rng = np.random.default_rng(seed)
    letters = list("abcde\u00e9\U0001f600")
    vocab = ["".join(rng.choice(letters, size=rng.integers(1, 10))) for _ in range(500)]
    clean = [vocab[(k - 1) % len(vocab)] for k in rng.zipf(1.2, size=words)]
    noisy = []
    for w in clean:
        r = rng.random()
        if r >= 0.08:  # else dropped
            noisy.append(w[1:] + "x" if r < 0.23 else w)
        if rng.random() < 0.08:
            noisy.append(vocab[rng.integers(len(vocab))])
    return noisy, clean


def test_a_long_zipf_pair_matches_the_composed_oracles():
    noisy, clean = _zipf_pair(7, 300)
    # Past one block of row types in the pair-cost kernel and one block of
    # rows in the fill.
    assert len(set(noisy)) > ROW_BLOCK and len(noisy) > FILL_BLOCK // len(clean)
    alignment = dtw_align(noisy, clean)
    assert (alignment.pairs, alignment.total_cost) == _loop_path(noisy, clean)


@given(st.lists(word, min_size=1, max_size=6), st.lists(word, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_alignment_path_is_monotone_and_covers_everything(noisy, clean):
    alignment = dtw_align(noisy, clean)
    pairs = alignment.pairs
    assert pairs[0] == (0, 0)
    assert pairs[-1] == (len(noisy) - 1, len(clean) - 1)
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        assert (i1 - i0, j1 - j0) in {(1, 1), (0, 1), (1, 0)}
    assert {i for i, _ in pairs} == set(range(len(noisy)))
    assert {j for _, j in pairs} == set(range(len(clean)))


def _timed(texts, step=1.0):
    """``WORD_COLUMNS`` columns of ``texts``, one word per ``step`` seconds, each 0.5 s long."""
    return [list(texts), [k * step for k in range(len(texts))], [k * step + 0.5 for k in range(len(texts))]]


def test_transfer_timing_averages_multiple_noisy_words():
    texts, starts, ends = _timed(["aa", "bb"])
    clean = ["ab"]
    alignment = dtw_align(texts, clean)
    assert alignment.pairs == ((0, 0), (1, 0))
    timed = transfer_timing(alignment, starts, ends, clean)
    assert timed[0] == ["ab"]
    assert timed[1][0] == pytest.approx((0.0 + 1.0) / 2)
    assert timed[2][0] == pytest.approx((0.5 + 1.5) / 2)


def test_transfer_timing_sums_left_to_right():
    # A compensated sum (Python 3.12's sum) gives 95.0105 exactly, which rounds to 95.01.
    starts = [95.474, 95.014, 95.99, 93.564]
    alignment = Alignment(pairs=tuple((k, 0) for k in range(len(starts))), total_cost=0)
    total = 0.0
    for s in starts:
        total += s
    _, (start_s,), _ = transfer_timing(alignment, starts, [s + 1.0 for s in starts], ["w"])
    assert start_s == round_ms(total / len(starts)) == 95.011


def test_transfer_timing_single_matches_copy_spans():
    alignment, (_, starts, ends) = align_and_time(_timed(["hello", "world"]), ["hello", "world"])
    assert list(zip(starts, ends)) == [(0.0, 0.5), (1.0, 1.5)]


@given(st.lists(word, min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_transfer_timing_preserves_clean_word_count(texts):
    clean = texts[::-1]
    _, (timed_texts, starts, ends) = align_and_time(_timed(texts), clean)
    assert timed_texts == clean
    for start_s, end_s in zip(starts, ends):
        assert end_s > start_s or (end_s == start_s)


def test_cost_is_symmetric_in_word_lists():
    a, b = ["abc", "de", "fgh"], ["ab", "def"]
    assert dtw_align(a, b).total_cost == dtw_align(b, a).total_cost
