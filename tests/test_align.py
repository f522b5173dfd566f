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
from vidtext.align import align_and_time, dtw_align, levenshtein, transfer_timing
from vidtext.model import TimedWord

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
    """The alignment path from per-cell oracles and the same backtrack."""
    cost = np.array([[levenshtein_recursive(a, b) for b in clean] for a in noisy])
    _, step = alignment_fill_loop(cost)
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
    return tuple(reversed(rev))


@given(
    st.lists(st.sampled_from(["a", "ab", "b", "ba", "abc"]), min_size=1, max_size=8),
    st.lists(st.sampled_from(["a", "ab", "b", "ba", "abc"]), min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_alignment_pairs_match_loop_oracle(noisy, clean):
    # Short words from a small pool make many tied paths, so the pairs
    # check the tie order, which the total cost alone does not.
    assert dtw_align(noisy, clean).pairs == _loop_path(noisy, clean)


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
    out = []
    for k, t in enumerate(texts):
        out.append(TimedWord(text=t, start_s=k * step, end_s=k * step + 0.5))
    return out


def test_transfer_timing_averages_multiple_noisy_words():
    noisy = _timed(["aa", "bb"])
    clean = ["ab"]
    alignment = dtw_align([w.text for w in noisy], clean)
    assert alignment.pairs == ((0, 0), (1, 0))
    timed = transfer_timing(alignment, noisy, clean)
    assert timed[0].text == "ab"
    assert timed[0].start_s == pytest.approx((0.0 + 1.0) / 2)
    assert timed[0].end_s == pytest.approx((0.5 + 1.5) / 2)


def test_transfer_timing_single_matches_copy_spans():
    noisy = _timed(["hello", "world"])
    alignment, timed = align_and_time(noisy, ["hello", "world"])
    assert [(w.start_s, w.end_s) for w in timed] == [(0.0, 0.5), (1.0, 1.5)]


@given(st.lists(word, min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_transfer_timing_preserves_clean_word_count(texts):
    noisy = _timed(texts)
    clean = texts[::-1]
    _, timed = align_and_time(noisy, clean)
    assert [w.text for w in timed] == clean
    for w in timed:
        assert w.end_s > w.start_s or (w.end_s == w.start_s)


def test_cost_is_symmetric_in_word_lists():
    a, b = ["abc", "de", "fgh"], ["ab", "def"]
    assert dtw_align(a, b).total_cost == dtw_align(b, a).total_cost
