import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import levenshtein_recursive
from vidtext._kernels import (
    alignment_fill_py,
    encode_words,
    levenshtein_codes_py,
    pair_cost_matrix_py,
)
from vidtext import _kernels

words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=0, max_size=8
)


def _codes(s: str) -> np.ndarray:
    return np.array([ord(c) for c in s], dtype=np.int32)


@given(words, words)
@settings(max_examples=200)
def test_levenshtein_matches_recursive_oracle(a, b):
    assert levenshtein_codes_py(_codes(a), _codes(b)) == levenshtein_recursive(a, b)


@given(words, words)
def test_levenshtein_symmetry(a, b):
    assert levenshtein_codes_py(_codes(a), _codes(b)) == levenshtein_codes_py(
        _codes(b), _codes(a)
    )


@given(words)
def test_levenshtein_identity(a):
    assert levenshtein_codes_py(_codes(a), _codes(a)) == 0


@given(words, words, words)
@settings(max_examples=100)
def test_levenshtein_triangle_inequality(a, b, c):
    ab = levenshtein_codes_py(_codes(a), _codes(b))
    bc = levenshtein_codes_py(_codes(b), _codes(c))
    ac = levenshtein_codes_py(_codes(a), _codes(c))
    assert ac <= ab + bc


def test_encode_words_offsets():
    flat, offsets = encode_words(["ab", "", "xyz", "café", "日本", "😀"])
    assert offsets.tolist() == [0, 2, 2, 5, 9, 11, 12]
    assert flat.tolist() == [ord(c) for c in "abxyzcafé日本😀"]
    assert (flat.dtype, offsets.dtype) == (np.int32, np.int64)
    empty, offsets = encode_words([])
    assert (empty.tolist(), empty.dtype, offsets.tolist()) == ([], np.int32, [0])


def test_pair_cost_matrix_cells():
    a_flat, a_off = encode_words(["cat", "dog"])
    b_flat, b_off = encode_words(["cast", "dig", "dog"])
    cost = pair_cost_matrix_py(a_flat, a_off, b_flat, b_off)
    expected = [
        [levenshtein_recursive(x, y) for y in ("cast", "dig", "dog")]
        for x in ("cat", "dog")
    ]
    assert cost.tolist() == expected


def test_alignment_fill_prefers_diagonal_on_ties():
    # All-zero costs: every step is a tie, so the fill must pick the diagonal
    # move wherever one is available.
    cost = np.zeros((3, 3), dtype=np.int32)
    acc, step = alignment_fill_py(cost)
    assert acc[2, 2] == 0
    assert step[1, 1] == 0 and step[2, 2] == 0


@pytest.mark.skipif(_kernels.levenshtein_codes_nb is None, reason="numba unavailable")
@given(st.lists(words, min_size=1, max_size=5), st.lists(words, min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_numba_and_python_bit_identical(noisy, clean):
    a_flat, a_off = encode_words(noisy)
    b_flat, b_off = encode_words(clean)
    cost_py = pair_cost_matrix_py(a_flat, a_off, b_flat, b_off)
    cost_nb = _kernels.pair_cost_matrix_nb(a_flat, a_off, b_flat, b_off)
    np.testing.assert_array_equal(cost_py, cost_nb)
    acc_py, step_py = alignment_fill_py(cost_py)
    acc_nb, step_nb = _kernels.alignment_fill_nb(cost_nb)
    np.testing.assert_array_equal(acc_py, acc_nb)
    np.testing.assert_array_equal(step_py, step_nb)
