import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import alignment_fill_loop, levenshtein_recursive
from vidtext._kernels import (
    FILL_BLOCK,
    ROW_BLOCK,
    _type_distances,
    _word_types,
    alignment_fill,
    encode_words,
    pair_cost_matrix,
)

words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=0, max_size=8
)
# Few letters, so that words repeat and share characters; a non-BMP code
# point; and words longer than 64 code points, past any machine word.
short_words = st.text(alphabet="abé\U0001f600", max_size=6)
long_words = st.text(alphabet="ab\U0001f600", min_size=65, max_size=70)
LONG = "ab\U0001f600" * 23
# More distinct row types than one ROW_BLOCK, of every length from 0 to 70 in
# a shuffled order, some repeated.
MANY = [("ab\u00e9\U0001f600" * 18)[: (37 * k) % 71] for k in range(71)]
MANY += MANY[:5]


def _levenshtein(a: str, b: str) -> int:
    return int(pair_cost_matrix(*encode_words([a]), *encode_words([b]))[0, 0])


@st.composite
def word_lists(draw):
    """A list that draws its words from a small pool, so types repeat."""
    pool = draw(st.lists(st.one_of(short_words, short_words, long_words), min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), max_size=6))


@given(words, words)
@settings(max_examples=200)
def test_levenshtein_matches_recursive_oracle(a, b):
    assert _levenshtein(a, b) == levenshtein_recursive(a, b)


@given(words, words)
def test_levenshtein_symmetry(a, b):
    assert _levenshtein(a, b) == _levenshtein(b, a)


@given(words)
def test_levenshtein_identity(a):
    assert _levenshtein(a, a) == 0


@given(words, words, words)
@settings(max_examples=100)
def test_levenshtein_triangle_inequality(a, b, c):
    assert _levenshtein(a, c) <= _levenshtein(a, b) + _levenshtein(b, c)


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
    cost = pair_cost_matrix(a_flat, a_off, b_flat, b_off)
    expected = [
        [levenshtein_recursive(x, y) for y in ("cast", "dig", "dog")]
        for x in ("cat", "dog")
    ]
    assert cost.tolist() == expected


@given(word_lists(), word_lists())
@example([LONG, "", "a", LONG], ["ab", LONG + "a", "", "ab"])
@example(MANY, ["", "b\U0001f600", LONG, "\u00e9ab"])
@settings(max_examples=100, deadline=None)
def test_pair_cost_matrix_matches_recursive_oracle(noisy, clean):
    cost = pair_cost_matrix(*encode_words(noisy), *encode_words(clean))
    expected = [[levenshtein_recursive(a, b) for b in clean] for a in noisy]
    assert cost.shape == (len(noisy), len(clean))
    assert cost.tolist() == expected


def test_type_distances_in_int64_equal_int32():
    # pair_cost_matrix takes int64 only when the offsets outgrow int32.
    assert len(set(MANY)) > ROW_BLOCK
    a_types, _ = _word_types(*encode_words(MANY))
    b_types, _ = _word_types(*encode_words(["", "b\U0001f600", LONG, "\u00e9ab", "a"]))
    wide = _type_distances(a_types, b_types, np.int64)
    np.testing.assert_array_equal(wide, _type_distances(a_types, b_types, np.int32))
    assert wide.dtype == np.int32


def test_kernel_dtypes():
    cost = pair_cost_matrix(*encode_words(["ab", "c"]), *encode_words(["abc"]))
    acc, step = alignment_fill(cost)
    assert (cost.dtype, acc.dtype, step.dtype) == (np.int32, np.int64, np.int8)
    empty = pair_cost_matrix(*encode_words([]), *encode_words(["a"]))
    assert (empty.shape, empty.dtype) == ((0, 1), np.int32)


def test_alignment_fill_prefers_diagonal_on_ties():
    # All-zero costs: every step is a tie, so the fill must pick the diagonal
    # move wherever one is available.
    cost = np.zeros((3, 3), dtype=np.int32)
    acc, step = alignment_fill(cost)
    assert acc[2, 2] == 0
    assert step[1, 1] == 0 and step[2, 2] == 0


def _random_costs(seed, n, m):
    """Seeded {0, 1} costs, with many ties."""
    return np.random.default_rng(seed).integers(0, 2, size=(n, m), dtype=np.int32)


@st.composite
def cost_matrices(draw):
    """Costs of 1-8 x 1-8 cells; {0, 1} costs make most predecessors tie."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    top = draw(st.sampled_from([1, 9]))
    values = draw(st.lists(st.integers(0, top), min_size=n * m, max_size=n * m))
    return np.array(values, dtype=np.int32).reshape(n, m)


@given(cost_matrices())
@example(np.array([[3]], dtype=np.int32))
@example(np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=np.int32))
@example(np.array([[1], [0], [1], [1], [0], [0], [1]], dtype=np.int32))
# More rows than one block of FILL_BLOCK cells, as n x m, 1 x m and n x 1.
@example(_random_costs(1, FILL_BLOCK // 500 + 9, 500))
@example(_random_costs(2, 1, FILL_BLOCK + 9))
@example(_random_costs(3, FILL_BLOCK + 9, 1))
@settings(max_examples=300)
def test_alignment_fill_matches_loop_oracle(cost):
    acc, step = alignment_fill(cost)
    acc_loop, step_loop = alignment_fill_loop(cost)
    np.testing.assert_array_equal(acc, acc_loop)
    np.testing.assert_array_equal(step, step_loop)
