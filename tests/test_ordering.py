import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from oracles import (
    brute_force_assignment,
    brute_force_best_permutation,
    brute_force_frame_ordering,
    pairwise_accuracy_reference,
    relation_table_score,
    resolve_per_cell_match,
    resolve_per_slot_frame_ordering,
    smallest_near_best,
    spearman_reference,
)
from vidtext.ordering import (
    CLASS_AFTER,
    CLASS_BEFORE,
    CLASS_DIFFERENT,
    CLASS_SAME,
    MAX_FRAMES,
    PairwiseRelationTable,
    StoryEvalReport,
    best_frame_ordering,
    best_ordering,
    check_permutation,
    evaluate_story_set,
    frame_order_score,
    hungarian_match,
    score_permutation,
    spearman_positions,
    story_metrics,
)


def random_table(rng, n):
    """A normalized random table (softmax over the class axis)."""
    raw = rng.normal(size=(n, n, 4))
    lp = raw - np.log(np.exp(raw).sum(axis=2, keepdims=True))
    return PairwiseRelationTable(lp)


def logit_table(rng, n, classes, kind):
    """Log-softmax over the class axis of random, all-equal or rounded logits;
    the last two make many permutations tie."""
    raw = rng.normal(size=(n, n, classes))
    if kind == "equal":
        raw = np.zeros_like(raw)
    elif kind == "rounded":
        raw = np.round(raw)
    return raw - np.log(np.exp(raw).sum(axis=2, keepdims=True))


def consistent_two_way(truth):
    """A 2-way table whose every pair prefers the order of ``truth``."""
    n = len(truth)
    lp = np.zeros((n, n, 2))
    for i, j in itertools.permutations(range(n), 2):
        if truth[i] < truth[j]:
            lp[i, j] = [math.log(0.9), math.log(0.1)]
        else:
            lp[i, j] = [math.log(0.1), math.log(0.9)]
    return lp


TABLE_KINDS = st.sampled_from(("random", "equal", "rounded"))


def test_relation_class_cases():
    # The oracle table of the identity order puts its mass on each cell's class.
    classes = PairwiseRelationTable.oracle_from_order((0, 1, 2, 3)).log_probs.argmax(axis=2)
    assert classes[2, 2] == CLASS_SAME
    assert classes[1, 3] == CLASS_BEFORE
    assert classes[3, 1] == CLASS_AFTER
    assert CLASS_DIFFERENT == 3


def test_check_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        check_permutation([0, 0, 1], 3)
    with pytest.raises(ValueError):
        check_permutation([0, 1], 3)


def test_score_matches_cell_sum():
    rng = np.random.default_rng(0)
    table = random_table(rng, 4)
    sigma = (2, 0, 3, 1)
    total = relation_table_score(table.log_probs, sigma)
    assert score_permutation(table, sigma) == pytest.approx(total, rel=1e-12)


@given(st.integers(min_value=1, max_value=6), TABLE_KINDS, st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_best_ordering_matches_brute_force(n, kind, seed):
    table = PairwiseRelationTable(logit_table(np.random.default_rng(seed), n, 4, kind))
    got_perm, got_score = best_ordering(table)
    assert got_score == score_permutation(table, got_perm)
    exp_perm, exp_score = brute_force_best_permutation(table.log_probs)
    assert got_score == pytest.approx(exp_score, rel=1e-10)
    if kind == "rounded":
        # Permutations tied in exact arithmetic differ by float rounding in
        # the oracle's sum, so its first maximum is not the tie rule's pick.
        exp_perm, _ = smallest_near_best(n, lambda p: relation_table_score(table.log_probs, p))
    assert got_perm == exp_perm


def test_best_ordering_tie_break_is_lexicographic():
    perm, _ = best_ordering(PairwiseRelationTable.uniform(4))
    assert perm == (0, 1, 2, 3)


def test_shift_invariance_of_argmax():
    # Adding a per-cell constant across all four classes shifts every
    # permutation's score equally, so the winner cannot change.
    rng = np.random.default_rng(1)
    table = random_table(rng, 4)
    shifts = rng.normal(size=(4, 4, 1))
    shifted = PairwiseRelationTable(table.log_probs + shifts)
    assert best_ordering(table)[0] == best_ordering(shifted)[0]


def test_oracle_table_recovers_truth():
    for truth in ([3, 1, 4, 0, 2], np.random.default_rng(6).permutation(12)):
        table = PairwiseRelationTable.oracle_from_order(truth, correct_mass=0.97)
        perm, _ = best_ordering(table)
        assert perm == tuple(int(x) for x in truth)


@given(st.integers(min_value=1, max_value=6), TABLE_KINDS, st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_best_frame_ordering_matches_brute_force(n, kind, seed):
    lp = logit_table(np.random.default_rng(seed), n, 2, kind)
    got_perm, got_score = best_frame_ordering(lp)
    assert got_score == frame_order_score(lp, got_perm)
    exp_perm, exp_score = brute_force_frame_ordering(lp)
    assert got_perm == exp_perm
    assert got_score == pytest.approx(exp_score, rel=1e-9, abs=1e-9)


def frame_table(rng, n, kind):
    """A 2-way ``logit_table`` of ``kind``, or for "-inf" a random one in which
    about a third of the cells rule out one of the two orders."""
    if kind != "-inf":
        return logit_table(rng, n, 2, kind)
    lp = logit_table(rng, n, 2, "random")
    one_way = np.where(rng.random((n, n, 1)) < 0.5, [0.0, -np.inf], [-np.inf, 0.0])
    ruled_out = rng.random((n, n)) < 0.3
    lp[ruled_out] = one_way[ruled_out]
    return lp


FRAME_KINDS = ("random", "rounded", "equal", "-inf")


def test_best_frame_ordering_matches_the_per_slot_resolve():
    """The search that solves once, and again only after a tied frame, picks the
    permutation and score of the one that solved again for every slot it tried."""
    for n in range(1, 13):
        for kind in FRAME_KINDS:
            for seed in range(3):
                lp = frame_table(np.random.default_rng([n, seed]), n, kind)
                assert best_frame_ordering(lp) == resolve_per_slot_frame_ordering(lp), (n, kind, seed)


@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_best_frame_ordering_matches_the_per_slot_resolve_at_16(kind):
    lp = frame_table(np.random.default_rng(16), MAX_FRAMES, kind)
    assert best_frame_ordering(lp) == resolve_per_slot_frame_ordering(lp)


def test_frame_ordering_is_bounded_at_16():
    with pytest.raises(ValueError, match="n=16, got n=17"):
        best_frame_ordering(np.zeros((17, 17, 2)))


def test_zero_probability_cells_keep_the_tie_rule():
    rng = np.random.default_rng(8)
    lp = random_table(rng, 4).log_probs
    lp[0, 1, :3] = -np.inf  # element 1 cannot sit at any slot: every permutation ties
    perm, score = best_ordering(PairwiseRelationTable(lp))
    assert perm == (0, 1, 2, 3) and score == -math.inf
    lp = random_table(rng, 4).log_probs
    lp[2, 0, CLASS_SAME] = -np.inf  # only rules out element 0 at slot 2
    perm, score = best_ordering(PairwiseRelationTable(lp))
    exp_perm, exp_score = brute_force_best_permutation(lp)
    assert perm == exp_perm and score == pytest.approx(exp_score, rel=1e-12)
    two = logit_table(rng, 4, 2, "random")
    two[1, 3] = -np.inf
    perm, score = best_frame_ordering(two)
    exp_perm, exp_score = brute_force_frame_ordering(two)
    assert perm == exp_perm and score == pytest.approx(exp_score, rel=1e-12)


def test_overflowing_slot_scores_keep_the_tie_rule():
    """Cells holding -1.7e308 make slot scores, and the floor that stands in for
    -inf ones, overflow; the best permutation is still the oracle's."""
    half, big = math.log(0.5), -1.7e308
    cells = np.array(
        [[half, half, big, big], [big, 0, big, big], [big, big, big, 0], [0, big, big, big],
         [half, big, half, big], [big, half, half, big], [big, big, 0, big]]
    )
    rng = np.random.default_rng(10)
    finite = 0
    with np.errstate(over="ignore"):
        for _ in range(400):
            n = int(rng.integers(1, 6))
            lp = cells[rng.integers(len(cells), size=(n, n))]
            perm, score = best_ordering(PairwiseRelationTable(lp))
            exp_perm, exp_score = smallest_near_best(n, lambda p: relation_table_score(lp, p))
            if exp_score == -math.inf:  # every permutation ties
                exp_perm = tuple(range(n))
            finite += math.isfinite(exp_score)
            assert perm == exp_perm and score == pytest.approx(exp_score, rel=1e-12)
    assert finite > 50


def test_frame_search_checks_its_table_as_relation_tables_are_checked():
    message = "log_probs must be (n, n, 2), got shape (2, 3, 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        best_frame_ordering(np.zeros((2, 3, 2)))
    for search in (best_frame_ordering, lambda lp: frame_order_score(lp, ())):
        with pytest.raises(ValueError, match="at least one element"):
            search(np.zeros((0, 0, 2)))


def test_from_flat_round_trip_and_validation():
    rng = np.random.default_rng(2)
    table = random_table(rng, 3)
    flat = [float(x) for x in table.log_probs.reshape(-1)]
    again = PairwiseRelationTable.from_flat(3, flat)
    np.testing.assert_allclose(again.log_probs, table.log_probs)
    with pytest.raises(ValueError, match="normalized"):
        PairwiseRelationTable.from_flat(2, [0.0] * 16)
    with pytest.raises(ValueError, match="expected"):
        PairwiseRelationTable.from_flat(3, flat[:-1])


def test_validate_flags_worst_cell():
    lp = np.full((2, 2, 4), math.log(0.25))
    lp[1, 0, :] = 0.0  # mass e^0 * 4 = 4, wildly unnormalized
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        PairwiseRelationTable(lp).validate()


def test_frame_order_score_sums_directed_pairs():
    rng = np.random.default_rng(4)
    lp = rng.normal(size=(3, 3, 2))
    lp -= np.log(np.exp(lp).sum(axis=2, keepdims=True))
    sigma = (2, 0, 1)
    expected = 0.0
    for i, j in itertools.permutations(range(3), 2):
        expected += lp[i, j, 0 if sigma[i] < sigma[j] else 1]
    assert frame_order_score(lp, sigma) == pytest.approx(expected, rel=1e-12)


def test_best_frame_ordering_recovers_consistent_table():
    largest = tuple(int(x) for x in np.random.default_rng(7).permutation(MAX_FRAMES))
    for truth in ((1, 2, 0), largest):
        perm, _ = best_frame_ordering(consistent_two_way(truth))
        assert perm == truth


# ---------------------------------------------------------------------------
# assignment baseline


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=80, deadline=None)
def test_hungarian_total_matches_brute_force(n, m, seed):
    rng = np.random.default_rng(seed)
    sim = rng.normal(size=(n, m))
    pairs, total = hungarian_match(sim)
    assert total == pytest.approx(brute_force_assignment(sim), rel=1e-9, abs=1e-9)
    assert len(pairs) == min(n, m)
    rows = [r for r, _ in pairs]
    cols = [c for _, c in pairs]
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=47),
    st.sampled_from(["random", "equal", "grid"]),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=80, deadline=None)
def test_hungarian_matches_the_per_cell_resolve_oracle(n, m, kind, seed):
    """Same pairs and total as re-solving one assignment per tried cell, on
    matrices far beyond the brute-force oracle and with many tied optima."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        sim = rng.normal(size=(n, m))
    elif kind == "equal":
        sim = np.full((n, m), rng.normal())
    else:
        sim = rng.integers(0, 8, size=(n, m)) / 8
    assert hungarian_match(sim) == resolve_per_cell_match(sim)


def test_hungarian_prefers_lexicographic_pairs_on_ties():
    sim = np.zeros((2, 2))  # every assignment ties
    pairs, total = hungarian_match(sim)
    assert pairs == ((0, 0), (1, 1))
    assert total == 0.0


def test_hungarian_rectangular_leaves_extras_unmatched():
    sim = np.array([[5.0, 0.0, 0.0]])
    pairs, total = hungarian_match(sim)
    assert pairs == ((0, 0),)
    assert total == 5.0


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian_match(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        hungarian_match(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# metrics


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_spearman_matches_scipy_and_reference(n, seed):
    rng = np.random.default_rng(seed)
    a = [int(x) for x in rng.permutation(n)]
    b = [int(x) for x in rng.permutation(n)]
    got = spearman_positions(a, b)
    assert got == pytest.approx(spearman_reference(a, b), abs=1e-12)
    scipy_rho = spearmanr(a, b).statistic
    assert got == pytest.approx(float(scipy_rho), abs=1e-12)


def test_spearman_extremes():
    assert spearman_positions([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0
    assert spearman_positions([0, 1, 2, 3], [3, 2, 1, 0]) == -1.0
    assert spearman_positions([0], [0]) == 1.0


def test_story_metrics_identity_and_reversal():
    rho, acc, dist = story_metrics((0, 1, 2, 3), (0, 1, 2, 3))
    assert (rho, acc, dist) == (1.0, 1.0, 0.0)
    rho, acc, dist = story_metrics((3, 2, 1, 0), (0, 1, 2, 3))
    assert rho == -1.0 and acc == 0.0
    assert dist == pytest.approx((3 + 1 + 1 + 3) / 4)


def test_story_metrics_footrule_is_sum():
    _, _, dist = story_metrics((3, 2, 1, 0), (0, 1, 2, 3), footrule=True)
    assert dist == 8.0


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_pairwise_accuracy_matches_reference(n, seed):
    rng = np.random.default_rng(seed)
    pred = [int(x) for x in rng.permutation(n)]
    true = [int(x) for x in rng.permutation(n)]
    _, acc, _ = story_metrics(pred, true)
    assert acc == pytest.approx(pairwise_accuracy_reference(pred, true), abs=1e-12)


def test_evaluate_story_set_macro_averages():
    t1 = PairwiseRelationTable.oracle_from_order([1, 0])
    t2 = PairwiseRelationTable.oracle_from_order([0, 1, 2])
    report = evaluate_story_set([t1, t2], [[1, 0], [0, 1, 2]])
    assert isinstance(report, StoryEvalReport)
    assert report.n_stories == 2
    assert report.spearman == pytest.approx(1.0)
    assert report.pairwise_accuracy == pytest.approx(1.0)
    assert report.distance == pytest.approx(0.0)


def test_evaluate_story_set_reports_story_index_on_error():
    good = PairwiseRelationTable.oracle_from_order([0, 1])
    bad = PairwiseRelationTable(np.zeros((2, 2, 4)))  # unnormalized
    with pytest.raises(ValueError, match="story 1"):
        evaluate_story_set([good, bad], [[0, 1], [0, 1]])


def test_evaluate_story_set_requires_matching_lengths():
    t = PairwiseRelationTable.oracle_from_order([0, 1])
    with pytest.raises(ValueError):
        evaluate_story_set([t], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        evaluate_story_set([], [])
