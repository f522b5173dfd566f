import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp as scipy_logsumexp

from oracles import cross_entropy_mean, finite_difference, log_softmax_rows
from vidtext.losses import (
    OrderHeadParams,
    combine_losses,
    contrastive_loss,
    gelu,
    l2_normalize,
    logsumexp,
    masked_lm_loss,
    order_logits,
    ordering_loss,
)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
        elements=st.one_of(st.sampled_from([-np.inf, -2.5, 0.0, 1.0]), st.floats(-800, 800)),
    ),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_logsumexp_equals_scipy_bit_for_bit(a, data):
    """Tied maxima, -inf entries and all -inf slices included."""
    axis = data.draw(st.sampled_from([None, *range(-a.ndim, a.ndim), tuple(range(a.ndim))]))
    keepdims = data.draw(st.booleans())
    got = logsumexp(a, axis=axis, keepdims=keepdims)
    assert np.array_equal(got, scipy_logsumexp(a, axis=axis, keepdims=keepdims))


def unit_rows(rng, b, d):
    m = rng.normal(size=(b, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# contrastive


def test_single_pair_loss_is_zero():
    rng = np.random.default_rng(0)
    f = unit_rows(rng, 1, 8)
    c = unit_rows(rng, 1, 8)
    assert contrastive_loss(f, c).value == 0.0


def test_perfectly_aligned_batch_beats_shuffled():
    rng = np.random.default_rng(1)
    f = unit_rows(rng, 6, 16)
    aligned = contrastive_loss(f, f.copy()).value
    shuffled = contrastive_loss(f, np.roll(f, 2, axis=0)).value
    assert aligned < shuffled


def test_loss_value_matches_log_softmax_oracle():
    rng = np.random.default_rng(2)
    f = unit_rows(rng, 5, 12)
    c = unit_rows(rng, 5, 12)
    tau = 0.07
    logits = f @ c.T / tau
    row = -np.mean(np.diag(log_softmax_rows(logits)))
    col = -np.mean(np.diag(log_softmax_rows(logits.T)))
    expected = 0.5 * (row + col)
    assert contrastive_loss(f, c, tau=tau).value == pytest.approx(expected, rel=1e-12)


def test_row_only_variant_drops_column_term():
    rng = np.random.default_rng(3)
    f = unit_rows(rng, 4, 8)
    c = unit_rows(rng, 4, 8)
    logits = f @ c.T / 0.05
    row = -np.mean(np.diag(log_softmax_rows(logits)))
    got = contrastive_loss(f, c, symmetric=False).value
    assert got == pytest.approx(row, rel=1e-12)


def test_lower_temperature_sharpens_logits():
    rng = np.random.default_rng(4)
    f = unit_rows(rng, 6, 8)
    # With exactly matching embeddings, sharper logits drive loss toward 0.
    sharp = contrastive_loss(f, f.copy(), tau=0.01).value
    soft = contrastive_loss(f, f.copy(), tau=1.0).value
    assert sharp < soft


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    b, d, tau, h = 5, 9, 0.05, 1e-5
    f = unit_rows(rng, b, d)
    c = unit_rows(rng, b, d)
    report = contrastive_loss(f, c, tau=tau, want_grads=True)

    fd_f = finite_difference(
        lambda x: contrastive_loss(x, c, tau=tau, norm_tol=1e-3).value, f, h
    )
    fd_c = finite_difference(
        lambda x: contrastive_loss(f, x, tau=tau, norm_tol=1e-3).value, c, h
    )
    np.testing.assert_allclose(report.gradients["frames"], fd_f, rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(report.gradients["captions"], fd_c, rtol=1e-5, atol=1e-7)


def test_rejects_unnormalized_rows():
    rng = np.random.default_rng(6)
    f = rng.normal(size=(3, 8)) * 3.0
    c = unit_rows(rng, 3, 8)
    with pytest.raises(ValueError, match="norm"):
        contrastive_loss(f, c)


def test_rejects_nonpositive_temperature():
    rng = np.random.default_rng(7)
    f = unit_rows(rng, 2, 4)
    with pytest.raises(ValueError, match="temperature"):
        contrastive_loss(f, f, tau=0.0)


def test_rejects_mismatched_shapes():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        contrastive_loss(unit_rows(rng, 3, 4), unit_rows(rng, 4, 4))


def test_l2_normalize_gives_unit_rows():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(4, 6)) * 7
    np.testing.assert_allclose(np.linalg.norm(l2_normalize(m), axis=1), 1.0)
    with pytest.raises(ValueError):
        l2_normalize(np.zeros((2, 3)))


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=1000))
@settings(max_examples=60, deadline=None)
def test_batch_permutation_equivariance(b, seed):
    # Permuting frames and captions together leaves the loss unchanged.
    rng = np.random.default_rng(seed)
    f = unit_rows(rng, b, 8)
    c = unit_rows(rng, b, 8)
    perm = rng.permutation(b)
    base = contrastive_loss(f, c).value
    permuted = contrastive_loss(f[perm], c[perm]).value
    assert permuted == pytest.approx(base, rel=1e-10)


# ---------------------------------------------------------------------------
# masked LM


def test_masked_lm_matches_oracle():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(6, 11))
    labels = [3, -100, 7, 0, -100, 10]
    got = masked_lm_loss(logits, labels).value
    assert got == pytest.approx(cross_entropy_mean(logits, labels), rel=1e-12)


def test_masked_lm_ignores_sentinel_rows_exactly():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(4, 5))
    labels = [2, -100, 1, -100]
    # Changing a sentinel row's logits must not move the loss.
    loss_a = masked_lm_loss(logits, labels).value
    logits_b = logits.copy()
    logits_b[1] += 100.0
    assert masked_lm_loss(logits_b, labels).value == pytest.approx(loss_a, rel=1e-12)


def test_masked_lm_requires_a_supervised_position():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError):
        masked_lm_loss(rng.normal(size=(3, 4)), [-100, -100, -100])


def test_masked_lm_rejects_out_of_range_labels():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError):
        masked_lm_loss(rng.normal(size=(2, 4)), [0, 4])


# ---------------------------------------------------------------------------
# ordering head


def head(rng, pair_dim=12, hidden=10, classes=4):
    return OrderHeadParams(
        w1=rng.normal(size=(hidden, pair_dim)) * 0.3,
        b1=rng.normal(size=hidden) * 0.1,
        w2=rng.normal(size=(classes, hidden)) * 0.3,
        b2=rng.normal(size=classes) * 0.1,
    )


def test_order_logits_shape_and_determinism():
    rng = np.random.default_rng(14)
    p = head(rng)
    hi, hj = rng.normal(size=6), rng.normal(size=6)
    logits = order_logits(hi, hj, p)
    assert logits.shape == (4,)
    np.testing.assert_array_equal(logits, order_logits(hi, hj, p))


def test_order_head_two_class_variant():
    rng = np.random.default_rng(15)
    p = head(rng, classes=2)
    assert p.n_classes == 2
    logits = order_logits(rng.normal(size=6), rng.normal(size=6), p)
    assert logits.shape == (2,)


def test_order_head_rejects_bad_class_count():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        head(rng, classes=3)


def test_ordering_loss_averages_pairs():
    rng = np.random.default_rng(19)
    p = head(rng)
    pairs = [(rng.normal(size=6), rng.normal(size=6)) for _ in range(3)]
    classes = [0, 3, 1]
    logit_rows = [order_logits(hi, hj, p) for hi, hj in pairs]
    expected = np.mean(
        [cross_entropy_mean(row[None, :], [c]) for row, c in zip(logit_rows, classes)]
    )
    assert ordering_loss(logit_rows, classes).value == pytest.approx(
        float(expected), rel=1e-12
    )


def test_gelu_reference_points():
    # gelu(0) = 0 and large inputs pass through almost unchanged.
    assert gelu(np.array([0.0]))[0] == 0.0
    assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-6)
    assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-6)


def test_relu_activation_available():
    rng = np.random.default_rng(20)
    p = OrderHeadParams(
        w1=rng.normal(size=(5, 8)),
        b1=np.zeros(5),
        w2=rng.normal(size=(4, 5)),
        b2=np.zeros(4),
        activation="relu",
    )
    logits = order_logits(rng.normal(size=4), rng.normal(size=4), p)
    assert logits.shape == (4,)


# ---------------------------------------------------------------------------
# combination


def test_combine_weights_contrastive_quarter():
    assert combine_losses(1.0, 4.0, 2.0) == pytest.approx(1.0 + 1.0 + 2.0)
    assert combine_losses(0.0, 0.0, 0.0) == 0.0


def test_combine_respects_custom_coefficient():
    assert combine_losses(1.0, 2.0, 3.0, coeff=0.5) == pytest.approx(5.0)


def test_combine_rejects_non_finite():
    with pytest.raises(ValueError):
        combine_losses(float("nan"), 0.0, 0.0)
