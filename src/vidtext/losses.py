"""Numeric loss computations with analytic gradients where checkable.

These functions are correctness oracles, not training code: everything runs
in float64, inputs are plain arrays, and the contrastive and ordering-head
losses expose closed-form gradients so finite differences can confirm them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .masking import LABEL_SENTINEL

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _erf(x: np.ndarray) -> np.ndarray:
    """``math.erf`` per element of a float64 array."""
    return np.fromiter(map(math.erf, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def logsumexp(a, axis=None, keepdims: bool = False):
    """``log(sum(exp(a)))`` over ``axis`` by scipy 1.17's formula, bit for bit:
    the maxima are counted apart from the rest, which is shifted by the max (by 0
    where the max is not finite), and the result is
    ``log1p(rest / count) + log(count) + max``."""
    a = np.asarray(a, dtype=np.float64)
    top = a.max(axis=axis, keepdims=True)
    ties = a == top
    count = ties.sum(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    rest = np.exp(np.where(ties, -np.inf, a) - shift).sum(axis=axis, keepdims=True)
    out = np.log1p(rest / count) + np.log(count) + top
    return (out if keepdims else np.squeeze(out, axis=axis))[()]


@dataclass(frozen=True)
class LossReport:
    value: float
    gradients: dict[str, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"loss value must be finite, got {self.value}")


def _as_matrix(m, name: str) -> np.ndarray:
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty 2-D matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def l2_normalize(m) -> np.ndarray:
    """Scale each row to unit Euclidean norm."""
    mat = _as_matrix(m, "matrix")
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0.0):
        row = int(np.nonzero(norms == 0.0)[0][0])
        raise ValueError(f"row {row} has zero norm and cannot be normalized")
    return mat / norms[:, None]


def contrastive_loss(
    frames,
    captions,
    tau: float = 0.05,
    want_grads: bool = False,
    symmetric: bool = True,
    norm_tol: float = 1e-6,
) -> LossReport:
    """Temperature-scaled cross-entropy between matched frame/caption rows.

    Row ``i`` of each matrix is a matched pair; all other rows in the batch
    act as negatives.  The symmetric form averages the row-wise and
    column-wise cross-entropies over the shared logit matrix
    ``frames @ captions.T / tau``; ``symmetric=False`` keeps only the
    frame-to-caption direction.

    Inputs must arrive unit-normalized; ``norm_tol`` bounds the allowed
    deviation (finite-difference probes pass a looser bound).
    """
    f = _as_matrix(frames, "frames")
    c = _as_matrix(captions, "captions")
    if f.shape != c.shape:
        raise ValueError(f"shape mismatch: frames {f.shape} vs captions {c.shape}")
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau} (divides logits)")
    for name, m in (("frames", f), ("captions", c)):
        err = np.abs(np.linalg.norm(m, axis=1) - 1.0).max()
        if err > norm_tol:
            raise ValueError(
                f"{name} rows are not unit-normalized (max deviation {err:.3g}, "
                f"allowed {norm_tol:.3g})"
            )
    b = f.shape[0]
    logits = f @ c.T / tau
    diag = np.diagonal(logits)
    row_ce = float(np.mean(logsumexp(logits, axis=1) - diag))
    col_ce = float(np.mean(logsumexp(logits, axis=0) - diag))
    value = 0.5 * (row_ce + col_ce) if symmetric else row_ce

    grads = None
    if want_grads:
        p_row = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        g = p_row.copy()
        if symmetric:
            p_col = np.exp(logits - logsumexp(logits, axis=0, keepdims=True))
            g = 0.5 * (p_row + p_col)
        np.fill_diagonal(g, np.diagonal(g) - 1.0)
        g /= b
        grads = {"frames": g @ c / tau, "captions": g.T @ f / tau}
    return LossReport(value=value, gradients=grads)


def masked_lm_loss(logits, labels) -> LossReport:
    """Mean cross-entropy over the positions whose label is not the sentinel."""
    z = _as_matrix(logits, "logits")
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] != z.shape[0]:
        raise ValueError(
            f"labels must be a length-{z.shape[0]} vector, got shape {y.shape}"
        )
    live = y != LABEL_SENTINEL
    if not live.any():
        raise ValueError("every label is the sentinel; nothing to score")
    picked = y[live]
    if picked.min() < 0 or picked.max() >= z.shape[1]:
        raise ValueError(
            f"labels must lie within [0, {z.shape[1]}), got "
            f"[{picked.min()}, {picked.max()}]"
        )
    rows = z[live]
    ce = logsumexp(rows, axis=1) - rows[np.arange(rows.shape[0]), picked]
    return LossReport(value=float(ce.mean()))


# ---------------------------------------------------------------------------
# Two-layer ordering head


def gelu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + _erf(x / _SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + _erf(x / _SQRT2)) + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


_ACTIVATIONS = {
    "gelu": (gelu, gelu_grad),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(np.float64)),
    "identity": (lambda x: x, lambda x: np.ones_like(x)),
}


@dataclass(frozen=True)
class OrderHeadParams:
    """Two-layer perceptron mapping a concatenated pair to class logits."""

    w1: np.ndarray  # hidden x 2D
    b1: np.ndarray  # hidden
    w2: np.ndarray  # classes x hidden
    b2: np.ndarray  # classes
    activation: str = "gelu"

    def __post_init__(self) -> None:
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("w1 and w2 must be matrices")
        if self.b1.shape != (self.w1.shape[0],):
            raise ValueError(
                f"b1 shape {self.b1.shape} does not match hidden size {self.w1.shape[0]}"
            )
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ValueError(
                f"w2 expects {self.w2.shape[1]} hidden units, w1 provides "
                f"{self.w1.shape[0]}"
            )
        if self.b2.shape != (self.w2.shape[0],):
            raise ValueError(
                f"b2 shape {self.b2.shape} does not match class count {self.w2.shape[0]}"
            )
        if self.n_classes not in (2, 4):
            raise ValueError(
                f"ordering head must emit 2 or 4 classes, got {self.n_classes}"
            )
        if self.activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; "
                f"pick one of {sorted(_ACTIVATIONS)}"
            )
        if self.w1.shape[1] % 2:
            raise ValueError(
                f"w1 must consume a concatenated pair, got odd width {self.w1.shape[1]}"
            )

    @property
    def n_classes(self) -> int:
        return int(self.w2.shape[0])

    @property
    def pair_dim(self) -> int:
        return int(self.w1.shape[1])


def _check_pair(h_i, h_j, params: OrderHeadParams) -> np.ndarray:
    hi = np.asarray(h_i, dtype=np.float64)
    hj = np.asarray(h_j, dtype=np.float64)
    if hi.ndim != 1 or hj.ndim != 1:
        raise ValueError("h_i and h_j must be vectors")
    if hi.shape != hj.shape:
        raise ValueError(f"pair shapes differ: {hi.shape} vs {hj.shape}")
    x = np.concatenate([hi, hj])
    if x.shape[0] != params.pair_dim:
        raise ValueError(
            f"pair concatenates to {x.shape[0]} dims, head expects {params.pair_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("pair contains non-finite entries")
    return x


def _forward(x: np.ndarray, params: OrderHeadParams) -> tuple[np.ndarray, ...]:
    """(pre-activation, hidden, logits) of the head on a checked pair ``x``."""
    pre = params.w1 @ x + params.b1
    hidden = _ACTIVATIONS[params.activation][0](pre)
    return pre, hidden, params.w2 @ hidden + params.b2


def order_logits(h_i, h_j, params: OrderHeadParams) -> np.ndarray:
    """Class logits for one ordered pair of hidden states."""
    return _forward(_check_pair(h_i, h_j, params), params)[2]


def order_pair_loss(
    h_i, h_j, true_class: int, params: OrderHeadParams, want_grads: bool = False
) -> LossReport:
    """Cross-entropy of the ordering head on one pair, with full backprop.

    Gradient keys: ``h_i``, ``h_j``, ``w1``, ``b1``, ``w2``, ``b2``.
    """
    x = _check_pair(h_i, h_j, params)
    if not 0 <= true_class < params.n_classes:
        raise ValueError(
            f"true_class {true_class} outside the {params.n_classes}-class head"
        )
    pre, hidden, logits = _forward(x, params)
    value = float(logsumexp(logits) - logits[true_class])
    grads = None
    if want_grads:
        d_logits = np.exp(logits - logsumexp(logits))
        d_logits[true_class] -= 1.0
        d_hidden = params.w2.T @ d_logits
        d_pre = d_hidden * _ACTIVATIONS[params.activation][1](pre)
        d_x = params.w1.T @ d_pre
        half = x.shape[0] // 2
        grads = {
            "h_i": d_x[:half],
            "h_j": d_x[half:],
            "w1": np.outer(d_pre, x),
            "b1": d_pre,
            "w2": np.outer(d_logits, hidden),
            "b2": d_logits,
        }
    return LossReport(value=value, gradients=grads)


def ordering_loss(logits: Sequence, true_classes: Sequence[int]) -> LossReport:
    """Mean cross-entropy over a batch of pairwise-order logits."""
    if len(logits) == 0:
        raise ValueError("ordering_loss requires at least one pair")
    if len(logits) != len(true_classes):
        raise ValueError(
            f"{len(logits)} logit vectors but {len(true_classes)} labels"
        )
    total = 0.0
    for k, (vec, t) in enumerate(zip(logits, true_classes)):
        v = np.asarray(vec, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 2:
            raise ValueError(f"pair {k}: logits must be a vector of 2+ classes")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"pair {k}: non-finite logits")
        t = int(t)
        if not 0 <= t < v.shape[0]:
            raise ValueError(f"pair {k}: class {t} outside [0, {v.shape[0]})")
        total += float(logsumexp(v) - v[t])
    return LossReport(value=total / len(logits))


def combine_losses(
    mask_lm: float,
    contrastive: float,
    ordering: float,
    contrastive_coeff: float = 0.25,
) -> float:
    """Weighted sum of the three pretraining losses."""
    for name, v in (
        ("mask_lm", mask_lm),
        ("contrastive", contrastive),
        ("ordering", ordering),
        ("contrastive_coeff", contrastive_coeff),
    ):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return mask_lm + contrastive_coeff * contrastive + ordering
