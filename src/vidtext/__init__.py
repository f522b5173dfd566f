"""Corpus construction and objective kernels for video-transcript pretraining.

The package covers the data side of a video-language pretraining setup:
transcript timing transfer, synthetic ASR-style corruption, retention
filters, token segmentation and example packing, span-mask planning, the
numeric loss functions, and zero-shot story reordering with its metrics.
No neural network weights live here; every function that would touch a
model instead takes embeddings, logits, or log-probabilities as input.
Each name is imported from the submodule that defines it, and
``import vidtext`` alone loads none of them.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    # The benchmark reads these two through the package; ROADMAP item 1 removes the hook.
    if name == "levenshtein":
        from .align import levenshtein as value
    elif name == "numba_active":
        from ._kernels import numba_active as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return value
