"""Corpus construction and objective kernels for video-transcript pretraining.

The package covers the data side of a video-language pretraining setup:
transcript timing transfer, synthetic ASR-style corruption, retention
filters, token segmentation and example packing, span-mask planning, the
numeric loss functions, and zero-shot story reordering with its metrics.
No neural network weights live here; every function that would touch a
model instead takes embeddings, logits, or log-probabilities as input.
"""

__version__ = "0.1.0"

import importlib
import sys
from types import ModuleType
from typing import Any

# Each public name by the submodule that defines it.  A submodule is imported
# when one of its names is first read, so ``import vidtext`` alone loads none
# of them, and a command that needs no numpy never imports it.
_SUBMODULES = {
    "_kernels": ("numba_active",),
    "align": ("Alignment", "align_and_time", "dtw_align", "levenshtein", "transfer_timing"),
    "config": ("PipelineConfig", "load_config_file", "resolve_config"),
    "corruption": (
        "CorruptionCounters", "GateDecision", "PronunciationTable", "corrupt_document",
        "derive_seed", "normalize_words", "perplexity_gate", "strip_punctuation",
    ),
    "filters": (
        "FilterDecision", "ThumbnailEvidence", "mean_pairwise_cosine", "metadata_gate",
        "thumbnail_gate",
    ),
    "losses": (
        "LossReport", "OrderHeadParams", "combine_losses", "contrastive_loss", "gelu",
        "l2_normalize", "masked_lm_loss", "order_logits", "order_pair_loss", "ordering_loss",
    ),
    "masking": (
        "ACTION_KEEP", "ACTION_MASK", "ACTION_RANDOM", "LABEL_SENTINEL", "AttentionProfile",
        "MaskPlan", "apply_plan", "attended_set", "round_half_up", "select_targets",
    ),
    "model": (
        "SCHEMA_VERSION", "PackedExample", "Segment", "TimedToken", "TimedWord", "VideoRecord",
        "validate_record",
    ),
    "ordering": (
        "CLASS_AFTER", "CLASS_BEFORE", "CLASS_DIFFERENT", "CLASS_SAME", "PairwiseRelationTable",
        "StoryEvalReport", "best_frame_ordering", "best_ordering", "evaluate_story_set",
        "frame_order_score", "hungarian_match", "score_permutation", "spearman_positions",
        "story_metrics",
    ),
    "pipeline": ("RunManifest", "process_video_line", "run_pipeline"),
    "segmenting": (
        "PackStats", "SequenceShape", "group_for_joint", "pack_examples", "segment_transcript",
        "sequence_shape",
    ),
    "selfcheck": ("CheckResult", "selfcheck"),
    "tokenizers": ("ByteBpeTokenizer", "ByteTokenizer", "load_tokenizer", "tokenize_words"),
}
_HOME = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str) -> Any:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name: str, value: Any) -> None:
        # Importing a submodule binds it on its package under its own name;
        # a public name of the same spelling, the function ``selfcheck``, wins.
        if not (isinstance(value, ModuleType) and name in _HOME):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
