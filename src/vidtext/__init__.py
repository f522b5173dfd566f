"""Corpus construction and objective kernels for video-transcript pretraining.

The package covers the data side of a video-language pretraining setup:
transcript timing transfer, synthetic ASR-style corruption, retention
filters, token segmentation and example packing, span-mask planning, the
numeric loss functions, and zero-shot story reordering with its metrics.
No neural network weights live here; every function that would touch a
model instead takes embeddings, logits, or log-probabilities as input.
"""

__version__ = "0.1.0"

from ._kernels import numba_active
from .align import Alignment, align_and_time, dtw_align, levenshtein, transfer_timing
from .config import PipelineConfig, load_config_file, resolve_config
from .corruption import (
    CorruptionCounters,
    GateDecision,
    PronunciationTable,
    corrupt_document,
    derive_seed,
    normalize_words,
    perplexity_gate,
    strip_punctuation,
)
from .filters import (
    FilterDecision,
    ThumbnailEvidence,
    mean_pairwise_cosine,
    metadata_gate,
    thumbnail_gate,
)
from .losses import (
    LossReport,
    OrderHeadParams,
    combine_losses,
    contrastive_loss,
    gelu,
    l2_normalize,
    masked_lm_loss,
    order_logits,
    order_pair_loss,
    ordering_loss,
)
from .masking import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    LABEL_SENTINEL,
    AttentionProfile,
    MaskPlan,
    apply_plan,
    attended_set,
    round_half_up,
    select_targets,
)
from .model import (
    SCHEMA_VERSION,
    PackedExample,
    Segment,
    TimedToken,
    TimedWord,
    VideoRecord,
    validate_record,
)
from .ordering import (
    CLASS_AFTER,
    CLASS_BEFORE,
    CLASS_DIFFERENT,
    CLASS_SAME,
    PairwiseRelationTable,
    StoryEvalReport,
    best_frame_ordering,
    best_ordering,
    evaluate_story_set,
    frame_order_score,
    hungarian_match,
    score_permutation,
    spearman_positions,
    story_metrics,
)
from .pipeline import RunManifest, process_video_line, run_pipeline
from .segmenting import (
    PackStats,
    SequenceShape,
    group_for_joint,
    pack_examples,
    segment_transcript,
    sequence_shape,
)
from .selfcheck import CheckResult, selfcheck
from .tokenizers import ByteBpeTokenizer, ByteTokenizer, load_tokenizer, tokenize_words

__all__ = [
    "__version__",
    "numba_active",
    "Alignment",
    "align_and_time",
    "dtw_align",
    "levenshtein",
    "transfer_timing",
    "PipelineConfig",
    "load_config_file",
    "resolve_config",
    "CorruptionCounters",
    "GateDecision",
    "PronunciationTable",
    "corrupt_document",
    "derive_seed",
    "normalize_words",
    "perplexity_gate",
    "strip_punctuation",
    "FilterDecision",
    "ThumbnailEvidence",
    "mean_pairwise_cosine",
    "metadata_gate",
    "thumbnail_gate",
    "LossReport",
    "OrderHeadParams",
    "combine_losses",
    "contrastive_loss",
    "gelu",
    "l2_normalize",
    "masked_lm_loss",
    "order_logits",
    "order_pair_loss",
    "ordering_loss",
    "ACTION_KEEP",
    "ACTION_MASK",
    "ACTION_RANDOM",
    "LABEL_SENTINEL",
    "AttentionProfile",
    "MaskPlan",
    "apply_plan",
    "attended_set",
    "round_half_up",
    "select_targets",
    "SCHEMA_VERSION",
    "PackedExample",
    "Segment",
    "TimedToken",
    "TimedWord",
    "VideoRecord",
    "validate_record",
    "CLASS_AFTER",
    "CLASS_BEFORE",
    "CLASS_DIFFERENT",
    "CLASS_SAME",
    "PairwiseRelationTable",
    "StoryEvalReport",
    "best_frame_ordering",
    "best_ordering",
    "evaluate_story_set",
    "frame_order_score",
    "hungarian_match",
    "score_permutation",
    "spearman_positions",
    "story_metrics",
    "RunManifest",
    "process_video_line",
    "run_pipeline",
    "PackStats",
    "SequenceShape",
    "group_for_joint",
    "pack_examples",
    "segment_transcript",
    "sequence_shape",
    "CheckResult",
    "selfcheck",
    "ByteBpeTokenizer",
    "ByteTokenizer",
    "load_tokenizer",
    "tokenize_words",
]
