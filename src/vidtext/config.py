"""Pipeline configuration: defaults, file loading, flag precedence, hashing.

Precedence is flags over config file over built-in defaults.  The effective
config is hashed (sha256 of its canonical JSON) into every run manifest so
outputs are attributable to exact settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping


@dataclass(frozen=True)
class PipelineConfig:
    # segmenting
    tokens_per_segment: int = 32
    segments_per_example: int = 16
    cross_video: bool = True
    tokenizer_path: str | None = None
    # filtering
    max_duration_s: float = 1200.0
    prob_threshold: float = 0.30
    min_objects: int = 4
    sim_threshold: float = 0.9
    distinct_classes: bool = False
    # corruption
    replace_prob: float = 0.01  # chance a word is replaced outright
    homophone_share: float = 0.25  # share of replacements trying a homophone
    filler_prob: float = 0.01  # chance a filler is inserted before a word
    # masking
    mask_rate: float = 0.20
    attended_share: float = 0.50
    span_mean: float = 0.5
    top_frac: float = 0.20
    # shape
    image_width: int = 192  # pixels
    image_height: int = 352
    patch: int = 16  # pixels per patch edge
    pool: int = 2  # pooling factor after the patch grid
    group_segments: int = 4  # segments shown jointly to the fused encoder
    # run control (worker count is a run_pipeline argument, not config,
    # so manifests stay byte-identical across --jobs values)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "tokens_per_segment",
            "segments_per_example",
            "image_width",
            "image_height",
            "patch",
            "pool",
            "group_segments",
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.max_duration_s <= 0:
            raise ValueError("max_duration_s must be positive")
        if self.min_objects < 0:
            raise ValueError("min_objects must be non-negative")
        if self.span_mean < 0:
            raise ValueError("span_mean must be non-negative")
        for name in (
            "prob_threshold",
            "replace_prob",
            "homophone_share",
            "filler_prob",
            "mask_rate",
            "attended_share",
            "top_frac",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {v}")

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def sha256(self) -> str:
        canonical = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def replace(self, **kwargs: Any) -> "PipelineConfig":
        return dataclasses.replace(self, **kwargs)


_FIELD_NAMES = {f.name for f in dataclasses.fields(PipelineConfig)}


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Read a JSON config file, rejecting unknown keys early."""
    with open(path, encoding="utf-8") as fp:
        data = json.load(fp)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    return data


def resolve_config(
    file_path: str | Path | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> PipelineConfig:
    """Defaults, then config file, then explicit overrides (e.g. CLI flags)."""
    merged: dict[str, Any] = {}
    if file_path is not None:
        merged.update(load_config_file(file_path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_NAMES:
            raise ValueError(f"unknown config override {key!r}")
        merged[key] = value
    return PipelineConfig(**merged)
