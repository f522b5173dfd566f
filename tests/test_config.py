import json

import pytest

from vidtext.config import PipelineConfig, load_config_file, resolve_config


def test_defaults_are_canonical():
    cfg = PipelineConfig()
    assert cfg.tokens_per_segment == 32
    assert cfg.segments_per_example == 16
    assert cfg.max_duration_s == 1200.0
    assert cfg.prob_threshold == 0.30
    assert cfg.min_objects == 4
    assert cfg.sim_threshold == 0.9
    assert cfg.replace_prob == 0.01
    assert cfg.homophone_share == 0.25
    assert cfg.filler_prob == 0.01
    assert cfg.mask_rate == 0.20
    assert cfg.attended_share == 0.50
    assert cfg.span_mean == 0.5
    assert cfg.top_frac == 0.20
    assert cfg.image_width == 192
    assert cfg.image_height == 352
    assert cfg.patch == 16
    assert cfg.pool == 2
    assert cfg.group_segments == 4
    assert cfg.seed == 0


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mask_rate": 0.15, "seed": 9}), encoding="utf-8")
    cfg = resolve_config(str(path), {})
    assert cfg.mask_rate == 0.15
    assert cfg.seed == 9
    assert cfg.tokens_per_segment == 32


def test_flags_override_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mask_rate": 0.15}), encoding="utf-8")
    cfg = resolve_config(str(path), {"mask_rate": 0.4})
    assert cfg.mask_rate == 0.4


def test_none_overrides_are_ignored():
    cfg = resolve_config(None, {"mask_rate": None, "seed": None})
    assert cfg.mask_rate == 0.20
    assert cfg.seed == 0


def test_unknown_file_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"maks_rate": 0.15}), encoding="utf-8")
    with pytest.raises(ValueError, match="maks_rate"):
        load_config_file(str(path))


def test_config_file_must_hold_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config_file(str(path))


def test_validation_rejects_out_of_range():
    with pytest.raises(ValueError):
        PipelineConfig(mask_rate=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(tokens_per_segment=0)
    with pytest.raises(ValueError, match="patch must be a positive integer"):
        PipelineConfig(patch=0)
    with pytest.raises(ValueError, match="pool must be an integer"):
        PipelineConfig(pool=2.0)


def test_sha256_stable_and_sensitive():
    a = PipelineConfig()
    b = PipelineConfig()
    assert a.sha256() == b.sha256()
    c = PipelineConfig(seed=1)
    assert a.sha256() != c.sha256()


def test_to_json_round_trips_through_resolve(tmp_path):
    cfg = PipelineConfig(seed=5, mask_rate=0.11)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
    assert resolve_config(str(path), {}) == cfg
