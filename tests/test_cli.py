import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vidtext.cli import main


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(code: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports this checkout's vidtext."""
    import vidtext

    env = dict(os.environ, PYTHONPATH=str(Path(vidtext.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, vidtext.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = _python(code)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_streaming_subcommands_load_no_numpy(tmp_path, data_dir):
    golden, seg = data_dir / "golden_input.jsonl", tmp_path / "seg.jsonl"
    argvs = [
        ["filter", "--input", golden, "--output", tmp_path / "filter.jsonl"],
        ["segment", "--input", golden, "--output", seg],
        ["pack", "--input", seg, "--output", tmp_path / "pack.jsonl", "--stats", tmp_path / "s"],
        *(
            ["run", "--jobs", jobs, "--input", golden, "--output", tmp_path / f"run{jobs}.jsonl",
             "--manifest", tmp_path / f"m{jobs}.json"]
            for jobs in ("1", "2")
        ),
        ["shape"],
    ]
    runs = [list(map(str, argv)) for argv in argvs]
    code = f"""
import sys
import vidtext
print(sorted(m for m in sys.modules if m.startswith("vidtext")))
from vidtext.cli import main
print([main(argv) for argv in {runs!r}])
print("numpy" in sys.modules)
"""
    done = _python(code)
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-2:]) == ("['vidtext']", ["[0, 0, 0, 0, 0, 0]", "False"]), done
    golden_out = (data_dir / "golden_output.jsonl").read_bytes()
    assert (tmp_path / "run1.jsonl").read_bytes() == golden_out
    assert (tmp_path / "run2.jsonl").read_bytes() == golden_out


def test_an_unloadable_tokenizer_is_one_fatal_error_at_any_jobs(tmp_path, data_dir):
    tok = tmp_path / "tok"
    tok.mkdir()
    (tok / "vocab.json").write_text("{", encoding="utf-8")
    (tok / "merges.txt").write_text("", encoding="utf-8")
    for jobs in ("1", "2"):  # a pool whose workers cannot start would never finish
        argv = ["run", "--jobs", jobs, "--tokenizer", str(tok),
                "--input", str(data_dir / "golden_input.jsonl"), "--output", str(tmp_path / "o")]
        done = _python(f"import sys; from vidtext.cli import main; sys.exit(main({argv!r}))", 60)
        assert done.returncode == 2, done
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_a_failed_run_start_leaves_the_output_file(capsys, tmp_path, data_dir):
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"earlier output\n")
    for flags in (["--jobs", "0"], ["--tokenizer", str(tmp_path / "missing")]):
        argv = ["run", "--input", str(data_dir / "golden_input.jsonl"), "--output", str(out)]
        code, _, err = run_cli(capsys, argv + flags)
        assert code == 2 and err.startswith("error: "), err
        assert out.read_bytes() == b"earlier output\n"


def test_shape_defaults(capsys):
    code, out, _ = run_cli(capsys, ["shape"])
    assert code == 0
    blob = json.loads(out)
    assert blob["cells_per_frame"] == 66
    assert blob["visual_tokens_per_frame"] == 67
    assert blob["joint_sequence_length"] == 396
    assert blob["language_only_length"] == 512


def test_shape_respects_flags(capsys):
    code, out, _ = run_cli(capsys, ["shape", "--patch", "32", "--pool", "1"])
    assert code == 0
    assert json.loads(out)["cells_per_frame"] == 66


def test_shape_fatal_on_bad_geometry(capsys):
    code, _, err = run_cli(capsys, ["shape", "--patch", "17"])
    assert code == 2
    assert "divi" in err
    code, out, err = run_cli(capsys, ["shape", "--patch", "0"])
    assert code == 2 and out == ""
    assert "error: patch must be a positive integer, got 0" in err


@pytest.mark.parametrize("key", ["tau", "contrastive_coeff", "perplexity_threshold"])
def test_config_file_with_a_deleted_key_is_fatal(capsys, tmp_path, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: 0.05}), encoding="utf-8")
    code, out, err = run_cli(capsys, ["shape", "--config", str(path)])
    assert code == 2 and out == ""
    assert "unknown config keys" in err and repr(key) in err


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"cross_video": "false"}', "cross_video"),
        ('{"distinct_classes": 1}', "distinct_classes"),
        ('{"max_duration_s": NaN}', "max_duration_s"),
        ('{"tokens_per_segment": true}', "tokens_per_segment"),
        ('{"prob_threshold": true}', "prob_threshold"),
        ('{"min_objects": 2.5}', "min_objects"),
        ('{"seed": null}', "seed"),
        ('{"tokenizer_path": 5}', "tokenizer_path"),
    ],
)
def test_config_file_value_of_the_wrong_type_is_fatal(capsys, tmp_path, data_dir, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    argv = ["run", "--config", str(path), "--input", str(data_dir / "golden_input.jsonl")]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert f"error: {key} must be" in err


def test_config_values_are_checked_not_converted(capsys, tmp_path, data_dir):
    path = tmp_path / "cfg.json"
    path.write_text('{"max_duration_s": 600}', encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    argv = ["run", "--config", str(path), "--input", str(data_dir / "golden_input.jsonl")]
    code, _, _ = run_cli(capsys, argv + ["--manifest", str(manifest)])
    assert code == 0
    assert '"max_duration_s":600,' in manifest.read_text()


def test_config_flags_are_checked_as_config_values(capsys, data_dir):
    argv = ["run", "--max-duration-s", "nan", "--input", str(data_dir / "golden_input.jsonl")]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert "error: max_duration_s must be a finite number, got nan" in err


def test_align_stream(capsys, monkeypatch):
    line = json.dumps(
        {
            "noisy": [
                {"text": "helo", "start_s": 0.0, "end_s": 0.4},
                {"text": "wrld", "start_s": 0.5, "end_s": 0.9},
            ],
            "clean": ["hello", "world"],
        }
    )
    code, out, _ = run_cli(capsys, ["align"], line + "\n", monkeypatch)
    assert code == 0
    blob = json.loads(out)
    assert blob["pairs"] == [[0, 0], [1, 1]]
    assert blob["total_cost"] == 2
    assert blob["clean_words"][0]["text"] == "hello"


def test_align_bad_line_gives_exit_one(capsys, monkeypatch):
    good = json.dumps(
        {"noisy": [{"text": "a", "start_s": 0, "end_s": 1}], "clean": ["a"]}
    )
    code, out, err = run_cli(
        capsys, ["align"], "{broken\n" + good + "\n", monkeypatch
    )
    assert code == 1
    assert "line 1" in err
    assert json.loads(out)["total_cost"] == 0
    # Noisy word times must be finite, non-negative numbers, not booleans.
    bad = json.dumps(
        {"noisy": [{"text": "a", "start_s": -3, "end_s": True}], "clean": ["a"]}
    )
    code, out, err = run_cli(capsys, ["align"], bad + "\n" + good + "\n", monkeypatch)
    assert code == 1
    assert "line 1: skipped" in err and "noisy[0]: start_s" in err
    assert len(out.splitlines()) == 1
    # Clean words are JSON strings, not coerced numbers or booleans.
    for clean, message in (([1], "clean[0] must be a string"), ("a", "clean must be a list")):
        bad = json.dumps({"noisy": [{"text": "a", "start_s": 0, "end_s": 1}], "clean": clean})
        code, out, err = run_cli(capsys, ["align"], bad + "\n" + good + "\n", monkeypatch)
        assert code == 1
        assert "line 1: skipped" in err and message in err, err
        assert len(out.splitlines()) == 1


def test_corrupt_deterministic_per_doc_id(capsys, monkeypatch):
    lines = (
        json.dumps({"doc_id": "a", "words": ["Hello", "there", "my", "friend"]})
        + "\n"
        + json.dumps({"doc_id": "b", "words": ["Hello", "there", "my", "friend"]})
        + "\n"
    )
    argv = ["corrupt", "--replace-prob", "0.9", "--seed", "3"]
    code1, out1, _ = run_cli(capsys, argv, lines, monkeypatch)
    code2, out2, _ = run_cli(capsys, argv, lines, monkeypatch)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = [json.loads(l) for l in out1.splitlines()]
    assert rows[0]["words"] != rows[1]["words"]  # doc ids decorrelate streams


def test_mask_repeatable_and_sentinel_labels(capsys, monkeypatch):
    line = json.dumps(
        {
            "sequence_id": "s",
            "tokens": list(range(10, 40)),
            "weights": [1.0] * 30,
            "special_positions": [0, 29],
        }
    )
    argv = ["mask", "--vocab-size", "100", "--mask-id", "99", "--seed", "5"]
    code1, out1, _ = run_cli(capsys, argv, line + "\n", monkeypatch)
    code2, out2, _ = run_cli(capsys, argv, line + "\n", monkeypatch)
    assert code1 == code2 == 0
    assert out1 == out2
    blob = json.loads(out1)
    assert len(blob["tokens"]) == len(blob["labels"]) == 30
    assert blob["tokens"][0] == 10 and blob["tokens"][-1] == 39
    targeted = [k for k, lab in enumerate(blob["labels"]) if lab != -100]
    assert targeted
    for k in targeted:
        assert blob["labels"][k] == k + 10


def test_filter_emits_reasons(capsys, monkeypatch):
    lines = "\n".join(
        [
            json.dumps(
                {
                    "video_id": "ok",
                    "duration_s": 100.0,
                    "category": "Howto",
                    "has_english_asr": True,
                }
            ),
            json.dumps(
                {
                    "video_id": "nope",
                    "duration_s": 100.0,
                    "category": "Gaming",
                    "has_english_asr": True,
                }
            ),
        ]
    )
    code, out, _ = run_cli(capsys, ["filter"], lines + "\n", monkeypatch)
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert rows[0]["verdict"] == "accept"
    assert rows[1] == {
        "video_id": "nope",
        "verdict": "reject",
        "reason": "gaming_category",
        "schema_version": "1",
    }


def test_score_order_two_way_table(capsys, monkeypatch):
    import math

    n = 3
    lp = np.zeros((n, n, 2))
    truth = (1, 2, 0)
    for i in range(n):
        for j in range(n):
            if i == j:
                lp[i, j] = [math.log(0.5)] * 2
            elif truth[i] < truth[j]:
                lp[i, j] = [math.log(0.9), math.log(0.1)]
            else:
                lp[i, j] = [math.log(0.1), math.log(0.9)]
    line = json.dumps(
        {"n": n, "classes": 2, "log_probs": [float(x) for x in lp.reshape(-1)]}
    )
    code, out, _ = run_cli(capsys, ["score-order"], line + "\n", monkeypatch)
    assert code == 0
    assert tuple(json.loads(out)["permutation"]) == truth


def test_loss_json_arrays_are_strict(capsys, tmp_path):
    logits, labels = tmp_path / "logits.json", tmp_path / "labels.json"
    logits.write_text("[[0.5, 0.1], [0.2, 0.3], [0.1, 0.9]]")
    labels.write_text('[1.7, true, "3"]')
    argv = ["loss", "mlm", "--logits", str(logits), "--labels", str(labels)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert f"error: {labels}[0] must be an integer, got 1.7" in err


def test_loss_ragged_json_matrix_names_the_file_and_row(capsys, tmp_path):
    ragged = tmp_path / "r.json"
    ragged.write_text("[[0.5, 1], [2]]")
    argv = ["loss", "contrastive", "--frames", str(ragged), "--captions", str(ragged)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert f"error: {ragged}[1] has 1 entries, {ragged}[0] has 2" in err


def test_loss_combine(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "loss",
            "combine",
            "--mlm",
            "1.0",
            "--contrastive",
            "4.0",
            "--ordering",
            "0.5",
        ],
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.5)


def test_loss_contrastive_from_files(capsys, tmp_path):
    rng = np.random.default_rng(0)
    f = rng.normal(size=(4, 8))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    c = rng.normal(size=(4, 8))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    fp, cp = tmp_path / "f.npy", tmp_path / "c.npy"
    np.save(fp, f)
    np.save(cp, c)
    grads = tmp_path / "g.npz"
    code, out, _ = run_cli(
        capsys,
        [
            "loss",
            "contrastive",
            "--frames",
            str(fp),
            "--captions",
            str(cp),
            "--grads-out",
            str(grads),
        ],
    )
    assert code == 0
    assert json.loads(out)["value"] > 0
    loaded = np.load(grads)
    assert loaded["frames"].shape == (4, 8)


def test_eval_story_files(capsys, tmp_path):
    from vidtext.ordering import PairwiseRelationTable

    tables_path = tmp_path / "tables.jsonl"
    truths_path = tmp_path / "truths.jsonl"
    with open(tables_path, "w") as tf, open(truths_path, "w") as rf:
        for truth in ([1, 0, 2], [2, 1, 0]):
            table = PairwiseRelationTable.oracle_from_order(truth)
            tf.write(
                json.dumps(
                    {
                        "n": 3,
                        "log_probs": [float(x) for x in table.log_probs.reshape(-1)],
                    }
                )
                + "\n"
            )
            rf.write(json.dumps({"order": truth}) + "\n")
    code, out, _ = run_cli(
        capsys,
        ["eval-story", "--tables", str(tables_path), "--truths", str(truths_path)],
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["spearman"] == pytest.approx(1.0)
    assert blob["n_stories"] == 2


def test_run_with_data_errors_exits_one(capsys, tmp_path, data_dir):
    out_path = tmp_path / "out.jsonl"
    manifest_path = tmp_path / "manifest.json"
    code = main(
        [
            "run",
            "--input",
            str(data_dir / "golden_input_with_errors.jsonl"),
            "--output",
            str(out_path),
            "--manifest",
            str(manifest_path),
        ]
    )
    capsys.readouterr()
    assert code == 1
    manifest = json.loads(manifest_path.read_text())
    assert manifest["counts"]["data_errors"] == 2
    assert manifest["counts"]["examples"] == 7


def test_unknown_schema_version_is_data_error(capsys, monkeypatch):
    line = json.dumps(
        {
            "schema_version": "999",
            "noisy": [{"text": "a", "start_s": 0, "end_s": 1}],
            "clean": ["a"],
        }
    )
    code, out, err = run_cli(capsys, ["align"], line + "\n", monkeypatch)
    assert code == 1
    assert "schema_version" in err
    assert out == ""
    # Every video subcommand checks the version, run included.
    video = json.dumps(
        {
            "schema_version": "9",
            "video_id": "v",
            "duration_s": 1.0,
            "category": "Howto",
            "has_english_asr": True,
        }
    )
    for argv in (["filter"], ["segment"], ["pack"], ["run"]):
        code, out, err = run_cli(capsys, argv, video + "\n", monkeypatch)
        assert code == 1, argv
        assert "unsupported schema_version '9'" in err
        assert out == ""
    # The version is the string "1": the integer 1 is no spelling of it.
    integer = video.replace('"9"', "1")
    for argv in (["filter"], ["segment"], ["pack"], ["run"]):
        code, out, err = run_cli(capsys, argv, integer + "\n", monkeypatch)
        assert code == 1, argv
        assert "unsupported schema_version 1" in err
        assert out == ""


def test_missing_input_file_is_fatal(capsys):
    code, _, err = run_cli(capsys, ["align", "--input", "/nonexistent/x.jsonl"])
    assert code == 2
    assert "error:" in err


def test_scramble_plan_deterministic(capsys):
    argv = ["scramble-plan", "--segments", "16", "--count", "5", "--seed", "2"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = [json.loads(l) for l in out1.splitlines()]
    assert len(rows) == 5
    for row in rows:
        if row["scramble"]:
            assert 2 <= row["n_scrambled"] <= 16
            assert len(row["frames"]) == row["n_scrambled"]
            assert sorted(row["unknown_slots"]) == list(range(row["n_scrambled"]))
        else:
            assert row["frames"] == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--prob", "1.5"], "--prob must be in [0, 1], got 1.5"),
        (["--prob", "-0.1"], "--prob must be in [0, 1], got -0.1"),
        (["--prob", "nan"], "--prob must be in [0, 1], got nan"),
        (["--count", "-1"], "--count must be non-negative, got -1"),
        (["--segments", "1"], "--segments must be at least 2"),
    ],
)
def test_scramble_plan_bad_flags_are_fatal(capsys, flags, message):
    code, out, err = run_cli(capsys, ["scramble-plan", *flags])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_selfcheck_passes(capsys):
    code, out, _ = run_cli(capsys, ["selfcheck"])
    assert code == 0
    assert out.count("PASS") == 4


def test_selfcheck_forced_failure_reports_diagnostic(capsys):
    code, out, _ = run_cli(capsys, ["selfcheck", "--tau", "0"])
    assert code == 1
    assert "FAIL" in out
    assert "temperature" in out


def video_obj(**overrides):
    obj = {
        "video_id": "v",
        "duration_s": 10.0,
        "category": "Howto",
        "has_english_asr": True,
        "words": [
            {"text": "hi", "start_s": 0.0, "end_s": 0.4},
            {"text": "there", "start_s": 0.5, "end_s": 0.9},
        ],
    }
    obj.update(overrides)
    return obj


@pytest.mark.parametrize("command", ["filter", "segment", "run"])
def test_strict_boundary_types_are_data_errors(capsys, monkeypatch, command):
    nan_probs = {"object_probs": [[float("nan")] * 3] * 4, "features": [[1.0, 0.0]] * 4}
    lines = [
        (json.dumps(video_obj(duration_s=float("inf"))), "duration_s"),
        (json.dumps(video_obj(duration_s=0.5)).replace("0.5", "1e999"), "duration_s"),
        (json.dumps(video_obj(has_english_asr="false")), "has_english_asr"),
        (
            json.dumps(video_obj(words=[{"text": "a", "start_s": -3, "end_s": True}])),
            "words[0]: start_s",
        ),
    ]
    if command != "segment":  # segment runs no gates, so it never reads thumbnails
        loose = {"object_probs": [["0.9", True, 0.9]] * 4, "features": [[1.0, 0.0]] * 4}
        loose_feats = {"object_probs": [[0.9] * 3] * 4, "features": [[1.0, "0"]] * 4}
        lines += [
            (json.dumps(video_obj(thumbnails=nan_probs)), "object_probs[0][0] must be a finite"),
            (json.dumps(video_obj(thumbnails=loose)), "object_probs[0][0] must be a finite"),
            (json.dumps(video_obj(thumbnails=loose_feats)), "features[0][1] must be a finite"),
            (json.dumps(video_obj(thumbnails=dict(loose_feats, features=[1.0] * 4))),
             "features[0] must be a list"),
        ]
    for line, where in lines:
        code, _, err = run_cli(capsys, [command], line + "\n", monkeypatch)
        assert code == 1, line
        assert "Traceback" not in err
        assert where in err, err


@pytest.mark.parametrize("command", ["filter", "run"])
def test_ragged_thumbnail_rows_are_data_errors(capsys, monkeypatch, command):
    ragged = {"object_probs": [[0.9, 0.9], [0.9]] + [[0.9, 0.9]] * 2, "features": [[1.0]] * 4}
    line = json.dumps(video_obj(thumbnails=ragged))
    code, _, err = run_cli(capsys, [command], line + "\n", monkeypatch)
    assert code == 1
    assert "object_probs[1] has 1 entries, object_probs[0] has 2" in err


def test_thumbnail_faults_are_reported_exactly(capsys, monkeypatch, tmp_path):
    ok = {"object_probs": [[0.9, 0.9]] * 4, "features": [[1.0, 0.0], [0.0, 1.0]] * 2}
    cases = [
        (dict(ok, object_probs=[[0.9, 0.9]] * 3),
         "object_probs must have exactly 4 rows, got shape (3, 2)"),
        (dict(ok, object_probs=[]), "object_probs must have exactly 4 rows, got shape (0,)"),
        (dict(ok, object_probs=[[0.9, 1.5]] * 4), "object probabilities must lie within [0, 1]"),
        (dict(ok, features=[[1.0, float("nan")]] * 4),
         "features[0][1] must be a finite number, got nan"),
        (dict(ok, features=[[1.0, 0.0], [0.0, 0.0]] * 2), "feature row 1 has zero norm"),
    ]
    argv = ["run", "--manifest", str(tmp_path / "m.json")]
    for thumbs, message in cases:
        line = json.dumps(video_obj(thumbnails=thumbs)) + "\n"
        code, out, err = run_cli(capsys, argv, line, monkeypatch)
        assert (code, out, err) == (1, "", f"line 1: skipped (ValueError: {message})\n")


def test_pack_validates_every_record_and_skips_non_objects(capsys, monkeypatch):
    token = {"id": 1, "word_index": 0, "start_s": 0.0, "end_s": 1.0}
    good = {
        "video_id": "v",
        "duration_s": 5.0,
        "category": "c",
        "has_english_asr": True,
        "segments": [{"tokens": [token], "frame_time_s": 0.5, "variant": "clean"}],
    }
    regressing = dict(
        good,
        segments=[
            {
                "tokens": [dict(token, word_index=3), dict(token, id=2, word_index=1)],
                "frame_time_s": 9.0,
                "variant": "clean",
            }
        ],
    )
    text = "\n".join(["[1,2]", json.dumps(regressing), json.dumps(good)]) + "\n"
    code, out, err = run_cli(
        capsys, ["pack", "--segments-per-example", "1"], text, monkeypatch
    )
    assert code == 1
    assert "line 1: skipped" in err and "JSON object" in err
    # The record breaks word order and its frame time; only the first is named.
    first = "segments[0].tokens[1].word_index: word order regressed from 3 to 1"
    assert f"line 2: skipped (ValueError: invalid record: {first})\n" in err
    assert "frame_time_s" not in err
    rows = [json.loads(l) for l in out.splitlines()]
    assert [row["provenance"] for row in rows] == [[["v", 0]]]


# Each breaks one invariant of segment `s` of a `segment` record, in place.
def _regress_word_order(rec, s):  # its last word renumbered to word 0
    seg = rec["segments"][s]
    last = seg["tokens"][-1]["word_index"]
    for tok in seg["tokens"]:
        if tok["word_index"] == last:
            tok["word_index"] = 0


def _split_word_span(rec, s):  # the second token of a word starts 1 ms late
    toks = rec["segments"][s]["tokens"]
    k = next(k for k in range(1, len(toks)) if toks[k]["word_index"] == toks[k - 1]["word_index"])
    toks[k]["start_s"] = round(toks[k]["start_s"] + 0.001, 3)


def _overlap_previous_word(rec, s):  # its second word starts 1 ms before the first ends
    toks = rec["segments"][s]["tokens"]
    second = next(t["word_index"] for t in toks if t["word_index"] != toks[0]["word_index"])
    for tok in toks:
        if tok["word_index"] == second:
            tok["start_s"] = round(toks[0]["end_s"] - 0.001, 3)


def _frame_after_span(rec, s):
    seg = rec["segments"][s]
    seg["frame_time_s"] = round(seg["tokens"][-1]["end_s"] + 1.0, 3)


def _overlap_previous_segment(rec, s):  # its first word starts 1 ms before segment s-1 ends
    prev_end = rec["segments"][s - 1]["tokens"][-1]["end_s"]
    toks = rec["segments"][s]["tokens"]
    first = toks[0]["word_index"]
    for tok in toks:
        if tok["word_index"] == first:
            tok["start_s"] = round(prev_end - 0.001, 3)


def _negative_id(rec, s):
    rec["segments"][s]["tokens"][1]["id"] = -1


def _end_before_start(rec, s):
    tok = rec["segments"][s]["tokens"][2]
    tok["end_s"] = round(tok["start_s"] - 0.001, 3)


def _no_tokens(rec, s):
    rec["segments"][s]["tokens"] = []


def _unknown_variant(rec, s):
    rec["segments"][s]["variant"] = "blurry"


def _two_faults(rec, s):
    _regress_word_order(rec, s)
    _frame_after_span(rec, s)


@pytest.mark.parametrize(
    "line, s, spoil, note",
    [
        (1, 3, _regress_word_order, "invalid record: segments[3].tokens[25].word_index: word order regressed from 25 to 0"),
        (2, 1, _split_word_span, "invalid record: segments[1].tokens[1]: tokens of word 6 disagree on its time span"),
        (3, 4, _overlap_previous_word, "invalid record: segments[4].tokens[5].start_s: word 29 starts at 12.146 before the previous word ends at 12.147"),
        (4, 2, _frame_after_span, "invalid record: segments[2].frame_time_s: frame time 7.974 outside span [4.737, 6.974]"),
        (5, 5, _overlap_previous_segment, "invalid record: segments[5].start_s: segment starts at 13.865 before the previous one ends at 13.866"),
        (6, 1, _negative_id, "segments[1]: tokens[1]: token id must be non-negative, got -1"),
        (7, 3, _end_before_start, "segments[3]: tokens[2]: token 101: end 7.983 before start 7.984"),
        (8, 2, _no_tokens, "segments[2]: segment must contain at least one token"),
        (9, 4, _unknown_variant, "segments[4]: variant must be one of ('clean', 'noisy'), got 'blurry'"),
        # Only the first of several faults is named.
        (10, 2, _two_faults, "invalid record: segments[2].tokens[26].word_index: word order regressed from 18 to 0"),
    ],
)
def test_pack_names_the_first_fault_of_a_record(capsys, tmp_path, data_dir, line, s, spoil, note):
    segmented = tmp_path / "segmented.jsonl"
    assert main(["segment", "--input", str(data_dir / "golden_input.jsonl"), "--output", str(segmented)]) == 0
    lines = segmented.read_text().splitlines()
    rec = json.loads(lines[line - 1])
    spoil(rec, s)
    others = lines[: line - 1] + lines[line:]

    def pack(text_lines):
        src, stats = tmp_path / "in.jsonl", tmp_path / "stats.json"
        src.write_text("".join(l + "\n" for l in text_lines))
        code, out, err = run_cli(capsys, ["pack", "--input", str(src), "--stats", str(stats)])
        return code, out, err, json.loads(stats.read_text())

    code, out, err, stats = pack(lines[: line - 1] + [json.dumps(rec)] + lines[line:])
    assert (code, err) == (1, f"line {line}: skipped (ValueError: {note})\n")
    _, out_others, _, stats_others = pack(others)
    assert (out, stats) == (out_others, stats_others)  # the broken line is skipped whole
    assert stats["segments_in"] == sum(len(json.loads(l)["segments"]) for l in others)


def test_eval_story_malformed_line_is_fatal(capsys, tmp_path):
    tables = tmp_path / "tables.jsonl"
    truths = tmp_path / "truths.jsonl"
    flat = [math.log(0.25)] * 4
    good_table = json.dumps({"n": 1, "log_probs": flat})
    good_truth = json.dumps({"order": [0]})
    cases = [
        ("[1,2]", good_truth, "line must hold a JSON object"),
        (json.dumps({"n": "1", "log_probs": flat}), good_truth, "n must be an integer"),
        (json.dumps({"n": True, "log_probs": flat}), good_truth, "n must be an integer"),
        (
            json.dumps({"n": 1, "log_probs": [str(x) for x in flat]}),
            good_truth,
            "log_probs[0] must be a finite number",
        ),
        (
            json.dumps({"n": 1, "log_probs": flat[:3] + [float("nan")]}),
            good_truth,
            "log_probs[3] must be a finite number",
        ),
        (good_table, json.dumps({"order": ["0"]}), "order[0] must be an integer"),
        (good_table, json.dumps({"order": [0.0]}), "order[0] must be an integer"),
        (good_table, json.dumps({"order": 0}), "order must be a list"),
    ]
    for table_line, truth_line, message in cases:
        # The bad line follows a good line and a blank one, so it is line 3.
        tables.write_text(good_table + "\n\n" + table_line + "\n")
        truths.write_text(good_truth + "\n\n" + truth_line + "\n")
        bad_file = tables if table_line != good_table else truths
        code, out, err = run_cli(
            capsys, ["eval-story", "--tables", str(tables), "--truths", str(truths)]
        )
        assert code == 2, table_line + truth_line
        assert err.startswith(f"error: {bad_file} line 3: {message}"), err
        assert out == ""


def test_score_order_malformed_lines_are_data_errors(capsys, monkeypatch):
    flat = [math.log(0.5)] * 8
    good = {"n": 2, "classes": 2, "log_probs": flat}
    cases = [
        (dict(good, n="2"), "n must be an integer"),
        (dict(good, n=True), "n must be an integer"),
        (dict(good, n=2.0), "n must be an integer"),
        (dict(good, classes=True), "classes must be an integer"),
        (dict(good, classes="2"), "classes must be an integer"),
        (dict(good, log_probs=[str(x) for x in flat]), "log_probs[0] must be a finite number"),
        (dict(good, log_probs=flat[:7] + [True]), "log_probs[7] must be a finite number"),
        (dict(good, log_probs=flat[:7] + [float("inf")]), "log_probs[7] must be a finite number"),
        (dict(good, log_probs="0.5"), "log_probs must be a list"),
        (dict(good, n=0, log_probs=[]), "n must be at least 1, got 0"),
        # A negative n whose square still matches the value count.
        (dict(good, n=-2), "n must be at least 1, got -2"),
        (dict(good, log_probs=[0.0] * 8), "cell (0, 0) is not normalized"),
        # Normalized cells whose sums overflow: JSON has no -Infinity.
        (dict(good, n=3, log_probs=[0.0, -1.7e308] * 9), "best score -inf is not finite"),
        (dict(n=2, log_probs=[0.0, -1.7e308, -1.7e308, -1.7e308] * 4), "best score -inf"),
    ]
    for obj, message in cases:
        text = json.dumps(good) + "\n" + json.dumps(obj) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be more stderr
            code, out, err = run_cli(capsys, ["score-order"], text, monkeypatch)
        assert code == 1, obj
        assert err.startswith("line 2: skipped") and err.count("\n") == 1, err
        assert message in err, err
        assert [json.loads(line)["permutation"] for line in out.splitlines()] == [[0, 1]]


def test_score_order_takes_the_best_of_a_table_whose_slot_scores_overflow(capsys, monkeypatch):
    half, big = math.log(0.5), -1.7e308
    cells = [[half, half, big, big], [big, big, big, 0], [half, big, half, big], [big, big, 0, big]]
    line = json.dumps({"n": 2, "log_probs": [x for cell in cells for x in cell]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["score-order"], line + "\n", monkeypatch)
    assert (code, err) == (0, "")
    assert out == '{"permutation":[1,0],"score":-1.7e+308,"schema_version":"1"}\n'


# Each bad table as (n, log_probs of a 2- or 4-class table) and its message.
BAD_TABLES = {
    "empty": (lambda c: (0, []), "n must be at least 1, got 0"),
    "size": (lambda c: (2, [0.0] * 3), "expected {size} log-probabilities for n=2, got 3"),
    "unnormalized": (
        lambda c: (1, [0.0, 0.0] + [-1e300] * (c - 2)),
        "cell (0, 0) is not normalized: logsumexp 0.693 (tolerance 1e-06)",
    ),
    "nan": (lambda c: (1, [float("nan")] * c), "log_probs[0] must be a finite number, got nan"),
}


@pytest.mark.parametrize("fault", list(BAD_TABLES))
@pytest.mark.parametrize("classes", [2, 4])
def test_both_table_kinds_reject_a_bad_line_alike(capsys, monkeypatch, classes, fault):
    table, message = BAD_TABLES[fault]
    n, flat = table(classes)
    text = json.dumps({"n": n, "classes": classes, "log_probs": flat}) + "\n"
    code, out, err = run_cli(capsys, ["score-order"], text, monkeypatch)
    assert (code, out) == (1, "")
    assert err == f"line 1: skipped (ValueError: {message.format(size=4 * classes)})\n"


MASK_ARGV = ["mask", "--vocab-size", "100", "--mask-id", "99"]
MASK_GOOD = {"sequence_id": "s", "tokens": [10, 11, 12], "weights": [1.0, 2, 0.5]}
CORRUPT_GOOD = {"doc_id": "d", "words": ["Hello", "world"]}


@pytest.mark.parametrize(
    "argv, good, bad, message",
    [
        (MASK_ARGV, MASK_GOOD, {"sequence_id": 7}, "sequence_id must be a string"),
        (MASK_ARGV, MASK_GOOD, {"tokens": [10, "11", 12]}, "tokens[1] must be an integer"),
        (MASK_ARGV, MASK_GOOD, {"tokens": [10, 11.0, 12]}, "tokens[1] must be an integer"),
        (MASK_ARGV, MASK_GOOD, {"tokens": [10, True, 12]}, "tokens[1] must be an integer"),
        (MASK_ARGV, MASK_GOOD, {"weights": [1.0, "2", 0.5]}, "weights[1] must be a finite number"),
        (MASK_ARGV, MASK_GOOD, {"weights": [1.0, False, 0.5]}, "weights[1] must be a finite number"),
        (MASK_ARGV, MASK_GOOD, {"weights": [1.0, math.inf, 0.5]}, "weights[1] must be a finite number"),
        (MASK_ARGV, MASK_GOOD, {"weights": [[1.0, 2, 0.5]]}, "weights[0] must be a finite number"),
        (MASK_ARGV, MASK_GOOD, {"special_positions": ["0"]}, "special_positions[0] must be an integer"),
        (MASK_ARGV, MASK_GOOD, {"special_positions": [0.0]}, "special_positions[0] must be an integer"),
        (["corrupt"], CORRUPT_GOOD, {"doc_id": 3}, "doc_id must be a string"),
        (["corrupt"], CORRUPT_GOOD, {"doc_id": None}, "doc_id must be a string"),
        (["corrupt"], CORRUPT_GOOD, {"words": ["Hello", 5]}, "words[1] must be a string"),
        (["corrupt"], CORRUPT_GOOD, {"words": "Hello world"}, "words must be a list"),
    ],
)
def test_mask_and_corrupt_malformed_lines_are_data_errors(
    capsys, monkeypatch, argv, good, bad, message
):
    text = json.dumps(good) + "\n" + json.dumps(dict(good, **bad)) + "\n"
    code, out, err = run_cli(capsys, argv, text, monkeypatch)
    assert code == 1
    assert "line 2: skipped" in err and message in err, err
    assert "Traceback" not in err
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--vocab-size", "0", "--mask-id", "0"], "vocab_size must be positive, got 0"),
        (["--vocab-size", "10", "--mask-id", "12"], "mask_id 12 outside vocabulary of 10"),
    ],
)
def test_mask_bad_vocabulary_flags_are_fatal(capsys, monkeypatch, flags, message):
    text = json.dumps(MASK_GOOD) + "\n" + json.dumps(MASK_GOOD) + "\n"
    code, out, err = run_cli(capsys, ["mask", *flags], text, monkeypatch)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_segment_frame_manifest(capsys, monkeypatch, tmp_path):
    frames = tmp_path / "frames.jsonl"
    words = [{"text": "abcdefgh", "start_s": k * 1.0, "end_s": k + 0.5} for k in range(6)]
    text = json.dumps(video_obj(words=words)) + "\n" + "{bad\n"
    code, out, _ = run_cli(
        capsys,
        ["segment", "--tokens-per-segment", "16", "--frame-manifest", str(frames)],
        text,
        monkeypatch,
    )
    assert code == 1
    record = json.loads(out)
    rows = [json.loads(l) for l in frames.read_text().splitlines()]
    assert rows == [
        {"video_id": "v", "frame_time_s": seg["frame_time_s"]}
        for seg in record["segments"]
    ]
    assert [r["frame_time_s"] for r in rows] == [0.75, 2.75, 4.75]


def test_undecodable_and_deeply_nested_lines_are_data_errors(
    capsys, monkeypatch, tmp_path, data_dir
):
    good = (data_dir / "golden_input.jsonl").read_bytes().splitlines()
    lone = json.dumps(video_obj(video_id="a\ud800")).encode()  # the escape "a\\ud800"
    encoded = lone.replace(b"\\ud800", "\ud800".encode("utf-8", "surrogatepass"))
    paired = json.dumps(video_obj(video_id="a\U0001F600")).encode()  # a valid escaped pair
    src = tmp_path / "in.jsonl"
    bad = [b'{"video_id": "\xff\xfe"}', b"[" * 100000, lone, encoded]
    src.write_bytes(b"\n".join(good[:3] + bad + [paired] + good[3:]) + b"\n")
    runs = []
    for jobs in ("1", "2"):
        out, manifest = tmp_path / f"out{jobs}.jsonl", tmp_path / f"m{jobs}.json"
        argv = ["run", "--jobs", jobs, "--input", str(src), "--output", str(out)]
        code = main(argv + ["--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == 1
        assert "UnicodeDecodeError" in err and "RecursionError" in err
        assert "UnicodeEncodeError" in err
        runs.append((out.read_bytes(), manifest.read_bytes()))
    assert runs[0] == runs[1]
    counts = json.loads(runs[0][1])["counts"]
    assert counts["input_records"] == len(good) + 5
    assert counts["data_errors"] == 4
    code, out, err = run_cli(capsys, ["filter", "--input", str(src)])
    assert code == 1
    assert "line 4: skipped (UnicodeDecodeError" in err
    assert "line 5: skipped (RecursionError" in err
    assert "line 6: skipped (UnicodeEncodeError" in err and "surrogates not allowed" in err
    assert "line 7: skipped (UnicodeDecodeError" in err
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == len(good) + 1 and rows[3]["video_id"] == "a\U0001F600"
    code, out, err = run_cli(capsys, ["filter"], lone.decode() + "\n", monkeypatch)
    assert code == 1 and "line 1: skipped (UnicodeEncodeError" in err and out == ""


@pytest.mark.parametrize("command", ["segment", "run"])
def test_overlapping_words_are_a_data_error(capsys, monkeypatch, command):
    words = [
        {"text": "hi", "start_s": 0.0, "end_s": 0.6},
        {"text": "there", "start_s": 0.5, "end_s": 0.9},
    ]
    line = json.dumps(video_obj(words=words)) + "\n"
    code, out, err = run_cli(capsys, [command], line, monkeypatch)
    assert code == 1 and out == ""
    assert "word 1 starts at 0.5 before the previous word ends at 0.6" in err


def test_pack_takes_segments_longer_than_the_default_cap(capsys, monkeypatch):
    words = [{"text": f"w{k}", "start_s": k * 0.1, "end_s": k * 0.1 + 0.05} for k in range(60)]
    code, segmented, _ = run_cli(
        capsys,
        ["segment", "--tokens-per-segment", "64"],
        json.dumps(video_obj(words=words, duration_s=30.0)) + "\n",
        monkeypatch,
    )
    assert code == 0
    lengths = [len(seg["tokens"]) for seg in json.loads(segmented)["segments"]]
    assert max(lengths) > 32
    code, packed, err = run_cli(
        capsys, ["pack", "--segments-per-example", "1"], segmented, monkeypatch
    )
    assert code == 0 and "skipped" not in err
    rows = [json.loads(l) for l in packed.splitlines()]
    assert [len(row["segments"][0]["tokens"]) for row in rows] == lengths


# Key order of every written line, as README "File formats" gives it.
TOKEN_KEYS = ["id", "word_index", "start_s", "end_s"]
SEGMENT_KEYS = ["tokens", "frame_time_s", "variant"]
VIDEO_KEYS = ["video_id", "duration_s", "category", "has_english_asr", "segments"]
RECORD_KEYS = ["schema_version", *VIDEO_KEYS]
EXAMPLE_KEYS = ["schema_version", "segments", "provenance"]


def assert_segment_keys(segments):
    for seg in segments:
        assert list(seg) == SEGMENT_KEYS
        assert all(list(tok) == TOKEN_KEYS for tok in seg["tokens"])


def test_every_writer_keeps_the_documented_key_order(capsys, monkeypatch, data_dir):
    golden = str(data_dir / "golden_input.jsonl")
    _, segmented, _ = run_cli(capsys, ["segment", "--input", golden])
    _, packed, _ = run_cli(
        capsys, ["pack", "--segments-per-example", "1"], segmented, monkeypatch
    )
    _, ran, _ = run_cli(capsys, ["run", "--input", golden])
    for line in segmented.splitlines():
        obj = json.loads(line)
        assert list(obj) == RECORD_KEYS
        assert_segment_keys(obj["segments"])
    examples = [json.loads(line) for line in packed.splitlines() + ran.splitlines()]
    assert len(examples) > 7
    for obj in examples:
        assert list(obj) == EXAMPLE_KEYS
        assert_segment_keys(obj["segments"])
        assert all(type(p) is list and len(p) == 2 for p in obj["provenance"])
    line = json.dumps(LINE_READERS["align"][1])
    _, aligned, _ = run_cli(capsys, ["align"], line + "\n", monkeypatch)
    obj = json.loads(aligned)
    assert list(obj) == ["pairs", "total_cost", "clean_words", "schema_version"]
    assert obj["pairs"] == [[0, 0]]
    assert [list(word) for word in obj["clean_words"]] == [["text", "start_s", "end_s"]]


SEGMENT_RECORD = {
    "video_id": "v",
    "duration_s": 5.0,
    "category": "c",
    "has_english_asr": True,
    "segments": [
        {
            "tokens": [{"id": 1, "word_index": 0, "start_s": 0.0, "end_s": 1.0}],
            "frame_time_s": 0.5,
            "variant": "clean",
        }
    ],
}
LINE_READERS = {
    "filter": (["filter"], video_obj()),
    "align": (["align"], {"noisy": [{"text": "a", "start_s": 0, "end_s": 1}], "clean": ["a"]}),
    "corrupt": (["corrupt"], CORRUPT_GOOD),
    "segment": (["segment"], video_obj()),
    "pack": (["pack", "--segments-per-example", "1"], SEGMENT_RECORD),
    "mask": (MASK_ARGV, MASK_GOOD),
    "score-order": (["score-order"], {"n": 2, "classes": 2, "log_probs": [math.log(0.5)] * 8}),
    "run": (["run"], video_obj()),
    "eval-story": (["eval-story"], {"n": 1, "log_probs": [math.log(0.25)] * 4}),
}


def envelope_faults(good: dict) -> list[tuple[bytes, str]]:
    """``good`` spoiled by each fault of the line envelope, with a part of its message."""
    escaped = json.dumps(dict(good, note="\ud800")).encode()  # holds the escape "\\ud800"
    cesu = "\ud800".encode("utf-8", "surrogatepass")
    return [
        (escaped.replace(b"\\ud800", b"\xff"), "can't decode byte 0xff"),
        (escaped, "surrogates not allowed"),
        (escaped.replace(b"\\ud800", cesu), "can't decode byte 0xed"),
        (b"[1,2]", "line must hold a JSON object"),
        (json.dumps(dict(good, schema_version=1)).encode(), "unsupported schema_version 1"),
    ]


@pytest.mark.parametrize("command", list(LINE_READERS))
def test_every_line_reader_decodes_the_envelope_alike(capsys, tmp_path, command):
    argv, good = LINE_READERS[command]
    src, truths = tmp_path / "in.jsonl", tmp_path / "truths.jsonl"
    truths.write_text(json.dumps({"order": [0]}) + "\n")
    if command == "eval-story":
        argv = [*argv, "--truths", str(truths), "--tables", str(src)]
    else:
        argv = [*argv, "--input", str(src)]

    def read(line: bytes) -> tuple[int, str, str]:
        src.write_bytes(line + b"\n")
        return run_cli(capsys, argv)

    plain = json.dumps(good).encode()
    assert read(plain)[0] == 0
    assert read(b"\xef\xbb\xbf" + plain) == read(plain)  # a BOM is allowed
    for line, message in envelope_faults(good):
        code, out, err = read(line)
        assert out == "", line
        assert "Traceback" not in err
        if command == "eval-story":
            assert code == 2 and err.startswith(f"error: {src} line 1: "), err
        else:
            assert code == 1 and "line 1: skipped (" in err, err
        assert message in err, err
