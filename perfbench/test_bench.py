"""Self-tests of the benchmark: generator determinism, checks that reject
corrupted outputs, and a tiny smoke run of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import checks  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import vidtext  # noqa: E402
from vidtext import cli, ordering  # noqa: E402

TINY_CORPUS = gen.CorpusSpec(records=24, median_words=60, vocab_size=500)
TINY_ALIGN = gen.AlignSpec(pairs=3, min_words=8, max_words=30, vocab_size=500)
TINY_ORDER = gen.OrderSpec(sizes=(3, 4, 8), copies=1)


@pytest.mark.parametrize(
    "make",
    [
        lambda s: gen.corpus(s, TINY_CORPUS),
        lambda s: gen.align_pairs(s, TINY_ALIGN),
        lambda s: gen.order_tables(s, TINY_ORDER),
    ],
    ids=["corpus", "align", "order"],
)
def test_generator_is_deterministic_per_seed(make):
    first, plan = make(5)
    again, plan_again = make(5)
    other, _ = make(6)
    assert first == again and plan == plan_again
    assert first != other


def test_corpus_plan_covers_every_outcome():
    lines, plan = gen.corpus(5, TINY_CORPUS)
    assert plan["input_records"] == len(lines) == 24
    assert all(plan["rejected"][r] >= 1 for r in gen.REJECT_REASONS)
    assert all(plan["errors_by_kind"][k] >= 1 for k in gen.ERROR_KINDS)
    assert plan["accepted"] == len(plan["accepted_ids"])


def _cli(tmp_path: Path, lines: list[str], *argv: str) -> tuple[bytes, bytes | None]:
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, man = tmp_path / "out.jsonl", tmp_path / "manifest.json"
    extra = ["--manifest", str(man)] if argv[0] == "run" else []
    cli.main([*argv, "--input", str(src), "--output", str(out), *extra])
    return out.read_bytes(), man.read_bytes() if extra else None


def test_run_check_rejects_one_flipped_token_id(tmp_path):
    lines, plan = gen.corpus(5, TINY_CORPUS)
    out, man = _cli(tmp_path, lines, "run", "--jobs", "1")
    assert checks.check_run(lines, out, man, plan, oracles) == []
    examples = [json.loads(x) for x in out.decode().splitlines()]
    examples[-1]["segments"][3]["tokens"][2]["id"] += 1
    bad = "".join(json.dumps(e) + "\n" for e in examples).encode()
    assert checks.check_run(lines, bad, man, plan, oracles)


def test_run_check_rejects_wrong_manifest_counts(tmp_path):
    lines, plan = gen.corpus(5, TINY_CORPUS)
    out, man = _cli(tmp_path, lines, "run", "--jobs", "1")
    manifest = json.loads(man)
    manifest["counts"]["rejected"]["no_asr"] += 1
    assert checks.check_run(lines, out, json.dumps(manifest).encode(), plan, oracles)


def test_align_check_rejects_wrong_total_cost(tmp_path):
    lines, _ = gen.align_pairs(5, TINY_ALIGN)
    out, _ = _cli(tmp_path, lines, "align")
    assert checks.check_align(lines, out, 5, vidtext) == []
    results = [json.loads(x) for x in out.decode().splitlines()]
    results[1]["total_cost"] += 1
    bad = "".join(json.dumps(r) + "\n" for r in results).encode()
    assert checks.check_align(lines, bad, 5, vidtext)


def test_order_check_rejects_swapped_permutation_entry(tmp_path):
    lines, _ = gen.order_tables(5, TINY_ORDER)
    out, _ = _cli(tmp_path, lines, "score-order")
    assert checks.check_order(lines, out, 5, ordering, oracles) == []
    results = [json.loads(x) for x in out.decode().splitlines()]
    perm = results[0]["permutation"]
    perm[0], perm[1] = perm[1], perm[0]
    bad = "".join(json.dumps(r) + "\n" for r in results).encode()
    assert checks.check_order(lines, bad, 5, ordering, oracles)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


TINY_GENERATORS = {
    gen.corpus: lambda seed: gen.corpus(seed, TINY_CORPUS),
    gen.align_pairs: lambda seed: gen.align_pairs(seed, TINY_ALIGN),
    gen.order_tables: lambda seed: gen.order_tables(seed, TINY_ORDER),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run(workload, trace, monkeypatch, capsys):
    wl = run.WORKLOADS[workload]
    monkeypatch.setitem(
        run.WORKLOADS, workload, dataclasses.replace(wl, generate=TINY_GENERATORS[wl.generate])
    )
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    stdout, stderr = capsys.readouterr()
    assert rc == 0, stderr
    report, result = (json.loads(x) for x in stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(want)
    if not trace:
        assert report["failed_share"]["value"] == report["failed_share"]["planned"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "align",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
