"""Committed end-to-end outputs must reproduce byte for byte: each case of the
golden table (``tests/golden.py``) run in process."""

import argparse
import json

import pytest

from golden import load_cases, run_case
from vidtext.cli import build_parser

CASES = load_cases()


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_golden_case(case, tmp_path):
    assert run_case(case, tmp_path) == []


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_subcommand_and_loss_kind_has_a_golden_case():
    commands = _subcommands(build_parser())
    wanted = {(name,) for name in commands} | {("loss", kind) for kind in _subcommands(commands["loss"])}
    covered = {tuple(case["argv"][:n]) for case in CASES for n in (1, 2)}
    assert sorted(wanted - covered) == []


def test_golden_manifest_counts_conserve(data_dir):
    manifest = json.loads((data_dir / "golden_manifest.json").read_text())
    counts = manifest["counts"]
    assert counts["accepted"] + sum(counts["rejected"].values()) + counts[
        "data_errors"
    ] == counts["input_records"]
    assert counts["examples"] * 16 + counts["segments_dropped"] == counts["segments"]
    assert all(v == 1 for v in counts["rejected"].values())
