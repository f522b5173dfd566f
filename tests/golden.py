"""The golden table: ``data/golden/cases.json`` pins the bytes of every subcommand.

A case gives the argv of one ``vidtext`` call, the file its stdin reads
(``stdin``, else stdin is empty), its exit code, the files holding its
expected stdout and stderr (none: empty), and the side files it writes, each
named under ``{tmp}`` and mapped to the file of its expected bytes (null: it
must not exist).  Paths are relative to ``tests/data``, the directory a case
runs in.  Standard library only, so CI runs it where pytest is not installed:

    python tests/golden.py [--hide MODULE]... [COMMAND]...

runs the cases of the named subcommands (all without one) with each MODULE
unimportable, prints each mismatch and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def load_cases() -> list[dict]:
    return json.loads((DATA / "golden" / "cases.json").read_text(encoding="utf-8"))


def _mismatch(what: str, expected: bytes, got: bytes) -> list[str]:
    if got == expected:
        return []
    at = next((k for k, (a, b) in enumerate(zip(expected, got)) if a != b), min(len(expected), len(got)))
    return [f"{what}: {len(got)} bytes, expected {len(expected)}, first difference at byte {at}: {got[at:at + 80]!r}"]


def run_case(case: dict, tmp: Path) -> list[str]:
    """What differs from ``case``'s committed bytes when ``vidtext.cli.main``
    runs it in this process, writing its side files to the empty directory
    ``tmp``; an empty list if nothing does."""
    from vidtext.cli import main  # here, so that modules hidden before the call stay hidden

    out, err, cwd, stdin = io.StringIO(), io.StringIO(), os.getcwd(), sys.stdin
    with io.TextIOWrapper(open(DATA / case["stdin"], "rb") if "stdin" in case else io.BytesIO()) as source:
        try:
            os.chdir(DATA)
            sys.stdin = source
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.replace("{tmp}", str(tmp)) for arg in case["argv"]])
        except SystemExit as e:  # argparse rejected the argv
            code = e.code
        finally:
            sys.stdin = stdin
            os.chdir(cwd)
    problems = [] if code == case["exit"] else [f"exit code {code}, expected {case['exit']}"]
    for what, text in (("stdout", out), ("stderr", err)):
        want = (DATA / case[what]).read_bytes() if what in case else b""
        problems += _mismatch(what, want, text.getvalue().encode("utf-8"))
    for name, rel in case.get("files", {}).items():
        path = tmp / name
        if rel is None:
            problems += [f"{name} was written"] if path.exists() else []
        elif not path.exists():
            problems.append(f"{name} was not written")
        else:
            problems += _mismatch(name, (DATA / rel).read_bytes(), path.read_bytes())
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the golden table's cases.")
    parser.add_argument("--hide", action="append", default=[], metavar="MODULE",
                        help="make MODULE unimportable first; repeatable")
    parser.add_argument("commands", nargs="*", help="run only the cases of these subcommands")
    args = parser.parse_args(argv)
    for name in args.hide:
        sys.modules[name] = None  # importing it now raises ImportError
    cases = [c for c in load_cases() if not args.commands or c["argv"][0] in args.commands]
    failed = 0
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            problems = run_case(case, Path(tmp))
        for problem in problems:
            print(f"{case['id']}: {problem}")
        failed += bool(problems)
    print(f"{len(cases) - failed} of {len(cases)} golden cases match")
    return 1 if failed or not cases else 0


if __name__ == "__main__":
    sys.exit(main())
