import argparse
import dataclasses
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from vidtext.cli import build_parser, main
from vidtext.model import dump_line


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(code: str, timeout: float = 120, **env_vars: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports this checkout's vidtext,
    with ``env_vars`` added to the environment and no ``OPENBLAS_NUM_THREADS``
    unless they name it (``main`` run in this process may have set it)."""
    import vidtext

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars, PYTHONPATH=str(Path(vidtext.__file__).parents[1]))
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


_THREADS = """
import os, sys
import vidtext.cli
before = os.environ.get("OPENBLAS_NUM_THREADS")
code = vidtext.cli.main({argv!r})  # imports numpy
print(code, "numpy" in sys.modules, before, os.environ["OPENBLAS_NUM_THREADS"])
print(len(os.listdir("/proc/self/task")))
"""
_SCRAMBLE = ["scramble-plan", "--count", "1"]
needs_proc_tasks = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="no /proc/self/task to count threads in"
)


@needs_proc_tasks
def test_main_runs_numpy_with_one_blas_thread():
    done = _python(_THREADS.format(argv=_SCRAMBLE))
    lines = done.stdout.splitlines()
    # Importing the CLI leaves the variable unset; main sets it before numpy loads.
    assert lines[1:] == ["0 True None 1", "1"], done


@needs_proc_tasks
def test_main_keeps_a_blas_thread_count_the_caller_set():
    done = _python(_THREADS.format(argv=_SCRAMBLE), OPENBLAS_NUM_THREADS="2")
    assert done.stdout.splitlines()[1] == "0 True 2 2", done


@needs_proc_tasks
def test_score_order_loads_numpy_at_its_first_line_with_one_blas_thread(tmp_path):
    src, out = tmp_path / "order.jsonl", tmp_path / "out.jsonl"
    src.write_text(ORDER_LINE + "\n", encoding="utf-8")
    argv = ["score-order", "--input", str(src), "--output", str(out)]
    done = _python(_THREADS.format(argv=argv))
    assert done.stdout.splitlines() == ["0 True None 1", "1"], done
    assert out.read_text(encoding="utf-8") == ORDER_OUT


# One valid line of each subcommand and the bytes it writes for it.
ORDER_LINE = json.dumps(
    {"n": 2, "classes": 2, "log_probs": [-0.69314718, -0.69314718, -0.1053605, -2.3025851,
                                         -2.3025851, -0.1053605, -0.69314718, -0.69314718]}
)
ORDER_OUT = '{"permutation":[0,1],"score":-0.210721,"schema_version":"1"}\n'
ALIGN_LINE = json.dumps(
    {"noisy": [{"text": "helo", "start_s": 0.0, "end_s": 0.4},
               {"text": "wrld", "start_s": 0.5, "end_s": 0.9}],
     "clean": ["hello", "world"]}
)
ALIGN_OUT = (
    '{"pairs":[[0,0],[1,1]],"total_cost":2,"clean_words":[{"text":"hello","start_s":0.0,'
    '"end_s":0.4},{"text":"world","start_s":0.5,"end_s":0.9}],"schema_version":"1"}\n'
)
VALID = {"score-order": (ORDER_LINE, ORDER_OUT), "align": (ALIGN_LINE, ALIGN_OUT)}


def _first_line_argvs(tmp_path, command: str) -> list[list[str]]:
    """``command`` on an empty input, one truncated line, then one valid line."""
    argvs = []
    valid = VALID[command][0] + "\n"
    for name, text in (("empty", ""), ("truncated", '{"n": 1, "log_p\n'), ("valid", valid)):
        (tmp_path / f"{name}.jsonl").write_text(text, encoding="utf-8")
        out = tmp_path / f"{command}-{name}.out"
        argvs.append([command, "--input", str(tmp_path / f"{name}.jsonl"), "--output", str(out)])
    return argvs


@pytest.mark.parametrize("command", list(VALID))
def test_score_order_and_align_load_numpy_at_their_first_line(tmp_path, command):
    # An empty shard, or one whose lines are all data errors, never pays numpy's start-up.
    argvs = _first_line_argvs(tmp_path, command)
    code = f"""
import sys
from vidtext.cli import main
for argv in {argvs!r}:
    print(main(argv), "numpy" in sys.modules)
"""
    done = _python(code)
    assert done.stdout.splitlines() == ["0 False", "1 False", "0 True"], done
    assert done.stderr.startswith("line 1: skipped (JSONDecodeError: ") and done.stderr.count("\n") == 1
    outs = [Path(argv[-1]).read_text(encoding="utf-8") for argv in argvs]
    assert outs == ["", "", VALID[command][1]]


@pytest.mark.parametrize("command", list(VALID))
def test_a_missing_numpy_is_fatal_before_the_output_is_opened(tmp_path, command):
    # Never a data error, and an existing --output keeps its bytes; a shard with
    # no line to handle needs no numpy.
    argvs = _first_line_argvs(tmp_path, command)
    for argv in argvs:
        Path(argv[-1]).write_text("keep\n", encoding="utf-8")
    code = f"""
import os, sys
sys.path[:] = [p for p in sys.path if not os.path.isdir(os.path.join(p, "numpy"))]  # as if not installed
from vidtext.cli import main
print([main(argv) for argv in {argvs!r}])
"""
    done = _python(code)
    assert done.stdout.splitlines() == ["[0, 1, 2]"], done
    note, *errors = done.stderr.splitlines()
    assert note.startswith("line 1: skipped (JSONDecodeError: "), done
    assert errors == ["error: No module named 'numpy'"], done
    assert [Path(argv[-1]).read_text(encoding="utf-8") for argv in argvs] == ["", "", "keep\n"]


@pytest.mark.parametrize(
    "command,module,name", [("score-order", "ordering", "table_from_flat"), ("align", "align", "align_and_time")]
)
def test_a_vidtext_import_that_fails_keeps_its_traceback(tmp_path, command, module, name):
    # As if the handler imported a name its module no longer has: a bug, not a fatal error.
    argv = _first_line_argvs(tmp_path, command)[-1]
    code = f"""
import vidtext.{module}
del vidtext.{module}.{name}
from vidtext.cli import main
main({argv!r})
"""
    done = _python(code)
    assert done.returncode == 1, done
    assert done.stderr.startswith("Traceback"), done
    assert f"ImportError: cannot import name '{name}' from 'vidtext.{module}'" in done.stderr, done


def test_score_order_loads_no_numpy_ma(tmp_path):
    # numpy.ma costs about 17 ms of start-up; np.setdiff1d and np.unique import it.
    # score-order and align load no config, pipeline, gate, segmenting,
    # tokenizer or masking module either.
    rng = np.random.default_rng(0)
    lines = []
    for n, classes in ((3, 4), (6, 4), (5, 2)):
        logits = rng.normal(size=(n, n, classes))
        log_probs = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        lines.append(json.dumps({"n": n, "classes": classes, "log_probs": log_probs.ravel().tolist()}))
    (tmp_path / "order.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    pair = {"noisy": [{"text": "helo", "start_s": 0.0, "end_s": 0.4}], "clean": ["hello"]}
    (tmp_path / "align.jsonl").write_text(json.dumps(pair) + "\n", encoding="utf-8")
    argvs = [
        [command, "--input", str(tmp_path / f"{name}.jsonl"), "--output", str(tmp_path / name[0])]
        for command, name in (("score-order", "order"), ("align", "align"))
    ]
    unused = ("numpy.ma", *(f"vidtext.{m}" for m in UNUSED_BY_SCORE_ORDER_AND_ALIGN))
    code = f"""
import sys
from vidtext.cli import main
print([main(argv) for argv in {argvs!r}], [m for m in {unused!r} if m in sys.modules])
"""
    done = _python(code)
    assert done.stdout.splitlines()[-1:] == ["[0, 0] []"], done
    assert len((tmp_path / "o").read_text(encoding="utf-8").splitlines()) == 3
    assert len((tmp_path / "a").read_text(encoding="utf-8").splitlines()) == 1


UNUSED_BY_SCORE_ORDER_AND_ALIGN = (
    "config", "pipeline", "filters", "segmenting", "tokenizers", "masking",
)

# Each subcommand's option strings, as argparse holds them.
OPTIONS = {
    "filter": "-h --help --input --output --config --seed --max-duration-s --prob-threshold "
    "--min-objects --sim-threshold --distinct-classes",
    "align": "-h --help --input --output",
    "corrupt": "-h --help --input --output --pronounce-dict --config --seed --replace-prob "
    "--homophone-share --filler-prob --tokenizer",
    "segment": "-h --help --input --output --config --seed --tokens-per-segment --tokenizer "
    "--frame-manifest",
    "pack": "-h --help --input --output --config --seed --segments-per-example "
    "--no-cross-video --stats",
    "mask": "-h --help --input --output --config --seed --rate --attended-share --span-mean "
    "--top-frac --vocab-size --mask-id --special-id",
    "loss contrastive": "-h --help --frames --captions --tau --row-only --grads-out",
    "loss mlm": "-h --help --logits --labels",
    "loss order": "-h --help --pairs --classes --params --activation",
    "loss combine": "-h --help --mlm --contrastive --ordering --coeff",
    "score-order": "-h --help --input --output",
    "eval-story": "-h --help --tables --truths --footrule",
    "shape": "-h --help --config --seed --image-width --image-height --patch --pool "
    "--group-segments --tokens-per-segment --segments-per-example",
    "selfcheck": "-h --help --tau --patch",
    "run": "-h --help --input --output --manifest --jobs --config --seed --tokenizer "
    "--tokens-per-segment --segments-per-example --no-cross-video --max-duration-s "
    "--prob-threshold --min-objects --sim-threshold --distinct-classes",
    "scramble-plan": "-h --help --segments --prob --count --seed",
}


def _subcommand(parser: argparse.ArgumentParser, words: list[str]) -> argparse.ArgumentParser:
    for word in words:
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subs.choices[word]
    return parser


@pytest.mark.parametrize("command", OPTIONS)
def test_each_subcommand_keeps_its_options(command):
    """The parser built for one subcommand gives it the options the full parser does."""
    words = command.split()
    for parser in (build_parser(), build_parser(words)):
        actions = _subcommand(parser, words)._actions
        assert " ".join(s for a in actions for s in a.option_strings) == OPTIONS[command]


def test_every_subcommand_is_listed_whichever_one_is_named():
    names = list(dict.fromkeys(command.split()[0] for command in OPTIONS))
    for argv in (None, ["score-order"], ["--version"]):
        subs = next(a for a in build_parser(argv)._actions if isinstance(a, argparse._SubParsersAction))
        assert list(subs.choices) == names


def test_commands_that_start_no_pool_load_no_multiprocessing(tmp_path, data_dir):
    golden, seg = data_dir / "golden_input.jsonl", tmp_path / "seg.jsonl"
    pair = {"noisy": [{"text": "helo", "start_s": 0.0, "end_s": 0.4}], "clean": ["hello"]}
    (tmp_path / "align.jsonl").write_text(json.dumps(pair) + "\n", encoding="utf-8")
    table = {"n": 2, "log_probs": [math.log(0.25)] * 16}
    (tmp_path / "order.jsonl").write_text(json.dumps(table) + "\n", encoding="utf-8")
    argvs = [
        ["run", "--jobs", "1", "--input", golden, "--output", tmp_path / "run.jsonl",
         "--manifest", tmp_path / "m.json"],
        ["filter", "--input", golden, "--output", tmp_path / "filter.jsonl"],
        ["segment", "--input", golden, "--output", seg],
        ["pack", "--input", seg, "--output", tmp_path / "pack.jsonl", "--stats", tmp_path / "s"],
        ["align", "--input", tmp_path / "align.jsonl", "--output", tmp_path / "a.jsonl"],
        ["score-order", "--input", tmp_path / "order.jsonl", "--output", tmp_path / "o.jsonl"],
    ]
    runs = [list(map(str, argv)) for argv in argvs]
    code = f"""
import sys
sys.modules["multiprocessing"] = None  # importing it now raises ImportError
from vidtext.cli import main
print([main(argv) for argv in {runs!r}])
"""
    done = _python(code)
    assert done.stdout.splitlines()[-1:] == ["[0, 0, 0, 0, 0, 0]"], done
    assert (tmp_path / "run.jsonl").read_bytes() == (data_dir / "golden_output.jsonl").read_bytes()


def test_run_on_an_empty_input_starts_no_pool(capsys, monkeypatch, tmp_path):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    results = []
    for jobs in ("1", "2"):
        out, manifest = tmp_path / f"out{jobs}.jsonl", tmp_path / f"manifest{jobs}.json"
        argv = ["run", "--jobs", jobs, "--input", str(empty), "--output", str(out),
                "--manifest", str(manifest)]
        code, stdout, err = run_cli(capsys, argv)
        results.append((code, stdout, err, out.read_bytes(), manifest.read_bytes()))
    assert results[0][0] == 0
    assert results[1] == results[0]


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


def _process_group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ctrl_c_ends_a_run_with_one_line_and_exit_two(tmp_path, data_dir, jobs):
    """SIGINT to the process group of a busy ``run``, as Ctrl-C sends it: one
    ``error: interrupted`` line and exit 2, with no hang and no process left."""
    import vidtext

    src = tmp_path / "in.jsonl"
    src.write_bytes((data_dir / "golden_input.jsonl").read_bytes() * 300)  # about 1.5 s of work
    out, err = tmp_path / "out.jsonl", tmp_path / "err.txt"
    env = {**os.environ, "PYTHONPATH": str(Path(vidtext.__file__).parents[1])}
    code = "import sys; from vidtext.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "run", "--jobs", jobs, "--input", str(src),
            "--output", str(out), "--manifest", str(tmp_path / "manifest.json")]
    for _ in range(3):
        out.unlink(missing_ok=True)
        with open(err, "w") as err_fp:
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err_fp,
                                    start_new_session=True)
        try:
            deadline = time.monotonic() + 30
            while not out.exists() and time.monotonic() < deadline:  # its first write
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=30) == 2
            assert err.read_text() == "error: interrupted\n"
            deadline = time.monotonic() + 5  # no worker outlives the run
            while _process_group_alive(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _process_group_alive(proc.pid)
        finally:
            if _process_group_alive(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def test_a_pair_too_big_for_memory_is_a_data_error_of_its_line(tmp_path):
    """``align`` under a 350 MB address-space limit: the 6,000-word pair cannot
    get its cost matrix, so that line is skipped and the lines after it are
    still aligned, each as it is without the big pair."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    rng = random.Random(5)

    def pair(n: int) -> str:
        clean = ["".join(rng.choice("abcde") for _ in range(rng.randint(1, 6))) for _ in range(n)]
        noisy = [{"text": w[::-1], "start_s": k / 2, "end_s": k / 2 + 0.4} for k, w in enumerate(clean)]
        return json.dumps({"noisy": noisy, "clean": clean})

    small, big, last = pair(3), pair(6000), pair(4)

    def align_limited(lines: list[str]) -> tuple[subprocess.CompletedProcess, str]:
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["align", "--input", str(src), "--output", str(out)]
        done = _python(
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (350 << 20, 350 << 20))\n"
            f"from vidtext.cli import main; sys.exit(main({argv!r}))",
            60,
        )
        return done, out.read_text(encoding="utf-8")

    alone, expected = align_limited([small, last])
    assert (alone.returncode, alone.stderr, expected.count("\n")) == (0, "", 2)
    done, written = align_limited([small, big, last])
    assert done.returncode == 1
    assert re.fullmatch(r"line 2: skipped \(MemoryError: Unable to allocate .*\)\n", done.stderr)
    assert written == expected


def test_a_failed_run_start_leaves_the_output_file(capsys, monkeypatch, tmp_path, data_dir):
    import multiprocessing

    def failing_pool(*args, **kwargs):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing, "Pool", failing_pool)
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"earlier output\n")
    for flags in (["--jobs", "0"], ["--tokenizer", str(tmp_path / "missing")], ["--jobs", "2"]):
        argv = ["run", "--input", str(data_dir / "golden_input.jsonl"), "--output", str(out)]
        code, _, err = run_cli(capsys, argv + flags)
        assert code == 2 and err.startswith("error: "), err
        assert out.read_bytes() == b"earlier output\n"


# Each streaming subcommand with the flags it needs besides --input and --output;
# {name} is a file of that name beside the output.
STREAMS = {
    "filter": ["filter"],
    "align": ["align"],
    "corrupt": ["corrupt"],
    "segment": ["segment", "--frame-manifest", "{frames}"],
    "pack": ["pack", "--stats", "{stats}"],
    "mask": ["mask", "--vocab-size", "300", "--mask-id", "256"],
    "score-order": ["score-order"],
    "run-j1": ["run", "--jobs", "1", "--manifest", "{manifest}"],
    "run-j2": ["run", "--jobs", "2", "--manifest", "{manifest}"],
}


def _stream_argv(tmp_path, name: str) -> tuple[list[str], list[Path]]:
    """``name``'s argv on ``in.jsonl``, and its output and frame manifest files."""
    files = {key: tmp_path / f"{key}.jsonl" for key in ("out", "frames", "stats", "manifest")}
    argv = [arg.format(**files) for arg in STREAMS[name]]
    argv += ["--input", str(tmp_path / "in.jsonl"), "--output", str(files["out"])]
    return argv, [files["out"], *([files["frames"]] if name == "segment" else [])]


@pytest.mark.parametrize("name", list(STREAMS))
def test_a_fatal_error_before_the_first_write_leaves_the_outputs(capsys, monkeypatch, tmp_path, name):
    import builtins

    import vidtext.cli

    class Unreadable(io.BytesIO):
        def __iter__(self):
            raise OSError(5, "Input/output error")

    def failing_read(file, mode="r", *args, **kwargs):
        return Unreadable() if mode == "rb" else builtins.open(file, mode, *args, **kwargs)

    argv, outputs = _stream_argv(tmp_path, name)
    (tmp_path / "in.jsonl").write_bytes(b"{}\n")
    for path in outputs:
        path.write_bytes(b"earlier output\n")
    monkeypatch.setattr(vidtext.cli, "open", failing_read, raising=False)
    assert run_cli(capsys, argv) == (2, "", "error: [Errno 5] Input/output error\n")
    assert [path.read_bytes() for path in outputs] == [b"earlier output\n"] * len(outputs)


@pytest.mark.parametrize("text,status", [("", 0), ("{\n", 1)])
@pytest.mark.parametrize("name", list(STREAMS))
def test_an_input_without_output_lines_leaves_empty_outputs(capsys, tmp_path, name, text, status):
    argv, outputs = _stream_argv(tmp_path, name)
    (tmp_path / "in.jsonl").write_text(text, encoding="utf-8")
    for path in outputs:
        path.write_bytes(b"earlier output\n")
    code, out, _ = run_cli(capsys, argv)
    assert (code, out) == (status, "")
    assert [path.read_bytes() for path in outputs] == [b""] * len(outputs)


VIDEO = {"video_id": "v", "duration_s": 10.0, "category": "Howto", "has_english_asr": True}


@pytest.mark.parametrize("text", ["", json.dumps(VIDEO) + "\n"])
def test_an_output_that_cannot_be_opened_is_fatal(capsys, tmp_path, text):
    # Opened at the first write, or at the end when nothing was written.
    src, out = tmp_path / "in.jsonl", tmp_path / "missing" / "out.jsonl"
    src.write_text(text, encoding="utf-8")
    code, stdout, err = run_cli(capsys, ["filter", "--input", str(src), "--output", str(out)])
    assert (code, stdout, err) == (2, "", f"error: [Errno 2] No such file or directory: '{out}'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--output", "{same}"],
        ["run", "--output", "{same}"],
        ["run", "--output", "{out}", "--manifest", "{same}"],
        ["segment", "--output", "{out}", "--frame-manifest", "{same}"],
        ["pack", "--output", "{out}", "--stats", "{same}"],
    ],
)
def test_an_output_that_is_the_input_file_is_fatal(capsys, tmp_path, data_dir, argv):
    # The input would be truncated before its first line is read.
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_bytes((data_dir / "golden_input.jsonl").read_bytes())
    out.write_bytes(b"earlier output\n")
    same = tmp_path / "sub" / ".." / "in.jsonl"  # another name of the input file
    (tmp_path / "sub").mkdir()
    argv = [arg.format(same=same, out=out) for arg in argv] + ["--input", str(src)]
    flag = argv[argv.index(str(same)) - 1]
    assert run_cli(capsys, argv) == (2, "", f"error: {flag} {same} is the --input file\n")
    assert src.read_bytes() == (data_dir / "golden_input.jsonl").read_bytes()
    assert out.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("exists", [True, False])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--output", "{out}", "--manifest", "{same}"],
        ["pack", "--output", "{out}", "--stats", "{same}"],
        ["segment", "--output", "{out}", "--frame-manifest", "{same}"],
    ],
)
def test_two_outputs_that_name_one_file_are_fatal(capsys, tmp_path, data_dir, argv, exists):
    # The later write would replace the earlier one, or interleave with it.
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_bytes((data_dir / "golden_input.jsonl").read_bytes())
    if exists:
        out.write_bytes(b"earlier output\n")
    same = tmp_path / "sub" / ".." / "out.jsonl"  # another name of the first output
    (tmp_path / "sub").mkdir()
    argv = [arg.format(same=same, out=out) for arg in argv] + ["--input", str(src)]
    flag, first = argv[argv.index(str(same)) - 1], argv[argv.index(str(out)) - 1]
    assert run_cli(capsys, argv) == (2, "", f"error: {flag} {same} is the {first} file\n")
    assert out.read_bytes() == b"earlier output\n" if exists else not out.exists()


def test_outputs_that_are_not_regular_files_may_coincide(capsys, tmp_path, data_dir):
    argv = ["run", "--input", str(data_dir / "golden_input.jsonl"), "--output", os.devnull, "--manifest", os.devnull]
    assert run_cli(capsys, argv) == (0, "", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--output", "{same}"],
        ["run", "--output", "{same}"],
        ["run", "--output", "{out}", "--manifest", "{same}"],
    ],
)
def test_an_output_that_is_the_file_stdin_reads_is_fatal(tmp_path, data_dir, argv):
    # ``vidtext filter --output a.jsonl < a.jsonl``: the first write would
    # truncate the file before stdin had read it.
    import vidtext

    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    text = b"".join((data_dir / "golden_input.jsonl").read_bytes().splitlines(keepends=True)[:3])
    src.write_bytes(text)
    out.write_bytes(b"earlier output\n")
    argv = [arg.format(same=src, out=out) for arg in argv]
    flag = argv[argv.index(str(src)) - 1]
    env = {**os.environ, "PYTHONPATH": str(Path(vidtext.__file__).parents[1])}
    with open(src, "rb") as stdin:
        done = subprocess.run(
            [sys.executable, "-m", "vidtext.cli", *argv],
            stdin=stdin, capture_output=True, text=True, env=env, timeout=120,
        )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {flag} {src} is the file stdin reads\n")
    assert src.read_bytes() == text
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


@pytest.mark.parametrize("activation", ["gelu", "relu"])
def test_loss_order_is_the_library_loss_of_the_head_logits(capsys, tmp_path, activation):
    from vidtext.losses import OrderHeadParams, order_logits, ordering_loss

    rng = np.random.default_rng(11)
    params = OrderHeadParams(
        w1=rng.normal(size=(5, 6)), b1=rng.normal(size=5), w2=rng.normal(size=(4, 5)),
        b2=rng.normal(size=4), activation=activation,
    )
    pairs, classes = rng.normal(size=(6, 6)), rng.integers(0, 4, size=6)
    head = tmp_path / "head.npz"
    np.savez(head, w1=params.w1, b1=params.b1, w2=params.w2, b2=params.b2)
    files = {"pairs": pairs, "narrow": pairs[:, :4], "classes": classes, "five": classes[:5]}
    for name, arr in files.items():
        np.save(tmp_path / f"{name}.npy", arr)

    def loss_order(pairs_name: str, classes_name: str):
        argv = ["loss", "order", "--params", str(head), "--activation", activation,
                "--pairs", str(tmp_path / f"{pairs_name}.npy"),
                "--classes", str(tmp_path / f"{classes_name}.npy")]
        return run_cli(capsys, argv)

    logits = [order_logits(row[:3], row[3:], params) for row in pairs]
    value = ordering_loss(logits, [int(c) for c in classes]).value
    assert loss_order("pairs", "classes") == (0, dump_line({"schema_version": "1", "loss": "order", "value": value}) + "\n", "")
    assert loss_order("narrow", "classes") == (2, "", "error: pairs must be rows of 6 values, got (6, 4)\n")
    assert loss_order("pairs", "five") == (2, "", "error: 6 logit vectors but 5 labels\n")


def test_loss_mlm_is_the_library_loss(capsys, tmp_path):
    from vidtext.losses import masked_lm_loss

    logits, labels = [[0.5, 0.1, -1.0], [0.2, 0.3, 2.0], [0.1, 0.9, 0.0]], [1, -100, 2]
    paths = tmp_path / "logits.json", tmp_path / "labels.json"
    for path, value in zip(paths, (logits, labels)):
        path.write_text(json.dumps(value), encoding="utf-8")
    code, out, err = run_cli(capsys, ["loss", "mlm", "--logits", str(paths[0]), "--labels", str(paths[1])])
    value = masked_lm_loss(np.array(logits), np.array(labels)).value
    assert (code, json.loads(out), err) == (0, {"schema_version": "1", "loss": "mlm", "value": value}, "")


_HUGE = -1e308
# A normalized 2x2 table: cells (0, 0) and (1, 1) are "same", the others "different
# video", so every ordering sums two -1e308 log-probabilities and overflows to -inf.
_OVERFLOW_TABLE = {"n": 2, "log_probs": [
    0.0, _HUGE, _HUGE, _HUGE, _HUGE, _HUGE, _HUGE, 0.0, _HUGE, _HUGE, _HUGE, 0.0, 0.0, _HUGE, _HUGE, _HUGE,
]}
_CONTRASTIVE = ["loss", "contrastive", "--frames", "eye.json", "--captions", "eye.json", "--tau"]
_BAD_TAU = "temperature must be positive and finite, got {} (divides logits)"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["eval-story", "--tables", "overflow.jsonl", "--truths", "truth.jsonl"],
            (0, dump_line({"schema_version": "1", "spearman": 1.0, "pairwise_accuracy": 1.0,
                           "distance": 0.0, "n_stories": 1}) + "\n", ""),
        ),
        ([*_CONTRASTIVE, "nan"], (2, "", f"error: {_BAD_TAU.format('nan')}\n")),
        ([*_CONTRASTIVE, "inf"], (2, "", f"error: {_BAD_TAU.format('inf')}\n")),
        ([*_CONTRASTIVE, "1e-320"], (2, "", "error: loss value must be finite, got nan\n")),
        (
            ["loss", "mlm", "--logits", "huge.json", "--labels", "one.json"],
            (2, "", "error: loss value must be finite, got inf\n"),
        ),
    ],
    ids=["eval-story-overflow", "tau-nan", "tau-inf", "tau-subnormal", "mlm-overflow"],
)
def test_numpy_float_warnings_never_reach_stderr(capsys, tmp_path, monkeypatch, argv, expected):
    """An overflow or NaN inside a search or a loss is checked after it, so numpy's
    RuntimeWarning (an error under this suite's settings) must not escape."""
    files = {
        "overflow.jsonl": json.dumps(_OVERFLOW_TABLE) + "\n",
        "truth.jsonl": '{"order": [0, 1]}\n',
        "eye.json": "[[1.0, 0.0], [0.0, 1.0]]",
        "huge.json": "[[1e308, -1e308, 0.0]]",
        "one.json": "[1]",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, argv) == expected


def test_selfcheck_fails_an_infinite_temperature(capsys):
    code, out, err = run_cli(capsys, ["selfcheck", "--tau", "inf"])
    assert (code, err) == (1, "")
    assert f"contrastive-gradient: FAIL ({_BAD_TAU.format('inf')})\n" in out


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


# What a fuzzed value may become besides a nudged number: the wrong JSON
# type, or a value out of range.
_FUZZ_VALUES = [None, True, "x", "noisy", -1, 0, 10**20, 10**400, float("inf"), float("nan"), [], {}, -0.0]


def _fuzz(rng, rec):
    """``rec`` with one value replaced or one key deleted, at a depth drawn
    first: a segment, a segment field, a token or a token field, and now
    and then a record field.  Most replacements nudge a number."""
    slots: dict[int, list] = {}
    todo = [(rec, 0)]
    while todo:
        node, depth = todo.pop()
        for key in node if type(node) is dict else range(len(node)):
            slots.setdefault(depth, []).append((node, key))
            if type(node[key]) in (dict, list):
                todo.append((node[key], depth + 1))
    node, key = rng.choice(slots[rng.choice([0, 1, 2, 2, 3, 4, 4, 4])])
    value = node[key]
    if type(node) is dict and rng.random() < 0.1:
        del node[key]
    elif type(value) in (int, float) and rng.random() < 0.9:
        if type(value) is int:
            node[key] = rng.choice([value + 1, value - 1, value * 2, float(value)])
        else:
            node[key] = rng.choice([value + 0.001, value - 0.001, value - 0.0004, value + 1, int(value)])
    else:
        node[key] = rng.choice(_FUZZ_VALUES)
    return rec


def test_pack_decodes_as_the_object_api(capsys, monkeypatch, tmp_path, data_dir):
    """``pack`` on fuzzed ``segment`` records exits, writes, reports and counts
    as it does with each record decoded into reference ``Segment`` objects,
    checked by ``check_segments`` and written by the reference writer."""
    from oracles import record_objects, segment_line
    from vidtext import cli

    segmented = tmp_path / "segmented.jsonl"
    assert main(["segment", "--input", str(data_dir / "golden_input.jsonl"), "--output", str(segmented)]) == 0
    records = [json.loads(line) for line in segmented.read_text().splitlines()]
    # A field fault in segment 5 is named before an invariant fault in segment 0.
    both = json.loads(json.dumps(records[0]))
    _regress_word_order(both, 0)
    _negative_id(both, 5)
    rng = random.Random(19)
    spoiled = [both, *(_fuzz(rng, json.loads(json.dumps(rec))) for _ in range(40) for rec in records)]
    src, stats = tmp_path / "fuzzed.jsonl", tmp_path / "stats.json"
    src.write_text("".join(json.dumps(rec) + "\n" for rec in spoiled))

    def pack():
        code, out, err = run_cli(capsys, ["pack", "--input", str(src), "--stats", str(stats)])
        return code, out, err, stats.read_text()

    def reference(obj):
        record = record_objects(obj)
        return dataclasses.replace(record, segments=tuple(map(segment_line, record.segments)))

    got = pack()
    monkeypatch.setattr(cli, "record_from_json", reference)
    assert got == pack()
    code, out, err, _ = got
    assert err.startswith("line 1: skipped (ValueError: segments[5]: tokens[1]: token id must be non-negative, got -1)\n")
    assert code == 1 and out and err.count("invalid record") > 30  # clean lines and faults of both kinds


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
        assert "UnicodeDecodeError" in err and "ValueError: JSON nested too deeply" in err
        assert "UnicodeEncodeError" in err
        runs.append((out.read_bytes(), manifest.read_bytes()))
    assert runs[0] == runs[1]
    counts = json.loads(runs[0][1])["counts"]
    assert counts["input_records"] == len(good) + 5
    assert counts["data_errors"] == 4
    code, out, err = run_cli(capsys, ["filter", "--input", str(src)])
    assert code == 1
    assert "line 4: skipped (UnicodeDecodeError" in err
    assert "line 5: skipped (ValueError: JSON nested too deeply)" in err
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
