"""vidtext benchmark: seeded batch workloads through the ``vidtext`` CLI.

    python3 perfbench/run.py --workload run-j1 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/vidtext`` must exist).  One
closed-loop client hands one pre-generated input file to one CLI
invocation at a time until ``--seconds`` have passed; inputs are generated
before timing starts.

``--trace 0`` runs the CLI as a subprocess and reports the end-to-end
metrics over the invocations of the run.  ``--trace 1`` calls
``vidtext.cli.main`` in-process with the same argv, alternating untraced
and traced passes, and reports the per-layer metrics from ``tracing.py``.

Every output is checked (``checks.py``).  The full report, with the
environment block, goes to stdout first; the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

LAUNCH = "import sys; from vidtext.cli import main; sys.exit(main(sys.argv[1:]))"
MIN_INVOCATIONS = 3  # per run, of the workload input and of the empty input
MIN_TRACE_PAIRS = 2

END_TO_END = {
    "records_per_s": "1/s",
    "cpu_ms_per_record": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "pipeline.process_video_line.p50_ms": "ms",
    "pipeline.process_video_line.p99_ms": "ms",
    "pipeline.decode_s": "s",
    "pipeline.parent_wait_s": "s",
    "pipeline.parent_busy_share": "share",
    "pipeline.write_s": "s",
    "filters.gates_s": "s",
    "tokenizers.tokenize_words_s": "s",
    "tokenizers.tokens": "count",
    "segmenting.segment_transcript_s": "s",
    "segmenting.segments": "count",
    "segmenting.pack_examples_s": "s",
    "model.validate_record_s": "s",
    "model.serialize_s": "s",
    "model.bytes_out": "bytes",
    "kernels.encode_words_s": "s",
    "kernels.pair_cost_matrix_s": "s",
    "kernels.alignment_fill_s": "s",
    "kernels.pair_cost_ns_per_cell": "ns",
    "kernels.cells": "count",
    "kernels.unique_pair_share": "share",
    "align.backtrack_s": "s",
    "align.transfer_timing_s": "s",
    "ordering.from_flat_s": "s",
    "ordering.best_ordering_s": "s",
    "ordering.best_ordering.n8_ms": "ms",
    "ordering.best_frame_ordering_s": "s",
    "ordering.best_frame_ordering.n8_ms": "ms",
    "ordering.hungarian_match.n64_ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_share": "share",
}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]  # subcommand and flags, without I/O paths
    generate: Callable[[int], tuple[list[str], dict]]  # seed -> (lines, plan)

    @property
    def is_run(self) -> bool:
        return self.argv[0] == "run"


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
        Workload("run-j1", ["run", "--jobs", "1"], gen.corpus),
        Workload("run-j2", ["run", "--jobs", "2"], gen.corpus),
        Workload("align", ["align"], gen.align_pairs),
        Workload("order", ["score-order"], gen.order_tables),
    )
}


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vidtext").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import vidtext

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "kernel_path": "numba" if vidtext.numba_active() else "python",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def kernel_comparison(lines: list[str]) -> dict:
    """Optional numba-vs-Python timing of the align kernels on one input pair."""
    from vidtext import _kernels

    if _kernels.pair_cost_matrix_nb is None:
        return {"skipped": "numba is not importable"}
    src = json.loads(max(lines, key=len))
    a = _kernels.encode_words([w["text"] for w in src["noisy"]])
    b = _kernels.encode_words(src["clean"])
    out = {}
    for label, fn in (("numba", _kernels.pair_cost_matrix_nb), ("python", _kernels.pair_cost_matrix_py)):
        fn(*a, *b)  # the first numba call compiles
        t0 = time.perf_counter()
        cost = fn(*a, *b)
        out[f"pair_cost_matrix_{label}_s"] = time.perf_counter() - t0
    for label, fn in (("numba", _kernels.alignment_fill_nb), ("python", _kernels.alignment_fill_py)):
        fn(cost)
        t0 = time.perf_counter()
        fn(cost)
        out[f"alignment_fill_{label}_s"] = time.perf_counter() - t0
    out["cells"] = int(cost.size)
    return out


# ---------------------------------------------------------------------------
# checks


def check_output(wl: Workload, lines, plan, seed, output: bytes, manifest: bytes | None) -> list[str]:
    import checks
    import oracles

    if wl.is_run:
        return checks.check_run(lines, output, manifest, plan, oracles)
    if wl.name == "align":
        import vidtext

        return checks.check_align(lines, output, seed, vidtext)
    from vidtext import ordering

    return checks.check_order(lines, output, seed, ordering, oracles)


def failed_share(wl: Workload, n_lines: int, output: bytes, manifest: bytes | None) -> float:
    """Lines that ended as data errors or were skipped, per line attempted."""
    if wl.is_run:
        counts = json.loads(manifest)["counts"]
        return counts["data_errors"] / counts["input_records"]
    return (n_lines - len(output.decode("utf-8").splitlines())) / n_lines


# ---------------------------------------------------------------------------
# end-to-end measurement (subprocesses)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    rc: int


def invoke(argv: list[str], stderr_path: Path) -> Invocation:
    """Run one CLI invocation; CPU and peak RSS include its pool workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env,
        )
        # wait4 reports the child's rusage including the workers it reaped:
        # summed CPU, and ru_maxrss as the largest single process.
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, proc.returncode)


class Paths:
    def __init__(self, work: Path, wl: Workload) -> None:
        self.work, self.wl = work, wl
        self.input = work / "input.jsonl"
        self.empty = work / "empty.jsonl"

    def argv(self, src: Path, tag: str, jobs: str | None = None) -> list[str]:
        argv = list(self.wl.argv)
        if jobs is not None:
            argv[argv.index("--jobs") + 1] = jobs
        argv += ["--input", str(src), "--output", str(self.out(tag))]
        if self.wl.is_run:
            argv += ["--manifest", str(self.manifest(tag))]
        return argv

    def out(self, tag: str) -> Path:
        return self.work / f"{tag}.out.jsonl"

    def manifest(self, tag: str) -> Path:
        return self.work / f"{tag}.manifest.json"

    def read(self, tag: str) -> tuple[bytes, bytes | None]:
        man = self.manifest(tag).read_bytes() if self.wl.is_run else None
        return self.out(tag).read_bytes(), man


def _another_cycle(t0: float, cycles: int, seconds: float) -> bool:
    """True while one more cycle ends nearer to ``seconds`` than stopping now."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / cycles / 2 <= seconds


def measure_end_to_end(wl: Workload, paths: Paths, lines, plan, seed, seconds) -> dict:
    n = len(lines)
    want_rc = 1 if plan["data_errors"] else 0
    err = paths.work / "stderr.txt"
    problems: list[str] = []

    invoke(paths.argv(paths.empty, "warm"), err)  # compiles bytecode, fills caches
    # Each cycle times the empty input, then the workload input, so both
    # sample the same stretch of machine load.
    setup: list[float] = []
    runs: list[Invocation] = []
    digests: list[str] = []
    failed = 0
    t0 = time.perf_counter()
    while len(runs) < MIN_INVOCATIONS or _another_cycle(t0, len(runs), seconds):
        inv = invoke(paths.argv(paths.empty, "setup"), err)
        if inv.rc != 0:
            problems.append(f"empty input exited {inv.rc}")
        setup.append(inv.wall_s)
        inv = invoke(paths.argv(paths.input, "main"), err)
        runs.append(inv)
        out, man = paths.read("main")
        digest = hashlib.sha256(out + (man or b"")).hexdigest()
        if inv.rc != want_rc or (digests and digest != digests[0]):
            failed += 1
        digests.append(digest)
    if failed:
        problems.append(f"{failed} invocations exited wrongly or changed their output")

    out, man = paths.read("main")
    problems += check_output(wl, lines, plan, seed, out, man)
    if wl.is_run:
        other = "2" if wl.argv[wl.argv.index("--jobs") + 1] == "1" else "1"
        invoke(paths.argv(paths.input, "other", jobs=other), err)
        if paths.read("other") != (out, man):
            problems.append(f"output or manifest differs at --jobs {other}")
    share = failed_share(wl, n, out, man)
    if share != plan["data_errors"] / n:
        problems.append(f"failed_share {share}, planned {plan['data_errors'] / n}")

    # Rate and CPU come from the fastest invocation: other load on a shared
    # machine only ever slows a run, and it comes in stretches longer than a
    # run, which move a median but rarely the minimum (NOTES.md, "Noise").
    metrics = {
        "records_per_s": n / min(r.wall_s for r in runs),
        "cpu_ms_per_record": min(r.cpu_s for r in runs) * 1e3 / n,
        "peak_rss_mb": statistics.median(r.maxrss_mb for r in runs),
        "setup_s": statistics.median(setup),
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "medians": {
            "records_per_s": statistics.median(n / r.wall_s for r in runs),
            "cpu_ms_per_record": statistics.median(r.cpu_s * 1e3 / n for r in runs),
        },
        "failed_share": {"value": share, "unit": "share", "planned": plan["data_errors"] / n},
        "samples": {
            "invocations": len(runs),
            "wall_s": [r.wall_s for r in runs],
            "cpu_s": [r.cpu_s for r in runs],
            "maxrss_mb": [r.maxrss_mb for r in runs],
            "setup_s": setup,
        },
        "bytes_out": len(out),
        "attempted": len(runs),
        "failed": failed,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# per-layer measurement (in-process)


def unique_pair_share(lines: list[str]) -> float:
    """Distinct (noisy type, clean type) pairs per cost-matrix cell."""
    distinct = cells = 0
    for line in lines:
        src = json.loads(line)
        noisy = [w["text"] for w in src["noisy"]]
        distinct += len(set(noisy)) * len(set(src["clean"]))
        cells += len(noisy) * len(src["clean"])
    return distinct / cells


def hungarian_n64_ms(seed: int) -> float:
    from vidtext.ordering import hungarian_match

    walls = []
    for sim in gen.hungarian_matrices(seed):
        t0 = time.perf_counter()
        hungarian_match(sim)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e3


@contextlib.contextmanager
def _stderr_to(path: Path):
    """Send file descriptor 2 to ``path``; the CLI also writes to a
    ``sys.stderr`` bound at import time, which ``redirect_stderr`` misses."""
    sys.stderr.flush()
    saved = os.dup(2)
    try:
        with open(path, "wb") as err:
            os.dup2(err.fileno(), 2)
            yield
    finally:
        sys.stderr.flush()
        os.dup2(saved, 2)
        os.close(saved)


def measure_layers(wl: Workload, paths: Paths, lines, plan, seed, seconds) -> dict:
    import tracing
    import vidtext.cli as cli

    argv = paths.argv(paths.input, "main")
    want_rc = 1 if plan["data_errors"] else 0
    plain: list[float] = []
    traced: list[dict] = []
    walls: list[float] = []
    failed = 0
    t0 = time.perf_counter()
    with _stderr_to(paths.work / "stderr.txt"):
        while len(traced) < MIN_TRACE_PAIRS or _another_cycle(t0, len(traced), seconds):
            start = time.perf_counter()
            failed += cli.main(argv) != want_rc
            plain.append(time.perf_counter() - start)
            rec = tracing.Recorder()
            with tracing.traced(rec, trace_writes=wl.is_run):
                start = time.perf_counter()
                failed += cli.main(argv) != want_rc
                wall = time.perf_counter() - start
            walls.append(wall)
            traced.append(tracing.layer_metrics(rec, wall))
    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    metrics["kernels.unique_pair_share"] = unique_pair_share(lines) if wl.name == "align" else 0.0
    metrics["ordering.hungarian_match.n64_ms"] = hungarian_n64_ms(seed) if wl.name == "order" else 0.0
    metrics["trace.overhead_share"] = (
        statistics.median(walls) - statistics.median(plain)
    ) / statistics.median(plain)

    out, man = paths.read("main")
    problems = check_output(wl, lines, plan, seed, out, man)
    if failed:
        problems.append(f"{failed} in-process passes exited wrongly")
    return {
        "metrics": {k: {"value": metrics[k], "unit": PER_LAYER[k]} for k in PER_LAYER},
        "samples": {"traced_passes": len(traced), "untraced_wall_s": plain, "traced_wall_s": walls},
        "bytes_out": len(out),
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "problems": problems,
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vidtext" / "cli.py").is_file():
        print(f"error: no vidtext sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    lines, plan = wl.generate(args.seed)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{wl.name}-{os.getpid()}"
    work.mkdir()
    try:
        paths = Paths(work, wl)
        data = "\n".join(lines) + "\n"
        paths.input.write_text(data, encoding="utf-8")
        paths.empty.write_text("", encoding="utf-8")
        measure = measure_layers if args.trace else measure_end_to_end
        result = measure(wl, paths, lines, plan, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    env["kernel_comparison"] = (
        kernel_comparison(lines) if wl.name == "align"
        else {"skipped": "this workload does not call the align kernels"}
    )
    report = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": env,
        "inputs": {
            "records": len(lines),
            "words": plan["words"],
            "bytes_in": len(data.encode("utf-8")),
            "bytes_out": result["bytes_out"],
        },
        **{k: result[k] for k in ("metrics", "samples", "problems")},
    }
    if not args.trace:
        report["failed_share"] = result["failed_share"]
        report["medians"] = result["medians"]
    else:
        report["notes"] = [
            "Layers this workload never enters read 0.",
            "At --jobs 2 the pool workers are forked and their spans are not gathered; "
            "worker-side layer times come from run-j1.",
        ]
    print(json.dumps(report))
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
