"""Single entry point exposing every pipeline stage as a subcommand.

Stages read and write line-delimited JSON so they compose through pipes:

    vidtext filter < raw.jsonl | ...
    vidtext run --input raw.jsonl --output packed.jsonl --manifest run.json

Exit codes: 0 success, 1 finished but some records were skipped as data
errors, 2 fatal (bad usage, unreadable files, invalid config).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, nullcontext
from collections import Counter
from typing import IO, Any, Callable, Iterator

# Only the streaming subcommands' modules are imported here, and they need no
# numpy; every other handler imports what it uses in its own body.
from . import __version__
from .config import FIELD_KINDS, SHAPE_FIELDS, PipelineConfig, resolve_config
from .model import (
    SCHEMA_VERSION,
    dump_line,
    list_field,
    numbered_lines,
    record_to_json,
    typed_field,
    typed_list,
    word_from_json,
    write_jsonl,
)
from .pipeline import (
    ACCEPTED,
    DATA_ERRORS,
    ERROR,
    apply_gates,
    check_jobs,
    decode_line,
    decode_record,
    decode_video,
    line_outcome,
    note_skip,
    outcomes,
    run_pipeline,
    segment_video,
    write_examples,
)
from .segmenting import sequence_shape
from .tokenizers import load_tokenizer

_ORDER_SEARCHES = ("best_ordering", "best_frame_ordering")


def __getattr__(name: str) -> Any:
    """The ordering searches, imported on first read and then kept here.

    They are names of this module, read through it by ``score-order``, so a
    caller may swap them here (the benchmark's tracer times them that way).
    """
    if name not in _ORDER_SEARCHES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import ordering

    for search in _ORDER_SEARCHES:
        globals().setdefault(search, getattr(ordering, search))  # keep a swapped one
    return globals()[name]


def _accept(obj: Any, handle: Callable[[Any], Any]) -> tuple[str, Any]:
    return ACCEPTED, handle(obj)


def _write_objects(fout: IO[str], objs: Iterator[dict[str, Any]]) -> None:
    write_jsonl(fout, ({**obj, "schema_version": SCHEMA_VERSION} for obj in objs))


def _write_lines(fout: IO[str], lines: Iterator[str]) -> None:
    fout.writelines(line + "\n" for line in lines)


def _stream(args, handle: Callable[[Any], Any], write=_write_objects) -> int:
    """``write(fout, results)`` with ``handle``'s result for each input line
    that ``decode_line`` accepts; data errors are noted and skipped."""
    tally: Counter = Counter()
    with ExitStack() as stack:
        fin, fout = _open_streams(args, stack)
        numbered = ((n, line_outcome(_accept, raw, handle)) for n, raw in numbered_lines(fin))
        write(fout, (r for _, r in outcomes(numbered, note_skip, tally)))
    return 1 if tally[ERROR] else 0


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="input JSONL path (default: stdin)")
    p.add_argument("--output", help="output JSONL path (default: stdout)")


_FLAG_SPELLINGS = {"tokenizer_path": "--tokenizer", "mask_rate": "--rate"}
_FLAG_HELP = {
    "seed": "global random seed",
    "tokenizer_path": "tokenizer directory (vocab.json + merges.txt)",
    "distinct_classes": "count distinct object classes instead of (thumbnail, class) cells",
}
_GATES = ("max_duration_s", "prob_threshold", "min_objects", "sim_threshold", "distinct_classes")


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """``--config``, then a flag for ``seed`` and each named config field, spelled
    ``--<field-with-dashes>`` unless ``_FLAG_SPELLINGS`` says otherwise and parsed
    to the field's type.  A bool field is a switch away from its default.  Flags
    default to None, so only the flags given override the config file."""
    p.add_argument("--config", help="JSON config file; flags override it")
    for name in ("seed", *names):
        flag = _FLAG_SPELLINGS.get(name, "--" + name.replace("_", "-"))
        kind, default = FIELD_KINDS[name], getattr(PipelineConfig, name)
        kw: dict[str, Any] = {"type": None if kind is str else kind}  # a string stays as given
        if kind is bool:
            flag = "--no-" + flag[2:] if default else flag
            kw = {"action": "store_false" if default else "store_true"}
        p.add_argument(flag, dest=name, default=None, help=_FLAG_HELP.get(name), **kw)


def _open_streams(args, stack: ExitStack) -> tuple[IO, IO[str]]:
    """Input as bytes, so a line that is not UTF-8 is a data error of its own."""
    fin = getattr(sys.stdin, "buffer", sys.stdin)  # a replaced stdin may be text
    if args.input:
        fin = stack.enter_context(open(args.input, "rb"))
    fout = sys.stdout
    if args.output:
        fout = stack.enter_context(open(args.output, "w", encoding="utf-8"))
    return fin, fout


def _write_report(path: str | None, obj: dict[str, Any]) -> None:
    """``obj`` as one JSON line in the file at ``path``, or on stderr without one."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stderr) as fp:
        fp.write(dump_line(obj) + "\n")


def _config_from_args(args) -> PipelineConfig:
    """The ``--config`` file, overridden by every given flag named after a field."""
    fields = PipelineConfig.__dataclass_fields__
    overrides = {k: v for k, v in vars(args).items() if k in fields}
    return resolve_config(getattr(args, "config", None), overrides)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_filter(args) -> int:
    cfg = _config_from_args(args)

    def decide(obj: Any) -> dict[str, Any]:
        meta, _ = decode_video(obj)
        decision = apply_gates(meta, obj, cfg)
        return {
            "video_id": meta.video_id,
            "verdict": decision.verdict,
            "reason": decision.reason,
        }

    return _stream(args, decide)


def _cmd_align(args) -> int:
    from .align import align_and_time

    def handle(obj: Any) -> dict[str, Any]:
        noisy = list_field(obj, "noisy", word_from_json)
        clean = typed_list(obj, "clean", str)
        alignment, timed = align_and_time(noisy, clean)
        return {**vars(alignment), "clean_words": timed}

    return _stream(args, handle)


def _cmd_corrupt(args) -> int:
    from .corruption import PronunciationTable, corrupt_document, derive_seed

    cfg = _config_from_args(args)
    table = (
        PronunciationTable.from_cmu_file(args.pronounce_dict)
        if args.pronounce_dict
        else PronunciationTable.empty()
    )
    tokenizer = load_tokenizer(cfg.tokenizer_path)

    def handle(obj: Any) -> dict[str, Any]:
        doc_id = typed_field(obj, "doc_id", str)
        texts = typed_list(obj, "words", str)
        words = corrupt_document(texts, cfg, derive_seed(cfg.seed, doc_id), table, tokenizer)
        return {"doc_id": doc_id, "words": words}

    return _stream(args, handle)


def _cmd_segment(args) -> int:
    cfg = _config_from_args(args)
    tokenizer = load_tokenizer(cfg.tokenizer_path)

    with ExitStack() as stack:
        frames_fp = (
            stack.enter_context(open(args.frame_manifest, "w", encoding="utf-8"))
            if args.frame_manifest
            else None
        )

        def handle(obj: Any) -> str:
            record, frames = segment_video(*decode_video(obj), cfg, tokenizer)
            if frames_fp is not None:
                rows = ({"video_id": record.video_id, "frame_time_s": t} for t in frames)
                write_jsonl(frames_fp, rows)
            return record_to_json(record)

        return _stream(args, handle, _write_lines)


def _cmd_pack(args) -> int:
    cfg = _config_from_args(args)

    def write(fout: IO[str], records: Iterator[Any]) -> None:
        _write_report(args.stats, write_examples(records, cfg, fout))

    return _stream(args, decode_record, write)


def _cmd_mask(args) -> int:
    import numpy as np

    from .corruption import derive_seed
    from .masking import AttentionProfile, apply_plan, check_vocabulary, select_targets

    cfg = _config_from_args(args)
    check_vocabulary(args.vocab_size, args.mask_id)  # bad flags are fatal, not per-line errors

    def handle(obj: Any) -> dict[str, Any]:
        seq_id = typed_field(obj, "sequence_id", str)
        tokens = typed_list(obj, "tokens", int)
        specials = typed_list(obj, "special_positions", int) if "special_positions" in obj else []
        profile = AttentionProfile(
            weights=typed_list(obj, "weights", float), special_positions=frozenset(specials)
        )
        rng = np.random.default_rng(derive_seed(cfg.seed, seq_id))
        plan = select_targets(
            len(tokens),
            profile,
            rng,
            rate=cfg.mask_rate,
            attended_share=cfg.attended_share,
            span_mean=cfg.span_mean,
            top_frac=cfg.top_frac,
        )
        corrupted, labels = apply_plan(
            tokens,
            plan,
            rng,
            vocab_size=args.vocab_size,
            mask_id=args.mask_id,
            special_ids=[int(i) for i in (args.special_id or [])],
        )
        return {"sequence_id": seq_id, "tokens": corrupted, "labels": labels}

    return _stream(args, handle)


def _cmd_loss(args) -> int:
    import numpy as np

    from .arrayio import load_int_vector, load_matrix, load_order_head
    from .losses import (
        combine_losses,
        contrastive_loss,
        masked_lm_loss,
        order_logits,
        ordering_loss,
    )

    if args.loss_kind == "contrastive":
        report = contrastive_loss(
            load_matrix(args.frames),
            load_matrix(args.captions),
            tau=args.tau,
            want_grads=args.grads_out is not None,
            symmetric=not args.row_only,
        )
        if args.grads_out:
            np.savez(
                args.grads_out,
                frames=report.gradients["frames"],
                captions=report.gradients["captions"],
            )
        out = {"loss": "contrastive", "value": report.value}
    elif args.loss_kind == "mlm":
        report = masked_lm_loss(load_matrix(args.logits), load_int_vector(args.labels))
        out = {"loss": "mlm", "value": report.value}
    elif args.loss_kind == "order":
        params = load_order_head(args.params, activation=args.activation)
        pairs = load_matrix(args.pairs)
        if pairs.ndim != 2 or pairs.shape[1] != params.pair_dim:
            raise ValueError(
                f"pairs must be rows of {params.pair_dim} values, got {pairs.shape}"
            )
        classes = load_int_vector(args.classes)
        half = params.pair_dim // 2
        logits = [order_logits(row[:half], row[half:], params) for row in pairs]
        report = ordering_loss(logits, [int(c) for c in classes])
        out = {"loss": "order", "value": report.value}
    else:
        value = combine_losses(
            args.mlm, args.contrastive, args.ordering, contrastive_coeff=args.coeff
        )
        out = {"loss": "combined", "value": value}
    print(dump_line({"schema_version": SCHEMA_VERSION, **out}))
    return 0


def _table_from_json(obj: dict[str, Any], kinds: tuple[int, ...] = (2, 4)) -> tuple[int, Any]:
    """A relation-table line as (classes, table): a ``PairwiseRelationTable`` of
    4 classes, the default, or an (n, n, 2) array; ``kinds`` names the allowed."""
    from .ordering import PairwiseRelationTable, table_from_flat

    n = typed_field(obj, "n", int)
    classes = typed_field(obj, "classes", int) if "classes" in obj else 4
    flat = typed_list(obj, "log_probs", float)
    if classes not in kinds:
        raise ValueError(f"classes must be {' or '.join(map(str, kinds))}, got {classes}")
    if classes == 4:
        return 4, PairwiseRelationTable.from_flat(n, flat)
    return 2, table_from_flat(n, flat, 2)


def _cmd_score_order(args) -> int:
    import numpy as np

    cli = sys.modules[__name__]

    def handle(obj: Any) -> dict[str, Any]:
        with np.errstate(over="ignore", invalid="ignore"):  # a -inf score is checked below
            classes, table = _table_from_json(obj)
            search = cli.best_ordering if classes == 4 else cli.best_frame_ordering
            perm, score = search(table)
        if not np.isfinite(score):  # JSON has no -Infinity
            raise ValueError(f"best score {score} is not finite")
        return {"permutation": perm, "score": score}

    return _stream(args, handle)


def _read_objects(path: str, decode: Callable[[dict[str, Any]], Any]) -> list:
    """``decode(decode_line(line))`` for every line of a JSONL file; a malformed
    line is fatal, and its error names the file and the line."""
    out = []
    with open(path, "rb") as fp:
        for lineno, raw in numbered_lines(fp):
            try:
                out.append(decode(decode_line(raw)))
            except DATA_ERRORS as e:
                raise ValueError(f"{path} line {lineno}: {e}") from None
    return out


def _cmd_eval_story(args) -> int:
    from .ordering import evaluate_story_set

    tables = _read_objects(args.tables, lambda obj: _table_from_json(obj, (4,))[1])
    truths = _read_objects(args.truths, lambda obj: typed_list(obj, "order", int))
    report = evaluate_story_set(tables, truths, footrule=args.footrule)
    print(dump_line({"schema_version": SCHEMA_VERSION, **vars(report)}))
    return 0


def _cmd_shape(args) -> int:
    shape = sequence_shape(_config_from_args(args))
    print(dump_line({"schema_version": SCHEMA_VERSION, **vars(shape)}))
    return 0


def _cmd_selfcheck(args) -> int:
    from .selfcheck import selfcheck

    results = selfcheck(tau=args.tau, patch=args.patch)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status} ({res.detail})")
        failed += 0 if res.passed else 1
    return 1 if failed else 0


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    check_jobs(args.jobs)  # fatal faults first: opening --output truncates it
    tokenizer = load_tokenizer(cfg.tokenizer_path)
    with ExitStack() as stack:
        fin, fout = _open_streams(args, stack)
        manifest = run_pipeline(cfg, fin, fout, jobs=args.jobs, tokenizer=tokenizer)
    _write_report(args.manifest, manifest.to_json())
    return 1 if manifest.data_errors else 0


def _cmd_scramble_plan(args) -> int:
    """Sampling helper for the frame-scrambling schedule used in training.

    With probability ``prob`` a plan scrambles ``i`` frames, ``i`` uniform on
    [2, segments]; the scrambled frame indices are a uniform subset and lose
    their position identity (slots listed in ``unknown_slots`` order).
    """
    import numpy as np

    if args.segments < 2:
        raise ValueError("--segments must be at least 2")
    if not 0.0 <= args.prob <= 1.0:  # NaN fails too
        raise ValueError(f"--prob must be in [0, 1], got {args.prob}")
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    for k in range(args.count):
        if rng.random() < args.prob:
            i = int(rng.integers(2, args.segments + 1))
            frames = sorted(
                int(x) for x in rng.choice(args.segments, size=i, replace=False)
            )
            slots = [int(x) for x in rng.permutation(i)]
            plan = {"scramble": True, "n_scrambled": i, "frames": frames, "unknown_slots": slots}
        else:
            plan = {"scramble": False, "n_scrambled": 0, "frames": [], "unknown_slots": []}
        print(dump_line({"schema_version": SCHEMA_VERSION, "index": k, **plan}))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vidtext",
        description="Video-transcript corpus construction and objective kernels.",
    )
    parser.add_argument("--version", action="version", version=f"vidtext {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="apply retention gates to evidence records")
    _add_io_flags(p)
    _add_config_flags(p, *_GATES)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("align", help="align noisy timed words to clean words")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("corrupt", help="synthesize noisy transcripts")
    _add_io_flags(p)
    p.add_argument("--pronounce-dict", help="CMU-format pronunciation dictionary")
    _add_config_flags(p, "replace_prob", "homophone_share", "filler_prob", "tokenizer_path")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("segment", help="turn timed words into token segments")
    _add_io_flags(p)
    _add_config_flags(p, "tokens_per_segment", "tokenizer_path")
    p.add_argument("--frame-manifest", help="also write (video_id, frame_time_s) JSONL")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("pack", help="pack segment streams into fixed-size examples")
    _add_io_flags(p)
    _add_config_flags(p, "segments_per_example", "cross_video")
    p.add_argument("--stats", help="write packing stats JSON here instead of stderr")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("mask", help="plan and apply span masking")
    _add_io_flags(p)
    _add_config_flags(p, "mask_rate", "attended_share", "span_mean", "top_frac")
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--mask-id", type=int, required=True)
    p.add_argument(
        "--special-id",
        type=int,
        action="append",
        help="token id excluded from random replacements; repeatable",
    )
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("loss", help="compute a loss from array files")
    p.set_defaults(func=_cmd_loss)
    loss_sub = p.add_subparsers(dest="loss_kind", required=True)
    q = loss_sub.add_parser("contrastive")
    q.add_argument("--frames", required=True)
    q.add_argument("--captions", required=True)
    q.add_argument("--tau", type=float, default=0.05)
    q.add_argument("--row-only", action="store_true")
    q.add_argument("--grads-out", help="write analytic gradients to this .npz")
    q = loss_sub.add_parser("mlm")
    q.add_argument("--logits", required=True)
    q.add_argument("--labels", required=True)
    q = loss_sub.add_parser("order")
    q.add_argument("--pairs", required=True, help="rows of concatenated (h_i, h_j)")
    q.add_argument("--classes", required=True)
    q.add_argument("--params", required=True, help=".npz with w1, b1, w2, b2")
    q.add_argument("--activation", default="gelu")
    q = loss_sub.add_parser("combine")
    q.add_argument("--mlm", type=float, required=True)
    q.add_argument("--contrastive", type=float, required=True)
    q.add_argument("--ordering", type=float, required=True)
    q.add_argument("--coeff", type=float, default=0.25)

    p = sub.add_parser("score-order", help="best permutation per relation table")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_score_order)

    p = sub.add_parser("eval-story", help="unscramble stories and report metrics")
    p.add_argument("--tables", required=True)
    p.add_argument("--truths", required=True)
    p.add_argument("--footrule", action="store_true", help="sum displacement, not mean")
    p.set_defaults(func=_cmd_eval_story)

    p = sub.add_parser("shape", help="print derived sequence shapes")
    _add_config_flags(p, *SHAPE_FIELDS)
    p.set_defaults(func=_cmd_shape)

    p = sub.add_parser("selfcheck", help="run the embedded release checks")
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--patch", type=int, default=16)
    p.set_defaults(func=_cmd_selfcheck)

    p = sub.add_parser("run", help="full pipeline: filter, segment, pack")
    _add_io_flags(p)
    p.add_argument("--manifest", help="write the run manifest JSON here")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    segmenting = ("tokenizer_path", "tokens_per_segment", "segments_per_example", "cross_video")
    _add_config_flags(p, *segmenting, *_GATES)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "scramble-plan", help="sample frame-scrambling schedules (training helper)"
    )
    p.add_argument("--segments", type=int, default=16)
    p.add_argument("--prob", type=float, default=0.4)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_scramble_plan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (OSError, *DATA_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
