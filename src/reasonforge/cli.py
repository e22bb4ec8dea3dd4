"""Command-line entry point: gen, render, score, verify, stats.

All randomness flows from --seed; identical invocations write byte-identical
files.  A named preset holds per-hop counts only.  Data assets resolve
through REASONFORGE_DATA_DIR when set; gen and verify read theirs first,
render and score a task's when its first row arrives.  gen writes each hop
bucket as it is built; verify, stats, zero-shot render and score's gold
file are read one row at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from functools import cache, partial
from pathlib import Path
from typing import Iterator

from . import promptkit
from .augment import AUGMENTATIONS
from .evalkit import read_predictions, score, stats_table
from .promptkit import STYLES, draw_shots, join_prompt, prompt_rows
from .taskgen import (DatasetSpec, GenerationExhausted, build_dataset,
                      derive_seed, read_jsonl, verify_dataset, write_jsonl)
from .verbalizer import AssetError, TemplatePool, load_name_pools, read_asset

TASK_ALIASES = {"clutrr": "kinship", "stepgame": "spatial"}


class ConfigError(Exception):
    """Bad input: reported as one line on stderr with exit status 2."""


def refuse(message: str):
    """Every parser's error(): a flag argparse rejects is a ConfigError too,
    with no usage block."""
    raise ConfigError(message)


def parse_counts(text: str) -> dict[int, int]:
    """--counts value: comma-separated parts hop=n or lo:hi=n, the latter
    giving n to each hop from lo to hi; no hop may be given twice."""
    counts: dict[int, int] = {}
    for part in text.split(","):
        hops, _, n = part.partition("=")
        lo, colon, hi = hops.partition(":")
        try:
            span, n = range(int(lo), int(hi if colon else lo) + 1), int(n)
        except ValueError:
            raise ConfigError(f"--counts part {part!r} is not hop=n or lo:hi=n") from None
        if not span:
            raise ConfigError(f"--counts part {part!r} holds no hop buckets")
        for hop in span:
            if hop in counts:
                raise ConfigError(f"--counts part {part!r} repeats hop {hop}")
            counts[hop] = n
    return counts


def parse_aug(text: str) -> tuple[tuple[str, int, float], ...]:
    """--aug value: comma-separated parts kind[:n][=weight], kind one of
    none, permute, noise:k and flip:n, as (kind, n, weight) entries; n and
    the weight default to 1."""
    mix = []
    for part in text.split(","):
        entry, equals, weight = part.partition("=")
        kind, colon, n = entry.partition(":")
        kind = kind.strip()
        if kind not in AUGMENTATIONS or (colon and not AUGMENTATIONS[kind][0]):
            raise ConfigError(f"--aug part {part!r} is not none, permute, "
                              "noise[:k] or flip[:n]")
        try:
            mix.append((kind, int(n) if colon else 1,
                        float(weight) if equals else 1.0))
        except ValueError:
            raise ConfigError(f"--aug part {part!r} needs an integer param "
                              "and a numeric weight") from None
    return tuple(mix)


def load_preset(task: str, name: str) -> dict:
    """Per-hop counts of presets/<--task>_<name>.json, {"counts": {hop: n}}."""
    file = f"{task}_{name}.json"
    preset = read_asset("presets/" + file, json.loads)
    if not (isinstance(preset, dict) and list(preset) == ["counts"]
            and isinstance(preset["counts"], dict)
            and all(isinstance(n, int) for n in preset["counts"].values())):
        raise ConfigError(f"preset {file} must be a JSON object holding only "
                          "\"counts\", a map of hop to count")
    return preset["counts"]


def read_input(path, reader=None) -> Iterator:
    """The rows of reader(path), read_jsonl by default, as they are taken,
    with an unreadable file or a malformed row as a ConfigError."""
    try:
        yield from (reader or read_jsonl)(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@contextmanager
def staged_output(path):
    """Yield what to open() for writing output `path`, created before any
    work so that creating it is the probe: a ConfigError if it, or an
    existing `path`, cannot be opened for writing.  A new path or a regular
    file, also through a symlink, is staged beside the symlink's resolved
    target and renamed onto it when the block completes, so a failure leaves
    no partial file and the earlier target and symlink in place.  A device
    or pipe is written through; stdout's own file, by a dup open() takes over."""
    try:
        fd = os.dup(1) if os.path.samestat(os.stat(path), os.fstat(1)) else None
    except OSError:  # no such path, or no standard output
        fd = None
    if fd is not None:
        try:
            yield fd
        except BaseException:  # perhaps before open() took fd over
            with suppress(OSError):
                os.close(fd)
            raise
        return
    replace = not os.path.exists(path) or os.path.isfile(path)
    target = os.path.realpath(path) if replace and os.path.islink(path) else path
    staged = f"{target}.{os.getpid()}.tmp" if replace else path
    try:
        if replace and os.path.exists(target):
            open(path, "a").close()
        probe = open(staged, "a")
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror}") from None
    with probe:  # kept open, so a pipe's reader sees no end before the output
        try:
            yield staged
        except BaseException:
            if replace:
                os.remove(staged)
            raise
    if replace:
        os.replace(staged, target)


def build_spec(args) -> DatasetSpec:
    if not args.task:
        raise ConfigError("choose a task: clutrr or stepgame")
    task = TASK_ALIASES[args.task]
    counts = load_preset(args.task, args.preset) if args.preset else None
    if args.counts is not None:
        counts = parse_counts(args.counts)
    if counts is None:
        raise ConfigError("no per-hop counts given (use --preset or --counts)")
    if not counts:
        raise ConfigError("no hop buckets to generate")

    # the class attribute is the field's default mix
    mix = DatasetSpec.augmentation_mix if args.aug is None else parse_aug(args.aug)
    return DatasetSpec.make(task, counts, seed=args.seed, augmentation_mix=mix,
                            graphs_per_hop=args.graphs_per_hop)


def cmd_gen(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    try:
        spec = build_spec(args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    load_name_pools()
    TemplatePool.for_task(spec.task)
    try:
        with staged_output(args.output) as staged:
            write_jsonl(build_dataset(spec, workers=args.workers), staged)
    except GenerationExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    counts = dict(spec.counts)  # each bucket meets its count exactly
    print(f"wrote {sum(counts.values())} examples to {args.output}")
    print(stats_table(counts))
    return 0


def cmd_render(args) -> int:
    if args.shots < 0:
        raise ConfigError("-k must be >= 0")
    if args.shots > 0 and not args.shots_file:
        raise ConfigError("--shots-file is required when -k > 0")

    def rows_of(path):  # a malformed gold triple is a malformed row
        return read_input(path, lambda path: prompt_rows(read_jsonl(path), args.style))

    # std-p and eta-p stream the dataset; -k > 0 holds each file's rows,
    # strings only, and a shots file that is the dataset is read once
    rows, pool, positions = rows_of(args.dataset), [], {}
    if args.shots > 0:
        rows = list(rows)
        same_file = Path(args.shots_file).resolve() == Path(args.dataset).resolve()
        pool = rows if same_file else list(rows_of(args.shots_file))
        tasks = {task for _, task, _, _ in rows} | {task for _, task, _, _ in pool}
        if len(tasks) > 1:
            raise ConfigError(f"{args.shots_file} and {args.dataset} mix tasks: "
                              + ", ".join(sorted(tasks)))
        for position, (shot_id, *_) in enumerate(pool):
            positions.setdefault(shot_id, []).append(position)
        if rows:  # draw_shots skips the query's own id in the pool
            usable = len(pool) - max(len(positions.get(row[0], ())) for row in rows)
            if usable < args.shots:
                raise ConfigError(f"-k {args.shots} exceeds the {usable} shots "
                                  f"{args.shots_file} can give")
    instruction = cache(partial(promptkit.load_prompt_asset, style=args.style))
    written = 0
    with staged_output(args.output) as staged, \
            open(staged, "w", encoding="utf-8") as handle:
        for row_id, task, block, target in rows:
            shots = []
            if args.shots:
                shots = draw_shots(pool, args.shots, derive_seed(args.seed, row_id),
                                   positions.get(row_id, ()))
            handle.write(json.dumps({"id": row_id,
                                     "prompt": join_prompt(instruction(task), shots, block),
                                     "target": target}) + "\n")
            written += 1
    print(f"wrote {written} prompts to {args.output}")
    return 0


def cmd_score(args) -> int:
    predictions = read_input(args.predictions, read_predictions)
    report_path = args.report or f"{args.predictions}.report.json"
    try:
        with staged_output(report_path) as staged:
            report = score(predictions, read_input(args.gold), args.style)
            with open(staged, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(report.to_dict(), indent=2) + "\n")
    except AssetError:  # a ValueError, but bad input like any asset
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.to_text())
    print(f"report written to {report_path}")
    return 0


def cmd_verify(args) -> int:
    try:
        report = verify_dataset(read_input(args.dataset))
    except ValueError as exc:  # a malformed triple
        raise ConfigError(str(exc)) from None
    print(f"{report.total} examples, {report.mismatch_count} mismatches")
    for mismatch in report.mismatches[:20]:
        print(f"  {mismatch['id']}: expected {mismatch['expected']}, "
              f"derived {mismatch['derived']}")
    summary = report.to_dict()
    print("hop histogram:", json.dumps(summary["hop_histogram"]))
    print("label distribution:", json.dumps(summary["label_distribution"]))
    return 1 if report.mismatches else 0


def cmd_stats(args) -> int:
    print(stats_table(Counter(example.hop for example in read_input(args.dataset))))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reasonforge",
        description="Generate, render, verify, and score graph-based "
                    "synthetic reasoning datasets.", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    command = partial(sub.add_parser, allow_abbrev=False)

    gen = command("gen", help="generate a dataset JSONL")
    gen.add_argument("--task", choices=sorted(TASK_ALIASES))
    gen.add_argument("--preset", help="named preset, e.g. 'paper'")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--counts", help="hop=n or lo:hi=n parts, comma separated")
    gen.add_argument("--aug", help="kind[:param][=weight] parts, comma "
                                   "separated: none, permute, noise:k, flip:n")
    gen.add_argument("--graphs-per-hop", type=int, default=0,
                     help="limit each hop bucket to N graphs, which changes "
                          "the content (0 = a graph seed per example)")
    gen.add_argument("--workers", type=int, default=1)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen)

    render = command("render", help="render prompts and gold targets")
    render.add_argument("--dataset", required=True)
    render.add_argument("--style", choices=STYLES, required=True)
    render.add_argument("-k", "--shots", type=int, default=0)
    render.add_argument("--shots-file", help="dataset JSONL to draw shots from")
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("-o", "--output", required=True)
    render.set_defaults(func=cmd_render)

    scorer = command("score", help="score model predictions")
    scorer.add_argument("--predictions", required=True,
                        help="JSONL of {id, response}")
    scorer.add_argument("--gold", required=True, help="dataset JSONL")
    scorer.add_argument("--style", choices=STYLES, default="eta-p")
    scorer.add_argument("--report", help="path for the JSON report")
    scorer.set_defaults(func=cmd_score)

    verify = command("verify", help="re-derive answers with the oracle")
    verify.add_argument("--dataset", required=True)
    verify.set_defaults(func=cmd_verify)

    stats = command("stats", help="per-hop count table")
    stats.add_argument("--dataset", required=True)
    stats.set_defaults(func=cmd_stats)

    for each in (parser, *sub.choices.values()):
        each.error = refuse
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (AssetError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`... | head`): stop quietly, and
        # send what is still buffered to devnull so the exit flush cannot fail
        try:
            stdout = sys.stdout.fileno()
        except (OSError, ValueError):  # not backed by a file descriptor
            return 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
