"""Command-line entry point: gen, render, score, verify, stats.

All randomness flows from --seed; identical invocations write byte-identical
files.  A named preset holds per-hop counts only.  Data assets resolve
through REASONFORGE_DATA_DIR when set; each command reads its own first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .evalkit import read_predictions, score, stats_table
from .promptkit import PromptRenderer, draw_shots
from .taskgen import (DatasetSpec, GenerationExhausted, build_dataset,
                      derive_seed, read_jsonl, verify_dataset, write_jsonl)
from .verbalizer import AssetError, TemplatePool, load_name_pools, read_asset

TASK_ALIASES = {"clutrr": "kinship", "stepgame": "spatial",
                "kinship": "kinship", "spatial": "spatial"}
PRESET_FILES = {"kinship": "clutrr_{name}.json", "spatial": "stepgame_{name}.json"}

AUG_KINDS = {"permute": "permutation", "noise": "edge-noise",
             "flip": "direction-flip", "none": "none"}


class ConfigError(Exception):
    """Bad input: reported as one line on stderr with exit status 2."""


def parse_hops(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(h) for h in text.split(",")]


def parse_counts(text: str) -> dict[int, int]:
    counts = {}
    for part in text.split(","):
        hop, _, n = part.partition("=")
        counts[int(hop)] = int(n)
    return counts


def parse_aug(text: str) -> tuple[dict, ...]:
    """--aug values: none | permute | noise:k | flip:n | mix=kind:w,kind:w;
    k and n default to 1."""

    def entry(kind: str, weight: float = 1.0, param: int = 1) -> dict:
        if kind not in AUG_KINDS:
            raise ConfigError(f"unknown augmentation kind {kind!r}")
        out: dict = {"kind": AUG_KINDS[kind], "weight": weight}
        if kind == "noise":
            out["k"] = param
        elif kind == "flip":
            out["count"] = param
        return out

    if text.startswith("mix="):
        entries = []
        for part in text[len("mix="):].split(","):
            kind, _, weight = part.partition(":")
            entries.append(entry(kind.strip(), float(weight) if weight else 1.0))
        return tuple(entries)
    kind, _, param = text.partition(":")
    return (entry(kind, 1.0, int(param) if param else 1),)


def load_preset(task: str, name: str) -> dict:
    """Per-hop counts of a named preset, a JSON object {"counts": {hop: n}}."""
    file = PRESET_FILES[task].format(name=name)
    preset = read_asset("presets/" + file, json.loads)
    if not (isinstance(preset, dict) and list(preset) == ["counts"]
            and isinstance(preset["counts"], dict)
            and all(isinstance(n, int) for n in preset["counts"].values())):
        raise ConfigError(f"preset {file} must be a JSON object holding only "
                          "\"counts\", a map of hop to count")
    return preset["counts"]


def read_input(path, reader=None) -> list:
    """reader(path), read_jsonl by default, with an unreadable file or a
    malformed line as a ConfigError."""
    try:
        return (reader or read_jsonl)(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def check_output(path) -> None:
    """An output path that cannot be opened for writing, as a ConfigError
    raised before any work; the probe leaves no file behind."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def staging_path(path) -> str:
    """Where an output is written before it replaces `path`: a temporary file
    beside a new path or a regular file, else `path` itself, so a device, a
    pipe or a symlink is written through, not replaced."""
    if not os.path.lexists(path) or (os.path.isfile(path)
                                     and not os.path.islink(path)):
        return f"{path}.{os.getpid()}.tmp"
    return path


@contextmanager
def replaced_on_success(path):
    """Yield staging_path(path) to write the output to; a temporary file is
    renamed onto `path` only when the block completes, so a failure leaves
    no partial file and an earlier `path` as it was."""
    temp = staging_path(path)
    if temp == path:
        yield path
        return
    try:
        yield temp
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def build_spec(args) -> DatasetSpec:
    if not args.task:
        raise ConfigError("choose a task: clutrr or stepgame")
    task = TASK_ALIASES[args.task]
    if args.hops and args.count is None:
        raise ConfigError("--hops needs --count")
    if args.count is not None and args.counts:
        raise ConfigError("give --count or --counts, not both")

    counts = load_preset(task, args.preset) if args.preset else None
    if args.counts:
        counts = parse_counts(args.counts)
    if args.count is not None:
        counts = {h: args.count for h in parse_hops(args.hops or "2:10")}
    if counts is None:
        raise ConfigError("no per-hop counts given (use --preset, --counts, "
                          "or --hops with --count)")
    if not counts:
        raise ConfigError("no hop buckets to generate")

    return DatasetSpec.make(task, counts, seed=args.seed,
                            augmentation_mix=parse_aug(args.aug) if args.aug else None,
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
    check_output(args.output)
    check_output(staging_path(args.output))
    try:
        examples = build_dataset(spec, workers=args.workers)
    except GenerationExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with replaced_on_success(args.output) as temp:
        write_jsonl(examples, temp)
    print(f"wrote {len(examples)} examples to {args.output}")
    print(stats_table(examples))
    return 0


def cmd_render(args) -> int:
    if args.shots < 0:
        raise ConfigError("-k must be >= 0")
    if args.shots > 0 and not args.shots_file:
        raise ConfigError("--shots-file is required when -k > 0")
    examples = read_input(args.dataset)
    shots_pool = []
    if args.shots > 0:
        same_file = Path(args.shots_file).resolve() == Path(args.dataset).resolve()
        shots_pool = examples if same_file else read_input(args.shots_file)
        tasks = {e.task for e in examples} | {shot.task for shot in shots_pool}
        if len(tasks) > 1:
            raise ConfigError(f"{args.shots_file} and {args.dataset} mix tasks: "
                              + ", ".join(sorted(tasks)))
    # one renderer per command: it builds each example's target and shot
    # block once, and is freed when the command returns
    renderer = PromptRenderer(args.style)
    for task in {e.task for e in examples}:
        renderer.instruction(task)
        if args.style == "eta-p":  # eta-p targets list the triples
            TemplatePool.for_task(task)
    positions: dict[str, list[int]] = {}
    for position, shot in enumerate(shots_pool):
        positions.setdefault(shot.id, []).append(position)
    if args.shots and examples:
        # draw_shots skips the query's own id in the pool
        usable = len(shots_pool) - max(len(positions.get(e.id, ())) for e in examples)
        if usable < args.shots:
            raise ConfigError(f"-k {args.shots} exceeds the {usable} shots "
                              f"{args.shots_file} can give")
    check_output(args.output)
    check_output(staging_path(args.output))
    with replaced_on_success(args.output) as temp, \
            open(temp, "w", encoding="utf-8") as handle:
        for example in examples:
            shots = []
            if args.shots:
                shots = draw_shots(shots_pool, args.shots,
                                   derive_seed(args.seed, example.id),
                                   positions.get(example.id, ()))
            record = {
                "id": example.id,
                "prompt": renderer.prompt(example, shots),
                "target": renderer.target(example),
            }
            handle.write(json.dumps(record) + "\n")
    print(f"wrote {len(examples)} prompts to {args.output}")
    return 0


def cmd_score(args) -> int:
    gold = read_input(args.gold)
    predictions = read_input(args.predictions, read_predictions)
    if args.style == "eta-p":  # eta-p parsing extracts the triples
        for task in {e.task for e in gold}:
            TemplatePool.for_task(task)
    report_path = args.report or f"{args.predictions}.report.json"
    check_output(report_path)
    check_output(staging_path(report_path))
    try:
        report = score(predictions, gold, args.style)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.to_text())
    with replaced_on_success(report_path) as temp:
        Path(temp).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"report written to {report_path}")
    return 0


def cmd_verify(args) -> int:
    report = verify_dataset(read_input(args.dataset))
    print(f"{report.total} examples, {report.mismatch_count} mismatches")
    for mismatch in report.mismatches[:20]:
        print(f"  {mismatch['id']}: expected {mismatch['expected']}, "
              f"derived {mismatch['derived']}")
    summary = report.to_dict()
    print("hop histogram:", json.dumps(summary["hop_histogram"]))
    print("label distribution:", json.dumps(summary["label_distribution"]))
    return 1 if report.mismatches else 0


def cmd_stats(args) -> int:
    print(stats_table(read_input(args.dataset)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reasonforge",
        description="Generate, render, verify, and score graph-based "
                    "synthetic reasoning datasets.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset JSONL")
    gen.add_argument("--task", choices=sorted(TASK_ALIASES))
    gen.add_argument("--preset", help="named preset, e.g. 'paper'")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--hops", help="hop range lo:hi or comma list")
    gen.add_argument("--count", type=int, default=None,
                     help="examples per hop bucket")
    gen.add_argument("--counts", help="explicit hop=count pairs, comma separated")
    gen.add_argument("--aug", help="none | permute | noise:k | flip:n | "
                                   "mix=kind:weight,...")
    gen.add_argument("--graphs-per-hop", type=int, default=0,
                     help="reuse this many graphs per hop (0 = fresh each)")
    gen.add_argument("--workers", type=int, default=1)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen)

    render = sub.add_parser("render", help="render prompts and gold targets")
    render.add_argument("--dataset", required=True)
    render.add_argument("--style", choices=("std-p", "eta-p"), required=True)
    render.add_argument("-k", "--shots", type=int, default=0)
    render.add_argument("--shots-file", help="dataset JSONL to draw shots from")
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("-o", "--output", required=True)
    render.set_defaults(func=cmd_render)

    scorer = sub.add_parser("score", help="score model predictions")
    scorer.add_argument("--predictions", required=True,
                        help="JSONL of {id, response}")
    scorer.add_argument("--gold", required=True, help="dataset JSONL")
    scorer.add_argument("--style", choices=("std-p", "eta-p"), default="eta-p")
    scorer.add_argument("--report", help="path for the JSON report")
    scorer.set_defaults(func=cmd_score)

    verify = sub.add_parser("verify", help="re-derive answers with the oracle")
    verify.add_argument("--dataset", required=True)
    verify.set_defaults(func=cmd_verify)

    stats = sub.add_parser("stats", help="per-hop count table")
    stats.add_argument("--dataset", required=True)
    stats.set_defaults(func=cmd_stats)

    args = parser.parse_args(argv)
    try:
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
