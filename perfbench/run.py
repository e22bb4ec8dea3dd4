"""reasonforge benchmark: gen -> verify -> render -> score through the CLI.

    python3 perfbench/run.py --workload kinship-paper --seed 0 --seconds 40 --trace 0

Run from the repository root.  The program is imported from `src/` next to
this directory, single process, `--workers 1`.  A run makes as many whole
rounds as fit in `--seconds` (at least one); round r generates its dataset
with seed `1000 * seed + r`, so one run averages over several datasets and
the same seed always gives the same rounds.  Each round:

1. `gen` the workload's spec (timed from argument parsing to the written
   file) and check the dataset (`bench_checks.check_dataset`);
2. `verify` it (0 mismatches expected);
3. `render --style std-p` zero-shot and `render --style eta-p -k 5` with
   shots from the same file, and check every prompt and target;
4. `score --style eta-p` on planted responses: gold and wrong-label ones,
   whose tally must match exactly, and a chatter slice, whose misreads are
   counted as failed operations.

Operations attempted per round: one per example for each of gen, verify,
std-p render, eta-p render and score.  Times are scaled to a nominal host
speed measured by `host_probe` (see README.md).  The last stdout line is
the result JSON.  With `--trace 1` the same rounds run with
`bench_trace.Tracer` installed and the per-layer metrics are reported
instead.  Every file a run writes goes to a fresh directory under
`.perfbench_work/`, removed at exit.
"""

import resource
import time

_T0 = time.perf_counter()
# CPU time the interpreter spent before this line: the part of set-up that
# happened before a clock could be read.
_RU0 = resource.getrusage(resource.RUSAGE_SELF)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import bench_checks as checks  # noqa: E402
from bench_trace import PER_LAYER, Tracer  # noqa: E402

HOPS = range(2, 11)

# Workload specs.  Augmentation mix and graph iterations come from each
# task's paper preset; `counts` overrides the preset's per-hop counts.
WORKLOADS = {
    # the kinship paper preset at 1/10 scale (same per-hop proportions),
    # a fresh graph per example: walk search (hops 9-10) and graph growth
    # (hops 2-6) do most of the work
    "kinship-paper": {
        "task": "kinship", "cli_task": "clutrr",
        "counts": {2: 116, 3: 117, 4: 113, 5: 122, 6: 122, 7: 123, 8: 112,
                   9: 95, 10: 80},
        "extra": [],
    },
    # the stepgame paper preset at full size: one cached graph and no walk
    # search, so chain sampling, augmentation, verbalization, JSON I/O and
    # the read path dominate; bypasses every kinship growth or walk change
    "spatial-paper": {
        "task": "spatial", "cli_task": "stepgame",
        "counts": {h: 555 for h in HOPS},
        "extra": [],
    },
    # kinship weighted deep, three graphs per hop served from the program's
    # graph cache: walk search is nearly all of gen
    "kinship-reuse": {
        "task": "kinship", "cli_task": "clutrr",
        "counts": {6: 20, 7: 30, 8: 40, 9: 60, 10: 80},
        "extra": ["--graphs-per-hop", "3"],
    },
}

# timed read-path stage -> its end-to-end rate metric
STAGES = {"verify": "verify_per_s", "render_std0": "render_std0_per_s",
          "render_eta5": "render_eta5_per_s", "score": "score_per_s"}
END_TO_END = (("setup_s", "s"), ("gen_s", "s"), ("peak_rss_mb", "MB"),
              ("verify_per_s", "examples/s"), ("render_std0_per_s", "prompts/s"),
              ("render_eta5_per_s", "prompts/s"), ("score_per_s", "responses/s"))

# host_probe's time at the host speed all reported times are scaled to
PROBE_NOMINAL_S = 0.020


def host_probe() -> None:
    """Fixed pure-Python work (JSON, sorting, regex, dicts) that touches no
    reasonforge code, timed before every timed command to follow the host's
    speed.  A change to the program cannot change its time."""
    rng = random.Random(12345)
    data = [{"id": f"x-{i}", "triples": [[f"N{j}", "rel", f"M{j}"] for j in range(6)],
             "v": rng.random()} for i in range(900)]
    lines = [json.dumps(d) for d in data]
    back = sorted((json.loads(line) for line in lines), key=lambda d: d["v"])
    pattern = re.compile(r"N(\d+)")
    sum(len(pattern.findall(line)) for line in lines)
    groups: dict[str, list[int]] = {}
    for i, record in enumerate(back):
        groups.setdefault(record["id"][-1], []).append(i)


def import_cli():
    """Import the program from this checkout's src/, nowhere else."""
    if not (SRC / "reasonforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("REASONFORGE_DATA_DIR", None)
    from reasonforge import cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: imported reasonforge from {cli.__file__}")
    return cli


class Program:
    """The CLI, run in-process, plus the host-probe times taken so far."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.probe_s: list[float] = []

    def run(self, argv: list[str]) -> tuple[float, str]:
        """Run one CLI command; return (seconds, captured stdout).

        Objects left from earlier commands are collected and frozen first,
        so the command's own garbage collections see only its own objects,
        as in a fresh process, and start from the same state every round.
        """
        out = io.StringIO()
        gc.collect()
        gc.freeze()
        try:
            start = time.perf_counter()
            host_probe()
            self.probe_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        finally:
            gc.unfreeze()
        if code != 0:
            raise checks.CheckFailed(f"`{argv[0]}` exited {code}: {out.getvalue()}")
        return elapsed, out.getvalue()


def gen_argv(wl: dict, counts: dict[int, int], seed: int, out: Path) -> list[str]:
    spec = ",".join(f"{h}={n}" for h, n in sorted(counts.items()))
    return ["gen", "--task", wl["cli_task"], "--preset", "paper", "--counts", spec,
            "--seed", str(seed), "--workers", "1", *wl["extra"], "-o", str(out)]


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def read_path(prog: Program, seed: int, data: Path, rows: list[dict],
              work: Path) -> dict:
    """verify, render twice and score one generated file, checking each."""
    n = len(rows)
    t_verify, text = prog.run(["verify", "--dataset", str(data)])
    if not text.startswith(f"{n} examples, 0 mismatches"):
        raise checks.CheckFailed(f"verify: {text.splitlines()[0]!r}")

    p0, p5 = work / "prompts_std0.jsonl", work / "prompts_eta5.jsonl"
    t_std0, _ = prog.run(["render", "--dataset", str(data), "--style", "std-p",
                          "-o", str(p0)])
    checks.check_prompts(rows, checks.read_rows(p0), 0)
    t_eta5, _ = prog.run(["render", "--dataset", str(data), "--style", "eta-p",
                          "-k", "5", "--shots-file", str(data), "--seed", str(seed),
                          "-o", str(p5)])
    eta5 = checks.read_rows(p5)
    checks.check_prompts(rows, eta5, 5, pool=rows)

    plain, chatter, tally = checks.plant_responses(
        rows, {r["id"]: r["target"] for r in eta5}, seed)
    reports = []
    t_score = 0.0
    for name, responses in (("plain", plain), ("chatter", chatter)):
        preds, report = work / f"{name}.jsonl", work / f"{name}.report.json"
        write_jsonl(preds, responses)
        elapsed, _ = prog.run(["score", "--predictions", str(preds), "--gold",
                               str(data), "--style", "eta-p", "--report", str(report)])
        t_score += elapsed
        reports.append(json.loads(report.read_text(encoding="utf-8")))
    checks.check_score(reports[0], tally)
    failed = checks.chatter_misreads(reports[1], len(chatter))
    return {"n": n, "verify": t_verify, "render_std0": t_std0, "render_eta5": t_eta5,
            "score": t_score, "attempted": 5 * n, "failed": failed}


def run_round(prog: Program, wl: dict, seed: int, work: Path, genders: dict) -> dict:
    data = work / "data.jsonl"
    t_gen, _ = prog.run(gen_argv(wl, wl["counts"], seed, data))
    rows = checks.read_rows(data)
    checks.check_dataset(rows, wl["task"], wl["counts"], genders)
    result = read_path(prog, seed, data, rows, work)
    result.update(gen=t_gen, sha=sha256(data))
    return result


def clear_graph_cache() -> None:
    """Drop the program's in-process graph cache, where there is one, so a
    repeated gen of the same seed grows its graphs again as a new process
    would."""
    cached = getattr(sys.modules.get("reasonforge.taskgen"), "_cached_graph", None)
    getattr(cached, "cache_clear", lambda: None)()


def run_traced_round(prog: Program, wl: dict, seed: int, work: Path,
                     genders: dict) -> dict:
    """Untraced gen, traced gen + read path, then traced per-bucket builds."""
    data, traced = work / "data.jsonl", work / "traced.jsonl"
    clear_graph_cache()
    t_plain, _ = prog.run(gen_argv(wl, wl["counts"], seed, data))
    clear_graph_cache()
    tracer = Tracer()
    with tracer:
        t_traced, _ = prog.run(gen_argv(wl, wl["counts"], seed, traced))
        rows = checks.read_rows(traced)
        stats = checks.check_dataset(rows, wl["task"], wl["counts"], genders)
        result = read_path(prog, seed, traced, rows, work)
    full_sha = sha256(data)
    if sha256(traced) != full_sha:
        raise checks.CheckFailed("traced gen wrote other bytes than untraced gen")

    metrics = tracer.metrics(accepted=len(rows))
    metrics["taskgen.settled_repeats"] = stats["settled_repeats"]
    metrics["trace.overhead_s"] = t_traced - t_plain
    metrics["trace.hooks_missing"] = len(tracer.missing)

    clear_graph_cache()
    bucket_files, lines = [], []
    for hop in HOPS:
        count = wl["counts"].get(hop, 0)
        metrics[f"taskgen.bucket_s.h{hop}"] = 0.0
        if not count:
            continue
        path = work / f"bucket{hop}.jsonl"
        bucket_tracer = Tracer()
        with bucket_tracer:
            elapsed, _ = prog.run(gen_argv(wl, {hop: count}, seed, path))
        metrics[f"taskgen.bucket_s.h{hop}"] = elapsed
        bucket_files.append(path)
        m = bucket_tracer.metrics(accepted=count)
        lines.append(f"  h{hop}: {elapsed:.3f} s, {m['taskgen.candidates']} candidates "
                     f"for {count} accepted, walk {m['walk.s']:.3f} s "
                     f"({m['walk.exhausted']}/{m['walk.calls']} exhausted), "
                     f"growth {m['relgraph.grow_graph.s']:.3f} s")
    if sha256(*bucket_files) != full_sha:
        raise checks.CheckFailed("per-bucket builds concatenated differ from the full gen")
    print(f"round seed {seed}: gen {t_plain:.3f} s untraced, {t_traced:.3f} s traced; "
          f"sha256 {full_sha}; per-bucket builds match")
    print("\n".join(lines))
    if tracer.missing:
        print("layers not found: " + ", ".join(tracer.missing))
    return {"metrics": metrics, "attempted": result["attempted"],
            "failed": result["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    prog = Program(import_cli())
    wl = WORKLOADS[args.workload]
    genders = checks.load_name_genders(SRC / "reasonforge" / "data")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    correct = True
    rounds: list[dict] = []
    durations: list[float] = []
    try:
        start = time.perf_counter()
        setup_s = _RU0.ru_utime + _RU0.ru_stime + (start - _T0)
        # whole rounds only; stop when a typical round would overrun
        while not rounds or (time.perf_counter() - start
                             + statistics.median(durations) <= args.seconds):
            seed = 1000 * args.seed + len(rounds)
            began = time.perf_counter()
            try:
                if args.trace:
                    rounds.append(run_traced_round(prog, wl, seed, work, genders))
                else:
                    rounds.append(run_round(prog, wl, seed, work, genders))
            except checks.CheckFailed as exc:
                print(f"check failed (round seed {seed}): {exc}")
                correct = False
                break
            durations.append(time.perf_counter() - began)
            if not args.trace:
                r = rounds[-1]
                print(f"round seed {seed}: sha256 {r['sha']} raw s " + json.dumps(
                    {k: round(r[k], 4) for k in ("gen", *STAGES)}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    metrics = {}
    if rounds and args.trace:
        for name, unit in PER_LAYER.items():
            value = statistics.mean(r["metrics"][name] for r in rounds)
            metrics[name] = {"value": value, "unit": unit}
    elif rounds:
        # CPU speed on a shared host drifts by a quarter or more for seconds
        # to minutes at a time, and every stage slows with it.  Times are
        # scaled by PROBE_NOMINAL_S / (mean probe time of this run): seconds
        # at the host speed where host_probe takes PROBE_NOMINAL_S.  Stage
        # times are totals over the run, not medians of its few rounds.
        scale = PROBE_NOMINAL_S / statistics.mean(prog.probe_s)
        print(f"host probe: mean {statistics.mean(prog.probe_s) * 1e3:.2f} ms over "
              f"{len(prog.probe_s)} probes; times scaled by {scale:.4f}")
        values = {
            "setup_s": setup_s * scale,
            "gen_s": statistics.mean(r["gen"] for r in rounds) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        items = sum(r["n"] for r in rounds)
        for stage, name in STAGES.items():
            values[name] = items / (sum(r[stage] for r in rounds) * scale)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct and bool(rounds),
                      "attempted": max(1, sum(r["attempted"] for r in rounds)),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
