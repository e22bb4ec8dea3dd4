import io
import json
import os
import shlex
import shutil
import stat
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from reasonforge import cli, promptkit, taskgen
from reasonforge.cli import main, parse_aug, parse_counts
from reasonforge.taskgen import DatasetSpec, GenerationExhausted, read_jsonl
from reasonforge.verbalizer import data_dir, read_asset


def run(argv):
    return main(argv)


COUNTS_GRAMMAR = [
    ("7=1", {7: 1}),
    ("2=10,3=0", {2: 10, 3: 0}),
    ("2:5=4", {2: 4, 3: 4, 4: 4, 5: 4}),
    ("4:4=3", {4: 3}),
    ("2:4=5,7=1", {2: 5, 3: 5, 4: 5, 7: 1}),
    (" 2 : 3 = 1 , 9=2", {2: 1, 3: 1, 9: 2}),
]
AUG_GRAMMAR = [
    ("none", (("none", 1, 1.0),)),
    ("permute", (("permute", 1, 1.0),)),
    ("noise:3", (("noise", 3, 1.0),)),
    ("flip", (("flip", 1, 1.0),)),
    ("noise:2=0.5", (("noise", 2, 0.5),)),
    ("permute=2,flip:1", (("permute", 1, 2.0), ("flip", 1, 1.0))),
    (" permute = 2 , noise : 4 ", (("permute", 1, 2.0), ("noise", 4, 1.0))),
    # weights DatasetSpec rejects pass through the grammar
    ("permute=-1,noise", (("permute", 1, -1.0), ("noise", 1, 1.0))),
    ("flip:2=inf", (("flip", 2, float("inf")),)),
]


def test_parse_helpers():
    for text, counts in COUNTS_GRAMMAR:
        assert parse_counts(text) == counts, text
    for text, mix in AUG_GRAMMAR:
        assert parse_aug(text) == mix, text
    nan = parse_aug("permute=nan")
    assert len(nan) == 1 and nan[0][2] != nan[0][2]
    for text in ("permute=-1,noise", "flip:2=inf", "permute=nan"):
        with pytest.raises(ValueError, match="weight must be finite and >= 0"):
            DatasetSpec.make("kinship", {2: 1}, augmentation_mix=parse_aug(text))


@pytest.mark.parametrize("argv, same", [
    (["--counts", "2=1", "--aug", "permute,noise:1,flip:1"], ["--counts", "2=1"]),
    (["--counts", "2:4=5,7=1"], ["--counts", "2=5,3=5,4=5,7=1"]),
])
def test_spellings_build_one_spec(monkeypatch, argv, same):
    specs = []
    monkeypatch.setattr(cli, "build_dataset",
                        lambda spec, workers: specs.append(spec) or [])
    gen = ["gen", "--task", "clutrr", "--seed", "5", "-o", os.devnull]
    with redirect_stdout(io.StringIO()):
        assert run(gen + argv) == 0
        assert run(gen + same) == 0
    assert specs[0] == specs[1]


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--task", "stepgame", "--counts", "2:4=6",
            "--seed", "11"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_workers_match_single_thread(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--task", "clutrr", "--counts", "2:3=8",
            "--seed", "2"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_workers_match_at_deep_hops(tmp_path):
    # deep kinship buckets discard many attempts; each worker builds whole
    # buckets, and their reassembly must follow hop order
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--task", "clutrr", "--counts", "9:10=5",
            "--seed", "31"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_import_leaves_the_process_pool_out():
    # only `gen --workers N` with N > 1 uses a pool, so importing the CLI
    # imports neither multiprocessing nor concurrent.futures
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, reasonforge.cli; print(sorted(m for m in "
         "('multiprocessing', 'concurrent.futures') if m in sys.modules))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("counts", ["2=3,5=2", "2=3,11=0", "1=2,11=1"])
def test_gen_summary_is_stats_of_its_output(tmp_path, capsys, counts):
    # gen's table comes from the spec's counts, stats' from the rows it
    # reads: a zero-count hop outside 2-10 gets no row in either
    out = tmp_path / "d.jsonl"
    assert run(["gen", "--task", "clutrr", "--counts", counts, "-o", str(out)]) == 0
    wrote, table = capsys.readouterr().out.split("\n", 1)
    assert wrote == f"wrote {len(out.read_text().splitlines())} examples to {out}"
    assert run(["stats", "--dataset", str(out)]) == 0
    assert table == capsys.readouterr().out


def test_gen_zero_counts(tmp_path):
    out = tmp_path / "empty.jsonl"
    assert run(["gen", "--task", "clutrr", "--counts", "2:10=0",
                "--seed", "1", "-o", str(out)]) == 0
    assert out.read_text() == ""


def test_gen_invalid_config(tmp_path):
    out = tmp_path / "x.jsonl"
    assert run(["gen", "--task", "clutrr", "-o", str(out)]) == 2


@pytest.mark.parametrize("task, preset", [("clutrr", "clutrr_paper.json"),
                                          ("stepgame", "stepgame_paper.json")])
def test_preset_is_its_counts(monkeypatch, task, preset):
    specs = []

    def record(spec, workers):
        specs.append(spec)
        return []

    monkeypatch.setattr(cli, "build_dataset", record)
    counts = read_asset("presets/" + preset, json.loads)["counts"]
    argv = ["gen", "--task", task, "--seed", "5", "-o", os.devnull]
    spelled = ",".join(f"{hop}={n}" for hop, n in counts.items())
    with redirect_stdout(io.StringIO()):
        assert run(argv + ["--preset", "paper"]) == 0
        assert run(argv + ["--counts", spelled]) == 0
    assert specs[0] == specs[1]


def test_render_and_score_round_trip(tmp_path):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2:3=5",
         "--seed", "8", "-o", str(dataset)])
    prompts = tmp_path / "p.jsonl"
    assert run(["render", "--dataset", str(dataset), "--style", "eta-p",
                "-o", str(prompts)]) == 0
    rendered = [json.loads(line) for line in prompts.read_text().splitlines()]
    assert len(rendered) == 10
    assert all(r["prompt"].rstrip().endswith("### Output:") for r in rendered)

    predictions = tmp_path / "preds.jsonl"
    with open(predictions, "w") as handle:
        for r in rendered:
            handle.write(json.dumps({"id": r["id"], "response": r["target"]}) + "\n")
    report_path = tmp_path / "report.json"
    assert run(["score", "--predictions", str(predictions), "--gold",
                str(dataset), "--style", "eta-p", "--report",
                str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["overall_accuracy"] == 1.0
    assert report["unparseable"] == 0


def test_render_with_shots(tmp_path):
    dataset = tmp_path / "d.jsonl"
    pool = tmp_path / "pool.jsonl"
    run(["gen", "--task", "clutrr", "--counts", "2=4",
         "--seed", "3", "-o", str(dataset)])
    run(["gen", "--task", "clutrr", "--counts", "2:3=6",
         "--seed", "4", "-o", str(pool)])
    prompts = tmp_path / "p.jsonl"
    assert run(["render", "--dataset", str(dataset), "--style", "std-p",
                "-k", "5", "--shots-file", str(pool), "-o", str(prompts)]) == 0
    record = json.loads(prompts.read_text().splitlines()[0])
    assert record["prompt"].count("### Story:") == 6


def test_render_failing_midway_keeps_earlier_output(tmp_path, monkeypatch):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=4",
         "--seed", "3", "-o", str(dataset)])
    prompts = tmp_path / "p.jsonl"
    prompts.write_text("earlier\n")
    rendered = []

    def failing_target(example, style, pool=None):
        if rendered:
            raise RuntimeError("render failed")
        rendered.append(example.id)
        return "target"

    monkeypatch.setattr(promptkit, "render_target", failing_target)
    with pytest.raises(RuntimeError):
        run(["render", "--dataset", str(dataset), "--style", "std-p",
             "-o", str(prompts)])
    assert rendered
    assert prompts.read_text() == "earlier\n"
    assert sorted(os.listdir(tmp_path)) == ["d.jsonl", "p.jsonl"]


def test_outputs_write_through_devices_and_symlinks(tmp_path):
    # only a new path or a regular file is replaced by a renamed temporary
    target = tmp_path / "target.jsonl"
    target.write_text("earlier\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    gen = ["gen", "--task", "stepgame", "--counts", "2=2", "--seed", "3"]
    run(gen + ["-o", os.devnull])
    run(gen + ["-o", str(link)])
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert link.is_symlink() and len(target.read_text().splitlines()) == 2
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "target.jsonl"]


def test_output_pipe_gets_the_whole_output(tmp_path):
    # a reader that stops at the first end of file, as `cat` does, must not
    # see one before the output is written
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo) as handle:
            received.append(handle.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    proc = subprocess.run(
        [sys.executable, "-m", "reasonforge.cli", "gen", "--task", "stepgame",
         "--counts", "2=2", "--seed", "0", "-o", str(fifo)],
        capture_output=True, text=True, timeout=60)
    reader.join(timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert len(received) == 1 and len(received[0].splitlines()) == 2


def test_pipe_gets_the_buckets_before_a_failing_one(tmp_path, capsys, monkeypatch):
    # gen writes each bucket as it is built: a pipe's reader gets the rows
    # of the buckets before the failing one, a regular file none of them
    build = taskgen._build_bucket

    def failing(spec, hop, count, graphs):
        if hop == 3:
            raise GenerationExhausted(hop, 0, 5)
        return build(spec, hop, count, graphs)

    monkeypatch.setattr(taskgen, "_build_bucket", failing)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    gen = ["gen", "--task", "stepgame", "--counts", "2=2,3=2", "--seed", "0"]
    assert run(gen + ["-o", str(fifo)]) == 1
    reader.join(timeout=10)
    assert capsys.readouterr().err.startswith("error: hop 3: ")
    assert [json.loads(line)["hop"] for line in received[0].splitlines()] == [2, 2]
    assert run(gen + ["-o", str(tmp_path / "d.jsonl")]) == 1
    assert sorted(os.listdir(tmp_path)) == ["fifo"]


def test_stdout_pipe_gets_the_whole_output(tmp_path):
    # -o /dev/stdout with stdout a pipe: the symlink reaches the pipe, which
    # is written through; run in a child so that its stdout is a real pipe
    gen = ["gen", "--task", "stepgame", "--counts", "2=2", "--seed", "0"]
    run(gen + ["-o", str(tmp_path / "d.jsonl")])
    proc = subprocess.run(
        [sys.executable, "-m", "reasonforge.cli", *gen, "-o", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith((tmp_path / "d.jsonl").read_text())
    assert "wrote 2 examples to /dev/stdout" in proc.stdout


def test_stdout_appended_file_keeps_what_it_held(tmp_path):
    # -o /dev/stdout with stdout opened for append on a file: the output and
    # then the summary follow what the file held, and nothing is staged
    gen = ["gen", "--task", "stepgame", "--counts", "2=2", "--seed", "0"]
    run(gen + ["-o", str(tmp_path / "d.jsonl")])
    out = tmp_path / "out.txt"
    out.write_text("earlier\n")
    with open(out, "a") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "reasonforge.cli", *gen, "-o", "/dev/stdout"],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    assert text.startswith("earlier\n" + (tmp_path / "d.jsonl").read_text()
                           + "wrote 2 examples to /dev/stdout\n")
    assert text.endswith("Total        2\n")
    assert sorted(os.listdir(tmp_path)) == ["d.jsonl", "out.txt"]


def test_gen_exhausted_keeps_earlier_output(tmp_path, capsys, monkeypatch):
    # a bucket that runs out of attempts inside the writer: the earlier
    # output, a regular file or a symlink's target, stays as it was
    def exhausted(spec, hop, count, graphs):
        raise GenerationExhausted(hop, 0, 5)

    monkeypatch.setattr(taskgen, "_build_bucket", exhausted)
    target = tmp_path / "target.jsonl"
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    for out in (tmp_path / "d.jsonl", link):
        out.write_bytes(b"earlier\n")
        capsys.readouterr()
        assert run(["gen", "--task", "stepgame", "--counts", "2=2",
                    "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: hop 2: "), err
        assert out.read_bytes() == b"earlier\n"
    assert sorted(os.listdir(tmp_path)) == ["d.jsonl", "link.jsonl", "target.jsonl"]


def test_gen_exhausted_into_stdout_releases_its_descriptor(capsys, monkeypatch):
    # -o /dev/stdout hands the writer a new descriptor of stdout, which a
    # bucket that fails before anything is written leaves closed
    def exhausted(spec, hop, count, graphs):
        raise GenerationExhausted(hop, 0, 5)

    monkeypatch.setattr(taskgen, "_build_bucket", exhausted)
    before = sorted(os.listdir("/proc/self/fd"))
    assert run(["gen", "--task", "stepgame", "--counts", "2=2", "-o", "/dev/stdout"]) == 1
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err.startswith("error: hop 2: ")


def test_symlinked_output_is_staged_beside_its_target(tmp_path, monkeypatch):
    # the temporary file goes beside the symlink's resolved target, existing
    # or not, and is renamed onto it; the symlink stays
    links, targets = tmp_path / "links", tmp_path / "targets"
    links.mkdir()
    targets.mkdir()
    build = taskgen._build_bucket
    during = []

    def watched(spec, hop, count, graphs):
        during.append((sorted(os.listdir(links)), sorted(os.listdir(targets))))
        return build(spec, hop, count, graphs)

    monkeypatch.setattr(taskgen, "_build_bucket", watched)
    (targets / "old.jsonl").write_text("earlier\n")
    (links / "old.jsonl").symlink_to(targets / "old.jsonl")
    (links / "new.jsonl").symlink_to(targets / "new.jsonl")
    for name in ("old.jsonl", "new.jsonl"):
        assert run(["gen", "--task", "stepgame", "--counts", "2=2",
                    "-o", str(links / name)]) == 0
        assert during[-1][0] == ["new.jsonl", "old.jsonl"]
        assert f"{name}.{os.getpid()}.tmp" in during[-1][1]
        assert (links / name).is_symlink()
        assert len((targets / name).read_text().splitlines()) == 2
    assert sorted(os.listdir(links)) == sorted(os.listdir(targets)) == [
        "new.jsonl", "old.jsonl"]


def test_render_failing_midway_keeps_symlink_target(tmp_path, monkeypatch):
    # render stages a symlink's target too, so a failure keeps what it held
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=4",
         "--seed", "3", "-o", str(dataset)])
    target = tmp_path / "target.jsonl"
    target.write_text("earlier\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    rendered = []

    def failing_target(example, style, pool=None):
        if rendered:
            raise RuntimeError("render failed")
        rendered.append(example.id)
        return "target"

    monkeypatch.setattr(promptkit, "render_target", failing_target)
    with pytest.raises(RuntimeError):
        run(["render", "--dataset", str(dataset), "--style", "std-p",
             "-o", str(link)])
    assert rendered
    assert link.is_symlink() and target.read_text() == "earlier\n"
    assert sorted(os.listdir(tmp_path)) == ["d.jsonl", "link.jsonl", "target.jsonl"]


def test_failed_gen_through_dangling_symlink_leaves_no_target(tmp_path, capsys,
                                                             monkeypatch):
    def exhausted(spec, hop, count, graphs):
        raise GenerationExhausted(hop, 0, 5)

    monkeypatch.setattr(taskgen, "_build_bucket", exhausted)
    link = tmp_path / "dangling.jsonl"
    link.symlink_to(tmp_path / "missing.jsonl")
    assert run(["gen", "--task", "stepgame", "--counts", "2=2",
                "-o", str(link)]) == 1
    assert capsys.readouterr().err.startswith("error: hop 2: ")
    assert link.is_symlink() and not link.exists()
    assert sorted(os.listdir(tmp_path)) == ["dangling.jsonl"]


def test_existing_output_that_cannot_be_written_is_refused(tmp_path, capsys,
                                                          monkeypatch):
    # a regular file is replaced by renaming, yet one that cannot be opened
    # for writing is refused before any work, as a directory is
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=2",
         "--seed", "3", "-o", str(dataset)])
    held = tmp_path / "held.jsonl"
    held.write_text("held\n")
    (tmp_path / "dir.jsonl").mkdir()

    def read_only(file, mode="r", *args, **kwargs):
        # permission bits do not bind the superuser, so refuse here
        if os.fspath(file) == str(held) and mode != "r":
            raise PermissionError(13, "Permission denied", os.fspath(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", read_only, raising=False)
    for out in (held, tmp_path / "dir.jsonl"):
        capsys.readouterr()
        assert run(["render", "--dataset", str(dataset), "--style", "std-p",
                    "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: " + (
            "Permission denied\n" if out == held else "Is a directory\n")
    assert held.read_text() == "held\n"
    assert sorted(os.listdir(tmp_path)) == ["d.jsonl", "dir.jsonl", "held.jsonl"]


def test_render_missing_shot_pool(tmp_path):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=2",
         "--seed", "3", "-o", str(dataset)])
    assert run(["render", "--dataset", str(dataset), "--style", "std-p",
                "-k", "5", "-o", str(tmp_path / "p.jsonl")]) == 2


def test_render_unreadable_dataset(tmp_path):
    assert run(["render", "--dataset", str(tmp_path / "missing.jsonl"),
                "--style", "std-p", "-o", str(tmp_path / "p.jsonl")]) == 2


def test_score_unknown_id(tmp_path):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=2",
         "--seed", "3", "-o", str(dataset)])
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(json.dumps({"id": "spatial-9-9", "response": "x"}) + "\n")
    assert run(["score", "--predictions", str(predictions), "--gold",
                str(dataset)]) == 1


def test_score_unknown_id_keeps_earlier_report(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=2",
         "--seed", "3", "-o", str(dataset)])
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(json.dumps({"id": "spatial-9-9", "response": "x"}) + "\n")
    report = tmp_path / "r.json"
    report.write_bytes(b"earlier\n")
    capsys.readouterr()
    assert run(["score", "--predictions", str(predictions), "--gold",
                str(dataset), "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        "error: prediction id spatial-9-9 not in gold dataset\n")
    assert report.read_bytes() == b"earlier\n"
    assert sorted(os.listdir(tmp_path)) == ["d.jsonl", "preds.jsonl", "r.json"]


def test_score_repeated_gold_id_keeps_earlier_report(tmp_path, capsys):
    # a gold id on two rows with different answers is refused, whichever
    # row the prediction answers
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=6",
         "--seed", "3", "-o", str(dataset)])
    rows = [json.loads(line) for line in dataset.read_text().splitlines()]
    first = rows[0]
    second = next(row for row in rows[1:] if row["answer"] != first["answer"])
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps(first) + "\n" + json.dumps({**second, "id": first["id"]})
                    + "\n")
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(json.dumps(
        {"id": first["id"], "response": f"Therefore, {first['answer']}."}) + "\n")
    report = tmp_path / "r.json"
    report.write_bytes(b"earlier\n")
    capsys.readouterr()
    assert run(["score", "--predictions", str(predictions), "--gold", str(gold),
                "--style", "std-p", "--report", str(report)]) == 1
    assert capsys.readouterr() == ("", f"error: duplicate gold id {first['id']}\n")
    assert report.read_bytes() == b"earlier\n"
    assert sorted(os.listdir(tmp_path)) == ["d.jsonl", "gold.jsonl", "preds.jsonl",
                                            "r.json"]


def test_verify_clean_and_corrupted(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "clutrr", "--counts", "2:3=4",
         "--seed", "6", "-o", str(dataset)])
    capsys.readouterr()
    assert run(["verify", "--dataset", str(dataset)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "8 examples, 0 mismatches"
    assert out[1] == 'hop histogram: {"2": 4, "3": 4}'
    lines = [json.loads(l) for l in dataset.read_text().splitlines()]
    labels = dict(sorted(Counter(l["answer"] for l in lines).items()))
    assert out[2] == "label distribution: " + json.dumps(labels)

    lines[0]["answer"] = "uncle" if lines[0]["answer"] != "uncle" else "aunt"
    corrupted = tmp_path / "bad.jsonl"
    corrupted.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    assert run(["verify", "--dataset", str(corrupted)]) == 1
    out = capsys.readouterr().out
    assert lines[0]["id"] in out


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["verify", "stats"])
def test_closed_stdout_ends_quietly(tmp_path, capsys, monkeypatch, command):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "clutrr", "--counts", "2:3=2",
         "--seed", "6", "-o", str(dataset)])
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run([command, "--dataset", str(dataset)]) == 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_ends_without_traceback(tmp_path):
    # `reasonforge verify ... | true`: the output fits the stdout buffer, so
    # the write fails only when it is flushed
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "clutrr", "--counts", "2:3=2",
         "--seed", "6", "-o", str(dataset)])
    proc = subprocess.Popen(
        [sys.executable, "-m", "reasonforge.cli", "verify", "--dataset", str(dataset)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == ""


GEN = ["gen", "--task", "clutrr", "--counts", "2:3=2"]


@pytest.mark.parametrize("argv, message", [
    (["gen", "--task", "clutrr", "--counts", "5:2=3"],
     "no hop buckets"),
    # ids as first written, when the messages named the record kinds
    pytest.param(GEN + ["--aug", "noise:-2"], "noise n must be an integer >= 0, got -2",
                 id="argv1-edge-noise k must be >= 0"),
    pytest.param(GEN + ["--aug", "flip:-1"], "flip n must be an integer >= 0, got -1",
                 id="argv2-direction-flip count must be >= 0"),
    (GEN + ["--workers", "0"], "--workers must be >= 1"),
    (["gen", "--task", "clutrr", "--counts", "2=1,2=3"],
     "--counts part '2=3' repeats hop 2"),
    (["verify", "--dataset", "{dir}/missing.jsonl"],
     "cannot read {dir}/missing.jsonl"),
    (["verify", "--dataset", "{dir}/bad.jsonl"], "{dir}/bad.jsonl:2: "),
    (["stats", "--dataset", "{dir}/fields.jsonl"],
     "{dir}/fields.jsonl:1: missing field"),
    (["score", "--predictions", "{dir}/preds.jsonl", "--gold", "{dir}/d.jsonl"],
     "{dir}/preds.jsonl:2: "),
    (GEN + ["-o", "{dir}/nodir/x.jsonl"], "cannot write {dir}/nodir/x.jsonl"),
    (["render", "--dataset", "{dir}/d.jsonl", "--style", "std-p",
      "-o", "{dir}/nodir/p.jsonl"], "cannot write {dir}/nodir/p.jsonl"),
    (["score", "--predictions", "{dir}/answers.jsonl", "--gold", "{dir}/d.jsonl",
      "--report", "{dir}/nodir/r.json"], "cannot write {dir}/nodir/r.json"),
    (["render", "--dataset", "{dir}/d.jsonl", "--style", "std-p", "-k", "-1",
      "-o", "{dir}/p.jsonl"], "-k must be >= 0"),
    (["render", "--dataset", "{dir}/d.jsonl", "--style", "std-p", "-k", "1",
      "--shots-file", "{dir}/d.jsonl", "-o", "{dir}/p.jsonl"],
     "-k 1 exceeds the 0 shots {dir}/d.jsonl can give"),
    (["gen", "--task", "stepgame", "--preset", "paper", "--counts", "2"],
     "--counts part '2' is not hop=n or lo:hi=n"),
    (GEN + ["--graphs-per-hop", "-1"], "graphs per hop must be >= 0"),
    (["render", "--dataset", "{dir}/k.jsonl", "--style", "eta-p", "-k", "1",
      "--shots-file", "{dir}/d.jsonl", "-o", "{dir}/p.jsonl"],
     "{dir}/d.jsonl and {dir}/k.jsonl mix tasks: kinship, spatial"),
    (["gen", "--task", "stepgame", "--preset", "stale"],
     'preset stepgame_stale.json must be a JSON object holding only "counts"'),
    (["render", "--dataset", "{dir}/query.jsonl", "--style", "std-p",
      "-o", "{dir}/kept.jsonl"], "{dir}/query.jsonl:1: unparseable query"),
    (["stats", "--dataset", "{dir}/task.jsonl"],
     "{dir}/task.jsonl:1: unknown task 'chess'"),
    (["score", "--predictions", "{dir}/answers.jsonl", "--gold", "{dir}/answer.jsonl"],
     "{dir}/answer.jsonl:1: 'north' is not a spatial label"),
    # held.jsonl is writable, but the temporary file beside it is not
    (GEN + ["-o", "{dir}/held.jsonl"], "cannot write {dir}/held.jsonl."),
    (["render", "--dataset", "{dir}/d.jsonl", "--style", "std-p",
      "-o", "{dir}/held.jsonl"], "cannot write {dir}/held.jsonl."),
    (["score", "--predictions", "{dir}/answers.jsonl", "--gold", "{dir}/d.jsonl",
      "--report", "{dir}/held.jsonl"], "cannot write {dir}/held.jsonl."),
    # a weight random.choices cannot draw by: negative, nan or inf
    pytest.param(["gen", "--task", "clutrr", "--counts", "2=30", "--aug",
                  "permute=-1,noise:2"], "permute weight must be finite and >= 0, got -1.0",
                 id="argv24-permutation weight must be finite and >= 0, got -1."),
    pytest.param(["gen", "--task", "clutrr", "--counts", "2=30", "--aug",
                  "permute=nan,noise:1"], "permute weight must be finite and >= 0, got nan",
                 id="argv25-permutation weight must be finite and >= 0, got nan"),
    pytest.param(["gen", "--task", "clutrr", "--counts", "2=30", "--aug",
                  "permute=inf,noise:1"], "permute weight must be finite and >= 0, got inf",
                 id="argv26-permutation weight must be finite and >= 0, got inf"),
    (["score", "--predictions", "{dir}/typed.jsonl", "--gold", "{dir}/k.jsonl"],
     "{dir}/typed.jsonl:1: id and response must be strings"),
    (["verify", "--dataset", "{dir}/triples.jsonl"],
     "{dir}/triples.jsonl:1: triples, distractors and gold_triples must be lists"),
    (["stats", "--dataset", "{dir}/hop.jsonl"],
     "{dir}/hop.jsonl:1: hop '2' is not an integer"),
    # a malformed triple inside a list, caught where it is unpacked
    (["verify", "--dataset", "{dir}/triple.jsonl"],
     "spatial-2-0: malformed triple (TypeError: "),
    (["verify", "--dataset", "{dir}/distractor.jsonl"],
     "spatial-2-0: malformed triple (ValueError: "),
    (["render", "--dataset", "{dir}/gold.jsonl", "--style", "eta-p",
      "-o", "{dir}/p.jsonl"], "spatial-2-0: malformed gold triple (TypeError: "),
    # a bad --counts or --aug part is named; an existing -o target is kept
    (["gen", "--task", "clutrr", "--counts", "2:4=1,3:5=2", "-o", "{dir}/kept.jsonl"],
     "--counts part '3:5=2' repeats hop 3"),
    (GEN + ["--aug", "noise:x", "-o", "{dir}/kept.jsonl"],
     "--aug part 'noise:x' needs an integer param and a numeric weight"),
    (GEN + ["--aug", "permute=2,flip:1=x"],
     "--aug part 'flip:1=x' needs an integer param and a numeric weight"),
    (GEN + ["--aug", "permute:3"],
     "--aug part 'permute:3' is not none, permute, noise[:k] or flip[:n]"),
    (GEN + ["--aug", "none:1"], "--aug part 'none:1' is not none, permute, "),
    (GEN + ["--aug", "mix=permute:1"], "--aug part 'mix=permute:1' is not none, "),
    # flags argparse rejects: one error line, no usage block
    (GEN + ["--shots", "2"], "unrecognized arguments: --shots 2"),
    (GEN + ["--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["render", "--dataset", "{dir}/d.jsonl", "--style", "std-p"],
     "the following arguments are required: -o/--output"),
    # each task has one spelling
    (["gen", "--task", "kinship", "--counts", "2=1"],
     "argument --task: invalid choice: 'kinship' (choose from 'clutrr', 'stepgame')"),
])
def test_bad_input_fails_fast(tmp_path, capsys, monkeypatch, argv, message):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=1",
         "--seed", "0", "-o", str(dataset)])
    run(["gen", "--task", "clutrr", "--counts", "2=1",
         "--seed", "0", "-o", str(tmp_path / "k.jsonl")])
    (tmp_path / "bad.jsonl").write_text(dataset.read_text() + "{not json\n")
    (tmp_path / "fields.jsonl").write_text(json.dumps({"id": "x"}) + "\n")
    (tmp_path / "preds.jsonl").write_text(
        json.dumps({"id": "spatial-2-0", "response": "x"}) + "\n[1, 2]\n")
    (tmp_path / "answers.jsonl").write_text(
        json.dumps({"id": "spatial-2-0", "response": "x"}) + "\n")
    (tmp_path / "typed.jsonl").write_text(
        json.dumps({"id": "kinship-2-0", "response": 5}) + "\n")
    row = json.loads(dataset.read_text())
    for key, value in [("query", "Where is A?"), ("task", "chess"), ("answer", "north"),
                       ("triples", 5), ("hop", "2")]:
        (tmp_path / f"{key}.jsonl").write_text(json.dumps({**row, key: value}) + "\n")
    for name, key, value in [("triple", "triples", [5]),
                             ("distractor", "distractors", [["A", "left"]]),
                             ("gold", "gold_triples", [5])]:
        (tmp_path / f"{name}.jsonl").write_text(json.dumps({**row, key: value}) + "\n")
    (tmp_path / "kept.jsonl").write_text("kept\n")
    (tmp_path / "held.jsonl").write_text("held\n")
    (tmp_path / f"held.jsonl.{os.getpid()}.tmp").mkdir()
    # every row runs against a user data directory that also holds a preset
    # with a key besides counts
    data = tmp_path / "data"
    shutil.copytree(data_dir(), data)
    (data / "presets" / "stepgame_stale.json").write_text(
        json.dumps({"counts": {"2": 1}, "graph_iterations": 2}))
    monkeypatch.setenv("REASONFORGE_DATA_DIR", str(data))
    capsys.readouterr()
    out = tmp_path / "out.jsonl"
    argv = [a.format(dir=tmp_path) for a in argv]
    if argv[0] == "gen" and "-o" not in argv:
        argv += ["-o", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert message.format(dir=tmp_path) in err
    assert not out.exists() and not (tmp_path / "p.jsonl").exists()
    assert (tmp_path / "kept.jsonl").read_text() == "kept\n"
    assert (tmp_path / "held.jsonl").read_text() == "held\n"


@pytest.mark.parametrize("flags", [["--count", "5"], ["--hops", "2:4", "--counts", "2=1"]])
def test_removed_count_flags_are_refused(tmp_path, capsys, flags):
    # no prefix match: --count is not read as --counts
    out = tmp_path / "x.jsonl"
    assert run(["gen", "--task", "clutrr", *flags, "-o", str(out)]) == 2
    assert capsys.readouterr().err == ("error: unrecognized arguments: "
                                       + " ".join(flags[:2]) + "\n")
    assert not out.exists()


def test_readme_cli_lines_parse(monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```")[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("reasonforge ")]
    called = []
    for name in ("gen", "render", "score", "verify", "stats"):
        monkeypatch.setattr(cli, f"cmd_{name}",
                            lambda args, name=name: called.append(name) or 0)
    for argv in commands:
        assert run(argv) == 0, argv
    assert called == [argv[0] for argv in commands] and len(called) >= 5


STALE_PROMPT = "Answer the question.\n\n### Story:\n[STORY]\n### Output:\n[ANSWER]\n"


@pytest.mark.parametrize("asset, content, argv, message", [
    ("templates_kinship.json", None,
     ["gen", "--task", "clutrr", "--counts", "2=5", "-o", "{dir}/kept.jsonl"],
     "cannot read {data}/templates_kinship.json: No such file or directory"),
    ("templates_spatial.json", "{not json",
     ["gen", "--task", "stepgame", "--counts", "2=5", "-o", "{dir}/kept.jsonl"],
     "{data}/templates_spatial.json: Expecting property name"),
    ("names.json", None,
     ["gen", "--task", "clutrr", "--counts", "2=5", "-o", "{dir}/kept.jsonl"],
     "cannot read {data}/names.json"),
    ("names.json", None, ["verify", "--dataset", "{dir}/d.jsonl"],
     "cannot read {data}/names.json"),
    ("prompts/spatial_std-p.txt", None,
     ["render", "--dataset", "{dir}/d.jsonl", "--style", "std-p",
      "-o", "{dir}/kept.jsonl"], "cannot read {data}/prompts/spatial_std-p.txt"),
    ("prompts/spatial_eta-p.txt", STALE_PROMPT,
     ["render", "--dataset", "{dir}/d.jsonl", "--style", "eta-p",
      "-o", "{dir}/kept.jsonl"],
     "{data}/prompts/spatial_eta-p.txt: a prompt asset holds only the instruction"),
    ("templates_spatial.json", None,
     ["render", "--dataset", "{dir}/d.jsonl", "--style", "eta-p",
      "-o", "{dir}/kept.jsonl"], "cannot read {data}/templates_spatial.json"),
    ("templates_spatial.json", '{"templates": {}}',
     ["score", "--predictions", "{dir}/answers.jsonl", "--gold", "{dir}/d.jsonl",
      "--style", "eta-p", "--report", "{dir}/kept.jsonl"],
     "{data}/templates_spatial.json: "),
    ("presets/stepgame_paper.json", None,
     ["gen", "--task", "stepgame", "--preset", "paper", "-o", "{dir}/kept.jsonl"],
     "cannot read {data}/presets/stepgame_paper.json"),
    ("templates_spatial.json", None,
     ["render", "--dataset", "{dir}/d.jsonl", "--style", "std-p",
      "-o", "{dir}/kept.jsonl"], "cannot read {data}/templates_spatial.json"),
])
def test_missing_or_stale_asset_fails_fast(tmp_path, capsys, monkeypatch, asset,
                                           content, argv, message):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=1",
         "--seed", "0", "-o", str(dataset)])
    (tmp_path / "answers.jsonl").write_text(
        json.dumps({"id": "spatial-2-0", "response": "x"}) + "\n")
    (tmp_path / "kept.jsonl").write_text("kept\n")
    data = tmp_path / "data"
    shutil.copytree(data_dir(), data)
    if content is None:
        (data / asset).unlink()
    else:
        (data / asset).write_text(content)
    monkeypatch.setenv("REASONFORGE_DATA_DIR", str(data))
    capsys.readouterr()
    assert run([a.format(dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert message.format(data=data) in err
    assert (tmp_path / "kept.jsonl").read_text() == "kept\n"


def test_verify_reads_through_module_reader(tmp_path, monkeypatch):
    # read_jsonl is looked up when called, so a wrapper installed on the
    # module (as a tracer does) sees every dataset read
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=2",
         "--seed", "0", "-o", str(dataset)])
    calls = []

    def counting(path):
        calls.append(path)
        return read_jsonl(path)

    monkeypatch.setattr(cli, "read_jsonl", counting)
    assert run(["verify", "--dataset", str(dataset)]) == 0
    assert calls == [str(dataset)]


def test_render_reads_a_shared_shots_file_once(tmp_path, monkeypatch):
    # a shots file that is the dataset itself is parsed once; another file
    # is read on its own
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=3",
         "--seed", "0", "-o", str(dataset)])
    other = tmp_path / "other.jsonl"
    other.write_bytes(dataset.read_bytes())
    calls = []

    def counting(path):
        calls.append(path)
        return read_jsonl(path)

    monkeypatch.setattr(cli, "read_jsonl", counting)
    render = ["render", "--dataset", str(dataset), "--style", "eta-p", "-k", "1",
              "-o", str(tmp_path / "p.jsonl"), "--shots-file"]
    assert run(render + [str(tmp_path / "." / "d.jsonl")]) == 0
    assert calls == [str(dataset)]
    calls.clear()
    assert run(render + [str(other)]) == 0
    assert calls == [str(dataset), str(other)]


def test_verify_empty(tmp_path):
    empty = tmp_path / "e.jsonl"
    empty.write_text("")
    assert run(["verify", "--dataset", str(empty)]) == 0


def test_stats_command(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--counts", "2=3,7=2", "--seed", "1",
         "-o", str(dataset)])
    assert run(["stats", "--dataset", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "Total" in out and "5" in out


def test_console_entry_point(tmp_path):
    out = tmp_path / "d.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "reasonforge.cli", "gen", "--task", "stepgame",
         "--counts", "2=2", "--seed", "0", "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Total" in proc.stdout
