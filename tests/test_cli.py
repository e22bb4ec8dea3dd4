import io
import json
import os
import shutil
import stat
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest

from reasonforge import cli, promptkit
from reasonforge.cli import main, parse_aug, parse_counts, parse_hops
from reasonforge.taskgen import read_jsonl
from reasonforge.verbalizer import data_dir, read_asset


def run(argv):
    return main(argv)


def test_parse_helpers():
    assert parse_hops("2:5") == [2, 3, 4, 5]
    assert parse_hops("2,4,9") == [2, 4, 9]
    assert parse_counts("2=10,3=0") == {2: 10, 3: 0}
    assert parse_aug("noise:3") == (
        {"kind": "edge-noise", "weight": 1.0, "k": 3},)
    assert parse_aug("flip") == (
        {"kind": "direction-flip", "weight": 1.0, "count": 1},)
    mix = parse_aug("mix=permute:2,flip:1")
    assert mix[0]["kind"] == "permutation" and mix[0]["weight"] == 2.0
    assert mix[1] == {"kind": "direction-flip", "weight": 1.0, "count": 1}


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--task", "stepgame", "--hops", "2:4", "--count", "6",
            "--seed", "11"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_workers_match_single_thread(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--task", "clutrr", "--hops", "2:3", "--count", "8",
            "--seed", "2"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_workers_match_at_deep_hops(tmp_path):
    # deep kinship buckets discard many attempts; each worker builds whole
    # buckets, and their reassembly must follow hop order
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["gen", "--task", "clutrr", "--hops", "9:10", "--count", "5",
            "--seed", "31"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_zero_counts(tmp_path):
    out = tmp_path / "empty.jsonl"
    assert run(["gen", "--task", "clutrr", "--hops", "2:10", "--count", "0",
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
    run(["gen", "--task", "stepgame", "--hops", "2:3", "--count", "5",
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
    run(["gen", "--task", "clutrr", "--hops", "2:2", "--count", "4",
         "--seed", "3", "-o", str(dataset)])
    run(["gen", "--task", "clutrr", "--hops", "2:3", "--count", "6",
         "--seed", "4", "-o", str(pool)])
    prompts = tmp_path / "p.jsonl"
    assert run(["render", "--dataset", str(dataset), "--style", "std-p",
                "-k", "5", "--shots-file", str(pool), "-o", str(prompts)]) == 0
    record = json.loads(prompts.read_text().splitlines()[0])
    assert record["prompt"].count("### Story:") == 6


def test_render_failing_midway_keeps_earlier_output(tmp_path, monkeypatch):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--hops", "2:2", "--count", "4",
         "--seed", "3", "-o", str(dataset)])
    prompts = tmp_path / "p.jsonl"
    prompts.write_text("earlier\n")
    rendered = []

    def failing_target(example, style):
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
    gen = ["gen", "--task", "stepgame", "--hops", "2:2", "--count", "2", "--seed", "3"]
    run(gen + ["-o", os.devnull])
    run(gen + ["-o", str(link)])
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert link.is_symlink() and len(target.read_text().splitlines()) == 2
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "target.jsonl"]


def test_render_missing_shot_pool(tmp_path):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--hops", "2:2", "--count", "2",
         "--seed", "3", "-o", str(dataset)])
    assert run(["render", "--dataset", str(dataset), "--style", "std-p",
                "-k", "5", "-o", str(tmp_path / "p.jsonl")]) == 2


def test_render_unreadable_dataset(tmp_path):
    assert run(["render", "--dataset", str(tmp_path / "missing.jsonl"),
                "--style", "std-p", "-o", str(tmp_path / "p.jsonl")]) == 2


def test_score_unknown_id(tmp_path):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--hops", "2:2", "--count", "2",
         "--seed", "3", "-o", str(dataset)])
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(json.dumps({"id": "spatial-9-9", "response": "x"}) + "\n")
    assert run(["score", "--predictions", str(predictions), "--gold",
                str(dataset)]) == 1


def test_verify_clean_and_corrupted(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "clutrr", "--hops", "2:3", "--count", "4",
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
    run(["gen", "--task", "clutrr", "--hops", "2:3", "--count", "2",
         "--seed", "6", "-o", str(dataset)])
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run([command, "--dataset", str(dataset)]) == 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_ends_without_traceback(tmp_path):
    # `reasonforge verify ... | true`: the output fits the stdout buffer, so
    # the write fails only when it is flushed
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "clutrr", "--hops", "2:3", "--count", "2",
         "--seed", "6", "-o", str(dataset)])
    proc = subprocess.Popen(
        [sys.executable, "-m", "reasonforge.cli", "verify", "--dataset", str(dataset)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == ""


GEN = ["gen", "--task", "clutrr", "--hops", "2:3", "--count", "2"]


@pytest.mark.parametrize("argv, message", [
    (["gen", "--task", "clutrr", "--hops", "5:2", "--count", "3"],
     "no hop buckets"),
    (GEN + ["--aug", "noise:-2"], "edge-noise k must be >= 0"),
    (GEN + ["--aug", "flip:-1"], "direction-flip count must be >= 0"),
    (GEN + ["--workers", "0"], "--workers must be >= 1"),
    (GEN + ["--counts", "2=1"], "give --count or --counts, not both"),
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
    (["gen", "--task", "stepgame", "--preset", "paper", "--hops", "2:2"],
     "--hops needs --count"),
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
])
def test_bad_input_fails_fast(tmp_path, capsys, monkeypatch, argv, message):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--hops", "2:2", "--count", "1",
         "--seed", "0", "-o", str(dataset)])
    run(["gen", "--task", "clutrr", "--hops", "2:2", "--count", "1",
         "--seed", "0", "-o", str(tmp_path / "k.jsonl")])
    (tmp_path / "bad.jsonl").write_text(dataset.read_text() + "{not json\n")
    (tmp_path / "fields.jsonl").write_text(json.dumps({"id": "x"}) + "\n")
    (tmp_path / "preds.jsonl").write_text(
        json.dumps({"id": "spatial-2-0", "response": "x"}) + "\n[1, 2]\n")
    (tmp_path / "answers.jsonl").write_text(
        json.dumps({"id": "spatial-2-0", "response": "x"}) + "\n")
    row = json.loads(dataset.read_text())
    for key, value in [("query", "Where is A?"), ("task", "chess"), ("answer", "north")]:
        (tmp_path / f"{key}.jsonl").write_text(json.dumps({**row, key: value}) + "\n")
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
])
def test_missing_or_stale_asset_fails_fast(tmp_path, capsys, monkeypatch, asset,
                                           content, argv, message):
    dataset = tmp_path / "d.jsonl"
    run(["gen", "--task", "stepgame", "--hops", "2:2", "--count", "1",
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
    run(["gen", "--task", "stepgame", "--hops", "2:2", "--count", "2",
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
    run(["gen", "--task", "stepgame", "--hops", "2:2", "--count", "3",
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
         "--hops", "2:2", "--count", "2", "--seed", "0", "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Total" in proc.stdout
