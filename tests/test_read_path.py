"""The read commands stream: verify, stats and zero-shot render hold one
parsed row at a time, and a few-shot render holds its pool as strings.
A malformed line still fails the command whole."""

import gc
import json
import os
import weakref

import pytest

from reasonforge import cli
from reasonforge.cli import main
from reasonforge.taskgen import Example


PARSE = Example.from_dict.__func__


class LiveExamples:
    """Counts the Examples alive, through weakrefs, as each row is parsed."""

    def __init__(self, monkeypatch):
        self.refs: list[weakref.ref] = []
        self.parsed = self.peak = 0

        def from_dict(cls, data):
            example = PARSE(cls, data)
            self.refs.append(weakref.ref(example))
            self.parsed += 1
            self.peak = max(self.peak, self.alive())
            return example

        monkeypatch.setattr(Example, "from_dict", classmethod(from_dict))

    def alive(self) -> int:
        self.refs = [ref for ref in self.refs if ref() is not None]
        return len(self.refs)


def generate(path, task, count, seed=0):
    assert main(["gen", "--task", task, "--counts", f"2:5={count}",
                 "--seed", str(seed), "-o", str(path)]) == 0


@pytest.mark.parametrize("task", ["stepgame", "clutrr"])
def test_read_commands_hold_a_constant_number_of_examples(tmp_path, monkeypatch,
                                                          capsys, task):
    # the peak is the same for 40 and 320 rows
    commands = {
        "verify": ["verify", "--dataset", "{data}"],
        "stats": ["stats", "--dataset", "{data}"],
        "render": ["render", "--dataset", "{data}", "--style", "std-p",
                   "-o", "{dir}/p.jsonl"],
        "score": ["score", "--predictions", "{dir}/preds.jsonl", "--gold", "{data}",
                  "--style", "eta-p", "--report", "{dir}/r.json"],
    }
    peaks = {}
    for rows in (40, 320):
        data = tmp_path / f"d{rows}.jsonl"
        generate(data, task, rows // 4)
        with open(tmp_path / "preds.jsonl", "w") as handle:
            for line in data.read_text().splitlines()[::3]:
                handle.write(json.dumps({"id": json.loads(line)["id"],
                                         "response": "Therefore, none."}) + "\n")
        for name, argv in commands.items():
            live = LiveExamples(monkeypatch)
            argv = [a.format(data=data, dir=tmp_path) for a in argv]
            assert main(argv) == 0, name
            assert live.parsed == rows, name
            peaks[name, rows] = live.peak
    capsys.readouterr()
    for name in commands:
        assert peaks[name, 40] == peaks[name, 320] <= 2, peaks


def test_few_shot_pool_holds_strings_only(tmp_path, monkeypatch):
    data, other = tmp_path / "d.jsonl", tmp_path / "other.jsonl"
    generate(data, "clutrr", 25)
    generate(other, "clutrr", 10, seed=1)
    seen = []

    def draw(pool, k, seed, skip):
        if not seen:
            gc.collect()
            seen.append((len(pool), live.alive(),
                         {(type(row), len(row)) for row in pool},
                         {type(field) for row in pool for field in row}))
        return draw_shots(pool, k, seed, skip)

    draw_shots = cli.draw_shots
    monkeypatch.setattr(cli, "draw_shots", draw)
    for shots, rows in ((data, 100), (other, 40)):
        seen.clear()
        live = LiveExamples(monkeypatch)
        assert main(["render", "--dataset", str(data), "--style", "eta-p", "-k", "5",
                     "--shots-file", str(shots), "-o", str(tmp_path / "p.jsonl")]) == 0
        # no Example outlives the read; a pool row is a tuple of four strings
        assert seen == [(rows, 0, {(tuple, 4)}, {str})]


MALFORMED = "{not json\n"


@pytest.mark.parametrize("name, argv", [
    ("verify", ["verify", "--dataset", "{bad}"]),
    ("stats", ["stats", "--dataset", "{bad}"]),
    ("render std-p", ["render", "--dataset", "{bad}", "--style", "std-p",
                      "-o", "{dir}/out.jsonl"]),
    ("render eta-p -k 5", ["render", "--dataset", "{bad}", "--style", "eta-p",
                           "-k", "5", "--shots-file", "{bad}", "-o", "{dir}/out.jsonl"]),
    ("render eta-p -k 5, bad shots", ["render", "--dataset", "{good}", "--style",
                                      "eta-p", "-k", "5", "--shots-file", "{bad}",
                                      "-o", "{dir}/out.jsonl"]),
    ("score, bad gold", ["score", "--predictions", "{preds}", "--gold", "{bad}",
                         "--report", "{dir}/out.jsonl"]),
    ("score, bad gold, default report", ["score", "--predictions", "{preds}",
                                         "--gold", "{bad}"]),
    ("score, bad predictions", ["score", "--predictions", "{badpreds}", "--gold",
                                "{good}", "--report", "{dir}/out.jsonl"]),
])
def test_malformed_last_line_fails_whole(tmp_path, capsys, name, argv):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    generate(good, "stepgame", 10)
    bad.write_text(good.read_text() + MALFORMED)
    ids = [json.loads(line)["id"] for line in good.read_text().splitlines()]
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"id": i, "response": "Therefore, left."}) + "\n"
                             for i in ids))
    badpreds = tmp_path / "badpreds.jsonl"
    badpreds.write_text(preds.read_text() + MALFORMED)
    out = tmp_path / "out.jsonl"
    out.write_text("earlier\n")
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    argv = [a.format(good=good, bad=bad, preds=preds, badpreds=badpreds, dir=tmp_path)
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    broken = badpreds if "bad predictions" in name else bad
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {broken}:{len(ids) + 1}: "), captured.err
    assert out.read_text() == "earlier\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("extra", [[], ["-k", "5", "--shots-file", "{data}"]])
def test_render_over_its_own_input(tmp_path, extra):
    # the output replaces the file it streams from only once it is whole
    data = tmp_path / "d.jsonl"
    generate(data, "clutrr", 8)
    original = data.read_bytes()
    fresh = tmp_path / "fresh.jsonl"
    render = ["render", "--dataset", str(data), "--style", "eta-p",
              *[a.format(data=data) for a in extra], "-o"]
    assert main(render + [str(fresh)]) == 0
    assert data.read_bytes() == original
    assert main(render + [str(data)]) == 0
    assert data.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["d.jsonl", "fresh.jsonl"]
