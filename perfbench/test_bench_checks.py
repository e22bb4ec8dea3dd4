"""Self-tests for the benchmark's checks: each passes on the program's own
output and fails on a tampered copy of it.

    python3 -m pytest -q perfbench
"""

import copy
import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench_checks as checks  # noqa: E402
from bench_trace import HOOKS, PER_LAYER, Tracer  # noqa: E402
from reasonforge import cli  # noqa: E402

GENDERS = checks.load_name_genders(ROOT / "src" / "reasonforge" / "data")
COUNTS = {"kinship": {2: 12, 3: 12, 4: 10}, "spatial": {2: 12, 3: 12, 4: 10}}
CLI_TASK = {"kinship": "clutrr", "spatial": "stepgame"}


def run(argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


def gen(task, path, counts=None):
    spec = ",".join(f"{h}={n}" for h, n in (counts or COUNTS[task]).items())
    run(["gen", "--task", CLI_TASK[task], "--preset", "paper", "--counts", spec,
         "--seed", 3, "-o", path])


@pytest.fixture(scope="module", params=["kinship", "spatial"])
def made(request, tmp_path_factory):
    """A small dataset of one task and its 5-shot eta-p prompts."""
    task = request.param
    base = tmp_path_factory.mktemp(task)
    data, prompts = base / "data.jsonl", base / "eta5.jsonl"
    gen(task, data)
    run(["render", "--dataset", data, "--style", "eta-p", "-k", 5,
         "--shots-file", data, "-o", prompts])
    return task, base, checks.read_rows(data), checks.read_rows(prompts)


def score(base, rows, responses):
    gold, preds, report = base / "gold.jsonl", base / "preds.jsonl", base / "r.json"
    for path, records in ((gold, rows), (preds, responses)):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    run(["score", "--predictions", preds, "--gold", gold, "--style", "eta-p",
         "--report", report])
    return json.loads(report.read_text())


def test_checks_pass_on_program_output(made):
    task, base, rows, prompts = made
    stats = checks.check_dataset(rows, task, COUNTS[task], GENDERS)
    assert stats["per_hop"] == COUNTS[task]
    checks.check_prompts(rows, prompts, 5, pool=rows)
    plain, chatter, tally = checks.plant_responses(
        rows, {p["id"]: p["target"] for p in prompts}, seed=1)
    assert len(plain) + len(chatter) == len(rows) and chatter
    checks.check_score(score(base, rows, plain), tally)
    # today's parser misreads every chatter response
    assert checks.chatter_misreads(score(base, rows, chatter), len(chatter)) == len(chatter)


@pytest.mark.parametrize("made", ["spatial"], indirect=True)
def test_changed_spatial_answer_fails(made):
    task, _, rows, _ = made
    bad = copy.deepcopy(rows)
    bad[7]["answer"] = next(l for l in checks.SPATIAL_LABELS if l != bad[7]["answer"])
    with pytest.raises(checks.CheckFailed, match="offsets give"):
        checks.check_dataset(bad, task, COUNTS[task], GENDERS)


def test_dropped_example_fails(made):
    task, _, rows, _ = made
    with pytest.raises(checks.CheckFailed, match="per-hop counts"):
        checks.check_dataset(rows[:5] + rows[6:], task, COUNTS[task], GENDERS)


@pytest.mark.parametrize("made", ["kinship"], indirect=True)
def test_wrong_gender_kinship_answer_fails(made):
    task, _, rows, _ = made
    bad = copy.deepcopy(rows)
    swap = {"father": "mother", "son": "daughter", "brother": "sister",
            "grandfather": "grandmother", "grandson": "granddaughter",
            "uncle": "aunt", "nephew": "niece"}
    swap.update({v: k for k, v in swap.items()})
    bad[4]["answer"] = swap[bad[4]["answer"]]
    with pytest.raises(checks.CheckFailed, match="cannot be a"):
        checks.check_dataset(bad, task, COUNTS[task], GENDERS)


def test_wrong_response_counted_correct_fails(made):
    task, base, rows, prompts = made
    targets = {p["id"]: p["target"] for p in prompts}
    plain, _, tally = checks.plant_responses(rows, targets, seed=1)
    wrong = next(r for r in plain if r["response"] != targets[r["id"]])
    wrong["response"] = targets[wrong["id"]]  # the program now scores it correct
    with pytest.raises(checks.CheckFailed, match="planted"):
        checks.check_score(score(base, rows, plain), tally)


def test_shot_that_is_the_query_fails(made):
    _, _, rows, prompts = made
    bad = copy.deepcopy(prompts)
    blocks = bad[3]["prompt"].split(checks.STORY_MARK)
    # replace the first shot by the query's own completed block
    blocks[1] = blocks[-1] + bad[3]["target"] + "\n\n"
    bad[3]["prompt"] = checks.STORY_MARK.join(blocks)
    with pytest.raises(checks.CheckFailed, match="query itself"):
        checks.check_prompts(rows, bad, 5, pool=rows)


def test_renamed_hook_is_reported_not_fatal(tmp_path):
    hooks = tuple((name, module, "_renamed_away" if name == "walk" else attr)
                  for name, module, attr in HOOKS)
    tracer = Tracer(hooks)
    with tracer:
        gen("kinship", tmp_path / "k.jsonl", {3: 4})
    assert tracer.missing == ["walk"]
    metrics = tracer.metrics(accepted=4)
    assert metrics["walk.calls"] == 0 and metrics["taskgen.candidates"] >= 4
    assert set(metrics) <= set(PER_LAYER)


def test_benchmark_json_names_every_metric():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
