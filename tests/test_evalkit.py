import random

import pytest

from reasonforge.evalkit import score, stats_table
from reasonforge.promptkit import render_target
from reasonforge.verbalizer import TemplatePool
from reasonforge.taskgen import DatasetSpec, build_dataset


@pytest.fixture(scope="module")
def gold():
    return build_dataset(DatasetSpec.make("spatial", {2: 6, 3: 6}, seed=13))


def predictions_from(gold, transform):
    return [{"id": e.id, "response": transform(e)} for e in gold]


def test_all_correct(gold):
    preds = predictions_from(gold, lambda e: render_target(e, "eta-p"))
    report = score(preds, gold, "eta-p")
    assert report.total == len(gold)
    assert report.overall_accuracy == 1.0
    assert all(row["accuracy"] == 1.0 for row in report.per_hop.values())
    assert report.unparseable == 0


def test_half_correct_bucket(gold):
    two_hop = [e for e in gold if e.hop == 2][:2]
    wrong = "Therefore, X overlaps with Y." \
        if two_hop[1].answer != "overlaps" else "Therefore, X is directly above Y."
    preds = [
        {"id": two_hop[0].id, "response": render_target(two_hop[0], "std-p")},
        {"id": two_hop[1].id, "response": wrong},
    ]
    report = score(preds, gold, "std-p")
    assert report.per_hop[2]["n"] == 2
    assert report.per_hop[2]["accuracy"] == 0.5


def test_unparseable_counts_incorrect(gold):
    preds = predictions_from(gold, lambda e: "I don't know")
    report = score(preds, gold, "std-p")
    assert report.unparseable == len(gold)
    assert report.overall_accuracy == 0.0


def test_order_invariance(gold):
    preds = predictions_from(gold, lambda e: render_target(e, "std-p"))
    shuffled = list(preds)
    random.Random(3).shuffle(shuffled)
    assert score(preds, gold, "std-p").to_dict() == \
        score(shuffled, gold, "std-p").to_dict()


def test_overall_is_weighted_mean(gold):
    preds = predictions_from(
        gold, lambda e: render_target(e, "std-p")
        if e.hop == 2 else "Therefore, nothing to see.")
    report = score(preds, gold, "std-p")
    weighted = sum(r["accuracy"] * r["n"] for r in report.per_hop.values())
    assert report.overall_accuracy == pytest.approx(weighted / report.total)


def test_unknown_and_duplicate_ids(gold):
    with pytest.raises(KeyError):
        score([{"id": "spatial-2-999", "response": "x"}], gold, "std-p")
    dup = [{"id": gold[0].id, "response": "x"},
           {"id": gold[0].id, "response": "y"}]
    with pytest.raises(ValueError):
        score(dup, gold, "std-p")


def test_stats_table(gold):
    table = stats_table(gold)
    lines = table.splitlines()
    assert lines[1].split() == ["2", "6"]
    assert lines[-1].split() == ["Total", "12"]
    empty = stats_table([])
    assert empty.splitlines()[-1].split() == ["Total", "0"]
    assert len(empty.splitlines()) == 11  # header + hops 2..10 + total


def test_report_text_and_dict(gold):
    preds = predictions_from(gold, lambda e: render_target(e, "std-p"))
    report = score(preds, gold, "std-p")
    text = report.to_text()
    assert "Total" in text and "unparseable: 0" in text
    data = report.to_dict()
    assert data["overall_accuracy"] == 1.0
    assert set(data["per_hop"]) == {"2", "3"}


def test_triples_exact_counts_gold_triple_lists(gold):
    preds = predictions_from(gold, lambda e: render_target(e, "eta-p"))
    report = score(preds, gold, "eta-p")
    assert report.triples_exact == report.total == len(gold)
    assert all(row["triples_exact"] == row["n"] for row in report.per_hop.values())
    assert report.to_dict()["triples_exact"] == len(gold)
    assert f"triples exact: {len(gold)}" in report.to_text()

    example = gold[0]
    a, relation, b = example.gold_triples[0]
    other = next(r for r in ("above", "below") if r != relation)
    pool = TemplatePool.for_task(example.task)
    preds[0]["response"] = preds[0]["response"].replace(
        pool.canonical(relation, a, b), pool.canonical(other, a, b), 1)
    changed = score(preds, gold, "eta-p")
    assert changed.triples_exact == len(gold) - 1
    assert changed.per_hop[example.hop]["triples_exact"] == \
        report.per_hop[example.hop]["n"] - 1
    assert changed.correct == report.correct

    std = score(predictions_from(gold, lambda e: render_target(e, "std-p")),
                gold, "std-p")
    assert std.triples_exact == 0 and std.correct == len(gold)
