"""Exact-match scoring with per-hop breakdown, plus dataset count tables.

Predictions arrive as JSONL records {id, response} so any inference stack
can produce them.  A response whose parse yields no vocabulary relation is
counted incorrect and tallied separately, keeping parser failures visible
next to genuinely wrong answers.  Under eta-p the report also counts the
responses whose extracted triple list is exactly the gold one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .promptkit import parse_response
from .taskgen import Example, read_records
from .verbalizer import TemplatePool

HOP_RANGE = tuple(range(2, 11))


@dataclass
class ScoreReport:
    per_hop: dict[int, dict] = field(default_factory=dict)
    total: int = 0
    correct: int = 0
    unparseable: int = 0
    triples_exact: int = 0

    @property
    def overall_accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "per_hop": {str(h): self.per_hop[h] for h in sorted(self.per_hop)},
            "total": self.total,
            "correct": self.correct,
            "unparseable": self.unparseable,
            "triples_exact": self.triples_exact,
            "overall_accuracy": self.overall_accuracy,
        }

    def to_text(self) -> str:
        lines = [f"{'Hop':<6}{'n':>6}{'correct':>9}{'accuracy':>10}"]
        for hop in sorted(self.per_hop):
            row = self.per_hop[hop]
            lines.append(f"{hop:<6}{row['n']:>6}{row['correct']:>9}"
                         f"{row['accuracy']:>10.3f}")
        lines.append(f"{'Total':<6}{self.total:>6}{self.correct:>9}"
                     f"{self.overall_accuracy:>10.3f}")
        lines.append(f"unparseable: {self.unparseable}")
        lines.append(f"triples exact: {self.triples_exact}")
        return "\n".join(lines)


def _prediction(record: dict) -> dict:
    pid, response = record["id"], record["response"]
    if not (isinstance(pid, str) and isinstance(response, str)):
        raise ValueError("id and response must be strings")
    return {"id": pid, "response": response}


def read_predictions(path) -> Iterator[dict]:
    """{id, response} records, read as they are taken; a malformed line
    raises ValueError naming its file:line."""
    return read_records(path, _prediction)


def score(
    predictions: Iterable[dict],
    gold: Iterable[Example],
    style: str,
) -> ScoreReport:
    """Exact label match per prediction, aggregated by hop, and under
    eta-p the count of exactly extracted gold triple lists.

    The predictions are indexed by id and the gold examples stream past
    that index.  Every prediction id must name a gold example, and no id
    may repeat among the predictions or the gold examples; an unknown or
    repeated id raises ValueError, not a skip.
    """
    responses: dict[str, str] = {}
    for item in predictions:
        pid = item["id"]
        if pid in responses:
            raise ValueError(f"duplicate prediction id {pid}")
        responses[pid] = item["response"]
    pools: dict[str, TemplatePool] = {}  # eta-p reads triples

    report = ScoreReport()
    seen: set[str] = set()
    for example in gold:
        if example.id in seen:
            raise ValueError(f"duplicate gold id {example.id}")
        seen.add(example.id)
        response = responses.pop(example.id, None)
        if response is None:
            continue
        pool = pools.get(example.task)
        if pool is None and style == "eta-p":
            pool = pools[example.task] = TemplatePool.for_task(example.task)
        parsed = parse_response(response, style, example.task, pool)
        row = report.per_hop.setdefault(
            example.hop, {"n": 0, "correct": 0, "accuracy": 0.0, "triples_exact": 0})
        row["n"] += 1
        report.total += 1
        if parsed.relation is None:
            report.unparseable += 1
        elif parsed.relation == example.answer:
            row["correct"] += 1
            report.correct += 1
        if parsed.triples == example.gold_triples:
            row["triples_exact"] += 1
            report.triples_exact += 1
    if responses:  # the first unknown id, in prediction order
        raise ValueError(f"prediction id {next(iter(responses))} not in gold dataset")
    for row in report.per_hop.values():
        row["accuracy"] = row["correct"] / row["n"] if row["n"] else 0.0
    return report


def stats_table(counts: Mapping[int, int]) -> str:
    """A hop -> count map in the standard row layout: hops 2-10 and any
    other hop with examples, in order, then Total."""
    hops = sorted(set(HOP_RANGE) | {hop for hop, count in counts.items() if count})
    lines = [f"{'Hop':<7}{'count':>7}"]
    for hop in hops:
        lines.append(f"{hop:<7}{counts.get(hop, 0):>7}")
    lines.append(f"{'Total':<7}{sum(counts.values()):>7}")
    return "\n".join(lines)
