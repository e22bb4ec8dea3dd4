"""Exact-match scoring with per-hop breakdown, plus dataset count tables.

Predictions arrive as JSONL records {id, response} so any inference stack
can produce them.  A response whose parse yields no vocabulary relation is
counted incorrect and tallied separately, keeping parser failures visible
next to genuinely wrong answers.  Under eta-p the report also counts the
responses whose extracted triple list is exactly the gold one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .promptkit import parse_response
from .taskgen import Example, read_records

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
    return {"id": record["id"], "response": record["response"]}


def read_predictions(path) -> list[dict]:
    """{id, response} records; a malformed line raises ValueError naming
    its file:line."""
    return read_records(path, _prediction)


def score(
    predictions: Iterable[dict],
    gold: Sequence[Example],
    style: str,
) -> ScoreReport:
    """Exact label match per prediction, aggregated by hop, and under
    eta-p the count of exactly extracted gold triple lists.

    Every prediction id must name a unique gold example; unknown or
    duplicate ids are errors, not skips.
    """
    by_id = {e.id: e for e in gold}

    report = ScoreReport()
    seen: set[str] = set()
    for item in predictions:
        pid = item["id"]
        if pid in seen:
            raise ValueError(f"duplicate prediction id {pid}")
        seen.add(pid)
        example = by_id.get(pid)
        if example is None:
            raise KeyError(f"prediction id {pid} not in gold dataset")
        parsed = parse_response(item["response"], style, example.task)
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
    for row in report.per_hop.values():
        row["accuracy"] = row["correct"] / row["n"] if row["n"] else 0.0
    return report


def stats_table(examples: Sequence[Example]) -> str:
    """Per-hop dataset counts in the standard row layout (hops 2-10, Total)."""
    counts: dict[int, int] = {}
    for example in examples:
        counts[example.hop] = counts.get(example.hop, 0) + 1
    hops = sorted(set(HOP_RANGE) | set(counts))
    lines = [f"{'Hop':<7}{'count':>7}"]
    for hop in hops:
        lines.append(f"{hop:<7}{counts.get(hop, 0):>7}")
    lines.append(f"{'Total':<7}{sum(counts.values()):>7}")
    return "\n".join(lines)
