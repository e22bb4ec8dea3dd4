"""Output checks computed apart from the program.

Every function here reads the files the CLI wrote as plain JSON and checks
them against properties derived from the dataset's own triples, the
shipped name pools and the spec, never by calling reasonforge code.  A
failed check raises `CheckFailed`.

The planted `score` responses are built here as well: gold eta-p targets,
targets whose answer sentence names a wrong label, and a chatter slice
that gives the right answer and then mentions another label.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from pathlib import Path


class CheckFailed(Exception):
    pass


KINSHIP_MALE = frozenset({
    "brother", "father", "father-in-law", "grandfather", "grandson",
    "nephew", "son", "son-in-law", "uncle"})
KINSHIP_FEMALE = frozenset({
    "aunt", "daughter", "daughter-in-law", "granddaughter", "grandmother",
    "mother", "mother-in-law", "niece", "sister"})
KINSHIP_LABELS = sorted(KINSHIP_MALE | KINSHIP_FEMALE)
IN_LAW = frozenset(l for l in KINSHIP_LABELS if l.endswith("-in-law"))

# "A is <label> of B" means position(A) - position(B) is this unit step.
SPATIAL_STEP = {
    "above": (0, 1), "below": (0, -1), "left": (-1, 0), "right": (1, 0),
    "upper-left": (-1, 1), "upper-right": (1, 1),
    "lower-left": (-1, -1), "lower-right": (1, -1), "overlaps": (0, 0),
}
SPATIAL_LABELS = sorted(SPATIAL_STEP)
_SIGN_LABEL = {step: label for label, step in SPATIAL_STEP.items()}

# Answer sentences as the README documents them.
SPATIAL_ANSWER = {
    "above": "is directly above", "below": "is directly below",
    "left": "is directly to the left of", "right": "is directly to the right of",
    "upper-left": "is to the upper-left of", "upper-right": "is to the upper-right of",
    "lower-left": "is to the lower-left of", "lower-right": "is to the lower-right of",
    "overlaps": "overlaps with",
}
# Trailing chatter mention of a spatial label ("..., not <this>.").
SPATIAL_CHATTER = {
    "above": "above it", "below": "below it",
    "left": "to the left of it", "right": "to the right of it",
    "upper-left": "to the upper-left of it", "upper-right": "to the upper-right of it",
    "lower-left": "to the lower-left of it", "lower-right": "to the lower-right of it",
    "overlaps": "overlapping it",
}

_QUERY = {
    "kinship": re.compile(r"What is the relationship of (\S+) to (\S+)\?"),
    "spatial": re.compile(r"What is the relation of the agent (\S+) to the agent (\S+)\?"),
}

STORY_MARK = "### Story:\n"
QUERY_MARK = "\n### Query:\n"
OUTPUT_MARK = "### Output:\n"
THEREFORE = "Therefore, "


def read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def load_name_genders(data_dir: Path) -> dict[str, str]:
    pools = json.loads((data_dir / "names.json").read_text(encoding="utf-8"))
    return {name: gender for gender, names in pools.items() for name in names}


def endpoints(row: dict) -> tuple[str, str]:
    m = _QUERY[row["task"]].fullmatch(row["query"])
    if not m:
        raise CheckFailed(f"{row['id']}: unparseable query {row['query']!r}")
    return m.group(1), m.group(2)


def answer_sentence(task: str, head: str, label: str, tail: str) -> str:
    if task == "kinship":
        return f"{head} is the {label} of {tail}"
    return f"{head} {SPATIAL_ANSWER[label]} {tail}."


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _chain_nodes(row: dict, head: str, tail: str) -> list[str]:
    """Walk head -> tail along the gold triples in order; return its nodes."""
    walk = [head]
    for a, _, b in row["gold_triples"]:
        if a == walk[-1]:
            walk.append(b)
        elif b == walk[-1]:
            walk.append(a)
        else:
            raise CheckFailed(f"{row['id']}: gold triple {a}-{b} leaves the chain")
    if walk[-1] != tail:
        raise CheckFailed(f"{row['id']}: gold chain ends at {walk[-1]}, not {tail}")
    if len(set(walk)) != len(walk):
        raise CheckFailed(f"{row['id']}: gold chain revisits a node")
    return walk


def spatial_answer(row: dict, walk: list[str]) -> str:
    """Sum of unit offsets along the gold chain, read head to tail."""
    dx = dy = 0
    for (a, r, b), cur in zip(row["gold_triples"], walk):
        sx, sy = SPATIAL_STEP[r]
        sign = 1 if a == cur else -1  # (cur is r of next) or (next is r of cur)
        dx += sign * sx
        dy += sign * sy
    return _SIGN_LABEL[(_sign(dx), _sign(dy))]


def dedup_key(row: dict) -> tuple:
    return (row["hop"], tuple(t[1] for t in row["gold_triples"]), row["answer"],
            json.dumps(row["augmentation"], sort_keys=True))


def check_dataset(rows: list[dict], task: str, counts: dict[int, int],
                  name_gender: dict[str, str]) -> dict:
    """Check a generated dataset; return per-hop counts and settled repeats."""
    per_hop = Counter(row["hop"] for row in rows)
    if dict(per_hop) != {h: n for h, n in counts.items() if n}:
        raise CheckFailed(f"per-hop counts {dict(sorted(per_hop.items()))} "
                          f"!= spec {dict(sorted(counts.items()))}")
    if len({row["id"] for row in rows}) != len(rows):
        raise CheckFailed("duplicate example ids")
    seen: set[tuple] = set()
    settled = 0
    for row in rows:
        rid, hop = row["id"], row["hop"]
        if row["task"] != task:
            raise CheckFailed(f"{rid}: task {row['task']!r} != {task!r}")
        if not hop == len(row["triples"]) == len(row["gold_triples"]):
            raise CheckFailed(f"{rid}: hop {hop} but {len(row['triples'])} story "
                              f"and {len(row['gold_triples'])} gold triples")
        if sorted(map(tuple, row["triples"])) != sorted(map(tuple, row["gold_triples"])):
            raise CheckFailed(f"{rid}: story triples are not the gold triples")
        head, tail = endpoints(row)
        walk = _chain_nodes(row, head, tail)
        on_chain = set(walk)
        for a, _, b in row["distractors"]:
            if (a in on_chain) == (b in on_chain):
                raise CheckFailed(f"{rid}: distractor {a}-{b} needs one chain endpoint")
        answer = row["answer"]
        if task == "spatial":
            derived = spatial_answer(row, walk)
            if answer != derived:
                raise CheckFailed(f"{rid}: answer {answer}, offsets give {derived}")
        else:
            if answer not in KINSHIP_MALE | KINSHIP_FEMALE or answer in IN_LAW:
                raise CheckFailed(f"{rid}: {answer!r} is no blood-relation label")
            for a, r, _ in row["gold_triples"] + row["distractors"] + [[head, answer, tail]]:
                gender = "m" if r in KINSHIP_MALE else "f"
                if name_gender.get(a) != gender:
                    raise CheckFailed(f"{rid}: {a} ({name_gender.get(a)}) "
                                      f"cannot be a {r}")
        key = dedup_key(row)
        settled += key in seen
        seen.add(key)
    return {"per_hop": dict(per_hop), "settled_repeats": settled}


def _sentence(row: dict) -> str:
    head, tail = endpoints(row)
    return answer_sentence(row["task"], head, row["answer"], tail)


def _block_text(block: str) -> tuple[str, str]:
    story, sep, rest = block.partition(QUERY_MARK)
    if not sep:
        raise CheckFailed("prompt block has no query")
    return story, rest.split("\n", 1)[0]


def check_prompts(rows: list[dict], records: list[dict], shots: int,
                  pool: list[dict] = ()) -> None:
    """One prompt and one target per example; `shots` completed shots from
    `pool`, none of them the query; each gold target ends in the example's
    own answer sentence."""
    if [r["id"] for r in records] != [row["id"] for row in rows]:
        raise CheckFailed("prompt ids do not match the dataset, one to one")
    by_text: dict[tuple[str, str], list[dict]] = {}
    for ex in pool:
        by_text.setdefault((ex["story"], ex["query"]), []).append(ex)
    for row, rec in zip(rows, records):
        rid = row["id"]
        blocks = rec["prompt"].split(STORY_MARK)[1:]
        if len(blocks) != shots + 1:
            raise CheckFailed(f"{rid}: {len(blocks) - 1} shots, expected {shots}")
        last = blocks[-1]
        if _block_text(last) != (row["story"], row["query"]) or \
                not last.endswith(OUTPUT_MARK):
            raise CheckFailed(f"{rid}: last block is not the open query")
        for block in blocks[:-1]:
            completion = block.split(OUTPUT_MARK, 1)[-1].rstrip("\n")
            if not any(ex["id"] != rid and completion.endswith(_sentence(ex))
                       for ex in by_text.get(_block_text(block), ())):
                raise CheckFailed(f"{rid}: a shot is the query itself, is not "
                                  "from the pool, or is not completed")
        sentence = _sentence(row)
        target = rec["target"]
        if not (target == sentence or target.endswith("\n" + THEREFORE + sentence)):
            raise CheckFailed(f"{rid}: target {target!r} does not end in {sentence!r}")


def plant_responses(rows: list[dict], targets: dict[str, str], seed: int):
    """Score inputs, by position i within each hop bucket: i % 10 in (1, 2)
    names a wrong label, i % 10 == 5 adds chatter, the rest are gold.

    Returns (gold-and-wrong responses, chatter responses, expected tally)
    where the tally holds per-hop n and correct counts of the first file.
    """
    rng = random.Random(seed)
    position: Counter = Counter()
    plain, chatter = [], []
    tally: dict[int, dict[str, int]] = {}
    for row in rows:
        hop = row["hop"]
        slot = position[hop] % 10
        position[hop] += 1
        target = targets[row["id"]]
        task, answer = row["task"], row["answer"]
        labels = KINSHIP_LABELS if task == "kinship" else SPATIAL_LABELS
        other = rng.choice([l for l in labels if l != answer])
        if slot == 5:
            mention = f"the {other}" if task == "kinship" else SPATIAL_CHATTER[other]
            chatter.append({"id": row["id"],
                            "response": f"{target.rstrip('.')}, not {mention}."})
            continue
        row_tally = tally.setdefault(hop, {"n": 0, "correct": 0})
        row_tally["n"] += 1
        if slot in (1, 2):
            head, tail = endpoints(row)
            cut = target.rindex(THEREFORE)
            response = target[:cut] + THEREFORE + answer_sentence(task, head, other, tail)
        else:
            response = target
            row_tally["correct"] += 1
        plain.append({"id": row["id"], "response": response})
    return plain, chatter, tally


def check_score(report: dict, tally: dict[int, dict[str, int]]) -> None:
    """The report of the gold-and-wrong file equals the planted tally."""
    got = {int(h): {"n": v["n"], "correct": v["correct"]}
           for h, v in report["per_hop"].items()}
    if got != tally:
        raise CheckFailed(f"score per hop {got} != planted {tally}")
    total = sum(v["n"] for v in tally.values())
    correct = sum(v["correct"] for v in tally.values())
    if (report["total"], report["correct"], report["unparseable"]) != (total, correct, 0):
        raise CheckFailed(f"score total/correct/unparseable {report['total']}/"
                          f"{report['correct']}/{report['unparseable']} "
                          f"!= planted {total}/{correct}/0")


def chatter_misreads(report: dict, planted: int) -> int:
    """Chatter responses all carry the right answer: each one the report
    does not count correct is a misread."""
    if report["total"] != planted or not 0 <= report["correct"] <= planted:
        raise CheckFailed(f"chatter report {report['total']}/{report['correct']} "
                          f"for {planted} planted")
    return planted - report["correct"]
