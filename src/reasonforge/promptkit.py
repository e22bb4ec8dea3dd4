"""Prompt rendering and response parsing for the two prompting styles.

std-p instructs the model to answer directly; eta-p asks it to list the
ordered structured triples before answering.  The instruction blocks live
in versioned text assets (one per task and style) with [STORY], [QUERY],
[TRIPLES], and [ANSWER] placeholders; rendering fills the placeholders and
few-shot contexts repeat the completed block for each shot.

Parsing prefers the text after the last "Therefore"; failing that it scans
the final sentence.  Relation mentions match longest-first, so a diagonal
like "lower-left" is never mistaken for its axis substring, and responses
with no vocabulary mention at all are flagged unparseable rather than
guessed at.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .kinship import KINSHIP_LABELS
from .taskgen import Example
from .verbalizer import (TemplatePool, query_endpoints, read_asset,
                         render_answer)

STYLES = ("std-p", "eta-p")

_TRIPLES_LEAD_IN = "The ordered structured triples are:"


def load_prompt_asset(task: str, style: str) -> str:
    if style not in STYLES:
        raise ValueError(f"unknown prompt style {style!r}")
    return read_asset(f"prompts/{task}_{style}.txt")


def draw_shots(
    pool: Sequence[Example], k: int, seed: int, skip: Sequence[int]
) -> list[Example]:
    """Deterministically pick k in-context examples from `pool`, never one
    at the ascending positions in `skip` (those holding the query's id):
    the draw `random.Random(seed).sample` makes from the pool without them."""
    eligible = len(pool) - len(skip)
    if eligible < k:
        raise ValueError(f"shot pool has {eligible} usable examples; need {k}")
    shots = []
    for index in random.Random(seed).sample(range(eligible), k):
        for position in skip:
            if position > index:
                break
            index += 1
        shots.append(pool[index])
    return shots


def _answer_sentence(example: Example) -> str:
    head, tail = query_endpoints(example.query, example.task)
    return render_answer(head, tail, example.answer, example.task)


def _triples_block(example: Example) -> str:
    pool = TemplatePool.for_task(example.task)
    return "\n".join(
        pool.canonical(r, a, b) for a, r, b in example.gold_triples)


def render_target(example: Example, style: str) -> str:
    """Gold completion: the answer sentence, preceded under eta-p by the
    ordered gold triples."""
    answer = _answer_sentence(example)
    if style == "std-p":
        return answer
    if style == "eta-p":
        return (f"{_TRIPLES_LEAD_IN}\n{_triples_block(example)}\n"
                f"Therefore, {answer}")
    raise ValueError(f"unknown prompt style {style!r}")


def render_prompt(
    example: Example, style: str, shots: Sequence[Example] = ()
) -> str:
    """Instruction block, completed shot blocks, then the open query block."""
    for shot in shots:
        if shot.id == example.id:
            raise ValueError(f"shot {shot.id} is the query example")
        if shot.task != example.task:
            raise ValueError("shots must come from the same task")
    asset = load_prompt_asset(example.task, style)
    cut = asset.index("### Story:")
    instruction = asset[:cut]
    block = asset[cut:]

    def filled(e: Example, completed: bool) -> str:
        text = block.replace("[STORY]", e.story).replace("[QUERY]", e.query)
        if completed:
            return (text.replace("[TRIPLES]", _triples_block(e))
                        .replace("[ANSWER]", _answer_sentence(e)))
        return text[:text.index("### Output:") + len("### Output:")] + "\n"

    parts = [instruction]
    parts.extend(filled(shot, completed=True) + "\n" for shot in shots)
    parts.append(filled(example, completed=False))
    return "".join(parts)


# --------------------------------------------------------------------------
# response parsing
# --------------------------------------------------------------------------

def _kinship_matcher() -> re.Pattern:
    labels = sorted(KINSHIP_LABELS, key=len, reverse=True)
    return re.compile(r"\b(" + "|".join(re.escape(l) for l in labels) + r")\b")


# Spoken forms per spatial label, matched longest-first across all labels.
_SPATIAL_PHRASES = [
    ("overlaps", ["overlaps with", "overlaps", "overlapping"]),
    ("above", ["directly above", "above"]),
    ("below", ["directly below", "below"]),
    ("left", ["directly to the left", "to the left", "left"]),
    ("right", ["directly to the right", "to the right", "right"]),
    ("upper-left", ["to the upper-left", "upper-left", "upper left"]),
    ("upper-right", ["to the upper-right", "upper-right", "upper right"]),
    ("lower-left", ["to the lower-left", "lower-left", "lower left"]),
    ("lower-right", ["to the lower-right", "lower-right", "lower right"]),
]


def _spatial_matcher() -> tuple[re.Pattern, dict[str, str]]:
    phrase_to_label = {}
    for label, phrases in _SPATIAL_PHRASES:
        for phrase in phrases:
            phrase_to_label[phrase] = label
    ordered = sorted(phrase_to_label, key=len, reverse=True)
    pattern = re.compile(
        r"(" + "|".join(re.escape(p) for p in ordered) + r")")
    return pattern, phrase_to_label

_KINSHIP_RE = _kinship_matcher()
_SPATIAL_RE, _SPATIAL_MAP = _spatial_matcher()


@dataclass
class ParsedResponse:
    relation: Optional[str]
    triples: Optional[list[list[str]]] = None


def _final_segment(text: str) -> str:
    idx = text.rfind("Therefore")
    if idx >= 0:
        return text[idx:]
    # fall back to the last sentence that says anything
    sentences = [s for s in re.split(r"[.\n]", text) if s.strip()]
    return sentences[-1] if sentences else ""


def _last_relation(segment: str, task: str) -> Optional[str]:
    if task == "kinship":
        matches = _KINSHIP_RE.findall(segment)
        return matches[-1] if matches else None
    matches = _SPATIAL_RE.findall(segment)
    return _SPATIAL_MAP[matches[-1]] if matches else None


def _extract_triples(text: str, pool: TemplatePool) -> Optional[list[list[str]]]:
    lowered = text.lower()
    marker = lowered.rfind("triples")
    if marker < 0:
        return None
    start = text.index(":", marker) + 1 if ":" in text[marker:] else marker
    stop = text.find("Therefore", start)
    section = text[start:stop if stop >= 0 else len(text)]
    lines = [re.sub(r"^\s*(?:[-*]|\d+[.)])\s*", "", line)
             for line in section.splitlines()]
    found = pool.extract("\n".join(lines))
    if not found:
        return None
    return [[a, r, b] for a, r, b in found]


def parse_response(text: str, style: str, task: str) -> ParsedResponse:
    """Pull the predicted relation (and, under eta-p, the extracted triples)
    out of a free-form model response."""
    relation = _last_relation(_final_segment(text), task)
    triples = None
    if style == "eta-p":
        triples = _extract_triples(text, TemplatePool.for_task(task))
    return ParsedResponse(relation=relation, triples=triples)
