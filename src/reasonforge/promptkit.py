"""Prompt rendering and response parsing for the two prompting styles.

std-p instructs the model to answer directly; eta-p asks it to list the
ordered structured triples before answering.  The instruction text lives in
versioned text assets (one per task and style); the story, query and
output layout is built here, and a few-shot context completes each shot's
block with that shot's gold target.

Parsing prefers the text after the last "Therefore"; failing that it scans
the final sentence.  Relation mentions match longest-first and whole words
only, so a diagonal like "lower-left" is never mistaken for its axis
substring nor "upright" for "right", and responses with no vocabulary
mention at all are flagged unparseable rather than guessed at.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .kinship import KINSHIP_LABELS
from .taskgen import Example
from .verbalizer import TemplatePool, read_asset, render_answer

STYLES = ("std-p", "eta-p")


def _instruction(text: str) -> str:
    if "### Story:" in text:
        raise ValueError("a prompt asset holds only the instruction text; "
                         "the story block is built in code")
    return text


def load_prompt_asset(task: str, style: str) -> str:
    """The instruction text of a task and style."""
    if style not in STYLES:
        raise ValueError(f"unknown prompt style {style!r}")
    return read_asset(f"prompts/{task}_{style}.txt", _instruction)


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


def render_target(example: Example, style: str) -> str:
    """Gold completion: the answer sentence, preceded under eta-p by the
    ordered gold triples."""
    head, tail = example.endpoints
    answer = render_answer(head, tail, example.answer, example.task)
    if style == "std-p":
        return answer
    if style == "eta-p":
        pool = TemplatePool.for_task(example.task)
        triples = "\n".join(pool.canonical(r, a, b)
                            for a, r, b in example.gold_triples)
        return f"The ordered structured triples are:\n{triples}\nTherefore, {answer}"
    raise ValueError(f"unknown prompt style {style!r}")


def _open_block(example: Example) -> str:
    return (f"### Story:\n{example.story}\n### Query:\n{example.query}\n\n"
            "### Output:\n")


def render_prompt(
    example: Example, style: str, shots: Sequence[Example] = ()
) -> str:
    """Instruction, each shot's block completed with its gold target, then
    the open query block."""
    return PromptRenderer(style).prompt(example, shots)


class PromptRenderer:
    """Prompts and targets of one style, for one run over a dataset.

    Each example's target and completed shot block is built at most once,
    so a shot drawn for many prompts, or a query that is also drawn as a
    shot, is rendered once; each task's instruction is read once.  The
    built text is keyed by the example object and lives as long as the
    renderer, so the examples must not change while it is in use.
    """

    def __init__(self, style: str) -> None:
        if style not in STYLES:
            raise ValueError(f"unknown prompt style {style!r}")
        self.style = style
        self._instructions: dict[str, str] = {}
        # id(example) -> (example, target); holding the example keeps its
        # id from passing to another object while the renderer lives
        self._targets: dict[int, tuple[Example, str]] = {}
        self._blocks: dict[int, str] = {}

    def instruction(self, task: str) -> str:
        text = self._instructions.get(task)
        if text is None:
            text = self._instructions[task] = load_prompt_asset(task, self.style)
        return text

    def target(self, example: Example) -> str:
        entry = self._targets.get(id(example))
        if entry is None:
            entry = self._targets[id(example)] = (
                example, render_target(example, self.style))
        return entry[1]

    def prompt(self, example: Example, shots: Sequence[Example] = ()) -> str:
        """render_prompt(example, style, shots), from the built blocks."""
        for shot in shots:
            if shot.id == example.id:
                raise ValueError(f"shot {shot.id} is the query example")
            if shot.task != example.task:
                raise ValueError("shots must come from the same task")
        parts = [self.instruction(example.task)]
        for shot in shots:
            block = self._blocks.get(id(shot))
            if block is None:
                # self.target holds the shot, so its id stays its own
                block = self._blocks[id(shot)] = (
                    f"{_open_block(shot)}{self.target(shot)}\n\n")
            parts.append(block)
        parts.append(_open_block(example))
        return "".join(parts)


# --------------------------------------------------------------------------
# response parsing
# --------------------------------------------------------------------------

# Spoken forms per spatial label; a kinship label is spoken as itself.
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
_PHRASE_LABELS = {
    "kinship": {label: label for label in KINSHIP_LABELS},
    "spatial": {phrase: label for label, phrases in _SPATIAL_PHRASES
                for phrase in phrases},
}
# Per task: every phrase, whole words only, longest first, so a phrase is
# never read as one of its substrings.
_MATCHERS = {
    task: re.compile(r"\b(" + "|".join(
        re.escape(p) for p in sorted(table, key=len, reverse=True)) + r")\b")
    for task, table in _PHRASE_LABELS.items()
}


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
    matches = _MATCHERS[task].findall(segment)
    return _PHRASE_LABELS[task][matches[-1]] if matches else None


_LIST_MARKER = re.compile(r"^\s*(?:[-*]|\d+[.)])\s*")


def _extract_triples(text: str, pool: TemplatePool) -> Optional[list[list[str]]]:
    # the last "triples" and the first "therefore" after it, in any case;
    # "\u0130" (İ) is the one character whose lower case is two long,
    # so it is blanked to keep text's indices
    lowered = text.replace("\u0130", " ").lower()
    marker = lowered.rfind("triples")
    if marker < 0:
        return None
    colon = text.find(":", marker)
    start = colon + 1 if colon >= 0 else marker
    stop = lowered.find("therefore", start)
    section = text[start:stop if stop >= 0 else len(text)]
    lines = [_LIST_MARKER.sub("", line) for line in section.splitlines()]
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
