"""Prompt rendering and response parsing for the two prompting styles.

std-p instructs the model to answer directly; eta-p asks it to list the
ordered structured triples before answering.  The instruction text lives in
versioned text assets (one per task and style); the story, query and
output layout is built here, and a few-shot context completes each shot's
block with that shot's gold target.  A render reads each example into a
PromptRow of plain strings, so the rows it holds keep no Example alive.

Parsing prefers the text after the last "therefore", in any case; failing
that it scans the final sentence.  Relation mentions match longest-first
and whole words only, so a diagonal like "lower-left" is never mistaken for
its axis substring nor "upright" for "right", and responses with no
vocabulary mention at all are flagged unparseable rather than guessed at.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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


def draw_shots(pool: Sequence, k: int, seed: int, skip: Sequence[int]) -> list:
    """Deterministically pick k shots (Examples or PromptRows) from `pool`,
    never one at the ascending positions in `skip` (those holding the
    query's id): the draw `random.Random(seed).sample` makes from the pool
    without them."""
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


def render_target(example: Example, style: str,
                  pool: Optional[TemplatePool] = None) -> str:
    """Gold completion: the answer sentence, preceded under eta-p by the
    ordered gold triples, from `pool` or else the task's TemplatePool.  A
    gold triple that is not (name, label, name) raises ValueError."""
    pool = pool or TemplatePool.for_task(example.task)
    head, tail = example.endpoints
    answer = render_answer(head, tail, example.answer, example.task, pool)
    if style == "std-p":
        return answer
    if style == "eta-p":
        try:
            triples = "\n".join(pool.canonical(r, a, b)
                                for a, r, b in example.gold_triples)
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"{example.id}: malformed gold triple "
                             f"({type(exc).__name__}: {exc})") from None
        return f"The ordered structured triples are:\n{triples}\nTherefore, {answer}"
    raise ValueError(f"unknown prompt style {style!r}")


def _open_block(example: Example) -> str:
    return (f"### Story:\n{example.story}\n### Query:\n{example.query}\n\n"
            "### Output:\n")


# What a render needs of an example, as plain strings:
# (id, task, open query block, gold target).
PromptRow = tuple[str, str, str, str]


def prompt_rows(examples: Iterable[Example], style: str) -> Iterator[PromptRow]:
    """The PromptRow of each example, built as the examples are taken, with
    each task's template pool looked up once."""
    pools: dict[str, TemplatePool] = {}
    for example in examples:
        pool = pools.get(example.task)
        if pool is None:
            pool = pools[example.task] = TemplatePool.for_task(example.task)
        yield (example.id, example.task, _open_block(example),
               render_target(example, style, pool))


def join_prompt(instruction: str, shots: Iterable[PromptRow], block: str) -> str:
    """The instruction, each shot's open block completed with its target,
    then the query's open `block`."""
    return "".join([instruction, *(f"{shot_block}{target}\n\n"
                                   for _, _, shot_block, target in shots), block])


def render_prompt(
    example: Example, style: str, shots: Sequence[Example] = ()
) -> str:
    """Instruction, each shot's block completed with its gold target, then
    the open query block."""
    instruction = load_prompt_asset(example.task, style)
    for shot in shots:
        if shot.id == example.id:
            raise ValueError(f"shot {shot.id} is the query example")
        if shot.task != example.task:
            raise ValueError("shots must come from the same task")
    return join_prompt(instruction, prompt_rows(shots, style), _open_block(example))


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


def _final_segment(text: str, lowered: str) -> str:
    idx = lowered.rfind("therefore")
    if idx >= 0:
        return text[idx:]
    # fall back to the last sentence that says anything
    sentences = [s for s in re.split(r"[.\n]", text) if s.strip()]
    return sentences[-1] if sentences else ""


def _last_relation(segment: str, task: str) -> Optional[str]:
    matches = _MATCHERS[task].findall(segment)
    return _PHRASE_LABELS[task][matches[-1]] if matches else None


def _extract_triples(text: str, lowered: str,
                     pool: TemplatePool) -> Optional[list[list[str]]]:
    # the last "triples" and the first "therefore" after it, in any case
    marker = lowered.rfind("triples")
    if marker < 0:
        return None
    colon = text.find(":", marker)
    start = colon + 1 if colon >= 0 else marker
    stop = lowered.find("therefore", start)
    found = pool.extract(text[start:stop if stop >= 0 else len(text)])
    return [[a, r, b] for a, r, b in found] or None


def parse_response(text: str, style: str, task: str,
                   pool: Optional[TemplatePool] = None) -> ParsedResponse:
    """Pull the predicted relation (and, under eta-p, the triples that `pool`,
    or else the task's TemplatePool, extracts) out of a free-form response."""
    # `text` in lower case, for "therefore" and "triples" in any case;
    # "\u0130" (İ) is the one character whose lower case is two long, so
    # it is blanked to keep text's indices
    lowered = text.replace("\u0130", " ").lower()
    relation = _last_relation(_final_segment(text, lowered), task)
    triples = None
    if style == "eta-p":
        triples = _extract_triples(text, lowered, pool or TemplatePool.for_task(task))
    return ParsedResponse(relation=relation, triples=triples)
