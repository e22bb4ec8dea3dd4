"""Rule-based verbalization: structured triples to stories, queries, answers.

Templates are deliberately plain and extraction-invertible: every rendered
sentence can be parsed back into the triple that produced it by the pool's
own extraction regexes, which is what the round-trip checks and response
parsing rely on.  The first template of each relation is the canonical form
used for gold triple listings and answers.

Nodes with a gender (kinship) get gender-consistent first names from fixed
curated pools; nodes without one (spatial) get single capital letters.
"""

from __future__ import annotations

import json
import os
import random
import re
import string
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from .augment import AugmentedChain

T = TypeVar("T")

_PACKAGED_DATA = (Path(__file__).parent / "data").absolute()


def data_dir() -> Path:
    """Absolute directory holding template, name, prompt, and preset assets.

    REASONFORGE_DATA_DIR overrides the packaged data; a relative override
    is taken from the current working directory.
    """
    override = os.environ.get("REASONFORGE_DATA_DIR")
    return Path(override).absolute() if override else _PACKAGED_DATA


class AssetError(ValueError):
    """A data asset that is missing, unreadable or malformed."""


# (data directory, asset name, parse function) -> parsed asset
_ASSETS: dict = {}


def read_asset(name: str, parse: Callable[[str], T]) -> T:
    """parse(text) of a data asset, read and parsed once per process, data
    directory and parse function; every caller shares the result, so none
    may change it.  AssetError names the file when it is missing,
    unreadable or malformed."""
    key = (data_dir(), name, parse)
    try:
        return _ASSETS[key]
    except KeyError:
        path = key[0] / name
    try:
        _ASSETS[key] = parse(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise AssetError(f"cannot read {path}: {exc.strerror}") from None
    except (TypeError, ValueError) as exc:
        raise AssetError(f"{path}: {exc}") from None
    return _ASSETS[key]


# a gap within a list of triples: the rest of a line, then no words but
# list markers ("-", "•", "2)", "(3)", "**", "Step 4:") up to the next
_LIST_GAP = re.compile(r"[^\n]*(?:\n[\W\d_]*(?:step\s*\d+[\W\d_]*)*)?", re.I)


class TemplatePool:
    """Relation -> sentence templates with {A}/{B} slots, plus extraction."""

    def __init__(self, templates: dict[str, list[str]], name_pattern: str) -> None:
        if not templates:
            raise ValueError("no templates")
        for relation, forms in templates.items():
            if len(forms) < 2:
                raise ValueError(f"{relation}: need at least 2 templates")
            for form in forms:
                if form.count("{A}") != 1 or form.count("{B}") != 1:
                    raise ValueError(f"{relation}: template needs one {{A}} and "
                                     f"one {{B}}: {form}")
                if not form.startswith("{A}"):
                    raise ValueError(f"{relation}: template must start with "
                                     f"{{A}}: {form}")
        self.templates = templates
        # One alternation of every template in listed order, each in its own
        # group, behind a guard that rejects a position where no name starts.
        # A slot is a group plus the name pattern's own groups; a match's
        # lastindex is its template's group, and the A and B slots follow it.
        slot_size = re.compile(name_pattern).groups + 1
        alternatives = []
        self._slots: dict[int, tuple[str, int, int]] = {}
        group = slot_size  # the guard holds the name pattern's groups
        for relation, forms in templates.items():
            for form in forms:
                alternatives.append("(" + re.escape(form)
                                    .replace(r"\{A\}", f"({name_pattern})")
                                    .replace(r"\{B\}", f"({name_pattern})") + ")")
                self._slots[group] = (relation, group + 1, group + 1 + slot_size)
                group += 1 + 2 * slot_size
        self._matcher = re.compile(f"(?={name_pattern})(?:{'|'.join(alternatives)})")

    @classmethod
    def for_task(cls, task: str) -> "TemplatePool":
        """The task's pool, built once per process and data directory."""
        return read_asset(f"templates_{task}.json", _template_pool)

    def canonical(self, relation: str, a: str, b: str) -> str:
        return self.templates[relation][0].format(A=a, B=b)

    def render(self, relation: str, a: str, b: str, rng: random.Random) -> str:
        return rng.choice(self.templates[relation]).format(A=a, B=b)

    def extract(self, text: str) -> list[tuple[str, str, str]]:
        """Recover (subject, relation, object) triples in order of mention,
        in one scan; where two templates match at one position, the first
        listed wins, and the scan resumes after each match.  The list ends at
        a gap that is not `_LIST_GAP`: one that holds a line of prose, or
        opens a match's line with words ("So: A is above C.")."""
        triples, end = [], 0
        for m in self._matcher.finditer(text):
            if triples and not _LIST_GAP.fullmatch(text, end, m.start()):
                break
            end = m.end()
            relation, a, b = self._slots[m.lastindex]
            triples.append((m.group(a), relation, m.group(b)))
        return triples


def _template_pool(text: str) -> TemplatePool:
    return TemplatePool(**json.loads(text))


def load_name_pools() -> dict[str, list[str]]:
    """Gender -> names, parsed once per process and data directory; every
    caller shares the result, so none may change it."""
    return read_asset("names.json", json.loads)


def name_gender_lookup() -> dict[str, str]:
    return {name: gender for gender, names in load_name_pools().items()
            for name in names}


def assign_names(
    nodes: Sequence[int], rng: random.Random, genders: Optional[dict[int, str]]
) -> dict[int, str]:
    """Injective node -> name table drawn on `rng`: capital letters when nodes
    carry no gender (genders is None), else names of each node's gender."""
    if genders is None:
        return dict(zip(nodes, rng.sample(string.ascii_uppercase, len(nodes))))
    pools = load_name_pools()
    needed = {g: sum(1 for n in nodes if genders[n] == g) for g in pools}
    drawn = {g: rng.sample(pools[g], needed[g]) for g in sorted(pools)}
    return {node: drawn[genders[node]].pop() for node in nodes}


def verbalize_story(
    aug: AugmentedChain,
    names: dict[int, str],
    pool: TemplatePool,
    rng: random.Random,
) -> str:
    """One sentence per story triple, distractors interleaved, drawn on `rng`."""
    items = aug.story_items()
    if not items:
        raise ValueError("cannot verbalize an empty chain")
    sentences = []
    for triple in items:
        if triple.subject not in names or triple.object not in names:
            raise KeyError(f"no name for nodes of {triple}")
        sentences.append(
            pool.render(triple.relation, names[triple.subject], names[triple.object], rng))
    return " ".join(sentences)


# The query sentence per task, with head and tail slots; query_endpoints
# parses it back.
_QUERY_FORMS = {
    "kinship": "What is the relationship of {} to {}?",
    "spatial": "What is the relation of the agent {} to the agent {}?",
}
_QUERY_MATCHERS = {task: re.compile(re.escape(form).replace(r"\{\}", r"(\S+)"))
                   for task, form in _QUERY_FORMS.items()}


def render_query(head: str, tail: str, task: str) -> str:
    return _QUERY_FORMS[task].format(head, tail)


def query_endpoints(query: str, task: str) -> tuple[str, str]:
    m = _QUERY_MATCHERS[task].fullmatch(query)
    if not m:
        raise ValueError(f"unparseable query: {query!r}")
    return m.group(1), m.group(2)


def render_answer(head: str, tail: str, relation: str, task: str,
                  pool: Optional[TemplatePool] = None) -> str:
    """The relation's canonical template, from `pool` or else the task's
    pool; a kinship answer has no final period."""
    answer = (pool or TemplatePool.for_task(task)).canonical(relation, head, tail)
    return answer[:-1] if task == "kinship" else answer

