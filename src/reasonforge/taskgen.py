"""End-to-end dataset assembly: corrupt, verbalize, and package chains.

Every example is generated by a pure function of (dataset seed, task, hop,
index, attempt), so generation parallelizes without changing output and
identical specs produce byte-identical datasets.  A candidate seeds its
graph, its walk, and one stream for its augmentation kind, augmentation,
names and story templates, drawn in that order; the walk keeps its own, as
what a walk reads depends on the graph's dead-head memo.  An example is
emitted only when the withheld head-to-tail relation is entailed by the
story triples themselves (for kinship, the composition fold must reach a
unique vocabulary label and agree with the ground-truth derivation), which
is what lets an independent verifier reconstruct every answer from the
triples alone.  Chains whose walk dead-ends, whose label falls outside the
vocabulary, or whose fold is ambiguous are resampled with a fresh attempt
seed.

Within a hop bucket, near-duplicate examples (same stored label sequence,
answer, and augmentation record) are resampled a bounded number of times;
when the combinatorial space is too small to avoid repeats the first valid
candidate is accepted instead.

Graphs come from one `GraphTable` per `build_dataset` run.  It realizes
each distinct genealogy once and attaches only the first of each kinship
shape, reading the others' edges off it by gender, exactly (see relgraph),
so graphs share `outgoing` lists that nothing mutates.  In one process every
bucket draws on the table; a bucket sent to a worker gets its own empty
copy.  No graph outlives the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional

from .augment import AUGMENTATIONS, NoiseUnavailable
from .kinship import KinshipEngine
from .oracle import VERIFIERS
from .relgraph import GraphTable, RelationalGraph
from .sampler import ReasoningChain, SamplingExhausted, sample_chain
from .spatial import SpatialEngine
from .verbalizer import (TemplatePool, assign_names, name_gender_lookup,
                         query_endpoints, render_query, verbalize_story)

JSONL_FIELDS = ("id", "task", "hop", "triples", "distractors", "story",
                "query", "answer", "gold_triples", "augmentation", "seed")

ENGINES = {"kinship": KinshipEngine, "spatial": SpatialEngine}

# attempts per example before a bucket gives up
MAX_ATTEMPTS = 400
# attempts spent looking for a candidate not yet in the bucket; past this the
# combinatorial space is too small and the first valid repeat is accepted
DEDUP_WINDOW = 25


class GenerationExhausted(Exception):
    def __init__(self, hop: int, index: int, attempts: int) -> None:
        super().__init__(
            f"hop {hop}: no valid example for index {index} in {attempts} attempts")
        self.hop = hop


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of atoms (no ambient entropy)."""
    data = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class DatasetSpec:
    task: str
    counts: tuple[tuple[int, int], ...]  # (hop, count) pairs
    seed: int = 0
    # (kind, n, weight) entries named as in --aug, drawn by weight
    augmentation_mix: tuple[tuple[str, int, float], ...] = (
        ("permute", 1, 1.0), ("noise", 1, 1.0), ("flip", 1, 1.0))
    graphs_per_hop: int = 0  # N > 0 limits a bucket to N graphs

    def __post_init__(self) -> None:
        if self.task not in ENGINES:
            raise ValueError(f"unknown task {self.task!r}")
        if self.graphs_per_hop < 0:
            raise ValueError("graphs per hop must be >= 0")
        for hop, count in self.counts:
            if hop < 1 or count < 0:
                raise ValueError(f"bad bucket ({hop}, {count})")
        mix = self.augmentation_mix
        if not (mix and isinstance(mix, tuple)
                and all(isinstance(e, tuple) and len(e) == 3 for e in mix)):
            raise ValueError("augmentation mix must be a nonempty tuple of "
                             "(kind, n, weight) tuples")
        for kind, n, weight in mix:
            if kind not in AUGMENTATIONS:
                raise ValueError(f"unknown augmentation kind {kind!r}")
            if type(n) is not int or n < 0:  # no float, no bool
                raise ValueError(f"{kind} n must be an integer >= 0, got {n!r}")
            if n != 1 and not AUGMENTATIONS[kind][0]:
                raise ValueError(f"{kind} takes no n, so n must be 1, got {n}")
            if not 0 <= weight < float("inf"):
                raise ValueError(f"{kind} weight must be finite and >= 0, got {weight}")
        if sum(weight for _, _, weight in mix) <= 0:
            raise ValueError("augmentation weights must sum to a positive value")

    @classmethod
    def make(cls, task: str, counts: dict[int, int], **kwargs) -> "DatasetSpec":
        ordered = tuple(sorted((int(h), int(c)) for h, c in counts.items()))
        return cls(task=task, counts=ordered, **kwargs)


@dataclass
class Example:
    """A dataset row; ValueError if its task, query or answer is unusable, its
    hop is not an integer or a triple field is not a list."""

    id: str
    task: str
    hop: int
    triples: list[list[str]]
    distractors: list[list[str]]
    story: str
    query: str
    answer: str
    gold_triples: list[list[str]]
    augmentation: dict
    seed: list[int]
    # (head, tail) names of the query, parsed once
    endpoints: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.task not in ENGINES:
            raise ValueError(f"unknown task {self.task!r}")
        if not isinstance(self.hop, int):
            raise ValueError(f"hop {self.hop!r} is not an integer")
        if not (isinstance(self.triples, list) and isinstance(self.distractors, list)
                and isinstance(self.gold_triples, list)):
            raise ValueError("triples, distractors and gold_triples must be lists")
        self.endpoints = query_endpoints(self.query, self.task)
        if self.answer not in ENGINES[self.task].labels:
            raise ValueError(f"{self.answer!r} is not a {self.task} label")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in JSONL_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "Example":
        return cls(**{name: data[name] for name in JSONL_FIELDS})


# --------------------------------------------------------------------------
# corruption
# --------------------------------------------------------------------------

def corrupt(chain: ReasoningChain, graph: RelationalGraph) -> Optional[str]:
    """Withheld label of a sampled chain: the engine's ground truth for head
    to tail, or None (out of vocabulary) to ask the caller to resample."""
    labels = [step.relation for step in chain.steps]
    return graph.engine.ground_truth(chain.head, chain.tail, labels)


def entailed_relation(chain: ReasoningChain, graph: RelationalGraph) -> Optional[str]:
    """Head-to-tail label forced by a sampled chain's step relations alone
    (the reader's view), or None when they do not pin down a unique label."""
    return graph.engine.chain_relation([step.relation for step in chain.steps])


# --------------------------------------------------------------------------
# per-example generation
# --------------------------------------------------------------------------

def _graph_seed(spec: DatasetSpec, hop: int, index: int, attempt: int) -> int:
    if spec.graphs_per_hop > 0:
        return derive_seed(spec.seed, spec.task, "graph", hop,
                           index % spec.graphs_per_hop)
    # a graph seed per example.  A failed search has tried every head of its
    # graph, each dead or out of its budget, so a deep retry would mostly
    # repeat it and regrows instead.  At low hops walks rarely fail and
    # retries mostly serve deduplication, so a few walk seeds share each
    # grown graph.
    regrow = attempt if hop >= 9 else attempt // 3
    return derive_seed(spec.seed, spec.task, "graph", hop, index, regrow)


def generate_candidate(
    spec: DatasetSpec, hop: int, index: int, attempt: int,
    graphs: Callable[[int], RelationalGraph],
) -> Optional[Example]:
    """One example drawn on the graphs of `graphs` (growth seed -> graph),
    or None if unusable."""
    graph = graphs(_graph_seed(spec, hop, index, attempt))
    base = (spec.seed, spec.task, hop, index, attempt)
    try:
        chain = sample_chain(graph, hop, derive_seed(*base, "walk"))
    except SamplingExhausted:
        return None
    # every augmentation keeps the head-to-tail answer, so read it once here
    answer = corrupt(chain, graph)
    if answer is None or entailed_relation(chain, graph) != answer:
        # out of vocabulary, or the story triples alone do not force it; a
        # guard, since sample_chain already checks kinship answers
        return None

    rng = random.Random(derive_seed(*base, "draws"))
    mix = spec.augmentation_mix
    kind, n, _ = rng.choices(mix, weights=[weight for _, _, weight in mix])[0]
    try:
        aug = AUGMENTATIONS[kind][1](chain, graph, n, rng)
    except NoiseUnavailable:
        return None

    walk = aug.chain.walk
    named_nodes = list(walk) + [t.object for t, _ in aug.distractors]
    names = assign_names(named_nodes, rng, graph.engine.genders)
    story = verbalize_story(aug, names, TemplatePool.for_task(spec.task), rng)

    def named(t) -> list[str]:
        return [names[t.subject], t.relation, names[t.object]]

    return Example(
        id=f"{spec.task}-{hop}-{index}",
        task=spec.task,
        hop=hop,
        triples=[named(t) for t in aug.core_story_triples()],
        distractors=[named(t) for t, _ in aug.distractors],
        story=story,
        query=render_query(names[walk[0]], names[walk[-1]], spec.task),
        answer=answer,
        gold_triples=[named(t) for t in aug.chain.steps],
        augmentation=aug.record,
        seed=[spec.seed, index],
    )


def _dedup_key(example: Example) -> tuple:
    return (
        example.hop,
        tuple(t[1] for t in example.gold_triples),
        example.answer,
        json.dumps(example.augmentation, sort_keys=True),
    )


# --------------------------------------------------------------------------
# dataset assembly
# --------------------------------------------------------------------------

def build_dataset(spec: DatasetSpec, workers: int = 1) -> Iterator[Example]:
    """Yield the examples bucket by bucket, in `spec.counts` order and exactly
    meeting its counts.

    Buckets are independent (dedup is per bucket and every candidate is a
    pure function of its seed lineage), so a pool of up to `workers`
    processes, never more than cores or buckets, builds whole buckets; any
    worker count yields byte-identical output.  One worker builds a bucket
    when its first example is taken.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # a worker unpickles its own copy of the empty table for each bucket
    args = (repeat(spec), [hop for hop, _ in spec.counts],
            [count for _, count in spec.counts], repeat(GraphTable(ENGINES[spec.task])))
    workers = min(workers, os.cpu_count() or 1, len(spec.counts))
    if workers > 1:
        # imported here: a one-process run, and `import reasonforge`, skip them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            yield from chain.from_iterable(pool.map(_build_bucket, *args))
    else:
        yield from chain.from_iterable(map(_build_bucket, *args))


def _build_bucket(spec: DatasetSpec, hop: int, count: int,
                  graphs: GraphTable) -> list[Example]:
    """One hop bucket, its graphs drawn from `graphs`."""
    bucket: list[Example] = []
    seen: set[tuple] = set()
    for index in range(count):
        accepted = None
        first_valid = None
        for attempt in range(MAX_ATTEMPTS):
            candidate = generate_candidate(spec, hop, index, attempt, graphs)
            if candidate is None:
                continue
            key = _dedup_key(candidate)
            if key not in seen:
                seen.add(key)
                accepted = candidate
                break
            if first_valid is None:
                first_valid = candidate  # a repeat: its key is already seen
            if attempt + 1 >= DEDUP_WINDOW:
                break  # small combinatorial space; settle for a repeat
        if accepted is None:
            accepted = first_valid
        if accepted is None:
            raise GenerationExhausted(hop, index, MAX_ATTEMPTS)
        bucket.append(accepted)
    return bucket


def write_jsonl(examples: Iterable[Example], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for example in examples:
            handle.write(json.dumps(example.to_dict()) + "\n")


def read_jsonl(path) -> Iterator[Example]:
    """Examples of a dataset file, parsed one line at a time as they are
    taken; `list(read_jsonl(path))` holds them all.  A malformed line
    raises ValueError naming its file:line."""
    return read_records(path, Example.from_dict)


def read_records(path, record: Callable[[dict], object]) -> Iterator:
    """record(object) for the JSON object on each nonblank line, read as
    the rows are taken: the file is opened at the first one."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                row = record(json.loads(line))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from None
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield row


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

@dataclass
class VerificationReport:
    total: int = 0
    mismatches: list[dict] = field(default_factory=list)
    hop_histogram: dict[int, int] = field(default_factory=dict)
    label_distribution: dict[str, int] = field(default_factory=dict)

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "mismatch_count": self.mismatch_count,
            "mismatches": self.mismatches,
            "hop_histogram": {str(k): v for k, v in sorted(self.hop_histogram.items())},
            "label_distribution": dict(sorted(self.label_distribution.items())),
        }


def verify_dataset(examples: Iterable[Example]) -> VerificationReport:
    """Re-derive every answer from the structured triples via the oracle.

    Kinship genders come from the shipped name pools, exactly the cue a
    reader of the story has.  Mismatches are reported, never raised; a
    triple that is not (name, label, name) raises ValueError naming its row.
    """
    report = VerificationReport()
    genders = name_gender_lookup()
    for example in examples:
        report.total += 1
        report.hop_histogram[example.hop] = report.hop_histogram.get(example.hop, 0) + 1
        report.label_distribution[example.answer] = (
            report.label_distribution.get(example.answer, 0) + 1)
        head, tail = example.endpoints
        try:
            triples = [tuple(t) for t in example.triples + example.distractors]
            derived = VERIFIERS[example.task](triples, head, tail, genders)
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"{example.id}: malformed triple "
                             f"({type(exc).__name__}: {exc})") from None
        if derived != example.answer:
            report.mismatches.append(
                {"id": example.id, "expected": example.answer, "derived": derived})
    return report
