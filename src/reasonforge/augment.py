"""Chain augmentations: permutation, edge noise, and direction flips.

Exactly one augmentation is applied per chain.  All three leave the
reasoning content intact: permutation only reorders the story, noise adds
true distractor facts about off-chain nodes, and a flip rewrites a triple
as its inverse relation seen from the other endpoint, so the head-to-tail
answer never changes.

Distractor triples are kept apart from the core steps: they appear in the
story at their recorded slots but never in gold targets, and hop counts
ignore them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .relgraph import RelationalGraph, Triple
from .sampler import ReasoningChain


class NoiseUnavailable(Exception):
    """Not enough off-chain nodes with deducible relations."""


@dataclass
class AugmentedChain:
    """A chain plus its story plan.

    story_order permutes the core steps; distractors carry (triple, slot)
    pairs where slot s interleaves the distractor before the s-th core
    sentence of the story.
    """

    chain: ReasoningChain
    story_order: list[int]
    distractors: list[tuple[Triple, int]] = field(default_factory=list)
    record: dict = field(default_factory=lambda: {"kind": "none"})

    def story_items(self) -> list[tuple[str, Triple]]:
        """Sentence plan: core and noise triples in story order."""
        hop = self.chain.hop
        by_slot: dict[int, list[Triple]] = {}
        for triple, slot in self.distractors:
            by_slot.setdefault(slot, []).append(triple)
        items: list[tuple[str, Triple]] = []
        for pos in range(hop + 1):
            for triple in by_slot.get(pos, ()):
                items.append(("noise", triple))
            if pos < hop:
                items.append(("core", self.chain.steps[self.story_order[pos]]))
        return items

    def core_story_triples(self) -> list[Triple]:
        return [self.chain.steps[i] for i in self.story_order]


def no_augment(chain: ReasoningChain) -> AugmentedChain:
    return AugmentedChain(chain=chain, story_order=list(range(chain.hop)))


def permute(chain: ReasoningChain, seed: int) -> AugmentedChain:
    """Reorder the story by a uniformly random permutation; reasoning order,
    hop, and head/tail stay put."""
    rng = random.Random(seed)
    order = list(range(chain.hop))
    rng.shuffle(order)
    return AugmentedChain(
        chain=chain,
        story_order=order,
        record={"kind": "permutation", "order": list(order)},
    )


def add_edge_noise(
    chain: ReasoningChain, graph: RelationalGraph, k: int, seed: int
) -> AugmentedChain:
    """Append k distractor triples, each from a chain node to a distinct
    off-chain node, labeled with the engine-deduced relation."""
    rng = random.Random(seed)
    if k < 0:
        raise ValueError("k must be >= 0")
    aug = no_augment(chain)
    if k == 0:
        return aug
    on_chain = set(chain.walk)
    candidates = sorted(
        (s, o) for (s, o) in graph.edges
        if s in on_chain and o not in on_chain
    )
    distractors: list[tuple[Triple, int]] = []
    used_off: set[int] = set()
    while len(distractors) < k:
        pool = [(s, o) for (s, o) in candidates if o not in used_off]
        if not pool:
            raise NoiseUnavailable(
                f"only {len(distractors)} of {k} distractor edges available")
        s, o = rng.choice(pool)
        used_off.add(o)
        slot = rng.randrange(chain.hop + 1)
        distractors.append((Triple(s, graph.edges[(s, o)], o), slot))
    aug.distractors = distractors
    aug.record = {
        "kind": "edge-noise",
        "k": k,
        "labels": [t.relation for t, _ in distractors],
        "slots": [slot for _, slot in distractors],
    }
    return aug


def flip_edges(
    chain: ReasoningChain, graph: RelationalGraph, flip_count: int, seed: int
) -> AugmentedChain:
    """Rewrite flip_count steps as their inverse-relation triples.

    (a, r, b) becomes (b, r', a) with r' the task engine's inverse, so the
    stated fact is preserved and only the flow of the story changes.
    """
    if flip_count > chain.hop:
        raise ValueError(f"flip_count {flip_count} exceeds hop {chain.hop}")
    rng = random.Random(seed)
    positions = sorted(rng.sample(range(chain.hop), flip_count))
    steps = list(chain.steps)
    for i in positions:
        steps[i] = flip_step(steps[i], graph)
    flipped = ReasoningChain(walk=list(chain.walk), steps=steps)
    return AugmentedChain(
        chain=flipped,
        story_order=list(range(chain.hop)),
        record={"kind": "direction-flip", "count": flip_count,
                "positions": positions},
    )


def flip_step(step: Triple, graph: RelationalGraph) -> Triple:
    """The same fact read from the other endpoint: (b, r', a) for (a, r, b)."""
    inverse = graph.engine.invert_label(step.relation, step.object)
    return Triple(step.object, inverse, step.subject)
