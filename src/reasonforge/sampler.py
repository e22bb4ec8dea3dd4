"""Reasoning-chain sampling by randomized depth-first search.

A chain is a walk of l+1 distinct nodes plus the l stored graph edges
between consecutive nodes (grown graphs store both directions of every
related pair).  The search starts at a uniformly drawn node and moves to a
uniformly drawn untried, unvisited neighbor; a dead end backtracks, and an
exhausted start gives way to another.  Where every pair is related nothing
dead-ends and this is a uniform random walk.

An engine's fold (acc -> step label -> acc, kinship's composition table)
admits a neighbor only while the head-to-current relation stays defined, so
long chains whose steps entail their answer are reachable; blind walks
almost never find them.  With a fold, the last step admits only tails whose
accumulator is the engine's ground truth for (head, tail), so every chain
returned is answerable, and a memo of dead states skips subtrees already
searched in full: a subtree is fixed by (head, node, accumulator, visited
set), so skipping one that held no chain loses no walk.  A node-expansion
budget bounds the search; a skipped dead state costs none.  Without a fold
(spatial) the search keeps no memo and checks no answer.

Step i of a sampled chain is the triple (walk[i], label, walk[i+1]); only a
direction flip rewrites a step against the walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .relgraph import RelationalGraph, Triple


class SamplingExhausted(Exception):
    """No valid walk found within the search budget."""


@dataclass
class ReasoningChain:
    walk: list[int]
    steps: list[Triple]

    @property
    def hop(self) -> int:
        return len(self.steps)

    @property
    def head(self) -> int:
        return self.walk[0]

    @property
    def tail(self) -> int:
        return self.walk[-1]


def sample_chain(graph: RelationalGraph, length: int, seed: int,
                 budget: int = 800) -> ReasoningChain:
    """Draw one chain of `length` steps within `budget` node expansions.

    Deterministic for a fixed (graph, length, seed, budget).  Raises
    SamplingExhausted when the budget runs out or no chain exists.
    """
    if length < 1:
        raise ValueError("walk length must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if len(graph.nodes) < length + 1:
        raise SamplingExhausted(
            f"graph has {len(graph.nodes)} nodes; need {length + 1}")
    rng = random.Random(seed)
    randrange = rng.randrange
    outgoing = graph.outgoing()
    edges = graph.edges
    fold = graph.engine.fold
    ground_truth = graph.engine.ground_truth
    empty: dict[str, str] = {}
    walk: list[int] = []
    on_walk: set[int] = set()
    # fold only: on_walk as a bitmask, the (head, node, acc, mask) key of
    # each walk level, and the keys whose whole subtree held no chain
    mask = 0
    keys: list[tuple] = []
    dead: set[tuple] = set()

    def frontier(node: int, acc: Optional[str]) -> list[tuple[int, Optional[str]]]:
        if acc is None or fold is None:
            return [(nb, label) for nb, label in outgoing[node] if nb not in on_walk]
        row = fold.get(acc, empty)
        return [(nb, row[label]) for nb, label in outgoing[node]
                if label in row and nb not in on_walk]

    # stack[i] holds the untried (node, acc) choices for walk[i]; the
    # bottom level is the start nodes
    stack = [[(node, None) for node in sorted(graph.nodes)]]
    while stack and budget > 0:
        top = stack[-1]
        if not top:
            stack.pop()
            if walk:
                node = walk.pop()
                on_walk.discard(node)
                if fold is not None:
                    mask ^= 1 << node
                    dead.add(keys.pop())
            continue
        i = randrange(len(top))
        node, acc = top[i]
        top[i] = top[-1]
        top.pop()
        if fold is not None:
            key = (walk[0] if walk else node, node, acc, mask | 1 << node)
            if key in dead:
                continue
            mask = key[3]
            keys.append(key)
        walk.append(node)
        on_walk.add(node)
        if len(walk) == length + 1:
            return ReasoningChain(walk=walk, steps=[
                Triple(a, edges[(a, b)], b) for a, b in zip(walk, walk[1:])])
        budget -= 1
        choices = frontier(node, acc)
        if fold is not None and len(walk) == length:
            # last step: keep only tails whose fold is the true answer
            labels = [edges[step] for step in zip(walk, walk[1:])]
            choices = [(nb, a) for nb, a in choices
                       if ground_truth(walk[0], nb, labels + [edges[(node, nb)]]) == a]
        stack.append(choices)
    raise SamplingExhausted(f"no walk of length {length} within the search budget")
