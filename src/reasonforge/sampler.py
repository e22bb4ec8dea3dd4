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
budget bounds the search; a skipped dead state costs none.  The moves each
(node, accumulator) admits are filtered through the fold once per search
and kept in a table local to it; the walk is a bitmask, so an untried move
is one that is not on it.  Without a fold (spatial) the moves are the
node's edges, and the search keeps no memo and checks no answer.

Step i of a sampled chain is the triple (walk[i], label, walk[i+1]); only a
direction flip rewrites a step against the walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
    walk: list[int] = []
    mask = 0  # the nodes on the walk, one bit each
    # fold only: the moves each (node, acc) admits, the (head, node, acc,
    # mask) key of each walk level, and the keys whose whole subtree held
    # no chain
    moves: dict[tuple, list[tuple[int, str]]] = {}
    keys: list[tuple] = []
    dead: set[tuple] = set()

    # stack[i] holds the untried (node, acc) choices for walk[i]; the
    # bottom level is the start nodes
    stack = [[(node, None) for node in sorted(graph.nodes)]]
    while stack and budget > 0:
        top = stack[-1]
        if not top:
            stack.pop()
            if walk:
                mask ^= 1 << walk.pop()
                if fold is not None:
                    dead.add(keys.pop())
            continue
        i = randrange(len(top))
        node, acc = top[i]
        top[i] = top[-1]
        top.pop()
        bit = 1 << node
        if fold is not None:
            key = (walk[0] if walk else node, node, acc, mask | bit)
            if key in dead:
                continue
            keys.append(key)
        mask |= bit
        walk.append(node)
        if len(walk) == length + 1:
            return ReasoningChain(walk=walk, steps=[
                Triple(a, edges[(a, b)], b) for a, b in zip(walk, walk[1:])])
        budget -= 1
        if fold is None or acc is None:
            admitted = outgoing[node]
        else:
            admitted = moves.get((node, acc))
            if admitted is None:
                row = fold.get(acc, {})
                admitted = moves[node, acc] = [
                    (nb, row[label]) for nb, label in outgoing[node] if label in row]
        choices = [move for move in admitted if not mask >> move[0] & 1]
        if fold is not None and len(walk) == length:
            # last step: keep only tails whose fold is the true answer
            labels = [edges[step] for step in zip(walk, walk[1:])]
            choices = [(nb, a) for nb, a in choices
                       if ground_truth(walk[0], nb, labels + [edges[(node, nb)]]) == a]
        stack.append(choices)
    raise SamplingExhausted(f"no walk of length {length} within the search budget")
