"""Reasoning-chain sampling by randomized depth-first search.

A chain is a walk of l+1 distinct nodes plus the l stored graph edges
between consecutive nodes (grown graphs store both directions of every
related pair).  The search starts at a uniformly drawn node (the head) and
moves to a uniformly drawn untried, unvisited neighbor; a dead end
backtracks, and a head whose every walk was tried gives way to another.
Where every pair is related nothing dead-ends and this is a uniform random
walk.

An engine's fold (acc -> step label -> acc, kinship's composition table)
admits a neighbor only while the head-to-current relation stays defined, so
long chains whose steps entail their answer are reachable; blind walks
almost never find them.  With a fold, the last step admits only tails whose
accumulator is the graph's own head-to-tail edge: grown graphs are closed
under deduction, so that edge is the engine's ground truth and every chain
returned is answerable.  The moves each (node, accumulator) admits are
filtered through the fold once per call and kept in a table local to it.
Without a fold (spatial) the moves are the node's edges, and the search
checks no answer.

For every engine a memo of dead states skips subtrees already searched in
full: a subtree is fixed by (node, accumulator, visited set) under its
head, so skipping one that held no chain loses no walk.  The walk is a
bitmask, so an untried move is one that is not on it.

Heads are searched one at a time, each within its own node-expansion
budget; a skipped dead state costs none.  The first head is drawn and
walked on `random.Random(seed)`; the later heads are ordered by a second
stream of the seed, and each walks on a stream of (seed, head).  A head
whose whole subtree held no chain holds none for any seed or budget, so
the graph remembers it per walk length (`RelationalGraph.dead_heads`) and
later calls skip it at no cost.  No head's search reads another head's
stream or budget, so skipping a dead head changes no result: a call
returns the same chain whatever the memo holds.

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
    """Draw one chain of `length` steps, each head searched within `budget`
    node expansions.

    Deterministic for a fixed (graph, length, seed, budget), whatever the
    graph's dead-head memo holds.  Raises SamplingExhausted when every head
    is dead or runs out of its budget.
    """
    if length < 1:
        raise ValueError("walk length must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if len(graph.outgoing) < length + 1:
        raise SamplingExhausted(
            f"graph has {len(graph.outgoing)} nodes; need {length + 1}")
    dead_heads = graph.dead_heads(length)
    moves: dict[tuple, list[tuple[int, str]]] = {}
    for head, rng in _heads(sorted(graph.outgoing), seed):
        if head in dead_heads:
            continue
        walk = _walk_from(graph, length, head, rng, budget, moves, dead_heads)
        if walk is not None:
            edges = graph.edges
            return ReasoningChain(walk=walk, steps=[
                Triple(a, edges[(a, b)], b) for a, b in zip(walk, walk[1:])])
    raise SamplingExhausted(f"no walk of length {length} within the search budget")


def _heads(nodes: list[int], seed: int):
    """(head, stream to walk it on) in search order.  The first head is
    drawn on `random.Random(seed)` and walked on it; the later ones are
    ordered by a second stream of the seed and each walks on a stream of
    (seed, head), so skipping a dead head changes no other head's search."""
    rng = random.Random(seed)
    first = nodes[rng.randrange(len(nodes))]
    yield first, rng
    rest = [node for node in nodes if node != first]
    random.Random(f"{seed} heads").shuffle(rest)
    for head in rest:
        yield head, random.Random(f"{seed} head {head}")


def _walk_from(graph: RelationalGraph, length: int, head: int,
               rng: random.Random, budget: int,
               moves: dict[tuple, list[tuple[int, str]]],
               dead_heads: set[int]) -> Optional[list[int]]:
    """A walk of length+1 nodes from `head` drawn on `rng`, or None when the
    search runs out of `budget` expansions or of moves; a head whose every
    move was tried joins `dead_heads`.  `moves` caches, per (node, acc), the
    moves the fold admits."""
    randrange = rng.randrange
    outgoing = graph.outgoing
    edges = graph.edges
    fold = graph.engine.fold
    walk: list[int] = []
    mask = 0  # the nodes on the walk, one bit each
    # the (node, acc, mask) key of each walk level, and the keys whose whole
    # subtree held no chain
    keys: list[tuple] = []
    dead: set[tuple] = set()
    # stack[i] holds the untried (node, acc) choices for walk[i + 1]
    stack: list[list[tuple[int, str]]] = []
    node, acc, key = head, None, (head, None, 1 << head)
    while True:
        mask |= 1 << node
        walk.append(node)
        if len(walk) == length + 1:
            return walk
        keys.append(key)
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
            # last step: keep only tails whose fold is the graph's head-to-tail
            # edge, the true answer in a graph closed under deduction
            choices = [(nb, a) for nb, a in choices if edges.get((head, nb)) == a]
        stack.append(choices)
        # draw the next move, backing out of levels whose moves are spent
        while True:
            if budget <= 0:
                return None
            top = stack[-1]
            if not top:
                stack.pop()
                mask ^= 1 << walk.pop()
                dead.add(keys.pop())
                if not stack:
                    dead_heads.add(head)
                    return None
                continue
            i = randrange(len(top))
            node, acc = top[i]
            top[i] = top[-1]
            top.pop()
            key = (node, acc, mask | 1 << node)
            if key not in dead:
                break
