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

Each head has its own node-expansion budget, spent in two passes over the
heads in one fixed order; a skipped dead state costs none.  The first pass
gives each head the first `FIRST_SLICE` expansions of its budget, and the
first head to find a chain wins.  Otherwise the heads whose slice ran out
resume, in the same order, with the rest of their budget.  A search is a
generator that keeps its walk, dead states and untried moves while paused,
so a resumed search draws as one search given the whole budget would.  So
a dead head ahead of a live one no longer has its whole subtree searched
before the live head is tried.  The first head is drawn and walked on
`random.Random(seed)`; the later heads are ordered by a second stream of
the seed, and each walks on a stream of (seed, head), seeded only once
that head is searched.  A head whose whole subtree held no chain holds
none for any seed or budget, so the graph remembers it per walk length
(`RelationalGraph.dead_heads`) and later calls skip it at no cost; a head
paused or out of budget is not remembered.  No head's search reads another
head's stream or budget, and a dead head finds no chain in either pass, so
skipping one changes no result: a call returns the same chain whatever the
memo holds.

With a fold, each head is first bounded (`_longest_walk`): its (node, acc)
states, never re-entering the head, are condensed into strongly connected
components, each weighing its distinct nodes, and the bound is the
heaviest path from a first move to a component holding a state that can
end a walk.  A simple walk crosses each component at most once and meets
distinct nodes in it, so no answerable walk is longer, whatever the fold.
A head bounded below the length holds no chain: it is recorded as dead and
skipped, also where its search would have run out of budget first, since
either way it gives no chain.  The bound costs one pass over the states,
well under a search that proves a deep head dead.

Step i of a sampled chain is the triple (walk[i], label, walk[i+1]); only a
direction flip rewrites a step against the walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional

from .relgraph import RelationalGraph, Triple


NO_WALK = float("-inf")  # the bound of a head no answerable walk leaves
# the expansions each head searches before any head gets the rest of its
# budget: near the 90th percentile of what a found hop-10 kinship walk takes
FIRST_SLICE = 500


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
    node expansions: first `FIRST_SLICE` of them for every head, then the
    rest for the heads that ran out of that slice.

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
    bounded = graph.engine.fold is not None
    first_slice = min(budget, FIRST_SLICE)
    paused = []  # the searches whose first slice ran out, in head order
    for head, stream in _heads(sorted(graph.outgoing), seed):
        if head in dead_heads:
            continue
        if bounded and _longest_walk(graph, head, length, moves) < length:
            dead_heads.add(head)
            continue
        search = _walk_from(graph, length, head, stream(), first_slice, moves, dead_heads)
        walk = next(search)
        if walk is not None:
            return _chain(graph, walk)
        if head not in dead_heads:
            paused.append(search)
    for search in paused:
        walk = search.send(budget - first_slice)
        if walk is not None:
            return _chain(graph, walk)
    raise SamplingExhausted(f"no walk of length {length} within the search budget")


def _chain(graph: RelationalGraph, walk: list[int]) -> ReasoningChain:
    edges = graph.edges
    return ReasoningChain(walk=walk, steps=[
        Triple(a, edges[(a, b)], b) for a, b in zip(walk, walk[1:])])


def _heads(nodes: list[int], seed: int):
    """(head, stream) in search order, stream() the Random to walk it on: the
    first head is drawn and walked on `random.Random(seed)`, and the others,
    ordered by a second stream of the seed, on one of (seed, head) seeded by
    stream(), so skipping a head seeds nothing and changes no other search."""
    rng = random.Random(seed)
    first = nodes[rng.randrange(len(nodes))]
    yield first, lambda: rng
    rest = [node for node in nodes if node != first]
    random.Random(f"{seed} heads").shuffle(rest)
    for head in rest:
        yield head, partial(random.Random, f"{seed} head {head}")


def _admitted(graph: RelationalGraph, moves: dict[tuple, list[tuple[int, str]]],
              node: int, acc: str) -> list[tuple[int, str]]:
    """The (neighbor, acc) moves the fold admits from `node` at `acc`,
    cached in `moves`."""
    row = graph.engine.fold.get(acc, {})
    admitted = moves[node, acc] = [
        (nb, row[label]) for nb, label in graph.outgoing[node] if label in row]
    return admitted


def _longest_walk(graph: RelationalGraph, head: int, length: int,
                  moves: dict[tuple, list[tuple[int, str]]]) -> float:
    """An upper bound on the steps of an answerable walk from `head`, exact
    below `length` (it stops once it reaches `length`).

    The states are the (node, acc) pairs the fold admits from the head's
    first moves, never re-entering the head.  Condensed into strongly
    connected components, each weighing its distinct nodes, the bound is
    the heaviest path from a first move to a component holding a state that
    can end a walk (its acc is the head's edge to its node).  A simple walk
    crosses each component at most once and meets distinct nodes in it."""
    edges = graph.edges
    index: dict[tuple, int] = {}  # states in the order the search met them
    best: dict[tuple, float] = {}  # a finished state -> its component's bound
    stack: list[tuple] = []  # Tarjan's stack of unfinished states
    # the search path: [state, its untried moves, low link, heaviest way on]
    path: list[list] = []

    def visit(state) -> bool:
        """Push `state`; True once the path ends where a walk can end and
        holds `length` distinct nodes, so the bound reaches `length`."""
        node, acc = state
        index[state] = len(index)
        stack.append(state)
        admitted = moves.get(state)
        if admitted is None:
            admitted = _admitted(graph, moves, node, acc)
        ends = edges.get((head, node)) == acc
        path.append([state, iter(admitted), index[state], 0 if ends else NO_WALK])
        return ends and len(path) >= length and len(
            {entry[0][0] for entry in path}) >= length

    for first in graph.outgoing[head]:
        if first in index:
            continue
        if visit(first):
            return length
        while path:
            top = path[-1]
            for move in top[1]:
                if move[0] == head:
                    continue
                if move not in index:
                    if visit(move):
                        return length
                    break
                if move in best:
                    top[3] = max(top[3], best[move])
                else:  # on the stack, so in this state's component
                    top[2] = min(top[2], index[move])
            else:
                path.pop()
                state, _, low, onward = top
                if low < index[state]:  # the component goes on above
                    path[-1][2] = min(path[-1][2], low)
                    path[-1][3] = max(path[-1][3], onward)
                    continue
                members = stack[stack.index(state):]
                del stack[len(stack) - len(members):]
                value = len({node for node, _ in members}) + onward
                if value >= length:
                    return value
                for member in members:
                    best[member] = value
                if path:
                    path[-1][3] = max(path[-1][3], value)
    return max((best[first] for first in graph.outgoing[head]), default=NO_WALK)


def _walk_from(graph: RelationalGraph, length: int, head: int,
               rng: random.Random, budget: int,
               moves: dict[tuple, list[tuple[int, str]]],
               dead_heads: set[int]) -> Iterator[Optional[list[int]]]:
    """The search for a walk of length+1 nodes from `head` drawn on `rng`,
    as a generator: it yields the walk once found, or None once `budget`
    expansions are spent, and `send(n)` resumes it with n more, drawing as
    one search with the summed budget would.  A head whose every move was
    tried joins `dead_heads`, and its search yields None and ends.  `moves`
    caches, per (node, acc), the moves the fold admits."""
    getrandbits = rng.getrandbits
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
            yield walk
            return
        keys.append(key)
        budget -= 1
        if fold is None or acc is None:
            admitted = outgoing[node]
        else:
            admitted = moves.get((node, acc))
            if admitted is None:
                admitted = _admitted(graph, moves, node, acc)
        choices = [move for move in admitted if not mask >> move[0] & 1]
        if fold is not None and len(walk) == length:
            # last step: keep only tails whose fold is the graph's head-to-tail
            # edge, the true answer in a graph closed under deduction
            choices = [(nb, a) for nb, a in choices if edges.get((head, nb)) == a]
        stack.append(choices)
        # draw the next move, backing out of levels whose moves are spent
        while True:
            if budget <= 0:
                budget = yield None
                continue
            top = stack[-1]
            if not top:
                stack.pop()
                mask ^= 1 << walk.pop()
                dead.add(keys.pop())
                if not stack:
                    dead_heads.add(head)
                    yield None
                    return
                continue
            # rng.randrange(n), as CPython draws it: the same values from
            # the same stream, without the call's argument checks
            n = len(top)
            k = n.bit_length()
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            node, acc = top[i]
            top[i] = top[-1]
            top.pop()
            key = (node, acc, mask | 1 << node)
            if key not in dead:
                break
