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

Heads are searched one at a time, each within its own budget of BUDGET
node expansions; a skipped dead state costs none.  The first head is drawn
and walked on `random.Random(seed)`; the later heads are ordered by a
second stream of the seed, and each walks on a stream of (seed, head),
seeded only once that head is searched.  A head whose whole subtree held
no chain holds none for any seed or budget, so the graph's memo keeps it
per walk length (`RelationalGraph.dead_heads`) and later calls skip it at
no cost; a head out of budget is not kept.  No head's search reads another
head's stream or budget, so skipping a dead head changes no result: a call
returns the same chain whatever the memo holds.

With a fold, each head is first bounded (`_longest_walk`), in one pass over
the (node, acc) states its first moves reach, never re-entering the head.
Condensed into strongly connected components, each weighing its distinct
nodes, a state's bound is the heaviest path from its component to one
holding a state that can end a walk: no answerable walk from the head
meets more nodes from that state on, whatever the fold, since a simple walk
crosses each component at most once and meets distinct nodes in it.  The
search drops every move whose bound is below the nodes the walk still
needs, so a dropped move leads into a subtree that holds no chain, and the
dead-state memo, the dead-head memo and "a chain is found exactly when one
exists" all stay exact.  The search is the one place that rejects a
head: a level whose moves are all dropped or tried is backed out of before
the budget is tested, so a head whose first moves are all dropped draws
nothing and joins the dead-head memo at any budget.

The memo also keeps each head's bound, by head and gender, and a `GraphTable`
shares one memo among graphs of one shape, which fixes the rule skeleton: the
same edges, each label read as its gender-free rule (`engine.rules`).  Exact
for kinship: whether acc -> step is defined, and its rule, depend on the two
rules alone, and its gender is acc's, the head's; so a head of one gender meets
the same states and walks.

Step i of a sampled chain is the triple (walk[i], label, walk[i+1]); only a
direction flip rewrites a step against the walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .relgraph import RelationalGraph, Triple


NO_WALK = float("-inf")  # the bound of a state no answerable walk goes on from
# node expansions per head: with the walk bound's pruning no head searched by
# gen's presets spends more than ~215, so the budget only caps the search on
# a graph unlike theirs or at a hop outside 2-10
BUDGET = 800


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


def sample_chain(graph: RelationalGraph, length: int, seed: int) -> ReasoningChain:
    """Draw one chain of `length` steps, each head searched within BUDGET node
    expansions.

    Deterministic for a fixed (graph, length, seed), whatever the graph's
    dead-head memo holds.  Raises SamplingExhausted when every head is dead
    or runs out of its budget.
    """
    if length < 1:
        raise ValueError("walk length must be >= 1")
    if len(graph.outgoing) < length + 1:
        raise SamplingExhausted(
            f"graph has {len(graph.outgoing)} nodes; need {length + 1}")
    dead_heads, bounds = graph.dead_heads(length), graph.bounds
    moves: dict[tuple, list[tuple[int, str]]] = {}
    bounded = graph.engine.fold is not None
    for head, stream in _heads(sorted(graph.outgoing), seed):
        if head in dead_heads:
            continue
        best = None
        if bounded:
            key = (head, graph.engine.genders[head])
            best = bounds.get(key) or bounds.setdefault(key, _longest_walk(graph, head, moves))
        walk = _walk_from(graph, length, head, stream(), BUDGET, moves, best, dead_heads)
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


def _longest_walk(graph: RelationalGraph, head: int,
                  moves: dict[tuple, list[tuple[int, str]]]) -> dict[tuple, float]:
    """Per (node, acc) state the fold admits from `head`'s first moves, never
    re-entering the head: an upper bound on the nodes of an answerable walk
    from `head` that goes on from that state, the state's node included.

    Condensed into strongly connected components, each weighing its distinct
    nodes, a state's bound is the heaviest path from its component to one
    holding a state that can end a walk (its acc is the head's edge to its
    node), or NO_WALK where there is none.  A simple walk crosses each
    component at most once and meets distinct nodes in it."""
    edges = graph.edges
    index: dict[tuple, int] = {}  # states in the order the search met them
    best: dict[tuple, float] = {}  # a finished state -> its component's bound
    stack: list[tuple] = []  # Tarjan's stack of unfinished states
    # the search path: [state, its untried moves, low link, heaviest way on,
    # its place on the stack]
    path: list[list] = []

    def visit(state) -> None:
        node, acc = state
        index[state] = len(index)
        admitted = moves.get(state)
        if admitted is None:
            admitted = _admitted(graph, moves, node, acc)
        ends = edges.get((head, node)) == acc
        path.append([state, iter(admitted), index[state], 0 if ends else NO_WALK,
                     len(stack)])
        stack.append(state)

    for first in graph.outgoing[head]:
        if first in index:
            continue
        visit(first)
        while path:
            top = path[-1]
            for move in top[1]:
                if move[0] == head:
                    continue
                value = best.get(move)
                if value is not None:
                    if value > top[3]:
                        top[3] = value
                elif move not in index:
                    visit(move)
                    break
                elif index[move] < top[2]:  # on the stack, so in this component
                    top[2] = index[move]
            else:
                path.pop()
                state, _, low, onward, bottom = top
                if low < index[state]:  # the component goes on above
                    up = path[-1]
                    up[2] = min(up[2], low)
                    up[3] = max(up[3], onward)
                    continue
                if bottom == len(stack) - 1:  # a component of one state
                    value = best[stack.pop()] = 1 + onward
                else:
                    members = stack[bottom:]
                    del stack[bottom:]
                    value = len({node for node, _ in members}) + onward
                    for member in members:
                        best[member] = value
                if path and value > path[-1][3]:
                    path[-1][3] = value
    return best


def _walk_from(graph: RelationalGraph, length: int, head: int,
               rng: random.Random, budget: int,
               moves: dict[tuple, list[tuple[int, str]]],
               best: Optional[dict[tuple, float]],
               dead_heads: set[int]) -> Optional[list[int]]:
    """A walk of length+1 nodes from `head` drawn on `rng`, or None once
    every move was tried or `budget` expansions are spent; a head whose
    every move was tried joins `dead_heads`, whatever its budget.  With
    `best`, the bounds of `_longest_walk`, a move is dropped when its bound
    is below the nodes the walk still needs.  `moves` caches, per (node,
    acc), the moves the fold admits."""
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
            return walk
        keys.append(key)
        budget -= 1
        if fold is None or acc is None:
            admitted = outgoing[node]
        else:
            admitted = moves.get((node, acc))
            if admitted is None:
                admitted = _admitted(graph, moves, node, acc)
        if best is None:
            choices = [move for move in admitted if not mask >> move[0] & 1]
        else:
            # a move whose bound is below the nodes the walk still needs
            # leads to no answerable walk of the length
            need = length + 1 - len(walk)
            choices = [move for move in admitted
                       if not mask >> move[0] & 1 and best[move] >= need]
        if fold is not None and len(walk) == length:
            # last step: keep only tails whose fold is the graph's head-to-tail
            # edge, the true answer in a graph closed under deduction
            choices = [(nb, a) for nb, a in choices if edges.get((head, nb)) == a]
        stack.append(choices)
        # draw the next move, backing out of levels whose moves are spent
        while True:
            top = stack[-1]
            if not top:
                stack.pop()
                mask ^= 1 << walk.pop()
                dead.add(keys.pop())
                if not stack:
                    dead_heads.add(head)
                    return None
                continue
            if budget <= 0:
                return None
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
