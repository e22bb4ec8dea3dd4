"""Relational graph model and the iterative growth procedure.

A graph starts from a single root node.  Each growth iteration scans the
nodes present at the start of the iteration; for every node v and every
relation r in the engine's default growth labels, if no edge (v', r, v)
exists yet, the task engine attempts to realize a fresh node v_r (possibly
with auxiliary nodes) so that "v_r is the r of v" holds.  Each new node
then gets an edge in both directions to every related node already in the
graph, as the engine lists them (`engine.links`, in graph order: kinship
reads the relatives off its family units, spatial relates every pair), so
the edge set stays closed under deduction at all times.

Absence checks run against the live graph, not a frozen snapshot: a node
realized earlier in the same iteration already satisfies later checks,
which both avoids duplicate attachments and keeps spatial growth free of
coincident placements.

The adjacency table (`outgoing`) is also the node table: its keys are the
nodes in the order they joined, each holding its edges in the order they
were added.  Every related pair is stored in both directions, so a fact
read from the other endpoint is the stored reverse edge.  A completed
graph's nodes and edges never change; one lazily filled memo rides on it,
chain sampling's bound on each head's walks (`bounds`) and the heads it has
proven dead (`dead_heads`).  The memo never changes what a call returns, so
a graph is safe to share between examples and across threads, memo and all.

A `GraphTable` serves the graph of each growth seed and grows each
distinct graph once.  Growth draws only through `rng.choice`, so a graph
is a function of the indices it draws: the table maps the indices drawn so
far to the next draw's number of options, or to the graph grown once the
draws end.  A seed replays its own draws down the table until it reaches a
graph, growing one only on a path that no earlier seed took.  The graphs
of one table share their edge-key and move tuples, and those of one rule
skeleton their memo, exact as the sampler's docstring shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from .kinship import KinshipEngine
from .spatial import SpatialEngine

Engine = Union[KinshipEngine, SpatialEngine]


@dataclass(frozen=True)
class Triple:
    """Directed labeled edge: "subject is the <relation> of object"."""

    subject: int
    relation: str
    object: int


class RelationalGraph:
    """Nodes, directed relation-labeled edges, and the engine that owns the
    ground facts behind them."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.edges: dict[tuple[int, int], str] = {}
        # node -> [(object, relation), ...] in edge order; nodes in join order
        self.outgoing: dict[int, list[tuple[int, str]]] = {}
        # chain sampling's memo: length -> dead heads; (head, gender) -> walk bound
        self._dead_heads: dict[int, set[int]] = {}
        self.bounds: dict[tuple[int, str], dict] = {}

    def add_node(self, node: int) -> None:
        if node in self.outgoing:
            raise ValueError(f"duplicate node {node}")
        self.outgoing[node] = []

    def add_edge(self, subject: int, relation: str, object: int) -> None:
        if subject not in self.outgoing or object not in self.outgoing:
            raise KeyError("edge endpoints must be graph nodes")
        if subject == object and relation != "overlaps":
            raise ValueError("self-edges are only allowed for overlaps")
        key = (subject, object)
        if key in self.edges:
            if self.edges[key] != relation:
                raise ValueError(f"conflicting relation for pair {key}")
            return
        self.edges[key] = relation
        self.outgoing[subject].append((object, relation))

    def dead_heads(self, length: int) -> set[int]:
        """The start nodes from which chain sampling searched every walk of
        `length` steps and found no chain; filled by `sample_chain`."""
        return self._dead_heads.setdefault(length, set())


def _attach(graph: RelationalGraph, node: int) -> None:
    """Add a node and its edges to every related node already in the graph."""
    links = graph.engine.links(node, graph)
    graph.add_node(node)
    for other, forward, backward in links:
        graph.add_edge(node, forward, other)
        graph.add_edge(other, backward, node)


def grow_graph(engine: Engine, iterations: int, rng) -> RelationalGraph:
    """Run `iterations` rounds of the construction over the engine's
    default growth labels, drawing from `rng`, and return the closed graph."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")

    graph = RelationalGraph(engine)
    graph.add_node(engine.new_root(rng))
    edges, outgoing = graph.edges, graph.outgoing
    for _ in range(iterations):
        snapshot = sorted(outgoing)
        for node in snapshot:
            for relation in engine.default_growth:
                # every pair is stored both ways: an edge into node is the
                # reverse of one of node's own
                if any(edges[other, node] == relation for other, _ in outgoing[node]):
                    continue
                realized = engine.realize(node, relation, rng)
                if realized is None:
                    continue
                subject, created = realized
                for fresh in created:
                    _attach(graph, fresh)
                if edges.get((subject, node)) != relation:
                    raise AssertionError(
                        f"realized {relation} edge missing for ({subject}, {node})")
    return graph


class _Draws:
    """Growth's random source for a `GraphTable`: Random(seed) serving only
    `choice`, drawn as CPython's Random.choice draws it, through
    randrange(len(seq)), and noting each draw as (len(seq), index)."""

    def __init__(self, seed: int) -> None:
        self._randrange = random.Random(seed).randrange
        self.taken: list[tuple[int, int]] = []

    def choice(self, seq):
        index = self._randrange(len(seq))
        self.taken.append((len(seq), index))
        return seq[index]

    def __getattr__(self, name: str):
        raise TypeError(f"growth drew through rng.{name}; a graph table "
                        "replays only rng.choice draws")


class GraphTable:
    """Growth seed -> the graph `grow_graph(engine(), iterations,
    Random(seed))` grows, each distinct graph grown once.  The graphs it
    holds live as long as the table."""

    def __init__(self, engine: type[Engine]) -> None:
        self.engine = engine
        # the indices drawn so far -> the next draw's n, or the graph grown
        # once the draws end
        self._table: dict[tuple[int, ...], Union[int, RelationalGraph]] = {}
        # edge keys and moves shared by this table's graphs
        self._pairs: dict[tuple[int, int], tuple[int, int]] = {}
        self._moves: dict[tuple[int, str], tuple[int, str]] = {}
        self._memos: dict[tuple, tuple] = {}  # rule skeleton -> (dead heads, bounds)

    def __call__(self, seed: int) -> RelationalGraph:
        table, drawn = self._table, ()
        entry = table.get(drawn)
        if type(entry) is int:
            randrange = random.Random(seed).randrange
            while type(entry) is int:
                drawn += (randrange(entry),)
                entry = table.get(drawn)
        return self._grow(seed) if entry is None else entry

    def _grow(self, seed: int) -> RelationalGraph:
        draws = _Draws(seed)
        graph = grow_graph(self.engine(), self.engine.growth_iterations, draws)
        pairs, moves = self._pairs, self._moves
        graph.edges = {pairs.setdefault(key, key): relation
                       for key, relation in graph.edges.items()}
        for out in graph.outgoing.values():
            out[:] = [moves.setdefault(move, move) for move in out]
        rules = self.engine.rules
        if rules is not None:
            skeleton = tuple((key, rules[label]) for key, label in graph.edges.items())
            memo = self._memos.setdefault(skeleton, (graph._dead_heads, graph.bounds))
            graph._dead_heads, graph.bounds = memo
        # file the graph under its draws
        drawn = ()
        for n, index in draws.taken:
            self._table[drawn] = n
            drawn += (index,)
        self._table[drawn] = graph
        return graph
