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
the heads that chain sampling has proven dead (`dead_heads`), by searching
them in full or by a bound on their longest answerable walk.  The memo
never changes what a call returns, so a graph is still safe to share
across threads.
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
        self.incoming: dict[int, set[str]] = {}  # node -> labels of edges into it
        # node -> [(object, relation), ...] in edge order; nodes in join order
        self.outgoing: dict[int, list[tuple[int, str]]] = {}
        self._dead_heads: dict[int, set[int]] = {}

    def add_node(self, node: int) -> None:
        if node in self.outgoing:
            raise ValueError(f"duplicate node {node}")
        self.incoming[node] = set()
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
        self.incoming[object].add(relation)
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


def grow_graph(engine: Engine, iterations: int, seed: int = 0) -> RelationalGraph:
    """Run `iterations` rounds of the construction over the engine's
    default growth labels and return the closed graph."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")

    rng = random.Random(seed)
    graph = RelationalGraph(engine)
    graph.add_node(engine.new_root(rng))
    for _ in range(iterations):
        snapshot = sorted(graph.outgoing)
        for node in snapshot:
            for relation in engine.default_growth:
                if relation in graph.incoming[node]:
                    continue
                realized = engine.realize(node, relation, rng)
                if realized is None:
                    continue
                subject, created = realized
                for fresh in created:
                    _attach(graph, fresh)
                if graph.edges.get((subject, node)) != relation:
                    raise AssertionError(
                        f"realized {relation} edge missing for ({subject}, {node})")
    return graph

