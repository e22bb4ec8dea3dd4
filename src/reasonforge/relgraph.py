"""Relational graph model and the iterative growth procedure.

A graph starts from a single root node and grows in two phases, both read
off the engine's relatives of a node (`engine.relatives`).  First, on the
engine alone, each iteration scans the nodes present at its start: for
every node v and relation r in the engine's default growth labels that no
relative of v is the r of yet (read live, so a node realized earlier in
the iteration counts), the engine realizes a fresh node v_r (possibly with
auxiliary nodes) so that "v_r is the r of v" holds.  Then the nodes are
attached in creation order, each with an edge both ways to every related
earlier node, in graph order (ids ascend in creation order; kinship reads
the relatives off its family units, spatial relates every pair), so the
edges are closed under deduction.  Realizing never changes how two nodes
relate, so this gives the edges of attaching each node as soon as it is
realized.

The adjacency table (`outgoing`) is also the node table: its keys are the
nodes in the order they joined, each holding its edges in the order they
were added.  Every related pair is stored in both directions, so a fact
read from the other endpoint is the stored reverse edge.  A completed
graph's nodes, edges and `outgoing` lists (graphs may share them) never
change; one lazily filled memo rides on it, chain sampling's bound on each
head's walks (`bounds`) and the heads it has proven dead (`dead_heads`).
The memo never changes what a call returns, so a graph is safe to share
between examples and across threads, memo and all.

A `GraphTable` serves the graph of each growth seed and realizes each
distinct genealogy once.  Growth draws only through `rng.choice`, so a
graph is a function of the indices it draws: the table maps the indices
drawn so far to the next draw's number of options, or to the graph grown
once the draws end.  A seed replays its own draws down the table until it
reaches a graph, growing one only on a path that no earlier seed took.
Kinship genealogies of one shape (`KinshipEngine.shape`) relate the same
pairs by the same rules, and a label is its rule read by its subject's
gender, so only a shape's first genealogy is attached: the others' edges
are its rules read by their own genders, in its order, and their nodes
share its move list for their gender.  The graphs of a table share their
edge-key and move tuples, and those of a shape their memo (exact: a shape
fixes its rule skeleton; see the sampler).
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


def _attach(graph: RelationalGraph, *nodes: int) -> RelationalGraph:
    """Add the nodes in order, each with its edges to every related node
    already in the graph; return the graph."""
    for node in nodes:
        related = sorted(link for link in graph.engine.relatives(node)
                         if link[0] in graph.outgoing)
        graph.add_node(node)
        for other, forward, backward in related:
            graph.add_edge(node, forward, other)
            graph.add_edge(other, backward, node)
    return graph


def _realize(engine: Engine, iterations: int, rng) -> list[int]:
    """Growth's first phase: run `iterations` rounds of realizations on the
    engine, drawing from `rng`, and return the nodes in creation order."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    def held(node):  # the labels r for which a relative of node is its r
        return {theirs for _, _, theirs in engine.relatives(node)}

    nodes = [engine.new_root(rng)]
    for _ in range(iterations):
        for node in nodes[:]:
            has = held(node)
            for relation in engine.default_growth:
                if relation not in has and (realized := engine.realize(node, relation, rng)):
                    nodes += realized[1]
                    if relation not in (has := held(node)):
                        raise AssertionError(f"realized {relation} missing for {node}")
    return nodes


def grow_graph(engine: Engine, iterations: int, rng) -> RelationalGraph:
    """Run `iterations` rounds of the construction over the engine's default
    growth labels, drawing from `rng`: the nodes realized, attached in order."""
    return _attach(RelationalGraph(engine), *_realize(engine, iterations, rng))


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
    """Growth seed -> the graph `grow_graph(engine(), iterations, Random(seed))`
    grows, each genealogy realized once; its graphs live as long as it."""

    def __init__(self, engine: type[Engine]) -> None:
        self.engine = engine
        # the indices drawn so far -> the next draw's n, or the graph grown
        # once the draws end
        self._table: dict[tuple[int, ...], Union[int, RelationalGraph]] = {}
        self._shared: dict[tuple, tuple] = {}  # edge keys and moves of its graphs
        self._shapes: dict[tuple, tuple] = {}  # kinship shape -> its template

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
        grow = self._relabel if self.engine.rules else grow_graph  # no rules: one grid
        graph = grow(self.engine(), self.engine.growth_iterations, draws)
        # file the graph under its draws
        drawn = ()
        for n, index in draws.taken:
            self._table[drawn] = n
            drawn += (index,)
        self._table[drawn] = graph
        return graph

    def _relabel(self, engine: KinshipEngine, iterations: int, rng) -> RelationalGraph:
        """The graph of the genealogy realized on `rng`, read off its shape's
        template: (rule skeleton, node -> (moves if male, if female), memo)."""
        nodes = _realize(engine, iterations, rng)
        template = self._shapes.get(shape := engine.shape())
        if template is None:
            first = _attach(RelationalGraph(engine), *nodes)
            rules, intern = engine.rules, self._shared.setdefault
            skeleton = tuple((intern(key, key), rules[label])
                             for key, label in first.edges.items())
            moves = {node: tuple([intern(move := (other, rules[label][female]), move)
                                  for other, label in out] for female in (0, 1))
                     for node, out in first.outgoing.items()}
            template = self._shapes[shape] = (skeleton, moves, ({}, {}))
        skeleton, moves, memo = template
        gender, graph = engine.genders, RelationalGraph(engine)
        graph.edges = {key: rule[gender[key[0]] != "m"] for key, rule in skeleton}
        graph.outgoing = {node: pair[gender[node] != "m"] for node, pair in moves.items()}
        graph._dead_heads, graph.bounds = memo
        return graph
