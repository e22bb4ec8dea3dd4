import itertools
import json
import random

import pytest

from worlds import kinship_world_from_genealogy

from reasonforge.kinship import KinshipEngine
from reasonforge.oracle import (SpatialWorld, coordinate_relation,
                                genealogy_relation)
from reasonforge.relgraph import RelationalGraph, _attach, grow_graph
from reasonforge.spatial import SpatialEngine


def spatial_graph(iterations, seed=0):
    return grow_graph(SpatialEngine(), iterations, seed=seed)


def kinship_graph(iterations, seed=0):
    return grow_graph(KinshipEngine(), iterations, seed=seed)


def root_graph(seed, relations):
    """A 0-iteration kinship graph with each relation its root still lacks
    realized on the root: one growth iteration over just these labels."""
    g = kinship_graph(0, seed=seed)
    rng = random.Random(seed)
    for relation in relations:
        if relation not in g.incoming[0]:
            _, created = g.engine.realize(0, relation, rng)
            for node in created:
                _attach(g, node)
    return g


class RefusalLog(KinshipEngine):
    """Records every attachment the engine refuses during growth."""

    def __init__(self):
        super().__init__()
        self.refused = set()

    def realize(self, target, relation, rng):
        realized = super().realize(target, relation, rng)
        if realized is None:
            self.refused.add((target, relation))
        return realized


def test_growth_config_validation():
    with pytest.raises(ValueError):
        kinship_graph(-1)


def test_zero_iterations_single_node():
    g = kinship_graph(0)
    assert len(g.nodes) == 1
    assert len(g.edges) == 0


def test_spatial_one_iteration_shape():
    g = spatial_graph(1)
    assert len(g.nodes) == 9
    assert len(g.edges) == 72
    # every ordered pair related, labels match an independent coordinate check
    pos = g.engine.pos
    assert sorted(pos.values()) == sorted(
        (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
    world = SpatialWorld(pos=dict(pos))
    for u, v in itertools.permutations(g.nodes, 2):
        assert g.edges.get((u, v)) == coordinate_relation(world, u, v)


def test_kinship_father_mother_male_root():
    g = root_graph(3, ("father", "mother"))
    assert g.engine.genders[0] == "m"
    assert len(g.nodes) == 3
    assert sorted(g.edges.items()) == [
        ((0, 1), "son"), ((0, 2), "son"), ((1, 0), "father"), ((2, 0), "mother")]
    # father and mother of the root are spouses: no vocabulary edge
    assert g.edges.get((1, 2)) is None


def test_has_incoming_relation():
    # growth's absence check: incoming[node] holds the labels of edges into node
    g = kinship_graph(0)
    assert "father" not in g.incoming[0]
    g2 = root_graph(0, ("father",))
    assert "father" in g2.incoming[0]
    assert "mother" not in g2.incoming[0]
    with pytest.raises(KeyError):
        g2.incoming[999]


def test_relation_between():
    g = spatial_graph(1)
    pos = g.engine.pos
    at = {xy: node for node, xy in pos.items()}
    assert g.engine.derive_pair(at[(1, 1)], at[(0, 0)])[0] == "upper-right"
    assert g.edges.get((at[(1, 1)], at[(0, 0)])) == "upper-right"
    with pytest.raises(KeyError):
        g.engine.derive_pair(0, 999)


def test_relation_between_kinship_mother_of_sibling():
    g = root_graph(5, ("brother", "mother"))
    root = 0
    brothers = [n for n in g.nodes if g.edges.get((n, root)) == "brother"]
    mothers = [n for n in g.nodes if g.edges.get((n, root)) == "mother"]
    assert brothers and mothers
    # the root's mother is also the mother of the root's full sibling
    assert g.engine.derive(mothers[0], brothers[0]) == "mother"
    assert g.edges.get((mothers[0], brothers[0])) == "mother"


def test_growth_monotonic_and_absence_sound():
    for seed in range(5):
        previous_nodes: set[int] = set()
        previous_edges: set = set()
        for iterations in range(3):
            g = grow_graph(RefusalLog(), iterations, seed=seed)
            nodes = set(g.nodes)
            edges = set(g.edges.items())
            assert previous_nodes <= nodes
            assert previous_edges <= edges
            if iterations:
                # nodes present when the final iteration started must have
                # every growth relation attached or refused by the engine
                for node in previous_nodes:
                    for relation in g.engine.default_growth:
                        assert (relation in g.incoming[node]
                                or (node, relation) in g.engine.refused)
            previous_nodes, previous_edges = nodes, edges


def test_deduction_consistency_kinship():
    for seed in range(30):
        eng = KinshipEngine()
        g = grow_graph(eng, 1, seed=seed)
        world = kinship_world_from_genealogy(eng.genealogy)
        for (s, o), r in g.edges.items():
            assert genealogy_relation(world, s, o) == r


def test_deduction_consistency_deeper_growth():
    # full vocabulary at two iterations: ~3,600 edges per graph.  Closure
    # reads each new person's relatives off the family units, so three
    # iterations (~2,800 people, ~38,000 edges) grow in under 0.1 s a graph.
    for iterations, seeds in ((2, range(25)), (3, range(3))):
        for seed in seeds:
            eng = KinshipEngine()
            g = grow_graph(eng, iterations, seed=seed)
            world = kinship_world_from_genealogy(eng.genealogy)
            for (s, o), r in g.edges.items():
                assert genealogy_relation(world, s, o) == r


@pytest.mark.parametrize("iterations,seeds", [(1, range(30)), (2, range(8))])
def test_kinship_closure_complete_in_scan_order(iterations, seeds):
    # the edges are exactly the ordered pairs the brute-force oracle
    # relates, in the order of an all-pairs scan: each node in graph order
    # against every earlier node, the edge from it before the edge to it.
    # A two-iteration graph has ~270 people, ~0.7 s of oracle calls each.
    for seed in seeds:
        eng = KinshipEngine()
        g = grow_graph(eng, iterations, seed=seed)
        world = kinship_world_from_genealogy(eng.genealogy)
        scan = []
        for i, node in enumerate(g.nodes):
            for other in g.nodes[:i]:
                for pair in ((node, other), (other, node)):
                    relation = genealogy_relation(world, *pair)
                    if relation is not None:
                        scan.append((pair, relation))
        assert list(g.edges.items()) == scan


def test_deduction_consistency_spatial():
    for iterations in (1, 2):
        eng = SpatialEngine()
        g = grow_graph(eng, iterations)
        world = SpatialWorld(pos=dict(eng.pos))
        for (s, o), r in g.edges.items():
            assert coordinate_relation(world, s, o) == r


def test_growth_determinism_byte_identical():
    def dump(g):
        return json.dumps([g.nodes, sorted(g.edges.items()),
                           sorted(g.engine.genders.items())])

    for seed in (0, 7):
        assert dump(kinship_graph(2, seed=seed)) == dump(kinship_graph(2, seed=seed))


def test_edge_invariants():
    g = RelationalGraph(SpatialEngine())
    g.engine.pos[0] = (0, 0)
    g.engine.pos[1] = (0, 1)
    g.add_node(0)
    g.add_node(1)
    with pytest.raises(ValueError):
        g.add_edge(0, "left", 0)
    g.add_edge(1, "above", 0)
    with pytest.raises(ValueError):
        g.add_edge(1, "below", 0)
