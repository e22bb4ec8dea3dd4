import itertools
import json

import pytest

from reasonforge.kinship import KinshipEngine
from reasonforge.oracle import (coordinate_relation, genealogy_relation,
                                kinship_world_from_genealogy,
                                spatial_world_from_coords)
from reasonforge.relgraph import RelationalGraph, grow_graph
from reasonforge.spatial import SpatialEngine


def spatial_graph(iterations, seed=0, growth_set=None):
    return grow_graph(SpatialEngine(), iterations, seed=seed, growth_set=growth_set)


def kinship_graph(iterations, seed=0, growth_set=None):
    return grow_graph(KinshipEngine(), iterations, seed=seed, growth_set=growth_set)


def test_growth_config_validation():
    with pytest.raises(ValueError):
        kinship_graph(-1)
    with pytest.raises(ValueError):
        spatial_graph(1, growth_set=())


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
    world = spatial_world_from_coords(pos)
    for u, v in itertools.permutations(g.nodes, 2):
        assert g.edge_between(u, v) == coordinate_relation(world, u, v)


def test_kinship_father_mother_male_root():
    g = kinship_graph(1, seed=3, growth_set=("father", "mother"))
    assert g.engine.genders[0] == "m"
    assert len(g.nodes) == 3
    assert sorted(g.edges.items()) == [
        ((0, 1), "son"), ((0, 2), "son"), ((1, 0), "father"), ((2, 0), "mother")]
    # father and mother of the root are spouses: no vocabulary edge
    assert g.edge_between(1, 2) is None


def test_has_incoming_relation():
    # growth's absence check: incoming[node] holds the labels of edges into node
    g = kinship_graph(0)
    assert "father" not in g.incoming[0]
    g2 = kinship_graph(1, growth_set=("father",))
    assert "father" in g2.incoming[0]
    assert "mother" not in g2.incoming[0]
    with pytest.raises(KeyError):
        g2.incoming[999]


def test_relation_between():
    g = spatial_graph(1)
    pos = g.engine.pos
    at = {xy: node for node, xy in pos.items()}
    assert g.engine.derive(at[(1, 1)], at[(0, 0)]) == "upper-right"
    assert g.edge_between(at[(1, 1)], at[(0, 0)]) == "upper-right"
    with pytest.raises(KeyError):
        g.engine.derive(0, 999)


def test_relation_between_kinship_mother_of_sibling():
    eng = KinshipEngine()
    g = grow_graph(eng, 1, seed=5, growth_set=("brother", "mother"))
    root = 0
    brothers = [n for n in g.nodes if g.edge_between(n, root) == "brother"]
    mothers = [n for n in g.nodes if g.edge_between(n, root) == "mother"]
    assert brothers and mothers
    # the root's mother is also the mother of the root's full sibling
    assert g.engine.derive(mothers[0], brothers[0]) == "mother"
    assert g.edge_between(mothers[0], brothers[0]) == "mother"


def test_growth_monotonic_and_absence_sound():
    for seed in range(5):
        engine = KinshipEngine()
        previous_nodes: set[int] = set()
        previous_edges: set = set()
        for iterations in range(3):
            g = grow_graph(KinshipEngine(), iterations, seed=seed)
            nodes = set(g.nodes)
            edges = set(g.edges.items())
            assert previous_nodes <= nodes
            assert previous_edges <= edges
            unrealizable = {(n, r) for n, r, _ in g.growth_log}
            if iterations:
                # nodes present when the final iteration started must have
                # every growth relation attached or logged unrealizable
                for node in previous_nodes:
                    for relation in g.engine.default_growth:
                        assert (relation in g.incoming[node]
                                or (node, relation) in unrealizable)
            previous_nodes, previous_edges = nodes, edges


def test_deduction_consistency_kinship():
    for seed in range(30):
        eng = KinshipEngine()
        g = grow_graph(eng, 1, seed=seed)
        world = kinship_world_from_genealogy(eng.genealogy)
        for (s, o), r in g.edges.items():
            assert genealogy_relation(world, s, o) == r


def test_deduction_consistency_deeper_growth():
    # depth sweep: full vocabulary at one iteration, leaner sets deeper
    core = ("father", "mother", "son", "daughter", "brother", "sister")
    configs = [(1, None), (2, core), (3, core),
               (2, core + ("uncle", "aunt", "nephew", "niece"))]
    seeds_per_config = 25  # 100 grown graphs in total
    for iterations, growth_set in configs:
        for seed in range(seeds_per_config):
            eng = KinshipEngine()
            g = grow_graph(eng, iterations, seed=seed, growth_set=growth_set)
            world = kinship_world_from_genealogy(eng.genealogy)
            for (s, o), r in g.edges.items():
                assert genealogy_relation(world, s, o) == r


def test_deduction_consistency_spatial():
    for iterations in (1, 2):
        eng = SpatialEngine()
        g = grow_graph(eng, iterations)
        world = spatial_world_from_coords(eng.pos)
        for (s, o), r in g.edges.items():
            assert coordinate_relation(world, s, o) == r


def test_growth_determinism_byte_identical():
    def dump(g):
        return json.dumps([g.nodes, sorted(g.edges.items()),
                           sorted(g.engine.genders.items())])

    for seed in (0, 7):
        a = dump(kinship_graph(2, seed=seed,
                               growth_set=("father", "mother", "sister")))
        b = dump(kinship_graph(2, seed=seed,
                               growth_set=("father", "mother", "sister")))
        assert a == b


def test_unknown_growth_relation_rejected():
    with pytest.raises(ValueError):
        spatial_graph(1, growth_set=("sideways",))


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
