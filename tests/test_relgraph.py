import itertools
import json
import random

import pytest

from worlds import kinship_world_from_genealogy

from reasonforge.kinship import KINSHIP_LABELS, KinshipEngine
from reasonforge.oracle import (VERIFIERS, SpatialWorld, coordinate_relation,
                                genealogy_relation)
from reasonforge import relgraph
from reasonforge.relgraph import (GraphTable, RelationalGraph, _attach, _realize,
                                  grow_graph)
from reasonforge.spatial import SpatialEngine, relation_of_displacement


def spatial_graph(iterations, seed=0):
    return grow_graph(SpatialEngine(), iterations, random.Random(seed))


def kinship_graph(iterations, seed=0):
    return grow_graph(KinshipEngine(), iterations, random.Random(seed))


def labels_into(g, node):
    """Labels of the edges into node: every related pair is stored in both
    directions, so they are the edges back from node's neighbours."""
    return {g.edges[other, node] for other, _ in g.outgoing[node]}


def root_graph(seed, relations):
    """A 0-iteration kinship graph with each relation its root still lacks
    realized on the root: one growth iteration over just these labels."""
    g = kinship_graph(0, seed=seed)
    rng = random.Random(seed)
    for relation in relations:
        if relation not in labels_into(g, 0):
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
    assert list(g.outgoing) == [0]
    assert len(g.edges) == 0


def test_spatial_one_iteration_shape():
    g = spatial_graph(1)
    assert len(g.outgoing) == 9
    assert len(g.edges) == 72
    # every ordered pair related, labels match an independent coordinate check
    pos = g.engine.pos
    assert sorted(pos.values()) == sorted(
        (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
    world = SpatialWorld(pos=dict(pos))
    for u, v in itertools.permutations(g.outgoing, 2):
        assert g.edges.get((u, v)) == coordinate_relation(world, u, v)


def test_kinship_father_mother_male_root():
    g = root_graph(3, ("father", "mother"))
    assert g.engine.genders[0] == "m"
    assert list(g.outgoing) == [0, 1, 2]
    assert sorted(g.edges.items()) == [
        ((0, 1), "son"), ((0, 2), "son"), ((1, 0), "father"), ((2, 0), "mother")]
    # father and mother of the root are spouses: no vocabulary edge
    assert g.edges.get((1, 2)) is None


def test_has_incoming_relation():
    # growth's absence check: the labels of edges into a node
    g = kinship_graph(0)
    assert "father" not in labels_into(g, 0)
    g2 = root_graph(0, ("father",))
    assert "father" in labels_into(g2, 0)
    assert "mother" not in labels_into(g2, 0)
    with pytest.raises(KeyError):
        labels_into(g2, 999)


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
    brothers = [n for n in g.outgoing if g.edges.get((n, root)) == "brother"]
    mothers = [n for n in g.outgoing if g.edges.get((n, root)) == "mother"]
    assert brothers and mothers
    # the root's mother is also the mother of the root's full sibling
    assert g.engine.derive(mothers[0], brothers[0]) == "mother"
    assert g.edges.get((mothers[0], brothers[0])) == "mother"


def test_growth_monotonic_and_absence_sound():
    for seed in range(5):
        previous_nodes: set[int] = set()
        previous_edges: set = set()
        for iterations in range(3):
            g = grow_graph(RefusalLog(), iterations, random.Random(seed))
            nodes = set(g.outgoing)
            edges = set(g.edges.items())
            assert previous_nodes <= nodes
            assert previous_edges <= edges
            if iterations:
                # nodes present when the final iteration started must have
                # every growth relation attached or refused by the engine
                for node in previous_nodes:
                    for relation in g.engine.default_growth:
                        assert (relation in labels_into(g, node)
                                or (node, relation) in g.engine.refused)
            previous_nodes, previous_edges = nodes, edges


def test_deduction_consistency_kinship():
    for seed in range(30):
        eng = KinshipEngine()
        g = grow_graph(eng, 1, random.Random(seed))
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
            g = grow_graph(eng, iterations, random.Random(seed))
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
        g = grow_graph(eng, iterations, random.Random(seed))
        world = kinship_world_from_genealogy(eng.genealogy)
        nodes = list(g.outgoing)
        scan = []
        for i, node in enumerate(nodes):
            for other in nodes[:i]:
                for pair in ((node, other), (other, node)):
                    relation = genealogy_relation(world, *pair)
                    if relation is not None:
                        scan.append((pair, relation))
        assert list(g.edges.items()) == scan


@pytest.mark.parametrize("iterations,seeds", [(1, range(20)), (2, range(3))])
def test_every_kinship_edge_has_its_reverse(iterations, seeds):
    # a direction flip reads the stored reverse edge: it is the oracle's
    # reading of the one-triple story "a is r of b" from b, for every label
    # and both genders of b
    verify = VERIFIERS["kinship"]
    seen = set()
    for seed in seeds:
        g = kinship_graph(iterations, seed=seed)
        genders = g.engine.genders
        for (a, b), r in g.edges.items():
            assert g.edges[(b, a)] == verify([(a, r, b)], b, a, genders), (seed, a, b)
            seen.add((r, genders[b]))
    assert seen == {(r, gender) for r in KINSHIP_LABELS for gender in "mf"}


def test_every_spatial_edge_has_its_reverse():
    # the reverse of a grid edge is the point reflection of its displacement
    for iterations in (1, 2):
        g = spatial_graph(iterations)
        pos = g.engine.pos
        for (a, b), r in g.edges.items():
            dx, dy = pos[a][0] - pos[b][0], pos[a][1] - pos[b][1]
            assert r == relation_of_displacement(dx, dy)
            assert g.edges[(b, a)] == relation_of_displacement(-dx, -dy)


def test_deduction_consistency_spatial():
    for iterations in (1, 2):
        eng = SpatialEngine()
        g = grow_graph(eng, iterations, random.Random(0))
        world = SpatialWorld(pos=dict(eng.pos))
        for (s, o), r in g.edges.items():
            assert coordinate_relation(world, s, o) == r


def test_growth_determinism_byte_identical():
    def dump(g):
        return json.dumps([list(g.outgoing), sorted(g.edges.items()),
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


def counting_phases(monkeypatch):
    """Patch relgraph's two growth phases to record their calls: the
    genealogies realized and the graphs attached in full."""
    realized, attached = [], []

    def realize(*args):
        realized.append(args)
        return _realize(*args)

    def attach(graph, *nodes):
        attached.append(nodes)
        return _attach(graph, *nodes)

    monkeypatch.setattr(relgraph, "_realize", realize)
    monkeypatch.setattr(relgraph, "_attach", attach)
    return realized, attached


@pytest.mark.parametrize("engine, seeds", [(KinshipEngine, range(3000)),
                                           (SpatialEngine, range(50))])
def test_graph_table_serves_each_seeds_own_graph(monkeypatch, engine, seeds):
    # a seed replayed down the table reaches the graph its own growth gives:
    # the same nodes, edges in order and genders
    table = GraphTable(engine)
    realized, attached = counting_phases(monkeypatch)
    served = {seed: table(seed) for seed in seeds}
    monkeypatch.undo()
    for seed in seeds:
        g = served[seed]
        fresh = grow_graph(engine(), engine.growth_iterations, random.Random(seed))
        assert g.outgoing == fresh.outgoing
        assert list(g.edges.items()) == list(fresh.edges.items())
        assert g.engine.genders == fresh.engine.genders
        assert table(seed) is g
    # kinship growth's nine small choices reach 256 genealogies, each realized
    # once, in 12 shapes, each attached in full once; a grid draws none
    kinship = engine is KinshipEngine
    assert len({id(g) for g in served.values()}) == len(realized) == (256 if kinship else 1)
    assert len(attached) == (12 if kinship else 1)


def test_shape_tells_apart_a_parent_seat_and_a_marriage():
    # pairs of genealogies alike in every person's child unit and spouse but
    # not in who parents a unit, then alike but for one marriage: each pair
    # relates other people, so the two need shapes of their own
    def people(*genders):
        engine = KinshipEngine()
        for gender in genders:
            engine.genealogy.new_person(gender)
        return engine

    a, b = people("m", "m"), people("m", "m")
    a.genealogy.add_child(0, "f")
    b.genealogy.add_child(1, "f")
    assert (a.derive(0, 2), b.derive(0, 2)) == ("father", None)
    assert a.shape() != b.shape()
    c, d = people("m"), people("m", "f")
    c.genealogy.add_spouse(0)
    for engine in (c, d):
        engine.genealogy.new_person("m")
        engine.genealogy.add_parent(1, "m")
    assert (c.derive(3, 0), d.derive(3, 0)) == ("father-in-law", None)
    assert c.shape() != d.shape()


class DeepKinship(KinshipEngine):
    growth_iterations = 2


class DeepNoChoices(DeepKinship):
    """Two iterations of the labels whose realization draws only genders, so
    that genealogies of one shape recur with other genders."""
    default_growth = tuple(label for label in KINSHIP_LABELS if not any(
        rule in label for rule in ("grand", "uncle", "aunt", "son-in", "daughter-in")))


@pytest.mark.parametrize("engine, seeds", [(DeepKinship, range(40)),
                                           (DeepNoChoices, range(60))])
def test_graph_table_shapes_are_exact_beyond_the_presets_depth(engine, seeds):
    table = GraphTable(engine)
    for seed in seeds:
        g = table(seed)
        fresh = grow_graph(engine(), 2, random.Random(seed))
        assert g.outgoing == fresh.outgoing
        assert list(g.edges.items()) == list(fresh.edges.items())
        assert g.engine.genders == fresh.engine.genders
    if engine is DeepNoChoices:
        # some graphs were read off another genealogy's template
        assert len(table._shapes) < len(seeds)


def incremental_graph(engine, iterations, rng):
    """Growth in one phase: each realized node attached at once, and what a
    node lacks read off the graph's edges into it."""
    g = _attach(RelationalGraph(engine), engine.new_root(rng))
    for _ in range(iterations):
        for node in sorted(g.outgoing):
            for relation in engine.default_growth:
                if relation not in labels_into(g, node):
                    realized = engine.realize(node, relation, rng)
                    if realized is not None:
                        _attach(g, *realized[1])
    return g


@pytest.mark.parametrize("engine, iterations, seeds", [
    (KinshipEngine, 1, range(300)), (KinshipEngine, 2, range(10)),
    (KinshipEngine, 3, range(2)), (SpatialEngine, 1, range(2)),
    (SpatialEngine, 2, range(2)), (SpatialEngine, 3, range(2))])
def test_realizing_first_then_attaching_equals_incremental_growth(engine, iterations, seeds):
    # realizing never changes how two nodes relate, so attaching after all
    # realizations gives the edges and moves of attaching as nodes come
    for seed in seeds:
        g = grow_graph(engine(), iterations, random.Random(seed))
        ref = incremental_graph(engine(), iterations, random.Random(seed))
        assert g.outgoing == ref.outgoing
        assert list(g.edges.items()) == list(ref.edges.items())
        assert g.engine.genders == ref.engine.genders


def test_graph_table_shares_tuples_between_its_graphs():
    table = GraphTable(KinshipEngine)
    graphs = {id(g): g for g in map(table, range(40))}.values()
    assert len(graphs) > 1
    keys = {}
    for g in graphs:
        for key in g.edges:
            assert keys.setdefault(key, key) is key
        for node, moves in g.outgoing.items():
            for move in moves:
                assert keys.setdefault(move, move) is move


def test_graph_table_refuses_growth_that_draws_otherwise():
    # only rng.choice draws can be replayed
    class RandomRoot(KinshipEngine):
        def new_root(self, rng):
            rng.random()
            return super().new_root(rng)

    grow_graph(RandomRoot(), 1, random.Random(3))  # fine on a plain Random
    with pytest.raises(TypeError, match="rng.random"):
        GraphTable(RandomRoot)(3)


def test_graphs_of_one_shape_and_gender_share_their_moves():
    table = GraphTable(KinshipEngine)
    by_shape = {}
    for g in {id(g): g for g in map(table, range(600))}.values():
        by_shape.setdefault(g.engine.shape(), []).append(g)
    assert len(by_shape) == 12
    shared = 0
    for first, *others in by_shape.values():
        for g in others:
            for node, moves in g.outgoing.items():
                same = g.engine.genders[node] == first.engine.genders[node]
                assert (moves is first.outgoing[node]) == same
                shared += same
    assert shared > 1000
