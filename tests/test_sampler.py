from collections import Counter

import pytest

from reasonforge.augment import flip_step
from reasonforge.kinship import KinshipEngine, chain_relation
from reasonforge.relgraph import GrowthConfig, RelationalGraph, grow_graph
from reasonforge.sampler import (ReasoningChain, SamplingExhausted,
                                 oriented_labels, sample_chain)
from reasonforge.spatial import SpatialEngine


def two_node_graph():
    engine = SpatialEngine()
    engine.pos = {0: (0, 0), 1: (0, 1)}
    g = RelationalGraph(engine)
    g.add_node(0)
    g.add_node(1)
    g.add_edge(1, "above", 0)
    return g


def path_graph(n):
    engine = SpatialEngine()
    g = RelationalGraph(engine)
    for i in range(n):
        engine.pos[i] = (i, 0)
        g.add_node(i)
        if i:
            g.add_edge(i, "right", i - 1)
    return g


def spatial_l1():
    return grow_graph(SpatialEngine(), GrowthConfig(iterations=1))


def test_transition_point_mass():
    # the one stored edge runs 1 -> 0; starting at 0 dead-ends, so every
    # seed yields the walk along it
    g = two_node_graph()
    assert {tuple(sample_chain(g, 1, seed).walk) for seed in range(20)} == {(1, 0)}


def test_transition_uniform_eighth():
    # from the centre of the 3x3 grid each of the 8 neighbours is equally
    # likely as the next step
    g = spatial_l1()
    centre = next(n for n, xy in g.engine.pos.items() if xy == (0, 0))
    following = Counter()
    for seed in range(3600):
        chain = sample_chain(g, 1, seed)
        if chain.head == centre:
            following[chain.tail] += 1
    expected = sum(following.values()) / 8
    assert len(following) == 8
    assert all(0.6 * expected < n < 1.4 * expected for n in following.values())


def test_dead_end_backtracks():
    # edges run i -> i-1 only, so a 3-step walk must start at node 3; every
    # other start dead-ends and the search backtracks instead of giving up
    g = path_graph(4)
    for seed in range(30):
        assert sample_chain(g, 3, seed).walk == [3, 2, 1, 0]
    with pytest.raises(SamplingExhausted):
        sample_chain(g, 3, 0, budget=1)


def test_fold_keeps_kinship_chains_entailed():
    graphs = [grow_graph(KinshipEngine(), GrowthConfig(iterations=1, seed=s))
              for s in range(3)]
    drawn = 0
    for seed in range(60):
        g = graphs[seed % 3]
        try:
            chain = sample_chain(g, 2 + seed % 5, seed)
        except SamplingExhausted:
            continue
        assert chain_relation(oriented_labels(chain, g)) is not None
        drawn += 1
    assert drawn >= 50


def test_sample_unique_edge():
    g = two_node_graph()
    chain = sample_chain(g, 1, 5)
    assert chain.hop == 1
    step = chain.steps[0]
    assert (step.triple.subject, step.triple.relation, step.triple.object) == (
        1, "above", 0)


def test_sample_needs_enough_nodes():
    g = path_graph(4)
    with pytest.raises(SamplingExhausted):
        sample_chain(g, 4, 0)


def test_sampled_chains_are_simple_and_edge_valid():
    g = spatial_l1()
    for seed in range(300):
        chain = sample_chain(g, 2, seed)
        assert len(set(chain.walk)) == 3
        for i, step in enumerate(chain.steps):
            t = step.triple
            assert g.edge_between(t.subject, t.object) == t.relation
            assert (t.subject, t.object) == (chain.walk[i], chain.walk[i + 1])


def test_reverse_orientation_recorded():
    # sampled steps follow stored edges; a flipped step stores the inverse
    # triple, is marked reversed, and still reads head-first
    g = spatial_l1()
    for seed in range(50):
        chain = sample_chain(g, 2, seed)
        assert not any(step.reversed for step in chain.steps)
        flipped = flip_step(chain.steps[0], g)
        t = chain.steps[0].triple
        assert flipped.reversed
        assert (flipped.triple.subject, flipped.triple.object) == (t.object, t.subject)
        again = ReasoningChain(walk=chain.walk, steps=[flipped, chain.steps[1]])
        assert oriented_labels(again, g) == oriented_labels(chain, g)


def test_determinism():
    g = spatial_l1()
    a = sample_chain(g, 4, 99)
    b = sample_chain(g, 4, 99)
    assert a.walk == b.walk
    assert a.steps == b.steps


def test_start_coverage():
    g = spatial_l1()
    starts = {sample_chain(g, 2, s).head for s in range(10 * len(g.nodes))}
    assert starts == set(g.nodes)


def test_oriented_labels_kinship_inversion():
    from reasonforge.relgraph import Triple
    from reasonforge.sampler import ChainStep

    eng = KinshipEngine()
    root = eng.genealogy.new_person("f")
    father = eng.genealogy.add_parent(root, "m")
    g = RelationalGraph(eng)
    g.add_node(root)
    g.add_node(father)
    g.add_edge(father, "father", root)
    # only the father-direction edge is stored; walking root -> father must
    # invert it by the walk node's gender
    chain = ReasoningChain(walk=[root, father], steps=[
        ChainStep(Triple(father, "father", root), reversed=True)])
    assert oriented_labels(chain, g) == ["daughter"]


def test_config_validation():
    g = spatial_l1()
    with pytest.raises(ValueError):
        sample_chain(g, 0, 0)
    with pytest.raises(ValueError):
        sample_chain(g, 1, 0, budget=0)
