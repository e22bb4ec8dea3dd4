import random
from collections import Counter

import pytest

from reasonforge.augment import flip_step
from reasonforge.kinship import KinshipEngine, chain_relation
from reasonforge.relgraph import RelationalGraph, Triple, grow_graph
from reasonforge.sampler import SamplingExhausted, sample_chain
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
    return grow_graph(SpatialEngine(), 1)


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
    graphs = [grow_graph(KinshipEngine(), 1, seed=s)
              for s in range(3)]
    drawn = 0
    for seed in range(60):
        g = graphs[seed % 3]
        try:
            chain = sample_chain(g, 2 + seed % 5, seed)
        except SamplingExhausted:
            continue
        assert chain_relation([t.relation for t in chain.steps]) is not None
        drawn += 1
    assert drawn >= 50


def answerable_walk_exists(graph, length):
    """Brute force: some simple walk of `length` steps keeps the fold alive
    and ends on the engine's ground truth for its head and tail."""
    outgoing = graph.outgoing()
    engine = graph.engine

    def extend(walk, labels):
        if len(labels) == length:
            return chain_relation(labels) == engine.ground_truth(
                walk[0], walk[-1], labels)
        return any(extend(walk + [nb], labels + [label])
                   for nb, label in outgoing[walk[-1]]
                   if nb not in walk and chain_relation(labels + [label]) is not None)

    return any(extend([node], []) for node in sorted(graph.nodes))


def induced(graph, keep):
    sub = RelationalGraph(graph.engine)
    for node in keep:
        sub.add_node(node)
    for (a, b), label in graph.edges.items():
        if a in keep and b in keep:
            sub.add_edge(a, label, b)
    return sub


def test_kinship_search_finds_a_chain_exactly_when_one_exists():
    # the dead-state memo is exact and the last step keeps only true
    # answers: given budget, the search fails only where no answerable
    # walk exists, and what it returns is answerable.  Ten-node induced
    # subgraphs give both outcomes and walks rare enough that a search must
    # cover most of the graph to find one.
    outcomes = Counter()
    for s in range(30):
        full = grow_graph(KinshipEngine(), 1, seed=s)
        sub = induced(full, set(random.Random(s).sample(full.nodes, 10)))
        for g, hops in ((full, range(2, 6)), (sub, range(2, 8))):
            for hop in hops:
                exists = answerable_walk_exists(g, hop)
                outcomes[exists] += 1
                for seed in range(4):
                    try:
                        chain = sample_chain(g, hop, seed, budget=10**6)
                    except SamplingExhausted:
                        chain = None
                    assert (chain is not None) == exists, (s, hop, seed)
                    if chain is not None:
                        labels = [t.relation for t in chain.steps]
                        assert chain_relation(labels) == g.engine.ground_truth(
                            chain.head, chain.tail, labels) is not None
    assert outcomes[True] >= 150 and outcomes[False] >= 50


def test_sample_unique_edge():
    g = two_node_graph()
    chain = sample_chain(g, 1, 5)
    assert chain.steps == [Triple(1, "above", 0)]


def test_sample_needs_enough_nodes():
    g = path_graph(4)
    with pytest.raises(SamplingExhausted):
        sample_chain(g, 4, 0)


def test_sampled_chains_are_simple_and_edge_valid():
    g = spatial_l1()
    for seed in range(300):
        chain = sample_chain(g, 2, seed)
        assert len(set(chain.walk)) == 3
        for i, t in enumerate(chain.steps):
            assert g.edges.get((t.subject, t.object)) == t.relation
            assert (t.subject, t.object) == (chain.walk[i], chain.walk[i + 1])


def test_reverse_orientation_recorded():
    # sampled steps read along the walk; a flip stores the inverse triple
    # with swapped endpoints, and flipping it again restores the step
    g = spatial_l1()
    for seed in range(50):
        chain = sample_chain(g, 2, seed)
        assert [(t.subject, t.object) for t in chain.steps] == list(
            zip(chain.walk, chain.walk[1:]))
        t = chain.steps[0]
        flipped = flip_step(t, g)
        assert (flipped.subject, flipped.object) == (t.object, t.subject)
        assert g.edges.get((flipped.subject, flipped.object)) == flipped.relation
        assert flip_step(flipped, g) == t


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


def test_flip_inverts_by_counterpart_gender():
    # only the father-direction edge is stored; reading it from the child
    # inverts the label by the child's gender
    for gender, inverse in (("f", "daughter"), ("m", "son")):
        eng = KinshipEngine()
        child = eng.genealogy.new_person(gender)
        father = eng.genealogy.add_parent(child, "m")
        g = RelationalGraph(eng)
        g.add_node(child)
        g.add_node(father)
        g.add_edge(father, "father", child)
        assert flip_step(Triple(father, "father", child), g) == Triple(
            child, inverse, father)


def test_config_validation():
    g = spatial_l1()
    with pytest.raises(ValueError):
        sample_chain(g, 0, 0)
    with pytest.raises(ValueError):
        sample_chain(g, 1, 0, budget=0)
