import random
from collections import Counter, defaultdict

import pytest

from reasonforge import sampler
from reasonforge.augment import flip_step
from reasonforge.kinship import KinshipEngine, chain_relation, compose
from reasonforge.relgraph import GraphTable, RelationalGraph, Triple, _attach, grow_graph
from reasonforge.sampler import (NO_WALK, SamplingExhausted, _longest_walk, _walk_from,
                                 sample_chain)
from reasonforge.spatial import SpatialEngine
from reasonforge.taskgen import derive_seed


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
    return grow_graph(SpatialEngine(), 1, random.Random(0))


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


def test_dead_end_backtracks(monkeypatch):
    # edges run i -> i-1 only, so a 3-step walk must start at node 3; every
    # other start dead-ends and the search backtracks instead of giving up
    g = path_graph(4)
    for seed in range(30):
        assert sample_chain(g, 3, seed).walk == [3, 2, 1, 0]
    monkeypatch.setattr(sampler, "BUDGET", 1)
    with pytest.raises(SamplingExhausted):
        sample_chain(g, 3, 0)


def test_fold_keeps_kinship_chains_entailed():
    graphs = [grow_graph(KinshipEngine(), 1, random.Random(s))
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


def answerable_walk_exists(graph, length, heads=None):
    """Exhaustive: some simple walk of `length` steps from one of `heads`
    (default: every node) keeps the fold alive and ends on the engine's
    ground truth for its head and tail.  What completes a prefix depends
    only on its head, its visited nodes, its last node and its fold, so a
    prefix that agrees on all four with one already extended in vain is not
    extended again."""
    outgoing = graph.outgoing
    engine = graph.engine
    fold = compose()
    tried = set()

    def extend(walk, mask, labels, acc):
        if len(labels) == length:
            return chain_relation(labels) == engine.ground_truth(
                walk[0], walk[-1], labels)
        key = (walk[0], mask, walk[-1], acc)
        if key in tried:
            return False
        tried.add(key)
        row = fold.get(acc, {})
        for nb, label in outgoing[walk[-1]]:
            after = label if acc is None else row.get(label)
            if after is None or mask >> nb & 1:
                continue
            walk.append(nb)
            labels.append(label)
            if extend(walk, mask | 1 << nb, labels, after):
                return True
            walk.pop()
            labels.pop()
        return False

    return any(extend([node], 1 << node, [], None)
               for node in sorted(graph.outgoing if heads is None else heads))


def induced(graph, keep):
    sub = RelationalGraph(graph.engine)
    for node in keep:
        sub.add_node(node)
    for (a, b), label in graph.edges.items():
        if a in keep and b in keep:
            sub.add_edge(a, label, b)
    return sub


def test_kinship_search_finds_a_chain_exactly_when_one_exists(monkeypatch):
    # the dead-state memo is exact and the last step keeps only true
    # answers: given budget, the search fails only where no answerable
    # walk exists, and what it returns is answerable.  Ten-node induced
    # subgraphs give both outcomes and walks rare enough that a search must
    # cover most of the graph to find one.  The later seeds search graphs
    # whose dead-head memo the earlier ones filled, and no head in the memo
    # starts an answerable walk.
    monkeypatch.setattr(sampler, "BUDGET", 10**6)
    outcomes = Counter()
    recorded = 0
    for s in range(30):
        full = grow_graph(KinshipEngine(), 1, random.Random(s))
        sub = induced(full, set(random.Random(s).sample(list(full.outgoing), 10)))
        for g, hops in ((full, range(2, 6)), (sub, range(2, 8))):
            for hop in hops:
                exists = answerable_walk_exists(g, hop)
                outcomes[exists] += 1
                for seed in range(8):
                    try:
                        chain = sample_chain(g, hop, seed)
                    except SamplingExhausted:
                        chain = None
                    assert (chain is not None) == exists, (s, hop, seed)
                    if chain is not None:
                        labels = [t.relation for t in chain.steps]
                        assert chain_relation(labels) == g.engine.ground_truth(
                            chain.head, chain.tail, labels) is not None
                dead = g.dead_heads(hop)
                assert not answerable_walk_exists(g, hop, dead), (s, hop)
                recorded += len(dead)
    assert outcomes[True] >= 150 and outcomes[False] >= 50
    assert recorded >= 1000


def outcome(graph, hop, seed):
    try:
        return sample_chain(graph, hop, seed).walk
    except SamplingExhausted:
        return None


@pytest.mark.parametrize("hop", [7, 8, 9, 10])
def test_dead_head_memo_never_changes_a_chain(hop, monkeypatch):
    # each seed gives the same chain, or fails alike, on a graph with an
    # empty memo, with a memo warmed by 40 other seeds, and with one warmed
    # in reverse order; the warm-up also searches the other lengths, whose
    # dead heads must not leak into this one.  The graphs are those gen
    # reuses with graphs_per_hop 3; gen's budget lets every dead head be
    # recorded, and a tight one leaves heads that run out of it unrecorded.
    walks = Counter()
    for budget in (800, 150):
        monkeypatch.setattr(sampler, "BUDGET", budget)
        for index in range(3):
            graph_seed = derive_seed(0, "kinship", "graph", hop, index)

            def fresh():
                return grow_graph(KinshipEngine(), KinshipEngine.growth_iterations,
                                  random.Random(graph_seed))

            seeds = [derive_seed(0, "kinship", hop, index, attempt, "walk")
                     for attempt in range(46)]
            targets, warm = seeds[:6], seeds[6:]
            cold = [outcome(fresh(), hop, seed) for seed in targets]
            walks.update(walk is not None for walk in cold)
            for order, lengths in ((warm, range(7, 11)), (warm[::-1], range(10, 6, -1))):
                graph = fresh()
                for length in lengths:
                    for seed in order if length == hop else order[:10]:
                        outcome(graph, length, seed)
                assert graph.dead_heads(hop)
                assert [outcome(graph, hop, seed)
                        for seed in targets] == cold, (budget, index)
    assert walks[True] >= 18


def head_bound(graph, head):
    """The most nodes an answerable walk from `head` meets after it, by the
    bounds of its first moves."""
    best = _longest_walk(graph, head, {})
    return max((best[first] for first in graph.outgoing[head]), default=NO_WALK)


def test_walk_bound_never_rejects_a_head_with_a_chain():
    # a bound below the walk length means the search from that head, given
    # all the budget it wants and pruning nothing, finds no walk.  The bound
    # is counted on the fold's states, so it holds whether or not
    # composition is exact on the graph; the two-iteration graphs are
    # larger and less regular.
    graphs = ([grow_graph(KinshipEngine(), 1, random.Random(s)) for s in range(30)]
              + [grow_graph(KinshipEngine(), 2, random.Random(s)) for s in range(3)])
    rejected = Counter()
    for g in graphs:
        for head in g.outgoing:
            bound = head_bound(g, head)
            for length in range(2, 11):
                if bound < length:
                    rejected[length] += 1
                    dead = set()
                    assert _walk_from(g, length, head, random.Random(0), 10**9,
                                      {}, None, dead) is None, (head, length)
                    assert dead == {head}
    assert all(rejected[length] for length in range(3, 11))
    assert rejected[10] >= 300


def test_heads_the_bound_rejects_are_recorded(monkeypatch):
    # a budget of one expansion lets the search prove dead only the heads
    # whose first moves the bound all drops, so the memo holds exactly
    # those, and every other head's search runs out of budget
    monkeypatch.setattr(sampler, "BUDGET", 1)
    recorded = 0
    for s in range(5):
        g = grow_graph(KinshipEngine(), 1, random.Random(s))
        for length in (6, 8, 10):
            rejected = {head for head in g.outgoing if head_bound(g, head) < length}
            with pytest.raises(SamplingExhausted):
                sample_chain(g, length, s)
            assert g.dead_heads(length) == rejected
            recorded += len(rejected)
    assert recorded >= 50


class CountingRandom(random.Random):
    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def test_a_head_whose_first_moves_are_all_dropped_is_dead_at_any_budget():
    # the search backs out of its first level, left empty by the bound,
    # before it tests its budget, so even one expansion proves such a head
    # dead, drawing nothing
    recorded = 0
    for s in range(5):
        g = grow_graph(KinshipEngine(), 1, random.Random(s))
        for length in (6, 8, 10):
            for head in g.outgoing:
                if head_bound(g, head) >= length:
                    continue
                rng, dead = CountingRandom(0), set()
                assert _walk_from(g, length, head, rng, 1, {},
                                  _longest_walk(g, head, {}), dead) is None
                assert dead == {head} and rng.draws == 0, (s, length, head)
                recorded += 1
    assert recorded >= 150


def test_every_move_the_bound_drops_holds_no_answerable_walk():
    # exhaustively, on the graphs and hops of the exactness test: below every
    # fold-alive prefix of a walk from a head, a move the search drops (its
    # bound is below the nodes the walk still needs) starts no completion of
    # the prefix into an answerable walk of the hop.  Some dropped moves
    # start fold-alive walks of the hop, which only the bound rules out.
    dropped = Counter()
    for s in range(30):
        full = grow_graph(KinshipEngine(), 1, random.Random(s))
        sub = induced(full, set(random.Random(s).sample(list(full.outgoing), 10)))
        for g, hops in ((full, range(2, 6)), (sub, range(2, 8))):
            fold = g.engine.fold
            for head in sorted(g.outgoing):
                best = _longest_walk(g, head, {})
                truth = {tail: g.engine.derive(head, tail) for tail in g.outgoing}

                def extend(walk, acc):
                    """(the hops of answerable walks through this prefix, the
                    hops of fold-alive ones), dropped moves checked below it"""
                    steps = len(walk) - 1
                    answerable = {steps} if acc == truth[walk[-1]] else set()
                    alive = {steps}
                    if steps == hops[-1]:
                        return answerable, alive
                    for nb, label in g.outgoing[walk[-1]]:
                        after = label if acc is None else fold.get(acc, {}).get(label)
                        if nb in walk or after is None:
                            continue
                        below, reached = extend(walk + [nb], after)
                        for hop in hops:
                            if hop > steps and best[nb, after] < hop + 1 - len(walk):
                                assert hop not in below, (s, head, walk, nb, hop)
                                dropped["moves"] += 1
                                dropped["alive"] += hop in reached
                        answerable |= below
                        alive |= reached
                    return answerable, alive

                extend([head], None)
    assert dropped["moves"] >= 200_000 and dropped["alive"] >= 100_000, dropped


@pytest.mark.parametrize("hop", [7, 8, 9, 10])
def test_walk_bound_never_changes_a_chain(hop, monkeypatch):
    # the bound steers the draw, so it changes which chain a seed gives, but
    # never whether it gives one: on the graphs and seeds of
    # test_dead_head_memo_never_changes_a_chain, each searched in turn on
    # one graph with budget enough for any head, the pruned search finds a
    # chain exactly where a search that prunes nothing does, from the same
    # head, and the two dead-head memos are equal
    monkeypatch.setattr(sampler, "BUDGET", 10**6)
    for index in range(3):
        graph_seed = derive_seed(0, "kinship", "graph", hop, index)
        seeds = [derive_seed(0, "kinship", hop, index, attempt, "walk")
                 for attempt in range(46)]
        bounded = grow_graph(KinshipEngine(), KinshipEngine.growth_iterations,
                             random.Random(graph_seed))
        walks = [outcome(bounded, hop, seed) for seed in seeds]
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "_longest_walk",
                          lambda *args: defaultdict(lambda: float("inf")))
            unbounded = grow_graph(KinshipEngine(), KinshipEngine.growth_iterations,
                                   random.Random(graph_seed))
            unpruned = [outcome(unbounded, hop, seed) for seed in seeds]
        assert [walk and walk[0] for walk in walks] == [
            walk and walk[0] for walk in unpruned], index
        assert any(walks) and walks != unpruned
        assert bounded.dead_heads(hop) == unbounded.dead_heads(hop)


@pytest.fixture(scope="module")
def warm_table():
    """Every graph kinship growth reaches, as one GraphTable serves them
    (seeds 0-2687 reach all 256), each mapped to its shape; chains of hops
    2-10 drawn on them with gen's budget for four seeds each have warmed
    the memos they share."""
    table = GraphTable(KinshipEngine)
    graphs = {table(seed): None for seed in range(2688)}
    assert len(graphs) == 256
    for graph in graphs:
        graphs[graph] = graph.engine.shape()
    for hop in range(2, 11):
        for graph in graphs:
            for seed in range(4):
                outcome(graph, hop, seed)
    return graphs


def test_graphs_of_one_shape_share_one_memo(warm_table):
    # kinship's 256 graphs have 12 shapes, each holding one memo that its
    # graphs share; a shape fixes the rule skeleton (the edges, each label
    # read as its rule), which is what makes the sharing exact.  A graph
    # grown outside a table keeps a memo of its own
    def shares(graph, other):
        return graph.bounds is other.bounds and graph.dead_heads(2) is other.dead_heads(2)

    def skeleton(graph):
        return tuple((key, KinshipEngine.rules[label]) for key, label in graph.edges.items())

    firsts, skeletons = {}, {}
    for graph, shape in warm_table.items():
        assert shares(graph, firsts.setdefault(shape, graph))
        assert skeleton(graph) == skeletons.setdefault(shape, skeleton(graph))
    firsts = list(firsts.values())
    assert len(firsts) == len(set(skeletons.values())) == 12
    assert len({id(g.bounds) for g in firsts}) == 12
    assert len({id(g.dead_heads(2)) for g in firsts}) == 12
    plain = [grow_graph(KinshipEngine(), 1, random.Random(seed)) for seed in range(2)]
    assert plain[0].edges == next(iter(warm_table)).edges
    for graph in plain:
        assert not any(graph.bounds is g.bounds or graph.dead_heads(2) is g.dead_heads(2)
                       for g in firsts)
    assert plain[0].bounds is not plain[1].bounds
    assert plain[0].dead_heads(2) is not plain[1].dead_heads(2)


def with_empty_memo(graph):
    """The graph's nodes, edges and engine under a memo of its own, empty."""
    copy = RelationalGraph(graph.engine)
    copy.edges, copy.outgoing = graph.edges, graph.outgoing
    return copy


def test_a_shared_memo_never_changes_a_chain(warm_table, monkeypatch):
    # with the memo its shape's graphs warmed, each table graph gives the
    # chain, or fails alike, that it gives under an empty memo of its own;
    # a tight budget also fails on heads that the memo skips as dead
    found = Counter()
    for hop in range(2, 11):
        for graph in warm_table:
            for seed, budget in ((4, 800), (5, 30)):
                monkeypatch.setattr(sampler, "BUDGET", budget)
                walk = outcome(graph, hop, seed)
                assert walk == outcome(with_empty_memo(graph), hop, seed)
                found[walk is not None] += 1
    assert found[True] >= 4000 and found[False] >= 150, found


def test_no_head_a_shared_memo_holds_dead_starts_an_answerable_walk(warm_table):
    checked = Counter()
    for graph in warm_table:
        for hop in range(2, 11):
            dead = graph.dead_heads(hop)
            assert not answerable_walk_exists(graph, hop, dead), hop
            checked[hop] += len(dead)
    assert checked[8] >= 150 and checked[9] >= 1000 and checked[10] >= 3000, checked


def test_walk_draw_is_randrange():
    # _walk_from draws its next move with CPython's randrange loop over
    # getrandbits, inlined; a Python whose randrange draws otherwise, and so
    # would walk otherwise, fails here
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 65):
            k = n.bit_length()
            i = ours.getrandbits(k)
            while i >= n:
                i = ours.getrandbits(k)
            assert i == theirs.randrange(n), (seed, n)


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
    starts = {sample_chain(g, 2, s).head for s in range(10 * len(g.outgoing))}
    assert starts == set(g.outgoing)


def test_flip_inverts_by_counterpart_gender():
    # growth stores the child's edge to the father beside the father's
    # edge; a flip reads it, labelled by the child's gender
    for gender, inverse in (("f", "daughter"), ("m", "son")):
        eng = KinshipEngine()
        g = RelationalGraph(eng)
        child = eng.genealogy.new_person(gender)
        _attach(g, child)
        father = eng.genealogy.add_parent(child, "m")
        _attach(g, father)
        assert flip_step(Triple(father, "father", child), g) == Triple(
            child, inverse, father)


def test_config_validation():
    g = spatial_l1()
    with pytest.raises(ValueError):
        sample_chain(g, 0, 0)
