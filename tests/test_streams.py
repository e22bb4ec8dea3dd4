"""How generation seeds its random streams: a walk's draws and a candidate's
later draws never share a stream, and a head's stream is seeded only when
that head is searched."""

import random
import types

from reasonforge import sampler
from reasonforge.kinship import KinshipEngine
from reasonforge.relgraph import grow_graph
from reasonforge.sampler import SamplingExhausted, _longest_walk, _walk_from, sample_chain
from reasonforge.taskgen import DatasetSpec, _graph_seed, derive_seed, generate_candidate

SPEC = DatasetSpec.make("kinship", {10: 1}, seed=0, graphs_per_hop=1)


def hop10_graph():
    return grow_graph(KinshipEngine(), KinshipEngine.growth_iterations,
                      random.Random(_graph_seed(SPEC, 10, 0, 0)))


def head_bound(graph, head):
    best = _longest_walk(graph, head, {})
    return max(best[first] for first in graph.outgoing[head])


def warm_hop10_graph():
    # a pruned search of every head with gen's budget fills the
    # graph's hop-10 dead-head memo with the heads it proves dead
    graph = hop10_graph()
    for head in sorted(graph.outgoing):
        _walk_from(graph, 10, head, random.Random(head), sampler.BUDGET, {},
                   _longest_walk(graph, head, {}), graph.dead_heads(10))
    assert graph.dead_heads(10)
    return graph


def test_candidate_draws_do_not_depend_on_the_memo():
    # a first head that only a search proves dead draws its walk's stream
    # on a fresh graph and nothing on a warm one, so a candidate whose
    # later draws shared the walk's stream would differ between the two
    warm = warm_hop10_graph()
    nodes = sorted(warm.outgoing)
    searched_dead_first = 0
    for attempt in range(12):
        walk_seed = derive_seed(SPEC.seed, SPEC.task, 10, 0, attempt, "walk")
        first = nodes[random.Random(walk_seed).randrange(len(nodes))]
        if first in warm.dead_heads(10) and head_bound(warm, first) >= 10:
            searched_dead_first += 1
        cold = generate_candidate(SPEC, 10, 0, attempt, lambda seed: hop10_graph())
        assert cold is not None
        assert generate_candidate(SPEC, 10, 0, attempt, lambda seed: warm) == cold
    assert searched_dead_first >= 2


def test_a_skipped_head_seeds_no_stream(monkeypatch):
    # on a fresh graph the searches record dead heads, among them heads
    # whose first moves the bound all drops, and later calls skip them
    graph = hop10_graph()
    made, yielded, searched, bounded = [], [], [], []

    def counting_random(seed):
        made.append(seed)
        return random.Random(seed)

    def heads(nodes, seed, real=sampler._heads):
        for head, stream in real(nodes, seed):
            yielded.append(head)
            yield head, stream

    def walk_from(graph, length, head, *args, real=sampler._walk_from):
        searched.append(head)
        return real(graph, length, head, *args)

    def longest_walk(graph, head, moves, real=sampler._longest_walk):
        best = real(graph, head, moves)
        bounded.append(max(best[first] for first in graph.outgoing[head]) < 10)
        return best

    monkeypatch.setattr(sampler, "random", types.SimpleNamespace(Random=counting_random))
    monkeypatch.setattr(sampler, "_heads", heads)
    monkeypatch.setattr(sampler, "_walk_from", walk_from)
    monkeypatch.setattr(sampler, "_longest_walk", longest_walk)
    memo_skipped = 0
    for seed in range(100, 130):
        del made[:], yielded[:], searched[:]
        dead = set(graph.dead_heads(10))
        try:
            sample_chain(graph, 10, seed)
        except SamplingExhausted:
            pass
        memo_skipped += len(dead.intersection(yielded))
        # the first head's stream, the order of the others if any was
        # reached, and one stream for each later head that was searched
        assert made == [seed] + [f"{seed} heads"] * (len(yielded) > 1) + [
            f"{seed} head {head}" for head in searched if head != yielded[0]]
    assert memo_skipped and any(bounded)
