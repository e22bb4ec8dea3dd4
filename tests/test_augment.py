import pytest
from hypothesis import given
from hypothesis import strategies as st

from reasonforge.augment import (NoiseUnavailable, add_edge_noise, flip_edges,
                                 flip_step, permute)
from worlds import kinship_world_from_genealogy

from reasonforge.kinship import KinshipEngine
from reasonforge.oracle import (SpatialWorld, coordinate_relation,
                                genealogy_relation, spatial_world_from_triples)
from reasonforge.relgraph import RelationalGraph, Triple, grow_graph
from reasonforge.sampler import ReasoningChain, sample_chain
from reasonforge.spatial import SpatialEngine
from reasonforge.taskgen import corrupt


def three_step_chain():
    return ReasoningChain(walk=[0, 1, 2, 3], steps=[
        Triple(0, "above", 1), Triple(1, "left", 2), Triple(2, "below", 3)])


def spatial_l1():
    return grow_graph(SpatialEngine(), 1)


# -- permutation ---------------------------------------------------------------

def test_permute_identity_seed():
    chain = three_step_chain()
    assert permute(chain, 5).story_order == [0, 1, 2]  # seed 5 draws identity


def test_permute_pinned_reordering():
    chain = three_step_chain()
    assert permute(chain, 0).story_order == [0, 2, 1]
    assert permute(chain, 7).story_order == [2, 0, 1]


@given(st.integers(0, 10_000))
def test_permute_preserves_triple_multiset(seed):
    chain = three_step_chain()
    aug = permute(chain, seed)
    story = [t for _, t in aug.story_items()]
    assert sorted(story, key=repr) == sorted(chain.steps, key=repr)
    assert aug.chain.walk == chain.walk
    assert aug.chain.hop == chain.hop


# -- edge noise ----------------------------------------------------------------

def test_noise_zero_is_identity():
    g = spatial_l1()
    chain = sample_chain(g, 2, 1)
    aug = add_edge_noise(chain, g, 0, seed=4)
    assert aug.distractors == []
    assert [t for _, t in aug.story_items()] == chain.steps


def test_noise_structure_and_oracle_labels():
    g = spatial_l1()
    world = SpatialWorld(pos=dict(g.engine.pos))
    for seed in range(40):
        chain = sample_chain(g, 2, seed)
        aug = add_edge_noise(chain, g, 2, seed=seed)
        assert len(aug.distractors) == 2
        on_chain = set(chain.walk)
        offs = set()
        for triple, slot in aug.distractors:
            assert triple.subject in on_chain
            assert triple.object not in on_chain
            assert 0 <= slot <= chain.hop
            assert coordinate_relation(world, triple.subject, triple.object) \
                == triple.relation
            offs.add(triple.object)
        assert len(offs) == 2  # distinct off-chain nodes


def test_noise_unavailable():
    engine = SpatialEngine()
    g = RelationalGraph(engine)
    for i, xy in enumerate([(0, 0), (0, 1), (0, 2)]):
        engine.pos[i] = xy
        g.add_node(i)
    g.add_edge(1, "above", 0)
    g.add_edge(2, "above", 1)
    chain = ReasoningChain(walk=[2, 1, 0], steps=[
        Triple(2, "above", 1), Triple(1, "above", 0)])
    with pytest.raises(NoiseUnavailable):
        add_edge_noise(chain, g, 1, seed=0)


def test_noise_interleaves_at_recorded_slots():
    g = spatial_l1()
    chain = sample_chain(g, 3, 2)
    aug = add_edge_noise(chain, g, 2, seed=9)
    items = aug.story_items()
    assert len(items) == 5
    core_positions = [i for i, (kind, _) in enumerate(items) if kind == "core"]
    assert [items[i][1] for i in core_positions] == chain.steps


# -- direction flip -------------------------------------------------------------

def test_flip_zero_is_identity():
    g = spatial_l1()
    chain = sample_chain(g, 2, 0)
    aug = flip_edges(chain, g, 0, seed=1)
    assert aug.chain.steps == chain.steps


def test_flip_kinship_daughter_to_mother():
    eng = KinshipEngine()
    morgan = eng.genealogy.new_person("f")
    frances = eng.genealogy.add_child(morgan, "f")
    g = RelationalGraph(eng)
    g.add_node(morgan)
    g.add_node(frances)
    g.add_edge(frances, "daughter", morgan)
    step = Triple(frances, "daughter", morgan)
    flipped = flip_step(step, g)
    assert flipped == Triple(morgan, "mother", frances)
    assert flip_step(flipped, g) == step  # involution


def test_flip_count_bounds():
    g = spatial_l1()
    chain = sample_chain(g, 2, 0)
    with pytest.raises(ValueError):
        flip_edges(chain, g, 3, seed=0)


def test_flip_preserves_facts():
    g = spatial_l1()
    world = SpatialWorld(pos=dict(g.engine.pos))
    for seed in range(40):
        chain = sample_chain(g, 3, seed)
        aug = flip_edges(chain, g, 2, seed=seed)
        assert aug.chain.walk == chain.walk
        for t in aug.chain.steps:
            assert coordinate_relation(world, t.subject, t.object) == t.relation


# -- answer invariance -----------------------------------------------------------

def test_augmentations_keep_head_tail_answer():
    # the answer is read once from the sampled chain; a reader of any
    # augmented story must still derive it
    g = spatial_l1()
    for seed in range(60):
        chain = sample_chain(g, 3, seed)
        answer = corrupt(chain, g)
        for aug in (permute(chain, seed),
                    add_edge_noise(chain, g, 1, seed),
                    flip_edges(chain, g, 1, seed)):
            triples = aug.core_story_triples() + [t for t, _ in aug.distractors]
            world = spatial_world_from_triples(
                (t.subject, t.relation, t.object) for t in triples)
            assert world.consistent
            assert coordinate_relation(world, chain.head, chain.tail) == answer


def test_kinship_flip_keeps_derivation():
    for seed in range(15):
        eng = KinshipEngine()
        g = grow_graph(eng, 1, seed=seed)
        world = kinship_world_from_genealogy(eng.genealogy)
        chain = sample_chain(g, 2, seed)
        aug = flip_edges(chain, g, 1, seed=seed)
        for t in aug.chain.steps:
            assert genealogy_relation(world, t.subject, t.object) == t.relation
