import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reasonforge.augment import (AUGMENTATIONS, NoiseUnavailable, add_edge_noise,
                                 flip_edges, flip_step, permute)
from reasonforge.cli import main
from worlds import kinship_world_from_genealogy

from reasonforge.kinship import KinshipEngine
from reasonforge.oracle import (SpatialWorld, coordinate_relation,
                                genealogy_relation, spatial_world_from_triples)
from reasonforge.relgraph import RelationalGraph, Triple, _attach, grow_graph
from reasonforge.sampler import ReasoningChain, sample_chain
from reasonforge.spatial import SpatialEngine
from reasonforge.taskgen import DatasetSpec, corrupt, read_jsonl


def three_step_chain():
    return ReasoningChain(walk=[0, 1, 2, 3], steps=[
        Triple(0, "above", 1), Triple(1, "left", 2), Triple(2, "below", 3)])


def spatial_l1():
    return grow_graph(SpatialEngine(), 1, random.Random(0))


# -- permutation ---------------------------------------------------------------

def test_permute_identity_seed():
    chain = three_step_chain()
    assert permute(chain, random.Random(5)).story_order == [0, 1, 2]  # seed 5 draws identity


def test_permute_pinned_reordering():
    chain = three_step_chain()
    assert permute(chain, random.Random(0)).story_order == [0, 2, 1]
    assert permute(chain, random.Random(7)).story_order == [2, 0, 1]


@given(st.integers(0, 10_000))
def test_permute_preserves_triple_multiset(seed):
    chain = three_step_chain()
    aug = permute(chain, random.Random(seed))
    story = aug.story_items()
    assert sorted(story, key=repr) == sorted(chain.steps, key=repr)
    assert aug.chain.walk == chain.walk
    assert aug.chain.hop == chain.hop


# -- edge noise ----------------------------------------------------------------

def test_noise_zero_is_identity():
    g = spatial_l1()
    chain = sample_chain(g, 2, 1)
    aug = add_edge_noise(chain, g, 0, random.Random(4))
    assert aug.distractors == []
    assert aug.story_items() == chain.steps


def test_noise_structure_and_oracle_labels():
    g = spatial_l1()
    world = SpatialWorld(pos=dict(g.engine.pos))
    for seed in range(40):
        chain = sample_chain(g, 2, seed)
        aug = add_edge_noise(chain, g, 2, random.Random(seed))
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
        add_edge_noise(chain, g, 1, random.Random(0))


def test_noise_interleaves_at_recorded_slots():
    g = spatial_l1()
    chain = sample_chain(g, 3, 2)
    aug = add_edge_noise(chain, g, 2, random.Random(9))
    items = aug.story_items()
    assert len(items) == 5
    noise = {triple for triple, _ in aug.distractors}
    assert [triple for triple in items if triple not in noise] == chain.steps


# -- direction flip -------------------------------------------------------------

def test_flip_zero_is_identity():
    g = spatial_l1()
    chain = sample_chain(g, 2, 0)
    aug = flip_edges(chain, g, 0, random.Random(1))
    assert aug.chain.steps == chain.steps


def test_flip_kinship_daughter_to_mother():
    # attached as growth attaches them, so both directions are stored
    eng = KinshipEngine()
    g = RelationalGraph(eng)
    morgan = eng.genealogy.new_person("f")
    _attach(g, morgan)
    frances = eng.genealogy.add_child(morgan, "f")
    _attach(g, frances)
    step = Triple(frances, "daughter", morgan)
    flipped = flip_step(step, g)
    assert flipped == Triple(morgan, "mother", frances)
    assert flip_step(flipped, g) == step  # involution


def test_flip_count_bounds():
    g = spatial_l1()
    chain = sample_chain(g, 2, 0)
    with pytest.raises(ValueError):
        flip_edges(chain, g, 3, random.Random(0))


def test_flip_preserves_facts():
    g = spatial_l1()
    world = SpatialWorld(pos=dict(g.engine.pos))
    for seed in range(40):
        chain = sample_chain(g, 3, seed)
        aug = flip_edges(chain, g, 2, random.Random(seed))
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
        for aug in (permute(chain, random.Random(seed)),
                    add_edge_noise(chain, g, 1, random.Random(seed)),
                    flip_edges(chain, g, 1, random.Random(seed))):
            triples = aug.core_story_triples() + [t for t, _ in aug.distractors]
            world = spatial_world_from_triples(
                (t.subject, t.relation, t.object) for t in triples)
            assert world.consistent
            assert coordinate_relation(world, chain.head, chain.tail) == answer


def test_kinship_flip_keeps_derivation():
    for seed in range(15):
        eng = KinshipEngine()
        g = grow_graph(eng, 1, random.Random(seed))
        world = kinship_world_from_genealogy(eng.genealogy)
        chain = sample_chain(g, 2, seed)
        aug = flip_edges(chain, g, 1, random.Random(seed))
        for t in aug.chain.steps:
            assert genealogy_relation(world, t.subject, t.object) == t.relation


# -- the table of kinds ---------------------------------------------------------

RECORD_KIND = {"none": "none", "permute": "permutation", "noise": "edge-noise",
               "flip": "direction-flip"}
ZERO_RECORD = {"noise": {"kind": "edge-noise", "k": 0, "labels": [], "slots": []},
               "flip": {"kind": "direction-flip", "count": 0, "positions": []}}


@pytest.mark.parametrize("kind", sorted(AUGMENTATIONS))
def test_each_kind_of_the_table(tmp_path, capsys, kind):
    def gen(aug):
        out = tmp_path / f"{aug}.jsonl"
        status = main(["gen", "--task", "clutrr", "--counts", "2:3=6", "--seed", "2",
                       "--aug", aug, "-o", str(out)])
        return status, list(read_jsonl(out)) if status == 0 else None

    takes_n, _ = AUGMENTATIONS[kind]
    assert sorted(ZERO_RECORD) == sorted(k for k, (counted, _) in AUGMENTATIONS.items()
                                         if counted)
    status, alone = gen(kind)
    assert status == 0
    assert {e.augmentation["kind"] for e in alone} == {RECORD_KIND[kind]}
    # a weight of 0 is never drawn, whatever n
    _, weighted = gen(f"{kind}{':2' if takes_n else ''}=0,permute")
    assert {e.augmentation["kind"] for e in weighted} == {"permutation"}
    status, zero = gen(f"{kind}:0")
    if not takes_n:
        assert status == 2 and f"--aug part '{kind}:0' is not" in capsys.readouterr().err
    else:
        # a count of 0 records the kind and changes nothing else of the example
        _, plain = gen("none")
        assert [e.augmentation for e in zero] == [ZERO_RECORD[kind]] * len(plain)
        assert ([{**e.to_dict(), "augmentation": None} for e in zero]
                == [{**e.to_dict(), "augmentation": None} for e in plain])
        _, three = gen(f"{kind}:3")
        assert {e.augmentation["kind"] for e in three} == {RECORD_KIND[kind]}
        if kind == "flip":  # a flip count is clamped to the hop
            assert [e.augmentation["count"] for e in three] == [min(3, e.hop) for e in three]

    n = 2 if takes_n else 1
    spec = DatasetSpec.make("kinship", {2: 1}, augmentation_mix=((kind, n, 0.5),))
    assert hash(spec) == hash(DatasetSpec.make("kinship", {2: 1},
                                               augmentation_mix=((kind, n, 0.5),)))
    # a kind that takes no count holds n = 1, so no two specs of one dataset
    # differ only in an n that nothing reads
    for n in () if takes_n else (0, 2):
        with pytest.raises(ValueError, match=f"{kind} takes no n, so n must be 1, got {n}"):
            DatasetSpec.make("kinship", {2: 1}, augmentation_mix=((kind, n, 1.0),))
    for n in (1.5, True):
        with pytest.raises(ValueError, match=f"{kind} n must be an integer >= 0, got {n}"):
            DatasetSpec.make("kinship", {2: 1}, augmentation_mix=((kind, n, 1.0),))
    for name in {RECORD_KIND[kind], kind.upper()} - {kind}:
        with pytest.raises(ValueError, match=f"unknown augmentation kind '{name}'"):
            DatasetSpec.make("kinship", {2: 1}, augmentation_mix=((name, 1, 1.0),))
    # the mix is a tuple of (kind, n, weight) tuples: no list, no dict entry
    for mix in ([(kind, 1, 1.0)], ({"kind": RECORD_KIND[kind], "weight": 1},)):
        with pytest.raises(ValueError, match="tuple of \\(kind, n, weight\\) tuples"):
            DatasetSpec.make("kinship", {2: 1}, augmentation_mix=mix)
