import hashlib
import json
import random

import pytest

from reasonforge import taskgen
from reasonforge.cli import main
from reasonforge.kinship import KinshipEngine
from reasonforge.oracle import VERIFIERS
from reasonforge.relgraph import RelationalGraph, Triple, _attach, grow_graph
from reasonforge.sampler import ReasoningChain
from reasonforge.spatial import SpatialEngine
from reasonforge.taskgen import (JSONL_FIELDS, DatasetSpec, Example,
                                 GenerationExhausted, build_dataset, corrupt,
                                 entailed_relation, generate_candidate,
                                 query_endpoints, read_jsonl, verify_dataset,
                                 write_jsonl)
from reasonforge.verbalizer import name_gender_lookup

SMALL = {h: 12 for h in (2, 3, 4)}


@pytest.fixture(scope="module")
def small_kinship():
    return build_dataset(DatasetSpec.make("kinship", SMALL, seed=5))


@pytest.fixture(scope="module")
def small_spatial():
    return build_dataset(DatasetSpec.make("spatial", SMALL, seed=5))


# -- corrupt ---------------------------------------------------------------------

def test_corrupt_one_hop_degenerate():
    eng = KinshipEngine()
    root = eng.genealogy.new_person("f")
    father = eng.genealogy.add_parent(root, "m")
    g = RelationalGraph(eng)
    g.add_node(root)
    g.add_node(father)
    g.add_edge(father, "father", root)
    chain = ReasoningChain(walk=[father, root], steps=[Triple(father, "father", root)])
    assert corrupt(chain, g) == "father"


def test_corrupt_spatial_uses_offset_sum():
    g = grow_graph(SpatialEngine(), 1)
    at = {xy: node for node, xy in g.engine.pos.items()}
    # walk right then up: (0,0) <- (1,0) <- (1,1) read head-first
    chain = ReasoningChain(
        walk=[at[(1, 1)], at[(1, 0)], at[(0, 0)]],
        steps=[Triple(at[(1, 1)], "above", at[(1, 0)]),
               Triple(at[(1, 0)], "right", at[(0, 0)])])
    assert corrupt(chain, g) == "upper-right"


def test_corrupt_kinship_daughter_sister_niece():
    eng = KinshipEngine()
    g = grow_graph(eng, 0, seed=0)
    root = 0
    assert eng.genealogy.gender[root] == "f"
    sister, created = eng.realize(root, "sister", random.Random(0))
    for node in created:
        _attach(g, node)
    assert g.edges.get((sister, root)) == "sister"
    daughter = eng.genealogy.add_child(sister, "f")
    _attach(g, daughter)
    chain = ReasoningChain(
        walk=[daughter, sister, root],
        steps=[Triple(daughter, "daughter", sister), Triple(sister, "sister", root)])
    assert corrupt(chain, g) == "niece"
    assert entailed_relation(chain, g) == "niece"


# -- build_dataset ----------------------------------------------------------------

def test_deep_kinship_walks_agree_with_their_answer(monkeypatch):
    # the sampler checks each kinship answer in its search, so the
    # corrupt/entailed_relation guard in generate_candidate never fires
    seen = []

    def recording_corrupt(chain, graph):
        answer = corrupt(chain, graph)
        seen.append((answer, entailed_relation(chain, graph)))
        return answer

    monkeypatch.setattr(taskgen, "corrupt", recording_corrupt)
    spec = DatasetSpec.make("kinship", {9: 1, 10: 1}, seed=0)
    for hop in (9, 10):
        for attempt in range(150):
            generate_candidate(spec, hop, attempt % 5, attempt)
    assert len(seen) >= 100
    assert all(answer is not None and answer == entailed for answer, entailed in seen)


def test_counts_met_exactly(small_kinship, small_spatial):
    for dataset in (small_kinship, small_spatial):
        per_hop = {}
        for e in dataset:
            per_hop[e.hop] = per_hop.get(e.hop, 0) + 1
        assert per_hop == SMALL


def test_empty_spec_gives_empty_dataset():
    assert build_dataset(DatasetSpec.make("spatial", {h: 0 for h in range(2, 11)},
                                          seed=1)) == []


def test_ids_and_seed_lineage(small_kinship):
    for i, e in enumerate(x for x in small_kinship if x.hop == 2):
        assert e.id == f"kinship-2-{i}"
        assert e.seed == [5, i]


def test_hop_equals_core_triples(small_kinship, small_spatial):
    for e in small_kinship + small_spatial:
        assert e.hop == len(e.triples) == len(e.gold_triples)
        assert e.answer in {t for t in __vocab(e.task)}


def __vocab(task):
    if task == "kinship":
        from reasonforge.kinship import KINSHIP_LABELS as labels
    else:
        from reasonforge.spatial import SPATIAL_LABELS as labels
    return labels


def test_gold_triples_are_story_triples_in_reasoning_order(small_spatial):
    for e in small_spatial:
        assert sorted(map(tuple, e.gold_triples)) == sorted(map(tuple, e.triples))
        if e.augmentation["kind"] == "permutation":
            order = e.augmentation["order"]
            assert [e.gold_triples[i] for i in order] == e.triples


def test_determinism_byte_identical(tmp_path, small_kinship):
    again = build_dataset(DatasetSpec.make("kinship", SMALL, seed=5))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(small_kinship, a)
    write_jsonl(again, b)
    assert a.read_bytes() == b.read_bytes()


# Content hashes of two small fixed specs: the dataset, then its prompts in
# each RENDERS style and shot count, shots drawn from the dataset itself.
# A change that is meant to keep the output bytes must keep these; one that
# changes them on purpose updates them and says why.
RENDERS = (("std-p", 0), ("eta-p", 5), ("std-p", 5), ("eta-p", 0))
PINNED = {
    "kinship": ({2: 10, 6: 10, 10: 3}, "bc7bfa2a0b5cb33a174397b308e88ced",
                "e271f1d300f4ab52970c1e0697cda745", "23df4ef460a430f6f9a801bfa20b6059",
                "2e06205ce8842afbd692dcd140b8364d", "cebba658f6ba49e515ed5e4266d1323b"),
    "spatial": ({2: 10, 10: 10}, "bdbde84454cffa7d62d473244249aeef",
                "71f0865af94712e8a5afdfc1d1250711", "4ff6739479908c00936459bf4040fbd2",
                "422092a9117c6345b98fe66e6de87bc4", "2c7dedf50da34975f1664ae584004ceb"),
}


@pytest.mark.parametrize("task", sorted(PINNED))
def test_pinned_content_hash(tmp_path, task):
    counts, *digests = PINNED[task]
    data = tmp_path / "d.jsonl"
    write_jsonl(build_dataset(DatasetSpec.make(task, counts, seed=0)), data)
    outputs = [data]
    for style, shots in RENDERS:
        outputs.append(tmp_path / f"{style}-{shots}.jsonl")
        assert main(["render", "--dataset", str(data), "--seed", "0",
                     "-o", str(outputs[-1]), "--style", style, "-k", str(shots),
                     "--shots-file", str(data)]) == 0
    assert [hashlib.blake2b(p.read_bytes(), digest_size=16).hexdigest()
            for p in outputs] == digests


def test_different_seed_changes_data():
    other = build_dataset(DatasetSpec.make("kinship", {2: 5}, seed=6))
    base = build_dataset(DatasetSpec.make("kinship", {2: 5}, seed=7))
    assert [e.story for e in other] != [e.story for e in base]


def test_jsonl_field_order(tmp_path, small_spatial):
    path = tmp_path / "d.jsonl"
    write_jsonl(small_spatial, path)
    first = path.read_text().splitlines()[0]
    assert list(json.loads(first)) == list(JSONL_FIELDS)
    assert read_jsonl(path) == small_spatial


def test_no_leakage_in_stories(small_kinship, small_spatial):
    from reasonforge.verbalizer import TemplatePool
    for dataset, task in ((small_kinship, "kinship"), (small_spatial, "spatial")):
        pool = TemplatePool.for_task(task)
        for e in dataset:
            head, tail = query_endpoints(e.query, task)
            recovered = pool.extract(e.story)
            assert (head, e.answer, tail) not in recovered
            assert sorted(recovered) == sorted(
                tuple(t) for t in e.triples + e.distractors)


def test_distractors_never_join_chain_nodes(small_spatial):
    for e in small_spatial:
        chain_nodes = {t[0] for t in e.gold_triples} | {t[2] for t in e.gold_triples}
        for s, _, o in e.distractors:
            assert s in chain_nodes
            assert o not in chain_nodes


def test_verify_dataset_clean_and_faulty(small_kinship):
    report = verify_dataset(small_kinship)
    assert report.mismatch_count == 0
    assert report.total == len(small_kinship)
    assert report.hop_histogram == SMALL

    broken = [Example.from_dict(e.to_dict()) for e in small_kinship]
    broken[0].answer = "uncle" if broken[0].answer != "uncle" else "aunt"
    faulty = verify_dataset(broken)
    assert faulty.mismatch_count == 1
    assert faulty.mismatches[0]["id"] == broken[0].id


def test_verify_dataset_reports_inconsistent_triples(small_kinship, small_spatial):
    # each task's verifier reports story triples that contradict each other
    kinship, spatial = (Example.from_dict(e.to_dict())
                        for e in (small_kinship[0], small_spatial[0]))
    head, tail = kinship.endpoints
    parent = "mother" if name_gender_lookup()[head] == "f" else "father"
    kinship.triples = kinship.triples + [[head, parent, tail],
                                         [head, "grand" + parent, tail]]
    head, tail = spatial.endpoints
    spatial.triples = spatial.triples + [[head, "above", tail],
                                         [head, "below", tail]]
    report = verify_dataset([kinship, spatial])
    assert [m["id"] for m in report.mismatches] == [kinship.id, spatial.id]
    assert report.mismatches[0]["derived"].startswith("<inconsistent: ")
    assert report.mismatches[1]["derived"] == "<inconsistent placement>"
    assert set(VERIFIERS) == set(taskgen.ENGINES)


def test_verify_empty():
    report = verify_dataset([])
    assert report.total == 0
    assert report.mismatch_count == 0


def test_generation_exhausted_names_hop():
    # a 25-hop walk cannot exist in the 25-node spatial grid
    spec = DatasetSpec.make("spatial", {25: 1}, seed=0)
    with pytest.raises(GenerationExhausted) as err:
        build_dataset(spec)
    assert err.value.hop == 25


def test_diversity_within_bucket():
    dataset = build_dataset(DatasetSpec.make("kinship", {6: 120}, seed=9))
    keys = set()
    for e in dataset:
        key = (tuple(t[1] for t in e.gold_triples), e.answer,
               json.dumps(e.augmentation, sort_keys=True))
        assert key not in keys
        keys.add(key)


def test_parallel_equals_sequential():
    spec = DatasetSpec.make("spatial", {h: 25 for h in (2, 5, 8)}, seed=4)
    assert build_dataset(spec, workers=4) == build_dataset(spec, workers=1)


def test_graphs_per_hop_reuse():
    spec = DatasetSpec.make("kinship", {3: 10}, seed=2, graphs_per_hop=2)
    dataset = build_dataset(spec)
    assert len(dataset) == 10
    assert verify_dataset(dataset).mismatch_count == 0


def test_query_endpoints_roundtrip(small_kinship, small_spatial):
    for e in small_kinship + small_spatial:
        head, tail = query_endpoints(e.query, e.task)
        assert e.gold_triples[0][0] in (head, e.gold_triples[0][0])
        assert head != tail
