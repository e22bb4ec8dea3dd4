import dataclasses
import gc
import hashlib
import json
import random
import weakref

import pytest

from reasonforge import relgraph, sampler, taskgen
from reasonforge.cli import main
from reasonforge.kinship import KinshipEngine
from reasonforge.oracle import VERIFIERS
from reasonforge.promptkit import render_target
from reasonforge.relgraph import (GraphTable, RelationalGraph, Triple, _attach,
                                  grow_graph)
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
    return list(build_dataset(DatasetSpec.make("kinship", SMALL, seed=5)))


@pytest.fixture(scope="module")
def small_spatial():
    return list(build_dataset(DatasetSpec.make("spatial", SMALL, seed=5)))


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
    g = grow_graph(SpatialEngine(), 1, random.Random(0))
    at = {xy: node for node, xy in g.engine.pos.items()}
    # walk right then up: (0,0) <- (1,0) <- (1,1) read head-first
    chain = ReasoningChain(
        walk=[at[(1, 1)], at[(1, 0)], at[(0, 0)]],
        steps=[Triple(at[(1, 1)], "above", at[(1, 0)]),
               Triple(at[(1, 0)], "right", at[(0, 0)])])
    assert corrupt(chain, g) == "upper-right"


def test_corrupt_kinship_daughter_sister_niece():
    eng = KinshipEngine()
    g = grow_graph(eng, 0, random.Random(0))
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
        graphs = GraphTable(KinshipEngine)
        for attempt in range(150):
            generate_candidate(spec, hop, attempt % 5, attempt, graphs)
    assert len(seen) >= 100
    assert all(answer is not None and answer == entailed for answer, entailed in seen)


def test_counts_met_exactly(small_kinship, small_spatial):
    for dataset in (small_kinship, small_spatial):
        per_hop = {}
        for e in dataset:
            per_hop[e.hop] = per_hop.get(e.hop, 0) + 1
        assert per_hop == SMALL


def test_empty_spec_gives_empty_dataset():
    assert list(build_dataset(DatasetSpec.make(
        "spatial", {h: 0 for h in range(2, 11)}, seed=1))) == []


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
    again = list(build_dataset(DatasetSpec.make("kinship", SMALL, seed=5)))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(small_kinship, a)
    write_jsonl(again, b)
    assert a.read_bytes() == b.read_bytes()


# Content hashes of small fixed specs: the dataset, then its prompts in
# each RENDERS style and shot count, shots drawn from the dataset itself.
# A change that is meant to keep the output bytes must keep these; one that
# changes them on purpose updates them and says why.  The hop-10 kinship
# spec pins the deepest walks, where the walk bound's pruning drops the
# most moves.
RENDERS = (("std-p", 0), ("eta-p", 5), ("std-p", 5), ("eta-p", 0))
PINNED = {
    "kinship": ("kinship", {2: 10, 6: 10, 10: 3}, "88a498d6d0d6a9a22e869412e5dc11b2",
                "1dfa83a0d6850d3024fc8776d03936f1", "dd127ad9493447ac6a7e5796c028a7b5",
                "58ed5ee54bb208123f7b994080a5d0fa", "4497a4fd5a4cbbe6d2c088b3f8486073"),
    "kinship-hop10": ("kinship", {10: 10}, "01a9ee77414957d3287645b46320c8d0",
                      "a0d4c0a4980e9f6b00a9f392741def7c", "aaa7d78fa7b928d17ad847fc02ca66a7",
                      "749b1f0e24e0a1098ece70dc91721bb5", "1087374012ef94887dab63274c479158"),
    "spatial": ("spatial", {2: 10, 10: 10}, "68885fc4f864575405cebe3d6143db32",
                "2d1ce2d4c2bea2322dda3f7ade757cba", "86d5b9ac0cb8e242cb72e5892628808c",
                "35600c2be60fda7ddcf79b6ad3f6219d", "cb8bda9955c15a3775575106d5939d02"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_content_hash(tmp_path, name):
    task, counts, *digests = PINNED[name]
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


# Content hashes of `verify` and `stats` stdout on each PINNED dataset,
# whose own bytes test_pinned_content_hash pins: the read path's output.
READ_PINNED = {
    "kinship": ("8372b46f2f2d0308849b5917c0f6057a", "4f43d03fb6051f0f29718817a5a6fb1c"),
    "kinship-hop10": ("20d8f0c7d5a0f83a814094888436c80c", "f4cd0ba97dc8dc4ef7cf019a6ee1b065"),
    "spatial": ("81686e928acab8d8709180c58a5497f0", "f2bebf9a523f1f1b4a79539478f2eec4"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_verify_and_stats_output(tmp_path, capsys, name):
    task, counts, *_ = PINNED[name]
    data = tmp_path / "d.jsonl"
    write_jsonl(build_dataset(DatasetSpec.make(task, counts, seed=0)), data)
    digests = []
    for command in ("verify", "stats"):
        assert main([command, "--dataset", str(data)]) == 0
        out = capsys.readouterr().out
        digests.append(hashlib.blake2b(out.encode(), digest_size=16).hexdigest())
    assert tuple(digests) == READ_PINNED[name]


# Content hashes of the dataset and of stdout (its output path read as
# "OUT") of `gen --seed 0` with each option the PINNED specs leave at its
# default: every --aug kind alone, --graphs-per-hop and a worker pool.
GEN_PINNED = {
    "aug-none": (["--task", "clutrr", "--counts", "2=6,6=4", "--aug", "none"],
                 "1cfd0024d6dc21220ed89374d03b651a", "0d4ced9da7f50d5fda1860ecad5b145c"),
    "aug-permute": (["--task", "clutrr", "--counts", "2=6,6=4", "--aug", "permute"],
                    "cb0baeee3bcfcd4a43196ff8bb9ceb16", "0d4ced9da7f50d5fda1860ecad5b145c"),
    "aug-noise2": (["--task", "clutrr", "--counts", "2=6,6=4", "--aug", "noise:2"],
                   "8e1aa94d9f2e80a7bfdd87b8eed0f26c", "0d4ced9da7f50d5fda1860ecad5b145c"),
    "aug-flip2": (["--task", "stepgame", "--counts", "2=6,6=4", "--aug", "flip:2"],
                  "a48fec8f2b78fdb33698558df4fb3453", "0d4ced9da7f50d5fda1860ecad5b145c"),
    "graphs-per-hop3": (["--task", "clutrr", "--counts", "3=8,9=4", "--graphs-per-hop", "3"],
                        "76b73ae474c84823ccc82f9b9265710e", "c52768edbda813c57b4740aaaa268bc8"),
    "workers2": (["--task", "clutrr", "--counts", "2=6,5=4,8=3,11=0", "--workers", "2"],
                 "73ad10a774abbcaf85b01b14eb5aca81", "22ff46ac071257cd8d31df55d16afd29"),
}


@pytest.mark.parametrize("name", sorted(GEN_PINNED))
def test_pinned_gen_option(tmp_path, capsys, name):
    argv, *digests = GEN_PINNED[name]
    data = tmp_path / "d.jsonl"
    assert main(["gen", "--seed", "0", *argv, "-o", str(data)]) == 0
    out = capsys.readouterr().out.replace(str(data), "OUT")
    assert [hashlib.blake2b(data.read_bytes(), digest_size=16).hexdigest(),
            hashlib.blake2b(out.encode(), digest_size=16).hexdigest()] == digests


def score_corpus(examples, style):
    """{id, response} records to score against `examples`, by position i:
    the gold target in `style` (i % 5 == 0), the same target naming a wrong
    label (1), the gold target with trailing chatter naming a wrong label, as
    the benchmark plants it (2), a line that names no label (3), and the
    eta-p target with its first two triples swapped (4)."""
    rng = random.Random(0)
    records = []
    for i, e in enumerate(examples):
        other = rng.choice([label for label in taskgen.ENGINES[e.task].labels
                            if label != e.answer])
        target = render_target(e, style)
        if i % 5 == 1:
            response = render_target(dataclasses.replace(e, answer=other), style)
        elif i % 5 == 2:
            mention = f"the {other}" if e.task == "kinship" else {
                "above": "above it", "below": "below it", "overlaps": "overlapping it",
            }.get(other, f"to the {other} of it")
            response = f"{target.rstrip('.')}, not {mention}."
        elif i % 5 == 3:
            response = "I do not know."
        elif i % 5 == 4:
            first, second, *rest = e.gold_triples
            response = render_target(
                dataclasses.replace(e, gold_triples=[second, first, *rest]), "eta-p")
        else:
            response = target
        records.append({"id": e.id, "response": response})
    return records


# Content hashes of `score`'s JSON report and of its text report on stdout,
# under std-p then eta-p, for score_corpus on each PINNED dataset.
SCORE_PINNED = {
    "kinship": ("7ec7cff977540b16fb70ae157cb71683", "439baa97240f6b583ba2b744b982c9ef",
                "1fdb1733575255f1f2ec872c22d2ba19", "641ffdba253cc911a72176d9b9d11835"),
    "kinship-hop10": ("45363968b018f1468440fff2b7b9c513", "92049734ca5a14734a83813b79a15930",
                      "89e4c72d342047b13addfcfa5499a631", "fe04f8037ea5a92bd82ce1ef3b9b03cb"),
    "spatial": ("9b06ff9b60e296d159d428549c5eff60", "c5b269ed98a915a7ddebd7176596bade",
                "d90c01ea30434d2652df1495ec64763c", "7e1e7ca914c574c2a63e0ac85b8f43d7"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_score_output(tmp_path, capsys, name):
    task, counts, *_ = PINNED[name]
    examples = list(build_dataset(DatasetSpec.make(task, counts, seed=0)))
    data, report = tmp_path / "d.jsonl", tmp_path / "report.json"
    write_jsonl(examples, data)
    digests = []
    for style in ("std-p", "eta-p"):
        predictions = tmp_path / f"{style}.jsonl"
        predictions.write_text("".join(json.dumps(record) + "\n"
                                       for record in score_corpus(examples, style)))
        assert main(["score", "--predictions", str(predictions), "--gold", str(data),
                     "--style", style, "--report", str(report)]) == 0
        text, _, tail = capsys.readouterr().out.rpartition("report written to ")
        assert tail == f"{report}\n"
        summary = json.loads(report.read_text())
        # every kind of response is in the corpus and counted apart
        assert 0 < summary["correct"] < summary["total"] == len(examples)
        assert summary["unparseable"] == len(examples[3::5])
        assert summary["triples_exact"] < summary["total"]
        digests += [hashlib.blake2b(report.read_bytes(), digest_size=16).hexdigest(),
                    hashlib.blake2b(text.encode(), digest_size=16).hexdigest()]
    assert tuple(digests) == SCORE_PINNED[name]


def test_different_seed_changes_data():
    other = list(build_dataset(DatasetSpec.make("kinship", {2: 5}, seed=6)))
    base = list(build_dataset(DatasetSpec.make("kinship", {2: 5}, seed=7)))
    assert [e.story for e in other] != [e.story for e in base]


def test_jsonl_field_order(tmp_path, small_spatial):
    path = tmp_path / "d.jsonl"
    write_jsonl(small_spatial, path)
    first = path.read_text().splitlines()[0]
    assert list(json.loads(first)) == list(JSONL_FIELDS)
    assert list(read_jsonl(path)) == small_spatial


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
        list(build_dataset(spec))
    assert err.value.hop == 25


def test_diversity_within_bucket():
    dataset = list(build_dataset(DatasetSpec.make("kinship", {6: 120}, seed=9)))
    keys = set()
    for e in dataset:
        key = (tuple(t[1] for t in e.gold_triples), e.answer,
               json.dumps(e.augmentation, sort_keys=True))
        assert key not in keys
        keys.add(key)


def test_parallel_equals_sequential():
    spec = DatasetSpec.make("spatial", {h: 25 for h in (2, 5, 8)}, seed=4)
    assert list(build_dataset(spec, workers=4)) == list(build_dataset(spec, workers=1))


def test_graphs_per_hop_reuse():
    spec = DatasetSpec.make("kinship", {3: 10}, seed=2, graphs_per_hop=2)
    dataset = list(build_dataset(spec))
    assert len(dataset) == 10
    assert verify_dataset(dataset).mismatch_count == 0


def tracking_growth(monkeypatch):
    """Weak references to every graph a relgraph.GraphTable builds."""
    grown = []
    build = GraphTable._grow

    def tracking_build(table, seed):
        graph = build(table, seed)
        grown.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(relgraph.GraphTable, "_grow", tracking_build)
    return grown


def test_reused_graphs_give_the_same_bytes_whatever_their_memo(monkeypatch):
    # one table shared by two builds: the first fills its graphs' dead-head
    # memos and the second starts from them and grows no graph, while a cold
    # build and spawned workers start from empty memos
    spec = DatasetSpec.make("kinship", {9: 8, 10: 8}, seed=11, graphs_per_hop=3)
    cold = list(build_dataset(spec))
    shared = GraphTable(KinshipEngine)
    monkeypatch.setattr(taskgen, "GraphTable", lambda engine: shared)
    assert list(build_dataset(spec)) == cold
    assert any(shared(taskgen._graph_seed(spec, 10, index, 0)).dead_heads(10)
               for index in range(3))
    grown = tracking_growth(monkeypatch)
    assert list(build_dataset(spec)) == cold
    assert grown == []  # the warm table grew none
    monkeypatch.undo()
    assert list(build_dataset(spec, workers=2)) == cold
    assert verify_dataset(cold).mismatch_count == 0


def test_no_graph_outlives_build_dataset(monkeypatch):
    # the build's table owns its graphs, so none is alive once the build
    # returns; a graphs_per_hop bucket grows at most that many graphs
    grown = tracking_growth(monkeypatch)
    list(build_dataset(DatasetSpec.make("kinship", {3: 10}, seed=2, graphs_per_hop=3)))
    assert 1 <= len(grown) <= 3
    reused = len(grown)
    list(build_dataset(DatasetSpec.make("kinship", {2: 6, 9: 3}, seed=2)))
    list(build_dataset(DatasetSpec.make("spatial", {2: 4, 3: 4}, seed=2)))
    gc.collect()
    assert len(grown) > reused + 2
    assert all(ref() is None for ref in grown)


def test_one_worker_builds_each_bucket_as_it_is_taken(monkeypatch):
    # buckets are built in output order when their first example is taken,
    # so a caller that writes examples as they come holds one bucket
    built = []
    build = taskgen._build_bucket

    def recording(spec, hop, count, graphs):
        built.append(hop)
        return build(spec, hop, count, graphs)

    monkeypatch.setattr(taskgen, "_build_bucket", recording)
    examples = build_dataset(DatasetSpec.make("spatial", {2: 2, 3: 2}, seed=0))
    assert built == []
    assert next(examples).hop == 2
    assert built == [2]
    assert [e.hop for e in examples] == [2, 3, 3]
    assert built == [2, 3]


def test_one_table_serves_every_bucket(monkeypatch):
    # serially one table serves every bucket, so buckets share graphs; in
    # workers each bucket has its own table, and the bytes are the same
    spec = DatasetSpec.make("kinship", {2: 30, 3: 30, 4: 30}, seed=4)
    grown = tracking_growth(monkeypatch)
    serial = list(build_dataset(spec))
    shared = len(grown)
    per_bucket = [list(build_dataset(dataclasses.replace(spec, counts=((hop, 30),))))
                  for hop in (2, 3, 4)]
    assert shared < len(grown) - shared  # buckets built alone grow more
    monkeypatch.undo()
    assert list(build_dataset(spec, workers=2)) == serial
    assert serial == [e for bucket in per_bucket for e in bucket]


def test_no_head_is_bounded_twice_per_memo(monkeypatch):
    # a kinship-paper-sized gen (the paper preset's per-hop proportions at
    # 1/10 scale) bounds each (memo, head, gender) once: the graphs of one
    # shape share one memo, which keeps every bound it takes
    bounded, memos = [], []

    def longest_walk(graph, head, moves, real=sampler._longest_walk):
        memos.append(graph.bounds)  # kept alive, so no memo's id is reused
        bounded.append((id(graph.bounds), head, graph.engine.genders[head]))
        return real(graph, head, moves)

    monkeypatch.setattr(sampler, "_longest_walk", longest_walk)
    counts = {2: 116, 3: 117, 4: 113, 5: 122, 6: 122, 7: 123, 8: 112, 9: 95, 10: 80}
    list(build_dataset(DatasetSpec.make("kinship", counts, seed=1)))
    assert len(set(bounded)) == len(bounded) > 0
    assert len({id(memo) for memo in memos}) <= 12  # kinship's shapes


def test_query_endpoints_roundtrip(small_kinship, small_spatial):
    for e in small_kinship + small_spatial:
        head, tail = query_endpoints(e.query, e.task)
        assert e.gold_triples[0][0] in (head, e.gold_triples[0][0])
        assert head != tail
