"""Acceptance suite: every release criterion at its stated tolerance.

Each test records a one-line PASS result that pytest echoes in a summary
block after the run (see conftest).  The two full-size datasets are
generated once per session through the real CLI and shared by the criteria
that inspect them.
"""

import hashlib
import itertools
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from worlds import kinship_world_from_genealogy

from reasonforge.augment import add_edge_noise, flip_edges, permute
from reasonforge.kinship import KINSHIP_LABELS, KinshipEngine, compose
from reasonforge.oracle import (VERIFIERS, coordinate_relation, genealogy_relation,
                                kinship_world_from_triples,
                                spatial_world_from_triples)
from reasonforge.promptkit import parse_response, render_target
from reasonforge.relgraph import grow_graph
from reasonforge.sampler import SamplingExhausted, sample_chain
from reasonforge.spatial import SPATIAL_LABELS, SpatialEngine, chain_relation
from reasonforge.taskgen import (corrupt, derive_seed, entailed_relation,
                                 read_jsonl)

COMPOSE = {(r1, r2): out for r1, row in compose().items() for r2, out in row.items()}

# sha256 of `gen --task T --preset paper --seed 0`: a change that is meant
# to keep the output bytes must keep these
PRESET_SHA256 = {
    "clutrr": "9d3f7ca6d623663f015d95e423b98e23d7faebab7a9eb52f87ac10afb1a81242",
    "stepgame": "97720f6901ec5485c9430ed66d7308f5ee94abe01063d7232e4c88d4d58b91b8",
}

CLUTRR_COUNTS = {2: 1162, 3: 1170, 4: 1129, 5: 1219, 6: 1224, 7: 1231,
                 8: 1120, 9: 945, 10: 795}


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "reasonforge.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="session")
def preset_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("presets")
    paths = {"clutrr": base / "clutrr.jsonl", "stepgame": base / "stepgame.jsonl"}
    elapsed = {}
    for task, path in paths.items():
        start = time.monotonic()
        run_cli(["gen", "--task", task, "--preset", "paper", "--seed", "0",
                 "-o", str(path)])
        elapsed[task] = time.monotonic() - start
    return paths, elapsed


@pytest.fixture(scope="session")
def preset_examples(preset_files):
    paths, _ = preset_files
    return {task: list(read_jsonl(path)) for task, path in paths.items()}


def test_dataset_shape_reproduction(preset_files, preset_examples,
                                    acceptance_report):
    _, elapsed = preset_files
    clutrr = preset_examples["clutrr"]
    per_hop = Counter(e.hop for e in clutrr)
    assert per_hop == Counter(CLUTRR_COUNTS)
    assert len(clutrr) == 9995

    stepgame = preset_examples["stepgame"]
    per_hop_s = Counter(e.hop for e in stepgame)
    assert per_hop_s == Counter({h: 555 for h in range(2, 11)})
    assert len(stepgame) == 4995

    total = sum(elapsed.values())
    assert total < 60.0, f"generation took {total:.1f}s"
    acceptance_report(f"dataset-shape: PASS (9995 + 4995 examples, "
                      f"per-hop counts exact, generated in {total:.1f}s)")


def test_preset_content_hash(preset_files, acceptance_report):
    paths, _ = preset_files
    assert {task: hashlib.sha256(path.read_bytes()).hexdigest()
            for task, path in paths.items()} == PRESET_SHA256
    acceptance_report("preset-pins: PASS (both paper presets match their "
                      "pinned sha256)")


def test_oracle_soundness(preset_files, acceptance_report):
    paths, _ = preset_files
    for task, path in paths.items():
        proc = run_cli(["verify", "--dataset", str(path)])
        assert "0 mismatches" in proc.stdout, proc.stdout[:500]
    acceptance_report("oracle-soundness: PASS (15k examples, 0 mismatches)")


def test_spatial_exhaustive_chains(acceptance_report):
    offsets = {"above": (0, 1), "below": (0, -1), "left": (-1, 0),
               "right": (1, 0), "upper-left": (-1, 1), "upper-right": (1, 1),
               "lower-left": (-1, -1), "lower-right": (1, -1),
               "overlaps": (0, 0)}
    by_sign = {v: k for k, v in offsets.items()}

    start = time.monotonic()
    checked = 0
    for n in (1, 2, 3, 4):
        for labels in itertools.product(SPATIAL_LABELS, repeat=n):
            x = y = 0
            for r in labels:
                dx, dy = offsets[r]
                x += dx
                y += dy
            expected = by_sign[((x > 0) - (x < 0), (y > 0) - (y < 0))]
            assert chain_relation(labels) == expected
            checked += 1
    took = time.monotonic() - start
    assert checked == 9 + 81 + 729 + 6561 == 7380
    assert took < 1.0, f"{took:.2f}s"
    acceptance_report(f"spatial-exhaustive: PASS (7380 chains, {took:.2f}s)")


def test_kinship_compose_validation(acceptance_report):
    # instantiate "B is r2 of C" then "A is r1 of B" (fresh subject, or any
    # existing carrier when a fresh one is impossible) and compare each
    # defined table entry with brute-force genealogy derivation
    validated: set = set()
    for seed in range(14):
        for r1 in KINSHIP_LABELS:
            for r2 in KINSHIP_LABELS:
                eng = KinshipEngine()
                rng = random.Random(seed)
                c = eng.genealogy.new_person("m" if seed % 2 else "f")
                second = eng.realize(c, r2, rng)
                if second is None:
                    continue
                b, _ = second
                first = eng.realize(b, r1, rng)
                world = kinship_world_from_genealogy(eng.genealogy)
                if first is not None:
                    subjects = [first[0]]
                else:
                    subjects = [x for x in sorted(eng.genealogy.gender)
                                if x not in (b, c)
                                and genealogy_relation(world, x, b) == r1]
                expected = COMPOSE.get((r1, r2))
                if expected is None:
                    continue
                for a in subjects:
                    assert genealogy_relation(world, a, c) == expected, (r1, r2)
                    validated.add((r1, r2))
    assert validated == set(COMPOSE), "some table entries never instantiated"

    # every stored edge's reverse is the oracle's reading of the one-triple
    # story, and reads back into the edge: an involution over the 18 labels
    # and both genders of the counterpart
    verify = VERIFIERS["kinship"]
    involution = set()
    for seed in range(4):
        g = grow_graph(KinshipEngine(), 1, random.Random(seed))
        genders = g.engine.genders
        for (a, b), r in g.edges.items():
            back = g.edges[(b, a)]
            assert verify([(a, r, b)], b, a, genders) == back
            assert verify([(b, back, a)], a, b, genders) == r
            involution.add((r, genders[b]))
    assert len(involution) == 36
    acceptance_report(f"kinship-compose: PASS ({len(COMPOSE)} table entries "
                      f"oracle-validated, involution 18x2)")


def test_sampler_invariants(acceptance_report):
    spatial_graph = grow_graph(SpatialEngine(), 2, random.Random(0))
    kinship_graphs = [
        grow_graph(KinshipEngine(), 1, random.Random(s))
        for s in range(4)
    ]
    total = 0
    for hop in range(2, 11):
        for task in ("spatial", "kinship"):
            drawn = 0
            seed = 0
            while drawn < 556:
                if task == "spatial":
                    graph = spatial_graph
                else:
                    graph = kinship_graphs[seed % len(kinship_graphs)]
                try:
                    chain = sample_chain(graph, hop,
                                         derive_seed("acc", task, hop, seed))
                except SamplingExhausted:
                    seed += 1
                    continue
                assert len(set(chain.walk)) == hop + 1
                for i, t in enumerate(chain.steps):
                    assert graph.edges.get((t.subject, t.object)) == t.relation
                    assert {t.subject, t.object} == {chain.walk[i],
                                                     chain.walk[i + 1]}
                again = sample_chain(graph, hop,
                                     derive_seed("acc", task, hop, seed))
                assert repr(again.walk) == repr(chain.walk)
                assert repr(again.steps) == repr(chain.steps)
                drawn += 1
                seed += 1
                total += 1
    assert total == 556 * 9 * 2 >= 10_000
    acceptance_report(f"sampler-invariants: PASS ({total} chains simple, "
                      f"edge-valid, seed-reproducible)")


def test_augmentation_answer_invariance(acceptance_report):
    checked = Counter()
    spatial_graph = grow_graph(SpatialEngine(), 2, random.Random(0))

    def oracle_answer(graph, aug, head, tail):
        triples = [(t.subject, t.relation, t.object) for t in aug.chain.steps]
        triples += [(t.subject, t.relation, t.object)
                    for t, _ in aug.distractors]
        if isinstance(graph.engine, SpatialEngine):
            world = spatial_world_from_triples(triples)
            assert world.consistent
            return coordinate_relation(world, head, tail)
        kworld = kinship_world_from_triples(
            triples, dict(graph.engine.genealogy.gender))
        return genealogy_relation(kworld, head, tail)

    seed = 0
    while min(checked.values(), default=0) < 1000 or len(checked) < 3:
        seed += 1
        task = "spatial" if seed % 2 else "kinship"
        hop = 2 + seed % 5
        if task == "spatial":
            graph = spatial_graph
        else:
            graph = grow_graph(KinshipEngine(), 1, random.Random(seed))
        try:
            chain = sample_chain(graph, hop, seed)
        except SamplingExhausted:
            continue
        if entailed_relation(chain, graph) != corrupt(chain, graph):
            continue
        before = corrupt(chain, graph)
        if before is None:
            continue
        kinds = [("permutation", lambda: permute(chain, random.Random(seed))),
                 ("edge-noise",
                  lambda: add_edge_noise(chain, graph, 1, random.Random(seed))),
                 ("direction-flip",
                  lambda: flip_edges(chain, graph, 1, random.Random(seed)))]
        kind, make = kinds[seed % 3]
        if checked[kind] >= 1000:
            continue
        aug = make()
        assert oracle_answer(graph, aug, chain.head, chain.tail) == before
        checked[kind] += 1
    assert all(checked[k] == 1000 for k in
               ("permutation", "edge-noise", "direction-flip"))
    acceptance_report("augmentation-invariance: PASS "
                      "(3 x 1000 augmented chains, answers unchanged)")


def test_prompt_round_trip(preset_examples, acceptance_report):
    cases = [
        ("eta-p", "kinship",
         "The ordered structured triples are:\nFrances is the daughter of "
         "Morgan.\n\nTherefore,\nBrittney is the niece of Morgan", "niece"),
        ("std-p", "kinship", "Evelyn is the grandmother of Nichole",
         "grandmother"),
        ("eta-p", "spatial", "Therefore,\nM is directly to the left of O.",
         "left"),
        ("eta-p", "spatial", "Therefore, M is to the lower-left of O.",
         "lower-left"),
        ("eta-p", "spatial", "Therefore,\nS is to the upper-left of T.",
         "upper-left"),
    ]
    for style, task, response, expected in cases:
        assert parse_response(response, style, task).relation == expected

    count = 0
    for examples in preset_examples.values():
        for e in examples:
            for style in ("std-p", "eta-p"):
                parsed = parse_response(render_target(e, style), style, e.task)
                assert parsed.relation == e.answer, e.id
                if style == "eta-p":
                    assert parsed.triples == e.gold_triples, e.id
            count += 1
    assert count == 14_990
    acceptance_report(f"prompt-round-trip: PASS ({count} examples x 2 "
                      f"styles, plus reference responses)")


def test_determinism_end_to_end(tmp_path, acceptance_report):
    argv = ["gen", "--task", "clutrr", "--counts", "2:6=25",
            "--seed", "123"]
    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    run_cli(argv + ["-o", str(a)])
    run_cli(argv + ["-o", str(b)])
    run_cli(argv + ["-o", str(c), "--workers", "4"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == c.read_bytes()

    argv_s = ["gen", "--task", "stepgame", "--counts", "2:10=12",
              "--seed", "77"]
    d, e, f = (tmp_path / name for name in ("d.jsonl", "e.jsonl", "f.jsonl"))
    run_cli(argv_s + ["-o", str(d)])
    run_cli(argv_s + ["-o", str(e)])
    run_cli(argv_s + ["-o", str(f), "--workers", "4"])
    assert d.read_bytes() == e.read_bytes() == f.read_bytes()
    acceptance_report("determinism: PASS (reruns and 4-worker runs "
                      "byte-identical, both tasks)")
