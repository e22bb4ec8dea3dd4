import hashlib
import json
import random
import subprocess
import sys

import pytest

from worlds import kinship_world_from_genealogy, one_relation_graph

from reasonforge.kinship import (KINSHIP_LABELS, LABEL_GENDER, KinshipEngine,
                                 chain_relation, compose)
from reasonforge.oracle import VERIFIERS, genealogy_relation

COMPOSE = {(r1, r2): out for r1, row in compose().items() for r2, out in row.items()}


def engine_with_root(gender="m"):
    eng = KinshipEngine()
    root = eng.genealogy.new_person(gender)
    return eng, root


def oracle_label(engine, u, v):
    world = kinship_world_from_genealogy(engine.genealogy)
    return genealogy_relation(world, u, v)


def test_vocabulary_is_the_18_labels():
    assert len(KINSHIP_LABELS) == 18
    assert set(LABEL_GENDER) == set(KINSHIP_LABELS)
    # growth realizes the labels in this order, so it decides output bytes
    assert KINSHIP_LABELS == (
        "aunt", "brother", "daughter", "daughter-in-law", "father",
        "father-in-law", "granddaughter", "grandfather", "grandmother",
        "grandson", "mother", "mother-in-law", "nephew", "niece", "sister",
        "son", "son-in-law", "uncle")


# -- the stored reverse edge ---------------------------------------------------

def test_invert_examples():
    # a flip reads the reverse edge growth stored: the root's relation to
    # the person realized on it, by the root's gender
    for relation, gender, inverse in (("daughter", "m", "father"),
                                      ("sister", "f", "sister"),
                                      ("uncle", "f", "niece")):
        subject, root, g = one_relation_graph(relation, gender)
        assert g.edges[(subject, root)] == relation
        assert g.edges[(root, subject)] == inverse


def test_invert_involution_all_labels_both_genders():
    # the oracle reads the stored reverse edge back into the relation
    verify = VERIFIERS["kinship"]
    for r in KINSHIP_LABELS:
        for counterpart in ("m", "f"):
            subject, root, g = one_relation_graph(r, counterpart)
            back = g.edges[(root, subject)]
            assert LABEL_GENDER[back] == counterpart, (r, counterpart)
            genders = {"A": counterpart, "B": LABEL_GENDER[r]}
            assert verify([("A", back, "B")], "B", "A", genders) == r, (r, counterpart)


# -- realize ------------------------------------------------------------------

def test_realize_father_is_minimal():
    eng, root = engine_with_root()
    rng = random.Random(0)
    subject, created = eng.realize(root, "father", rng)
    assert created == [subject]
    assert eng.genealogy.gender[subject] == "m"
    assert eng.derive(subject, root) == "father"


def test_realize_second_father_unrealizable():
    eng, root = engine_with_root()
    rng = random.Random(0)
    assert eng.realize(root, "father", rng) is not None
    assert eng.realize(root, "father", rng) is None


def test_realize_daughter_in_law_counts():
    # no son yet: a son and his wife are created
    eng, root = engine_with_root()
    rng = random.Random(1)
    subject, created = eng.realize(root, "daughter-in-law", rng)
    assert len(created) == 2
    assert oracle_label(eng, subject, root) == "daughter-in-law"

    # an unmarried son exists: only the wife is created
    eng2, root2 = engine_with_root()
    son = eng2.genealogy.add_child(root2, "m")
    subject2, created2 = eng2.realize(root2, "daughter-in-law", rng)
    assert created2 == [subject2]
    assert eng2.genealogy.spouse[son] == subject2
    assert oracle_label(eng2, subject2, root2) == "daughter-in-law"


@pytest.mark.parametrize("relation", KINSHIP_LABELS)
def test_realize_subject_carries_relation(relation):
    for seed in range(6):
        eng, root = engine_with_root("m" if seed % 2 else "f")
        rng = random.Random(seed)
        realized = eng.realize(root, relation, rng)
        assert realized is not None
        subject, _ = realized
        assert eng.derive(subject, root) == relation
        assert oracle_label(eng, subject, root) == relation
        assert eng.genealogy.gender[subject] == LABEL_GENDER[relation]


@pytest.mark.parametrize("relation", KINSHIP_LABELS)
def test_realize_reports_exactly_the_people_it_created(relation):
    # on a root, then again on a world that already holds other people: the
    # created list is every new person in id order, the subject last
    for seed in range(6):
        for gender in "mf":
            eng, root = engine_with_root(gender)
            rng = random.Random(seed)
            target = root
            for _ in range(2):
                before = set(eng.genealogy.gender)
                realized = eng.realize(target, relation, rng)
                new = sorted(set(eng.genealogy.gender) - before)
                if realized is None:
                    assert new == []
                    break
                subject, created = realized
                assert created == new and created[0] == len(before)
                assert subject == created[-1]
                assert eng.derive(subject, target) == relation
                target = created[0] if len(created) > 1 else root


def test_realize_unknown_label_creates_no_one():
    eng, root = engine_with_root()
    with pytest.raises(ValueError, match="unknown kinship relation: cousin"):
        eng.realize(root, "cousin", random.Random(0))
    assert list(eng.genealogy.gender) == [root]


# -- derive -------------------------------------------------------------------

def test_derive_daughter():
    eng, root = engine_with_root()
    child = eng.genealogy.add_child(root, "f")
    assert eng.derive(child, root) == "daughter"


def test_derive_grandfather_via_two_parent_steps():
    eng, root = engine_with_root()
    rng = random.Random(0)
    father, _ = eng.realize(root, "father", rng)
    grandpa = eng.genealogy.add_parent(father, "m")
    assert eng.derive(grandpa, root) == "grandfather"
    assert oracle_label(eng, grandpa, root) == "grandfather"


def test_first_cousins_out_of_vocabulary():
    eng, root = engine_with_root()
    rng = random.Random(3)
    uncle, _ = eng.realize(root, "uncle", rng)
    cousin = eng.genealogy.add_child(uncle, "m")
    assert eng.derive(cousin, root) is None
    assert oracle_label(eng, cousin, root) is None


def test_spouses_have_no_vocabulary_label():
    eng, root = engine_with_root()
    partner = eng.genealogy.add_spouse(root)
    assert eng.derive(partner, root) is None


def test_derive_inversion_consistency():
    for seed in range(10):
        eng, root = engine_with_root("m" if seed % 2 else "f")
        rng = random.Random(seed)
        for relation in ("father", "sister", "uncle", "daughter-in-law",
                         "grandson", "niece"):
            eng.realize(root, relation, rng)
        people = sorted(eng.genealogy.gender)
        verify = VERIFIERS["kinship"]
        for u in people:
            for v in people:
                if u == v:
                    continue
                r = eng.derive(u, v)
                if r is not None:
                    # the oracle's reading of the one-triple story
                    assert eng.derive(v, u) == verify(
                        [(u, r, v)], v, u, eng.genealogy.gender)


# -- compose ------------------------------------------------------------------

def test_compose_is_pinned():
    # the table is derived from the oracle's nine rules; a changed rule
    # changes it, and fails here by name
    assert len(COMPOSE) == 72
    digest = hashlib.sha256(json.dumps(sorted(COMPOSE.items())).encode()).hexdigest()
    assert digest == "6d368253e60080127994b96984f1b14bacfeabbaf86fd6cd7b69c69e32964982"


def test_compose_is_built_on_first_use(tmp_path):
    # importing the CLI and a spatial gen never build the kinship table
    code = ("import sys\nfrom reasonforge import cli, kinship\n"
            "cli.main(['gen', '--task', 'stepgame', '--counts', '2=2', '-o', sys.argv[1]])\n"
            "print(kinship.compose.cache_info().currsize, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "d.jsonl")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "0\n"
    assert len((tmp_path / "d.jsonl").read_text().splitlines()) == 2


def test_compose_examples():
    assert COMPOSE[("son", "son")] == "grandson"
    assert COMPOSE[("daughter", "sister")] == "niece"
    assert ("father", "son") not in COMPOSE


def test_compose_sibling_mediated():
    assert COMPOSE[("brother", "son")] == "son"
    assert COMPOSE[("father", "brother")] == "father"


def test_compose_gender_coherence():
    for (r1, _), out in COMPOSE.items():
        assert LABEL_GENDER[out] == LABEL_GENDER[r1], (r1, out)


def test_compose_factors_by_rule():
    # graphs whose edges name the same rules share chain sampling's memo,
    # which is exact only because, for every label pair, whether compose()
    # defines it and the rule of its result depend on the two rules alone,
    # and the result keeps acc's gender (test_compose_gender_coherence)
    rules = KinshipEngine.rules
    by_rules = {}
    for r1 in KINSHIP_LABELS:
        for r2 in KINSHIP_LABELS:
            out = COMPOSE.get((r1, r2))
            rule = None if out is None else rules[out]
            assert by_rules.setdefault((rules[r1], rules[r2]), rule) == rule, (r1, r2)
    assert len(by_rules) == 81
    assert sum(rule is not None for rule in by_rules.values()) == 18


def test_compose_agrees_with_oracle_on_instantiated_chains():
    # realize r2 on a root, then r1 on its subject; where a fresh subject is
    # impossible, fall back to existing carriers of r1
    for seed in range(12):
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
                got = COMPOSE.get((r1, r2))
                if first is not None:
                    a_list = [first[0]]
                else:
                    a_list = [x for x in sorted(eng.genealogy.gender)
                              if x not in (b, c)
                              and genealogy_relation(world, x, b) == r1]
                for a in a_list:
                    derived = genealogy_relation(world, a, c)
                    if got is not None:
                        assert derived == got, (r1, r2, seed)


def test_undefined_pairs_are_justified():
    # a pair may stay out of the table only because instantiations disagree,
    # derive nothing, or the two-triple reconstruction cannot recover the
    # label; otherwise the table would be silently incomplete
    from reasonforge.oracle import kinship_world_from_triples

    for r1 in KINSHIP_LABELS:
        for r2 in KINSHIP_LABELS:
            if (r1, r2) in COMPOSE:
                continue
            seen = set()
            for seed in range(14):
                for root_gender in ("m", "f"):
                    eng = KinshipEngine()
                    rng = random.Random(seed)
                    c = eng.genealogy.new_person(root_gender)
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
                    for a in subjects:
                        real = genealogy_relation(world, a, c)
                        if real is None:
                            seen.add(None)
                            continue
                        recon = genealogy_relation(
                            kinship_world_from_triples(
                                [(a, r1, b), (b, r2, c)],
                                {p: eng.genealogy.gender[p] for p in (a, b, c)}),
                            a, c)
                        seen.add(real if recon == real else "diverged")
            consistent = (len(seen) == 1 and None not in seen
                          and "diverged" not in seen)
            assert not consistent, (r1, r2, seen)


def test_chain_relation_fold():
    assert chain_relation(["daughter", "sister"]) == "niece"
    assert chain_relation(["father", "son"]) is None
    assert chain_relation(["sister", "sister", "son"]) == "daughter"
    with pytest.raises(ValueError):
        chain_relation([])


# -- family units keep siblings full ------------------------------------------

def test_late_parent_applies_to_all_siblings():
    eng, root = engine_with_root()
    g = eng.genealogy
    first = g.add_child(root, "m")
    second = g.add_child(root, "f")
    mother = g.add_parent(first, "f")
    assert g.child_unit[second] is g.child_unit[first]
    assert g.child_unit[second].parent_pair() == (root, mother)
    assert eng.derive(mother, second) == "mother"
    assert g.spouse[mother] == root
