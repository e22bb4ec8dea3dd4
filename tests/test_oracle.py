import random

import pytest

from worlds import (kinship_world_from_genealogy, kinship_world_from_primitives,
                    one_relation_graph)

from reasonforge.kinship import KINSHIP_LABELS, KinshipEngine
from reasonforge.oracle import (InconsistentWorld, SpatialWorld,
                                coordinate_relation, genealogy_relation,
                                kinship_world_from_triples,
                                spatial_world_from_triples)
from reasonforge.relgraph import grow_graph


# -- coordinate oracle -----------------------------------------------------------

def test_coordinate_relation_cases():
    world = SpatialWorld(pos={
        "a": (0, 0), "b": (0, 0), "c": (2, 5), "d": (2, 1), "e": (-3, -3)})
    assert coordinate_relation(world, "a", "b") == "overlaps"
    assert coordinate_relation(world, "c", "d") == "above"
    assert coordinate_relation(world, "e", "a") == "lower-left"


def test_spatial_world_from_triples_places_chain():
    triples = [("M", "left", "F"), ("F", "below", "S"), ("S", "lower-left", "Q"),
               ("Q", "above", "A"), ("A", "above", "O")]
    world = spatial_world_from_triples(triples)
    assert world.consistent
    assert coordinate_relation(world, "M", "O") == "left"


def test_spatial_world_flags_contradiction():
    world = spatial_world_from_triples(
        [("A", "above", "B"), ("B", "above", "A")])
    assert not world.consistent


def test_spatial_world_disconnected_components():
    world = spatial_world_from_triples(
        [("A", "above", "B"), ("C", "left", "D")])
    assert world.consistent
    assert coordinate_relation(world, "A", "B") == "above"


# -- genealogy oracle --------------------------------------------------------------

def test_rules_direct_cases():
    world = kinship_world_from_primitives(
        gender={"g": "m", "p": "f", "c": "f", "h": "m"},
        parent_pairs=[("g", "p"), ("p", "c")],
        spouse_pairs=[("p", "h")],
    )
    assert genealogy_relation(world, "g", "c") == "grandfather"
    assert genealogy_relation(world, "g", "p") == "father"
    assert genealogy_relation(world, "h", "g") == "son-in-law"
    assert genealogy_relation(world, "g", "h") == "father-in-law"


def test_unrelated_components_none():
    world = kinship_world_from_primitives(
        gender={"a": "m", "b": "f", "x": "m", "y": "f"},
        parent_pairs=[("a", "b"), ("x", "y")],
        spouse_pairs=[],
    )
    assert genealogy_relation(world, "a", "y") is None


def test_shared_parent_makes_full_siblings():
    world = kinship_world_from_primitives(
        gender={"f": "m", "m1": "f", "a": "m", "b": "f"},
        parent_pairs=[("f", "a"), ("f", "b"), ("m1", "a")],
        spouse_pairs=[],
    )
    # a and b share father f, so a's mother counts for b as well
    assert genealogy_relation(world, "m1", "b") == "mother"
    assert genealogy_relation(world, "a", "b") == "brother"


def test_inconsistent_world_raises():
    # x is both parent and grandparent of y: no valid generation produces
    # this, and the oracle must flag it instead of picking a label
    world = kinship_world_from_primitives(
        gender={"x": "m", "y": "f", "p": "f"},
        parent_pairs=[("x", "y"), ("x", "p"), ("p", "y")],
        spouse_pairs=[],
    )
    with pytest.raises(InconsistentWorld):
        genealogy_relation(world, "x", "y")


# -- reconstruction from triples -----------------------------------------------------

GENDERS = {"Ann": "f", "Bea": "f", "Carl": "m", "Dina": "f", "Evan": "m"}


def test_reconstruction_direct_chain():
    world = kinship_world_from_triples(
        [("Ann", "mother", "Bea"), ("Bea", "sister", "Carl")], GENDERS)
    assert genealogy_relation(world, "Ann", "Carl") == "mother"


def test_reconstruction_with_implicit_middle():
    world = kinship_world_from_triples(
        [("Ann", "aunt", "Bea"), ("Carl", "brother", "Ann")], GENDERS)
    assert genealogy_relation(world, "Carl", "Bea") == "uncle"


def test_reconstruction_grandparent_label():
    world = kinship_world_from_triples(
        [("Carl", "grandfather", "Bea"), ("Dina", "sister", "Bea")], GENDERS)
    assert genealogy_relation(world, "Carl", "Dina") == "grandfather"


def test_reconstruction_in_law_spouse_slot_unified():
    world = kinship_world_from_triples(
        [("Carl", "father-in-law", "Bea"), ("Dina", "mother-in-law", "Bea")],
        GENDERS)
    # both statements reference the same (only) spouse of Bea
    assert genealogy_relation(world, "Carl", "Dina") is None
    spouse = world.spouse["Bea"]
    assert world.parents_of(spouse) >= {"Carl", "Dina"}


def test_reconstruction_does_not_overreach():
    # aunt of a daughter could be on either side of the family
    world = kinship_world_from_triples(
        [("Ann", "aunt", "Bea"), ("Bea", "daughter", "Dina")], GENDERS)
    assert genealogy_relation(world, "Ann", "Dina") is None


# -- engine agreement ----------------------------------------------------------------

def test_oracle_matches_engine_everywhere():
    for seed in range(20):
        eng = KinshipEngine()
        grow_graph(eng, 1, random.Random(seed))
        world = kinship_world_from_genealogy(eng.genealogy)
        people = sorted(eng.genealogy.gender)
        for u in people:
            for v in people:
                if u != v:
                    assert genealogy_relation(world, u, v) == eng.derive(u, v)


@pytest.mark.parametrize("relation", KINSHIP_LABELS)
def test_oracle_agrees_with_invert(relation):
    # the oracle, which knows no converse table, reads B's relation to A in
    # the one-triple world "A is <relation> of B" as the reverse edge growth
    # stores when the engine realizes <relation> on a B of that gender
    for gender in "mf":
        subject, root, g = one_relation_graph(relation, gender)
        world = kinship_world_from_triples([("A", relation, "B")], {"B": gender})
        assert genealogy_relation(world, "B", "A") == g.edges[(root, subject)]
