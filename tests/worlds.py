"""Oracle worlds lifted straight from a generator genealogy, and the
smallest grown graph that states one relation.

Tests cross-check graph edges and engine deductions against the
brute-force oracle on these worlds.  They hold facts only: the engine's
deduction code is never consulted.  A spatial world from known coordinates
is `SpatialWorld(pos=dict(pos))`.
"""

import random

from reasonforge.kinship import KinshipEngine
from reasonforge.oracle import KinshipWorld
from reasonforge.relgraph import RelationalGraph, _attach


def one_relation_graph(relation, gender):
    """(subject, root, graph): a root of `gender` and the people the engine
    creates to realize "subject is <relation> of root", each attached as
    growth attaches it, with its edges in both directions."""
    engine = KinshipEngine()
    graph = RelationalGraph(engine)
    root = engine.genealogy.new_person(gender)
    _attach(graph, root)
    subject, created = engine.realize(root, relation, random.Random(0))
    for node in created:
        _attach(graph, node)
    return subject, root, graph


def kinship_world_from_primitives(gender, parent_pairs, spouse_pairs) -> KinshipWorld:
    world = KinshipWorld()
    for person, g in gender.items():
        world.touch(person, g)
    for parent, child in parent_pairs:
        world.add_parent_fact(parent, child)
    for a, b in spouse_pairs:
        world.add_spouse_fact(a, b)
    world.close_sibling_groups()
    return world


def kinship_world_from_genealogy(genealogy) -> KinshipWorld:
    parent_pairs = []
    # every unit has a child; FamilyUnit compares by value, so lift by identity
    units = {id(unit): unit for unit in genealogy.child_unit.values()}
    for unit in units.values():
        for child in unit.children:
            for parent in (unit.father, unit.mother):
                if parent is not None:
                    parent_pairs.append((parent, child))
    spouse_pairs = [(a, b) for a, b in genealogy.spouse.items() if a < b]
    return kinship_world_from_primitives(genealogy.gender, parent_pairs, spouse_pairs)
