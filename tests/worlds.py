"""Oracle worlds lifted straight from a generator genealogy.

Tests cross-check graph edges and engine deductions against the
brute-force oracle on these worlds.  They hold facts only: the engine's
deduction code is never consulted.  A spatial world from known coordinates
is `SpatialWorld(pos=dict(pos))`.
"""

from reasonforge.oracle import KinshipWorld


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
    for unit in genealogy.units:
        for child in unit.children:
            for parent in (unit.father, unit.mother):
                if parent is not None:
                    parent_pairs.append((parent, child))
    spouse_pairs = [(a, b) for a, b in genealogy.spouse.items() if a < b]
    return kinship_world_from_primitives(genealogy.gender, parent_pairs, spouse_pairs)
