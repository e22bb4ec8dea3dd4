"""Independent brute-force verifiers for both tasks.

Used by tests and the `verify` command to re-derive every label without
touching the engines' code paths: no composition table, no shared offset
constants, just the definitional rules evaluated by exhaustive
quantification over primitive facts.  Constants that also exist in the
engine modules are duplicated here on purpose.

A ground world is reconstructed from the structured triples of a dataset
example, which is what a reader of the story could themselves establish.
Kinship labels are expanded into parent/spouse facts (introducing
placeholder persons where a label implies one), siblings are grouped so
that co-children share all parents, and spatial triples place agents on a
unit grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional

Person = Hashable


class InconsistentWorld(Exception):
    """More than one definitional rule matched the same ordered pair."""


# --------------------------------------------------------------------------
# kinship
# --------------------------------------------------------------------------

_MALE_LABELS = frozenset({
    "brother", "father", "father-in-law", "grandfather", "grandson",
    "nephew", "son", "son-in-law", "uncle",
})


class KinshipWorld:
    """Primitive facts: genders, spouse pairs, and parent links.

    Children are clustered into sibling groups; parent facts attach to the
    group, so every member of a group shares every parent (the full-sibling
    reading of the canon).
    """

    def __init__(self) -> None:
        self.gender: dict[Person, Optional[str]] = {}
        self.spouse: dict[Person, Person] = {}
        self._up: dict[Person, Person] = {}
        self._group_parents: dict[Person, set[Person]] = {}
        self._aux = 0

    # union-find over sibling groups
    def _find(self, x: Person) -> Person:
        root = x
        while self._up.get(root, root) != root:
            root = self._up[root]
        while self._up.get(x, x) != x:
            self._up[x], x = root, self._up[x]
        return root

    def _merge_groups(self, a: Person, b: Person) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        self._up[rb] = ra
        parents = self._group_parents.pop(rb, set())
        self._group_parents.setdefault(ra, set()).update(parents)

    def touch(self, person: Person, gender: Optional[str] = None) -> Person:
        if person not in self.gender:
            self.gender[person] = gender
        elif gender is not None and self.gender[person] is None:
            self.gender[person] = gender
        return person

    def aux_person(self, gender: Optional[str] = None) -> Person:
        self._aux += 1
        return self.touch(("aux", self._aux), gender)

    def add_parent_fact(self, parent: Person, child: Person) -> None:
        self.touch(parent)
        self.touch(child)
        self._group_parents.setdefault(self._find(child), set()).add(parent)

    def add_sibling_fact(self, a: Person, b: Person) -> None:
        self.touch(a)
        self.touch(b)
        self._merge_groups(a, b)

    def add_spouse_fact(self, a: Person, b: Person) -> None:
        self.touch(a)
        self.touch(b)
        self.spouse[a] = b
        self.spouse[b] = a

    def spouse_slot(self, person: Person) -> Person:
        partner = self.spouse.get(person)
        if partner is None:
            partner = self.aux_person()
            self.add_spouse_fact(person, partner)
        return partner

    def close_sibling_groups(self) -> None:
        """Merge groups that share an explicit parent (co-children of one
        person are full siblings in this canon)."""
        changed = True
        while changed:
            changed = False
            by_parent: dict[Person, Person] = {}
            for root in list(self._group_parents):
                root = self._find(root)
                for parent in self._group_parents.get(root, ()):
                    seen = by_parent.get(parent)
                    if seen is None:
                        by_parent[parent] = root
                    elif self._find(seen) != self._find(root):
                        self._merge_groups(seen, root)
                        changed = True

    def parents_of(self, person: Person) -> frozenset[Person]:
        return frozenset(self._group_parents.get(self._find(person), ()))

    def siblings(self, a: Person, b: Person) -> bool:
        return a != b and self._find(a) == self._find(b)


def kinship_world_from_triples(
    triples: Iterable[tuple[Person, str, Person]],
    gender_of: Mapping[Person, str],
) -> KinshipWorld:
    """Expand relation triples into primitive facts.

    Each label contributes the facts of its definitional rule, creating
    placeholder persons for implicit intermediaries (e.g. the parent in an
    "uncle" statement).
    """
    world = KinshipWorld()
    for a, r, b in triples:
        sg = "m" if r in _MALE_LABELS else "f"
        world.touch(a, gender_of.get(a, sg))
        world.touch(b, gender_of.get(b))
        if r in ("father", "mother"):
            world.add_parent_fact(a, b)
        elif r in ("son", "daughter"):
            world.add_parent_fact(b, a)
        elif r in ("brother", "sister"):
            world.add_sibling_fact(a, b)
        elif r in ("grandfather", "grandmother"):
            mid = world.aux_person()
            world.add_parent_fact(a, mid)
            world.add_parent_fact(mid, b)
        elif r in ("grandson", "granddaughter"):
            mid = world.aux_person()
            world.add_parent_fact(b, mid)
            world.add_parent_fact(mid, a)
        elif r in ("uncle", "aunt"):
            mid = world.aux_person()
            world.add_parent_fact(mid, b)
            world.add_sibling_fact(a, mid)
        elif r in ("nephew", "niece"):
            mid = world.aux_person()
            world.add_parent_fact(mid, a)
            world.add_sibling_fact(mid, b)
        elif r in ("father-in-law", "mother-in-law"):
            world.add_parent_fact(a, world.spouse_slot(b))
        elif r in ("son-in-law", "daughter-in-law"):
            world.add_parent_fact(b, world.spouse_slot(a))
        else:
            raise ValueError(f"unknown kinship relation: {r}")
    world.close_sibling_groups()
    return world


def genealogy_relation(world: KinshipWorld, u: Person, v: Person) -> Optional[str]:
    """Evaluate all 18 definitional rules for "u is <r> of v".

    Returns the unique matching label, None when no rule matches, and raises
    InconsistentWorld when several distinct labels match (an engine bug or a
    corrupt world).
    """
    if u == v:
        return None
    gu = world.gender.get(u)
    matches: list[str] = []

    parents_u = world.parents_of(u)
    parents_v = world.parents_of(v)

    if u in parents_v:
        if gu == "m":
            matches.append("father")
        elif gu == "f":
            matches.append("mother")
    if v in parents_u:
        if gu == "m":
            matches.append("son")
        elif gu == "f":
            matches.append("daughter")
    if world.siblings(u, v):
        if gu == "m":
            matches.append("brother")
        elif gu == "f":
            matches.append("sister")
    if any(u in world.parents_of(p) for p in parents_v):
        if gu == "m":
            matches.append("grandfather")
        elif gu == "f":
            matches.append("grandmother")
    if any(v in world.parents_of(p) for p in parents_u):
        if gu == "m":
            matches.append("grandson")
        elif gu == "f":
            matches.append("granddaughter")
    if any(world.siblings(u, p) for p in parents_v):
        if gu == "m":
            matches.append("uncle")
        elif gu == "f":
            matches.append("aunt")
    if any(world.siblings(p, v) for p in parents_u):
        if gu == "m":
            matches.append("nephew")
        elif gu == "f":
            matches.append("niece")
    spouse_v = world.spouse.get(v)
    if spouse_v is not None and u in world.parents_of(spouse_v):
        if gu == "m":
            matches.append("father-in-law")
        elif gu == "f":
            matches.append("mother-in-law")
    spouse_u = world.spouse.get(u)
    if spouse_u is not None and v in world.parents_of(spouse_u):
        if gu == "m":
            matches.append("son-in-law")
        elif gu == "f":
            matches.append("daughter-in-law")

    unique = sorted(set(matches))
    if len(unique) > 1:
        raise InconsistentWorld(f"{u!r} vs {v!r}: rules match {unique}")
    return unique[0] if unique else None


# --------------------------------------------------------------------------
# spatial
# --------------------------------------------------------------------------

# Sign pair of position(A) - position(B) for "A is <label> of B".
_SIGN_TO_LABEL = {
    (0, 1): "above",
    (0, -1): "below",
    (-1, 0): "left",
    (1, 0): "right",
    (-1, 1): "upper-left",
    (1, 1): "upper-right",
    (-1, -1): "lower-left",
    (1, -1): "lower-right",
    (0, 0): "overlaps",
}
_LABEL_TO_STEP = {label: sign for sign, label in _SIGN_TO_LABEL.items()}


@dataclass
class SpatialWorld:
    pos: dict[Person, tuple[int, int]] = field(default_factory=dict)
    consistent: bool = True


def spatial_world_from_triples(
    triples: Iterable[tuple[Person, str, Person]],
) -> SpatialWorld:
    """Place agents by propagating unit steps along the triples.

    Triples reachable from the first anchor are placed relative to it;
    further connected components get their own origin.  A triple whose
    endpoints are both already placed must agree with the placement, else
    the world is flagged inconsistent.
    """
    world = SpatialWorld()
    pending = list(triples)
    while pending:
        progressed = False
        remaining = []
        for a, r, b in pending:
            dx, dy = _LABEL_TO_STEP[r]
            if not world.pos:
                world.pos[b] = (0, 0)
            if b in world.pos and a not in world.pos:
                bx, by = world.pos[b]
                world.pos[a] = (bx + dx, by + dy)
            elif a in world.pos and b not in world.pos:
                ax, ay = world.pos[a]
                world.pos[b] = (ax - dx, ay - dy)
            elif a in world.pos and b in world.pos:
                ax, ay = world.pos[a]
                bx, by = world.pos[b]
                if (ax - bx, ay - by) != (dx, dy):
                    world.consistent = False
            else:
                remaining.append((a, r, b))
                continue
            progressed = True
        if not progressed and remaining:
            # start a fresh component
            anchor = remaining[0][2]
            world.pos[anchor] = (0, 0)
            progressed = True
        pending = remaining
    return world


def coordinate_relation(world: SpatialWorld, u: Person, v: Person) -> Optional[str]:
    """Sign-map label of u relative to v, from placements alone."""
    if u not in world.pos or v not in world.pos:
        return None
    ux, uy = world.pos[u]
    vx, vy = world.pos[v]
    dx, dy = ux - vx, uy - vy
    return _SIGN_TO_LABEL[((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))]


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

def _kinship_answer(
    triples: Iterable[tuple[Person, str, Person]], head: Person, tail: Person,
    gender_of: Mapping[Person, str],
) -> Optional[str]:
    try:
        world = kinship_world_from_triples(triples, gender_of)
        return genealogy_relation(world, head, tail)
    except InconsistentWorld as exc:
        return f"<inconsistent: {exc}>"


def _spatial_answer(
    triples: Iterable[tuple[Person, str, Person]], head: Person, tail: Person,
    gender_of: Mapping[Person, str],
) -> Optional[str]:
    world = spatial_world_from_triples(triples)
    derived = coordinate_relation(world, head, tail)
    return derived if world.consistent else "<inconsistent placement>"


# Task -> verifier(triples, head, tail, gender_of): the label of head to
# tail that the story triples establish, None when they establish none, or
# "<inconsistent ...>" when they contradict each other.  Spatial triples
# carry no gender cue, so the spatial verifier ignores gender_of.
VERIFIERS = {"kinship": _kinship_answer, "spatial": _spatial_answer}
