"""Kinship deduction engine: genealogy ground facts and the 18-label algebra.

Ground truth is a set of genealogy primitives (parent, spouse, gender); every
label is defined by a rule over those primitives:

    father/mother        gendered parent
    son/daughter         gendered child
    brother/sister       gendered co-child of a shared parent
    grandfather/-mother  parent of a parent
    grandson/-daughter   child of a child
    uncle/aunt           gendered sibling of a parent (blood only)
    nephew/niece         gendered child of a sibling
    father-/mother-in-law  gendered parent of spouse
    son-/daughter-in-law   gendered spouse of a child

Generated worlds keep all 18 labels well-defined: one father and one mother
per family unit, opposite-gender spouses, no remarriage, and siblings always
share both parents (so sibling-mediated compositions like brother of a son
being a son hold in every world this engine builds).

Children are grouped into family units (father slot, mother slot, children),
which is what guarantees full siblings: adding a parent to one child adds it
to every co-child of the unit.  Deduction reads a person's labelled
relatives straight off the units: growth links a new person to them, and
derive(u, v) looks v up among u's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

KINSHIP_LABELS = (
    "aunt",
    "brother",
    "daughter",
    "daughter-in-law",
    "father",
    "father-in-law",
    "granddaughter",
    "grandfather",
    "grandmother",
    "grandson",
    "mother",
    "mother-in-law",
    "nephew",
    "niece",
    "sister",
    "son",
    "son-in-law",
    "uncle",
)

# invert(r)[g]: label of "B is ? of A" given "A is r of B" and B's gender g.
_INVERSE = {
    "father": {"m": "son", "f": "daughter"},
    "mother": {"m": "son", "f": "daughter"},
    "son": {"m": "father", "f": "mother"},
    "daughter": {"m": "father", "f": "mother"},
    "brother": {"m": "brother", "f": "sister"},
    "sister": {"m": "brother", "f": "sister"},
    "grandfather": {"m": "grandson", "f": "granddaughter"},
    "grandmother": {"m": "grandson", "f": "granddaughter"},
    "grandson": {"m": "grandfather", "f": "grandmother"},
    "granddaughter": {"m": "grandfather", "f": "grandmother"},
    "uncle": {"m": "nephew", "f": "niece"},
    "aunt": {"m": "nephew", "f": "niece"},
    "nephew": {"m": "uncle", "f": "aunt"},
    "niece": {"m": "uncle", "f": "aunt"},
    "father-in-law": {"m": "son-in-law", "f": "daughter-in-law"},
    "mother-in-law": {"m": "son-in-law", "f": "daughter-in-law"},
    "son-in-law": {"m": "father-in-law", "f": "mother-in-law"},
    "daughter-in-law": {"m": "father-in-law", "f": "mother-in-law"},
}

# Gender of the subject implied by each label, read off the inverses.
LABEL_GENDER = {label: gender for inverses in _INVERSE.values()
                for gender, label in inverses.items()}


def invert(relation: str, counterpart_gender: str) -> str:
    """Relation seen from the counterpart: "A is r of B" iff "B is r' of A"."""
    return _INVERSE[relation][counterpart_gender]


class Unrealizable(Exception):
    """Requested attachment conflicts with a uniqueness invariant."""


@dataclass
class FamilyUnit:
    father: Optional[int] = None
    mother: Optional[int] = None
    children: list[int] = field(default_factory=list)

    def parent_pair(self) -> tuple[int, ...]:
        father, mother = self.father, self.mother
        if father is None:
            return () if mother is None else (mother,)
        return (father,) if mother is None else (father, mother)


class Genealogy:
    """Mutable store of genealogy primitives.

    Mutated only through realization while a graph is growing; afterwards it
    is treated as immutable and derive() is safe for concurrent use.
    """

    def __init__(self) -> None:
        self.gender: dict[int, str] = {}
        self.spouse: dict[int, int] = {}
        self.units: list[FamilyUnit] = []
        self.child_unit: dict[int, int] = {}   # person -> unit they are a child of
        self.parent_unit: dict[int, int] = {}  # person -> unit they are a parent in
        self._next_id = 0

    def new_person(self, gender: str) -> int:
        person = self._next_id
        self._next_id += 1
        self.gender[person] = gender
        return person

    # -- primitive queries ---------------------------------------------------

    def children_of(self, person: int) -> list[int]:
        uid = self.parent_unit.get(person)
        return self.units[uid].children if uid is not None else []

    def parents_of(self, person: int) -> tuple[int, ...]:
        uid = self.child_unit.get(person)
        return self.units[uid].parent_pair() if uid is not None else ()

    def siblings_of(self, person: int) -> list[int]:
        uid = self.child_unit.get(person)
        if uid is None:
            return []
        return [c for c in self.units[uid].children if c != person]

    # -- unit plumbing -------------------------------------------------------

    def _own_child_unit(self, person: int) -> FamilyUnit:
        uid = self.child_unit.get(person)
        if uid is None:
            uid = len(self.units)
            self.units.append(FamilyUnit(children=[person]))
            self.child_unit[person] = uid
        return self.units[uid]

    def _own_parental_unit(self, person: int) -> FamilyUnit:
        uid = self.parent_unit.get(person)
        if uid is None:
            uid = len(self.units)
            unit = FamilyUnit()
            self._seat_parent(unit, person)
            self.units.append(unit)
            self.parent_unit[person] = uid
            partner = self.spouse.get(person)
            if partner is not None and partner not in self.parent_unit:
                self._seat_parent(unit, partner)
                self.parent_unit[partner] = uid
        return self.units[uid]

    def _seat_parent(self, unit: FamilyUnit, person: int) -> None:
        if self.gender[person] == "m":
            if unit.father is not None:
                raise Unrealizable("father seat taken")
            unit.father = person
        else:
            if unit.mother is not None:
                raise Unrealizable("mother seat taken")
            unit.mother = person

    def _marry(self, a: int, b: int) -> None:
        if self.spouse.get(a) not in (None, b) or self.spouse.get(b) not in (None, a):
            raise Unrealizable("already married")
        self.spouse[a] = b
        self.spouse[b] = a

    # -- fact builders (each returns the ids it created) ----------------------

    def add_parent(self, child: int, gender: str) -> int:
        """Create the missing gendered parent of child's family unit."""
        unit = self._own_child_unit(child)
        taken = unit.father if gender == "m" else unit.mother
        if taken is not None:
            raise Unrealizable("parent of that gender exists")
        person = self.new_person(gender)
        self._seat_parent(unit, person)
        self.parent_unit[person] = self.child_unit[child]
        other = unit.mother if gender == "m" else unit.father
        if other is not None:
            self._marry(person, other)
        return person

    def add_child(self, parent: int, gender: str) -> int:
        unit = self._own_parental_unit(parent)
        person = self.new_person(gender)
        unit.children.append(person)
        self.child_unit[person] = self.parent_unit[parent]
        return person

    def add_sibling(self, person: int, gender: str) -> list[int]:
        """New co-child of person's unit; fills empty parent seats first so
        every sibling pair shares both parents."""
        created: list[int] = []
        unit = self._own_child_unit(person)
        if unit.father is None:
            created.append(self.add_parent(person, "m"))
        if unit.mother is None:
            created.append(self.add_parent(person, "f"))
        sibling = self.new_person(gender)
        unit.children.append(sibling)
        self.child_unit[sibling] = self.child_unit[person]
        created.append(sibling)
        return created

    def add_spouse(self, person: int) -> int:
        if person in self.spouse:
            raise Unrealizable("already married")
        partner = self.new_person("f" if self.gender[person] == "m" else "m")
        self._marry(person, partner)
        # spouses co-parent: seat the partner beside an existing parental unit
        uid = self.parent_unit.get(person)
        if uid is not None:
            self._seat_parent(self.units[uid], partner)
            self.parent_unit[partner] = uid
        return partner


class KinshipEngine:
    """Realization and deduction over a Genealogy."""

    task = "kinship"
    labels = KINSHIP_LABELS
    default_growth = KINSHIP_LABELS
    random_growth = True
    growth_iterations = 1

    def __init__(self) -> None:
        self.genealogy = Genealogy()

    def new_root(self, rng) -> int:
        return self.genealogy.new_person(rng.choice(("m", "f")))

    @property
    def genders(self) -> dict[int, str]:
        """Person -> gender, the cue names carry."""
        return self.genealogy.gender

    @property
    def fold(self) -> dict[str, dict[str, str]]:
        """acc -> step label -> acc: the composition a walk must keep alive."""
        return COMPOSE_BY_ACC

    def invert_label(self, relation: str, subject: int) -> str:
        """Label of subject to the other endpoint of its `relation` edge."""
        return invert(relation, self.genealogy.gender[subject])

    def chain_relation(self, labels: list[str]) -> Optional[str]:
        return chain_relation(labels)

    def ground_truth(self, head: int, tail: int, labels: list[str]) -> Optional[str]:
        """Answer of a head-to-tail walk: the genealogy's own relation."""
        return self.derive(head, tail)

    # -- realization ----------------------------------------------------------

    def realize(self, target: int, relation: str, rng) -> Optional[tuple[int, list[int]]]:
        """Add minimal primitives making "<new person> is <relation> of target".

        Returns (subject, all created persons) or None when the attachment
        conflicts with a uniqueness invariant (e.g. a second father).
        """
        try:
            return self._realize(target, relation, rng)
        except Unrealizable:
            return None

    def _realize(self, target: int, relation: str, rng) -> tuple[int, list[int]]:
        g = self.genealogy
        created: list[int] = []

        def pick_parent() -> int:
            # reuse an existing parent or fill an open seat, chosen at random
            unit = g._own_child_unit(target)
            options: list[Optional[int]] = [p for p in (unit.father, unit.mother)
                                            if p is not None]
            if unit.father is None or unit.mother is None:
                options.append(None)
            choice = rng.choice(options)
            if choice is None:
                open_genders = [gnd for gnd, seat in
                                (("m", unit.father), ("f", unit.mother)) if seat is None]
                choice = g.add_parent(target, rng.choice(open_genders))
                created.append(choice)
            return choice

        def fresh_child() -> int:
            # intermediates are always new people: compositions stay generic
            child = g.add_child(target, rng.choice(("m", "f")))
            created.append(child)
            return child

        def fresh_sibling() -> int:
            news = g.add_sibling(target, rng.choice(("m", "f")))
            created.extend(news)
            return news[-1]

        def spouse_of_target() -> int:
            partner = g.spouse.get(target)
            if partner is None:
                partner = g.add_spouse(target)
                created.append(partner)
            return partner

        def unmarried_child(gender: str) -> int:
            options = [c for c in g.children_of(target)
                       if g.gender[c] == gender and c not in g.spouse]
            if options:
                return rng.choice(options)
            child = g.add_child(target, gender)
            created.append(child)
            return child

        if relation in ("father", "mother"):
            subject = g.add_parent(target, LABEL_GENDER[relation])
            created.append(subject)
        elif relation in ("son", "daughter"):
            subject = g.add_child(target, LABEL_GENDER[relation])
            created.append(subject)
        elif relation in ("brother", "sister"):
            news = g.add_sibling(target, LABEL_GENDER[relation])
            created.extend(news)
            subject = news[-1]
        elif relation in ("grandfather", "grandmother"):
            subject = g.add_parent(pick_parent(), LABEL_GENDER[relation])
            created.append(subject)
        elif relation in ("grandson", "granddaughter"):
            subject = g.add_child(fresh_child(), LABEL_GENDER[relation])
            created.append(subject)
        elif relation in ("uncle", "aunt"):
            news = g.add_sibling(pick_parent(), LABEL_GENDER[relation])
            created.extend(news)
            subject = news[-1]
        elif relation in ("nephew", "niece"):
            subject = g.add_child(fresh_sibling(), LABEL_GENDER[relation])
            created.append(subject)
        elif relation in ("father-in-law", "mother-in-law"):
            subject = g.add_parent(spouse_of_target(), LABEL_GENDER[relation])
            created.append(subject)
        elif relation == "son-in-law":
            daughter = unmarried_child("f")
            subject = g.add_spouse(daughter)
            created.append(subject)
        elif relation == "daughter-in-law":
            son = unmarried_child("m")
            subject = g.add_spouse(son)
            created.append(subject)
        else:
            raise ValueError(f"unknown kinship relation: {relation}")
        return subject, created

    # -- deduction -------------------------------------------------------------

    def _relatives(self, person: int) -> list[tuple[int, str, str]]:
        """(relative, label of person to relative, label of relative to
        person) for every labelled relative, read off the family units.

        One rule per label pair; in the worlds this engine builds no two
        rules relate the same two people.
        """
        g = self.genealogy
        gender, spouse = g.gender, g.spouse
        children_of, parents_of, siblings_of = g.children_of, g.parents_of, g.siblings_of
        children = children_of(person)
        parents = parents_of(person)
        siblings = siblings_of(person)
        partner = spouse.get(person)
        rules = (
            (children, _PARENT, _CHILD),
            (parents, _CHILD, _PARENT),
            (siblings, _SIBLING, _SIBLING),
            ([x for c in children for x in children_of(c)], _GRANDPARENT, _GRANDCHILD),
            ([x for s in siblings for x in children_of(s)], _UNCLE, _NEPHEW),
            ([x for p in parents for x in parents_of(p)], _GRANDCHILD, _GRANDPARENT),
            ([x for p in parents for x in siblings_of(p)], _NEPHEW, _UNCLE),
            ([spouse[c] for c in children if c in spouse], _PARENT_IN_LAW, _CHILD_IN_LAW),
            (parents_of(partner) if partner is not None else (),
             _CHILD_IN_LAW, _PARENT_IN_LAW),
        )
        own = gender[person] != "m"
        return [(other, mine[own], theirs[gender[other] != "m"])
                for others, mine, theirs in rules for other in others]

    def derive(self, u: int, v: int) -> Optional[str]:
        """Vocabulary label of "u is <r> of v", or None."""
        for other, label, _ in self._relatives(u):
            if other == v:
                return label
        return None

    def links(self, node: int, graph) -> list[tuple[int, str, str]]:
        """(other, label of node to other, label of other to node) for every
        relative of node already in the graph, in graph order."""
        present = graph.incoming
        links = [link for link in self._relatives(node) if link[0] in present]
        # persons join the graph in the order they are created, so ids
        # ascend in graph order
        links.sort(key=itemgetter(0))
        return links


# (label of a male subject, label of a female subject) per rule
_PARENT = ("father", "mother")
_CHILD = ("son", "daughter")
_SIBLING = ("brother", "sister")
_GRANDPARENT = ("grandfather", "grandmother")
_GRANDCHILD = ("grandson", "granddaughter")
_UNCLE = ("uncle", "aunt")
_NEPHEW = ("nephew", "niece")
_PARENT_IN_LAW = ("father-in-law", "mother-in-law")
_CHILD_IN_LAW = ("son-in-law", "daughter-in-law")


# Pairwise composition: COMPOSE[(r1, r2)] = r3 means "A is r1 of B" and
# "B is r2 of C" force "A is r3 of C" whenever the connecting people sit in
# generic positions, i.e. every implicit intermediary is a person of their
# own (realization always creates fresh intermediaries, and generation
# discards the rare chains where a coincidence in the ground truth breaks
# genericity).  Pairs are absent when the outcome is ambiguous even then or
# falls outside the vocabulary: the father of a son is a spouse (no label),
# a grandson of a grandfather may be a sibling or a cousin, and in-law
# links compose only where the reconstruction from the two statements locks
# the result.  Every entry is validated against the brute-force genealogy
# oracle by the test suite, which also checks that no absent pair could be
# defined.
COMPOSE: dict[tuple[str, str], str] = {
    # aunt of ...
    ("aunt", "brother"): "aunt",
    ("aunt", "sister"): "aunt",
    # brother of ...
    ("brother", "aunt"): "uncle",
    ("brother", "brother"): "brother",
    ("brother", "daughter"): "son",
    ("brother", "father"): "uncle",
    ("brother", "granddaughter"): "grandson",
    ("brother", "grandson"): "grandson",
    ("brother", "mother"): "uncle",
    ("brother", "nephew"): "nephew",
    ("brother", "niece"): "nephew",
    ("brother", "sister"): "brother",
    ("brother", "son"): "son",
    ("brother", "uncle"): "uncle",
    # daughter of ...
    ("daughter", "brother"): "niece",
    ("daughter", "daughter"): "granddaughter",
    ("daughter", "father"): "sister",
    ("daughter", "grandfather"): "aunt",
    ("daughter", "grandmother"): "aunt",
    ("daughter", "mother"): "sister",
    ("daughter", "sister"): "niece",
    ("daughter", "son"): "granddaughter",
    # father of ...
    ("father", "aunt"): "grandfather",
    ("father", "brother"): "father",
    ("father", "father"): "grandfather",
    ("father", "mother"): "grandfather",
    ("father", "sister"): "father",
    ("father", "uncle"): "grandfather",
    # granddaughter of ...
    ("granddaughter", "father"): "niece",
    ("granddaughter", "mother"): "niece",
    # grandfather of ...
    ("grandfather", "brother"): "grandfather",
    ("grandfather", "sister"): "grandfather",
    # grandmother of ...
    ("grandmother", "brother"): "grandmother",
    ("grandmother", "sister"): "grandmother",
    # grandson of ...
    ("grandson", "father"): "nephew",
    ("grandson", "mother"): "nephew",
    # mother of ...
    ("mother", "aunt"): "grandmother",
    ("mother", "brother"): "mother",
    ("mother", "father"): "grandmother",
    ("mother", "mother"): "grandmother",
    ("mother", "sister"): "mother",
    ("mother", "uncle"): "grandmother",
    # nephew of ...
    ("nephew", "brother"): "nephew",
    ("nephew", "daughter"): "grandson",
    ("nephew", "sister"): "nephew",
    ("nephew", "son"): "grandson",
    # niece of ...
    ("niece", "brother"): "niece",
    ("niece", "daughter"): "granddaughter",
    ("niece", "sister"): "niece",
    ("niece", "son"): "granddaughter",
    # sister of ...
    ("sister", "aunt"): "aunt",
    ("sister", "brother"): "sister",
    ("sister", "daughter"): "daughter",
    ("sister", "father"): "aunt",
    ("sister", "granddaughter"): "granddaughter",
    ("sister", "grandson"): "granddaughter",
    ("sister", "mother"): "aunt",
    ("sister", "nephew"): "niece",
    ("sister", "niece"): "niece",
    ("sister", "sister"): "sister",
    ("sister", "son"): "daughter",
    ("sister", "uncle"): "aunt",
    # son of ...
    ("son", "brother"): "nephew",
    ("son", "daughter"): "grandson",
    ("son", "father"): "brother",
    ("son", "grandfather"): "uncle",
    ("son", "grandmother"): "uncle",
    ("son", "mother"): "brother",
    ("son", "sister"): "nephew",
    ("son", "son"): "grandson",
    # uncle of ...
    ("uncle", "brother"): "uncle",
    ("uncle", "sister"): "uncle",
}


# acc -> step -> result view of COMPOSE; avoids building a key tuple in the
# innermost loop of walk searches
COMPOSE_BY_ACC: dict[str, dict[str, str]] = {}
for (_r1, _r2), _out in COMPOSE.items():
    COMPOSE_BY_ACC.setdefault(_r1, {})[_r2] = _out


def chain_relation(relations: list[str]) -> Optional[str]:
    """Fold the chain left to right through the composition table.

    Returns the entailed head-to-tail label, or None as soon as one step
    has no unique vocabulary outcome.
    """
    if not relations:
        raise ValueError("chain_relation requires at least one relation")
    acc: Optional[str] = relations[0]
    for r in relations[1:]:
        if acc is None:
            return None
        acc = COMPOSE.get((acc, r))
    return acc
