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
relatives off the units (`relatives`): growth reads what a person lacks and
a new person's edges there, and derive(u, v) looks v up among u's.  The
composition table a chain walk keeps alive, compose(), is derived on first
use from the oracle's nine rules; the oracle imports nothing from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from .oracle import VERIFIERS

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

# Converse rules: "A is <rule> of B" iff "B is <converse> of A".
_CONVERSE = {_PARENT: _CHILD, _SIBLING: _SIBLING, _GRANDPARENT: _GRANDCHILD,
             _UNCLE: _NEPHEW, _PARENT_IN_LAW: _CHILD_IN_LAW}

# The rule (pair) each label names, and the gender of the subject it implies.
_RULE = {label: pair for rules in _CONVERSE.items() for pair in rules
         for label in pair}
LABEL_GENDER = {label: gender for rules in _CONVERSE.items() for pair in rules
                for gender, label in zip("mf", pair)}
KINSHIP_LABELS = tuple(sorted(_RULE))  # growth realizes labels in this order


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
        self.child_unit: dict[int, FamilyUnit] = {}   # person -> unit they are a child of
        self.parent_unit: dict[int, FamilyUnit] = {}  # person -> unit they are a parent in

    def new_person(self, gender: str) -> int:
        person = len(self.gender)
        self.gender[person] = gender
        return person

    # -- primitive queries ---------------------------------------------------

    def children_of(self, person: int) -> list[int]:
        unit = self.parent_unit.get(person)
        return unit.children if unit is not None else []

    def parents_of(self, person: int) -> tuple[int, ...]:
        unit = self.child_unit.get(person)
        return unit.parent_pair() if unit is not None else ()

    def siblings_of(self, person: int) -> list[int]:
        unit = self.child_unit.get(person)
        if unit is None:
            return []
        return [c for c in unit.children if c != person]

    # -- unit plumbing -------------------------------------------------------

    def _own_child_unit(self, person: int) -> FamilyUnit:
        unit = self.child_unit.get(person)
        if unit is None:
            unit = self.child_unit[person] = FamilyUnit(children=[person])
        return unit

    def _own_parental_unit(self, person: int) -> FamilyUnit:
        unit = self.parent_unit.get(person)
        if unit is None:
            unit = self.parent_unit[person] = FamilyUnit()
            self._seat_parent(unit, person)
            partner = self.spouse.get(person)
            if partner is not None and partner not in self.parent_unit:
                self._seat_parent(unit, partner)
                self.parent_unit[partner] = unit
        return unit

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

    # -- fact builders (each returns the person it was asked for) -----------

    def add_parent(self, child: int, gender: str) -> int:
        """Create the missing gendered parent of child's family unit."""
        unit = self._own_child_unit(child)
        taken = unit.father if gender == "m" else unit.mother
        if taken is not None:
            raise Unrealizable("parent of that gender exists")
        person = self.new_person(gender)
        self._seat_parent(unit, person)
        self.parent_unit[person] = unit
        other = unit.mother if gender == "m" else unit.father
        if other is not None:
            self._marry(person, other)
        return person

    def add_child(self, parent: int, gender: str) -> int:
        unit = self._own_parental_unit(parent)
        person = self.new_person(gender)
        unit.children.append(person)
        self.child_unit[person] = unit
        return person

    def add_sibling(self, person: int, gender: str) -> int:
        """New co-child of person's unit; fills empty parent seats first so
        every sibling pair shares both parents."""
        unit = self._own_child_unit(person)
        if unit.father is None:
            self.add_parent(person, "m")
        if unit.mother is None:
            self.add_parent(person, "f")
        sibling = self.new_person(gender)
        unit.children.append(sibling)
        self.child_unit[sibling] = unit
        return sibling

    def add_spouse(self, person: int) -> int:
        if person in self.spouse:
            raise Unrealizable("already married")
        partner = self.new_person("f" if self.gender[person] == "m" else "m")
        self._marry(person, partner)
        # spouses co-parent: seat the partner beside an existing parental unit
        unit = self.parent_unit.get(person)
        if unit is not None:
            self._seat_parent(unit, partner)
            self.parent_unit[partner] = unit
        return partner


class KinshipEngine:
    """Realization and deduction over a Genealogy."""

    labels = KINSHIP_LABELS
    default_growth = KINSHIP_LABELS
    growth_iterations = 1
    rules = _RULE  # label -> its rule, (male label, female label); see sampler

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
        return compose()

    def chain_relation(self, labels: list[str]) -> Optional[str]:
        return chain_relation(labels)

    def ground_truth(self, head: int, tail: int, labels: list[str]) -> Optional[str]:
        """Answer of a head-to-tail walk: the genealogy's own relation."""
        return self.derive(head, tail)

    # -- realization ----------------------------------------------------------

    def realize(self, target: int, relation: str, rng) -> Optional[tuple[int, list[int]]]:
        """Add minimal primitives making "<new person> is <relation> of target".

        Returns (subject, all created persons) or None when the attachment
        conflicts with a uniqueness invariant (e.g. a second father).  People
        are numbered as they are created, so the ones this call created are
        the ids from the person count before it on, and the subject is last.
        """
        first = len(self.genealogy.gender)
        try:
            self._realize(target, relation, rng)
        except Unrealizable:
            return None
        created = list(range(first, len(self.genealogy.gender)))
        return created[-1], created

    def _realize(self, target: int, relation: str, rng) -> None:
        """Create the subject, last, and the people it needs in between."""
        rule = _RULE.get(relation)
        if rule is None:
            raise ValueError(f"unknown kinship relation: {relation}")
        g = self.genealogy
        gender = LABEL_GENDER[relation]
        if rule is _PARENT:
            g.add_parent(target, gender)
        elif rule is _CHILD:
            g.add_child(target, gender)
        elif rule is _SIBLING:
            g.add_sibling(target, gender)
        elif rule is _GRANDPARENT:
            g.add_parent(self._pick_parent(target, rng), gender)
        elif rule is _GRANDCHILD:
            # intermediates are new people: compositions stay generic
            g.add_child(g.add_child(target, rng.choice("mf")), gender)
        elif rule is _UNCLE:
            g.add_sibling(self._pick_parent(target, rng), gender)
        elif rule is _NEPHEW:
            g.add_child(g.add_sibling(target, rng.choice("mf")), gender)
        elif rule is _PARENT_IN_LAW:
            partner = g.spouse.get(target)
            g.add_parent(g.add_spouse(target) if partner is None else partner, gender)
        else:  # the spouse of an unmarried child of the other gender
            other = "f" if gender == "m" else "m"
            options = [c for c in g.children_of(target)
                       if g.gender[c] == other and c not in g.spouse]
            g.add_spouse(rng.choice(options) if options else g.add_child(target, other))

    def _pick_parent(self, target: int, rng) -> int:
        """An existing parent of target or a new one in an open seat, chosen
        at random."""
        g = self.genealogy
        unit = g._own_child_unit(target)
        options: list[Optional[int]] = [p for p in (unit.father, unit.mother)
                                        if p is not None]
        if len(options) < 2:
            options.append(None)
        choice = rng.choice(options)
        if choice is None:
            open_genders = [gnd for gnd, seat in
                            (("m", unit.father), ("f", unit.mother)) if seat is None]
            choice = g.add_parent(target, rng.choice(open_genders))
        return choice

    # -- deduction -------------------------------------------------------------

    def relatives(self, node: int) -> list[tuple[int, str, str]]:
        """(relative, label of node to relative, label of relative to node)
        for every realized relative of the person `node`, off the family units.

        One rule per label pair; in the worlds this engine builds no two
        rules relate the same two people.
        """
        g = self.genealogy
        gender, spouse = g.gender, g.spouse
        children_of, parents_of, siblings_of = g.children_of, g.parents_of, g.siblings_of
        children = children_of(node)
        parents = parents_of(node)
        siblings = siblings_of(node)
        partner = spouse.get(node)
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
        own = gender[node] != "m"
        return [(other, mine[own], theirs[gender[other] != "m"])
                for others, mine, theirs in rules for other in others]

    def shape(self) -> tuple:
        """Per person: child unit, parent unit (numbered as met, None for
        none) and spouse: all that relates two people but their genders."""
        g, units = self.genealogy, {id(None): None}
        return tuple((units.setdefault(id(g.child_unit.get(p)), len(units)),
                      units.setdefault(id(g.parent_unit.get(p)), len(units)),
                      g.spouse.get(p)) for p in g.gender)

    def derive(self, u: int, v: int) -> Optional[str]:
        """Vocabulary label of "u is <r> of v", or None."""
        for other, label, _ in self.relatives(u):
            if other == v:
                return label
        return None


@cache
def compose() -> dict[str, dict[str, str]]:
    """acc -> step -> result: the label of A to C that the oracle reads off "A
    is acc of B, B is step of C" for either gender of C.  Shared: read only."""
    verify = VERIFIERS["kinship"]
    table: dict[str, dict[str, str]] = {}
    for r1 in KINSHIP_LABELS:
        for r2 in KINSHIP_LABELS:
            story = [("A", r1, "B"), ("B", r2, "C")]
            genders = {"A": LABEL_GENDER[r1], "B": LABEL_GENDER[r2]}
            results = {verify(story, "A", "C", {**genders, "C": c}) for c in "mf"}
            if len(results) == 1 and (result := results.pop()) in KINSHIP_LABELS:
                table.setdefault(r1, {})[r2] = result
    return table


def chain_relation(relations: list[str]) -> Optional[str]:
    """The head-to-tail label the steps entail, folded left to right through
    compose(); None once a step has no unique vocabulary outcome."""
    if not relations:
        raise ValueError("chain_relation requires at least one relation")
    acc: Optional[str] = relations[0]
    for r in relations[1:]:
        acc = compose().get(acc, {}).get(r)  # None stays None
    return acc
