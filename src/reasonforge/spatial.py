"""Spatial engine: a grid of nodes at 2-D integer coordinates.

Nine direction labels, one per sign pair of a displacement vector
(x grows to the right, y grows upward).  The grid supplies the labels of
its edges, so it shapes which label sequences get drawn.  Answers follow
StepGame's reading, where each story sentence is one unit step: the
answer is the sign of the summed unit offsets of a chain's labels
(`chain_relation`), not the grid's own head-to-tail relation, because
chain steps may join cells that are not adjacent.  The sum keeps whole
offsets, never composing labels pairwise, which is lossy.
"""

from __future__ import annotations

from typing import Optional, Sequence

# Unit offset of "A is <label> of B": position(A) - position(B).
_OFFSETS = {
    "above": (0, 1),
    "below": (0, -1),
    "left": (-1, 0),
    "lower-left": (-1, -1),
    "lower-right": (1, -1),
    "right": (1, 0),
    "upper-left": (-1, 1),
    "upper-right": (1, 1),
    "overlaps": (0, 0),
}
SPATIAL_LABELS = tuple(_OFFSETS)  # growth realizes labels in this order

_BY_SIGN = {v: k for k, v in _OFFSETS.items()}


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def relation_of_displacement(dx: int, dy: int) -> str:
    """Map an arbitrary displacement to its direction label via signs."""
    return _BY_SIGN[(_sign(dx), _sign(dy))]


def chain_relation(relations: Sequence[str]) -> str:
    """Head-to-tail label of a chain of direction labels.

    Each label is read as "v_i is <r> of v_{i+1}", so the head-minus-tail
    displacement is the sum of the unit offsets.
    """
    if not relations:
        raise ValueError("chain_relation requires at least one relation")
    dx = dy = 0
    for r in relations:
        ox, oy = _OFFSETS[r]
        dx += ox
        dy += oy
    return relation_of_displacement(dx, dy)


class SpatialEngine:
    """Grid world: node id -> integer coordinate, plus deduction over it."""

    labels = SPATIAL_LABELS
    # overlaps would create coincident nodes with no reasoning value
    default_growth = tuple(r for r in SPATIAL_LABELS if r != "overlaps")
    genders = None  # letters carry no gender
    fold = None  # every chain of labels has a label: walks prune nothing
    rules = None  # no fold to factor: each graph keeps its own memo
    growth_iterations = 2  # a 5x5 grid

    def __init__(self) -> None:
        self.pos: dict[int, tuple[int, int]] = {}
        self.occupied: dict[tuple[int, int], int] = {}

    def _new_node(self, xy: tuple[int, int]) -> int:
        node = len(self.pos)
        self.pos[node] = xy
        self.occupied[xy] = node
        return node

    def new_root(self, rng) -> int:
        return self._new_node((0, 0))

    def realize(self, target: int, relation: str, rng) -> Optional[tuple[int, list[int]]]:
        """Place a new node one unit cell in the given direction from target.

        Returns (subject node, all created nodes), or None when the cell is
        already taken.
        """
        tx, ty = self.pos[target]
        dx, dy = _OFFSETS[relation]
        cell = (tx + dx, ty + dy)
        if cell in self.occupied:
            return None
        node = self._new_node(cell)
        return node, [node]

    def derive_pair(self, u: int, v: int) -> tuple[Optional[str], Optional[str]]:
        """(label of u to v, label of v to u) from true coordinates."""
        if u == v:
            return None, None
        ux, uy = self.pos[u]
        vx, vy = self.pos[v]
        dx, dy = _sign(ux - vx), _sign(uy - vy)
        return _BY_SIGN[(dx, dy)], _BY_SIGN[(-dx, -dy)]

    def relatives(self, node: int) -> list[tuple[int, str, str]]:
        """(other, label of node to other, label of other to node) for every
        other placed node: on a grid every pair is related."""
        return [(other, *self.derive_pair(node, other)) for other in self.pos
                if other != node]

    def chain_relation(self, labels: Sequence[str]) -> str:
        return chain_relation(labels)

    def ground_truth(self, head: int, tail: int, labels: Sequence[str]) -> str:
        """The steps' unit-offset sum, as a reader computes it from the story;
        not derive_pair(head, tail), the grid's relation of the two nodes."""
        return chain_relation(labels)
