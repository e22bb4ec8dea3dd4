import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reasonforge.relgraph import RelationalGraph, _attach, grow_graph
from reasonforge.sampler import sample_chain
from reasonforge.spatial import (_OFFSETS, SPATIAL_LABELS, SpatialEngine,
                                 chain_relation, relation_of_displacement)

# independent of the package: the test's own label geometry
SIGNS = {
    "above": (0, 1), "below": (0, -1), "left": (-1, 0), "right": (1, 0),
    "upper-left": (-1, 1), "upper-right": (1, 1),
    "lower-left": (-1, -1), "lower-right": (1, -1), "overlaps": (0, 0),
}


def simulate(labels):
    x = y = 0
    for r in labels:
        dx, dy = SIGNS[r]
        x += dx
        y += dy
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    return next(k for k, v in SIGNS.items() if v == (sx, sy))


def test_offsets():
    assert _OFFSETS == SIGNS


def test_vocabulary_is_the_9_labels():
    # growth realizes the labels in this order, so it decides output bytes
    assert SPATIAL_LABELS == (
        "above", "below", "left", "lower-left", "lower-right", "right",
        "upper-left", "upper-right", "overlaps")
    assert SpatialEngine.default_growth == SPATIAL_LABELS[:-1]


def test_relation_of_displacement():
    assert relation_of_displacement(0, 0) == "overlaps"
    assert relation_of_displacement(3, -1) == "lower-right"
    assert relation_of_displacement(-2, 0) == "left"


def test_bijection():
    for r in SPATIAL_LABELS:
        assert relation_of_displacement(*_OFFSETS[r]) == r


def test_invert_fixed_point_and_involution():
    # the grid stores each pair's reverse edge: the point reflection of the
    # edge's label, one reverse per label, read back into the label
    g = grow_graph(SpatialEngine(), 2, random.Random(0))
    reverse = {}
    for (a, b), r in g.edges.items():
        reverse.setdefault(r, set()).add(g.edges[(b, a)])
    assert set(reverse) == set(SPATIAL_LABELS) - {"overlaps"}
    assert reverse["upper-left"] == {"lower-right"}
    for r, backs in reverse.items():
        (back,) = backs
        assert reverse[back] == {r}
        assert SIGNS[back] == (-SIGNS[r][0], -SIGNS[r][1])


@given(st.integers(-50, 50), st.integers(-50, 50))
@example(0, 0)
def test_inversion_matches_negated_displacement(dx, dy):
    # two nodes attached as growth attaches them: the reverse edge is the
    # label of the negated displacement; coincident nodes overlap both ways
    engine = SpatialEngine()
    engine.pos = {0: (0, 0), 1: (dx, dy)}
    g = RelationalGraph(engine)
    _attach(g, 0)
    _attach(g, 1)
    assert g.edges[(1, 0)] == relation_of_displacement(dx, dy)
    assert g.edges[(0, 1)] == relation_of_displacement(-dx, -dy)


def test_chain_examples():
    assert chain_relation(["above", "below"]) == "overlaps"
    assert chain_relation(["above", "above", "lower-left"]) == "upper-left"
    assert chain_relation(["right", "above"]) == "upper-right"


def test_pairwise_label_composition_would_be_wrong():
    # above then above is still above; composing that with lower-left as
    # labels loses the two-cell offset that the coordinate sum keeps
    assert simulate(["above", "above", "lower-left"]) == "upper-left"
    assert simulate([simulate(["above", "above"]), "lower-left"]) == "left"


def test_empty_chain_rejected():
    with pytest.raises(ValueError):
        chain_relation([])


@given(st.lists(st.sampled_from(SPATIAL_LABELS), min_size=1, max_size=12))
def test_chain_matches_simulation(labels):
    assert chain_relation(labels) == simulate(labels)


def test_exhaustive_up_to_three():
    for n in (1, 2, 3):
        for labels in itertools.product(SPATIAL_LABELS, repeat=n):
            assert chain_relation(labels) == simulate(labels)


def test_answer_is_unit_offset_sum_not_grid_relation():
    # StepGame's reading: each story sentence is one unit step.  Chain steps
    # join grid cells that need not be adjacent, so the grid's own
    # head-to-tail relation is not the answer.
    graph = grow_graph(SpatialEngine(), SpatialEngine.growth_iterations, random.Random(0))
    engine = graph.engine
    differs = 0
    for hop in range(2, 11):
        for seed in range(30):
            chain = sample_chain(graph, hop, seed)
            labels = [step.relation for step in chain.steps]
            answer = engine.ground_truth(chain.head, chain.tail, labels)
            assert answer == chain_relation(labels) == simulate(labels)
            differs += answer != engine.derive_pair(chain.head, chain.tail)[0]
    assert differs > 0


@pytest.mark.parametrize("relation", SPATIAL_LABELS[:-1])
def test_realize_numbers_nodes_in_creation_order(relation):
    eng = SpatialEngine()
    node = eng.new_root(None)
    for count in range(1, 4):
        assert eng.realize(node, relation, None) == (count, [count])
        node = count
    assert eng.realize(0, relation, None) is None  # the cell is taken
    assert list(eng.pos) == [0, 1, 2, 3]
