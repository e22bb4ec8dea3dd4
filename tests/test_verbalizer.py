import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reasonforge.augment import add_edge_noise, no_augment, permute
from reasonforge.kinship import KINSHIP_LABELS
from reasonforge.relgraph import Triple, grow_graph
from reasonforge.sampler import ReasoningChain, sample_chain
from reasonforge.spatial import SPATIAL_LABELS, SpatialEngine
from reasonforge.verbalizer import (TemplatePool, assign_names, data_dir,
                                    name_gender_lookup, render_answer,
                                    render_query, verbalize_story)


@pytest.fixture(scope="module")
def kin_pool():
    return TemplatePool.for_task("kinship")


@pytest.fixture(scope="module")
def spatial_pool():
    return TemplatePool.for_task("spatial")


def test_pools_cover_vocabularies(kin_pool, spatial_pool):
    assert set(kin_pool.templates) == set(KINSHIP_LABELS)
    assert set(spatial_pool.templates) == set(SPATIAL_LABELS)
    for pool in (kin_pool, spatial_pool):
        for forms in pool.templates.values():
            assert len(forms) >= 2


def test_every_template_round_trips(kin_pool, spatial_pool):
    for pool, a, b in ((kin_pool, "Frances", "Morgan"), (spatial_pool, "M", "O")):
        for relation, forms in pool.templates.items():
            for form in forms:
                sentence = form.format(A=a, B=b)
                assert pool.extract(sentence) == [(a, relation, b)], sentence


def test_canonical_sentences_match_reference_style(kin_pool, spatial_pool):
    assert kin_pool.canonical("daughter", "Frances", "Morgan") == \
        "Frances is the daughter of Morgan."
    assert spatial_pool.canonical("left", "M", "F") == \
        "M is directly to the left of F."
    assert spatial_pool.canonical("lower-left", "S", "Q") == \
        "S is to the lower-left of Q."
    assert spatial_pool.canonical("above", "Q", "A") == "Q is directly above A."


def test_render_query():
    assert render_query("Brittney", "Morgan", "kinship") == \
        "What is the relationship of Brittney to Morgan?"
    assert render_query("M", "O", "spatial") == \
        "What is the relation of the agent M to the agent O?"
    assert render_query("C", "Y", "spatial") == \
        "What is the relation of the agent C to the agent Y?"


def test_render_answer():
    assert render_answer("Brittney", "Morgan", "niece", "kinship") == \
        "Brittney is the niece of Morgan"
    assert render_answer("M", "O", "left", "spatial") == \
        "M is directly to the left of O."
    assert render_answer("C", "Y", "lower-left", "spatial") == \
        "C is to the lower-left of Y."
    assert render_answer("A", "B", "overlaps", "spatial") == "A overlaps with B."


def test_assign_names_gender_consistent():
    genders = {0: "f", 1: "m", 2: "f", 3: "m", 4: "m"}
    lookup = name_gender_lookup()
    for seed in range(20):
        names = assign_names([0, 1, 2, 3, 4], seed, genders)
        assert len(set(names.values())) == 5
        for node, name in names.items():
            assert lookup[name] == genders[node]


def test_assign_names_spatial_letters():
    names = assign_names(list(range(12)), 3, SpatialEngine.genders)
    assert len(set(names.values())) == 12
    assert all(len(n) == 1 and n.isupper() for n in names.values())


def test_story_one_sentence_per_triple_and_deterministic(spatial_pool):
    g = grow_graph(SpatialEngine(), 1)
    chain = sample_chain(g, 3, 8)
    aug = add_edge_noise(chain, g, 1, seed=8)
    nodes = list(chain.walk) + [t.object for t, _ in aug.distractors]
    names = assign_names(nodes, 8, SpatialEngine.genders)
    story = verbalize_story(aug, names, spatial_pool, seed=8)
    assert story == verbalize_story(aug, names, spatial_pool, seed=8)
    assert story.count(".") == 4
    recovered = spatial_pool.extract(story)
    expected = [(names[t.subject], t.relation, names[t.object])
                for _, t in aug.story_items()]
    assert recovered == expected


def test_story_follows_permuted_order(spatial_pool):
    g = grow_graph(SpatialEngine(), 1)
    chain = sample_chain(g, 3, 4)
    aug = permute(chain, seed=0)
    names = assign_names(chain.walk, 4, SpatialEngine.genders)
    story = verbalize_story(aug, names, spatial_pool, seed=4)
    recovered = spatial_pool.extract(story)
    expected = [(names[t.subject], t.relation, names[t.object])
                for t in aug.core_story_triples()]
    assert recovered == expected


def test_missing_name_is_an_error(spatial_pool):
    chain = ReasoningChain(walk=[0, 1], steps=[Triple(0, "above", 1)])
    with pytest.raises(KeyError):
        verbalize_story(no_augment(chain), {0: "A"}, spatial_pool, seed=0)


def test_no_name_collisions_between_genders():
    pools = name_gender_lookup()
    # every name maps to exactly one gender by construction of the lookup;
    # make sure the source pools do not overlap
    from reasonforge.verbalizer import load_name_pools
    raw = load_name_pools()
    assert not set(raw["m"]) & set(raw["f"])


def test_template_validation():
    with pytest.raises(ValueError):
        TemplatePool({"father": ["{A} only one template {B}."]}, "[A-Z]")
    with pytest.raises(ValueError):
        TemplatePool({"father": ["no slots here.", "{A} and {B}."]}, "[A-Z]")
    with pytest.raises(ValueError):
        TemplatePool({}, "[A-Z]")


@pytest.mark.parametrize("forms", [
    ["{B} is fathered by {A}.", "{A} is {B}'s father."],
    ["{A} is the father of {B}.", "The father of {B} is {A}."],
    ["{A} is the father of {B}.", "{A} and {A} are fathers of {B}."],
])
def test_template_must_start_with_its_one_a_slot(forms):
    with pytest.raises(ValueError):
        TemplatePool({"father": forms}, "[A-Z]")


def test_name_pattern_groups_keep_slots_apart():
    pool = TemplatePool({"r": ["{A} r {B}.", "{A} is r to {B}."],
                         "s": ["{A} s {B}.", "{A} is s to {B}."]}, "([A-Z])([a-z]*)")
    assert pool.extract("Ann s Bo. Cy is r to D.") == [
        ("Ann", "s", "Bo"), ("Cy", "r", "D")]


def reference_extract(templates, name_pattern, text):
    """One finditer per template; the first listed template wins at a start
    position; triples in position order."""
    found = {}
    for relation, forms in templates.items():
        for form in forms:
            matcher = re.compile(re.escape(form)
                                 .replace(r"\{A\}", f"(?P<A>{name_pattern})")
                                 .replace(r"\{B\}", f"(?P<B>{name_pattern})"))
            for m in matcher.finditer(text):
                found.setdefault(m.start(), (m.group("A"), relation, m.group("B")))
    return [found[pos] for pos in sorted(found)]


def spliced_texts(templates, names):
    """Texts spliced from whole sentences, template fragments (whole and
    cut), names, non-names and separators."""
    forms = [form for group in templates.values() for form in group]
    fragments = sorted({piece[i:j] for form in forms
                        for piece in re.split(r"\{[AB]\}", form) if piece
                        for i, j in ((0, len(piece)), (0, len(piece) // 2),
                                     (len(piece) // 2, len(piece)))})
    sentence = st.builds(lambda form, a, b: form.format(A=a, B=b),
                         st.sampled_from(forms), st.sampled_from(names),
                         st.sampled_from(names))
    part = st.one_of(sentence, st.sampled_from(fragments), st.sampled_from(names),
                     st.sampled_from(["", " ", "\n", "'s "]))
    return st.lists(part, max_size=24).map("".join)


POOL_NAMES = {
    "kinship": ["Ann", "Sean", "Pennie", "Mc", "McDo", "AB", "ann", "A"],
    "spatial": ["A", "Q", "Z", "AB", "McDo", "a"],
}


@pytest.mark.parametrize("task", ["kinship", "spatial"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extract_equals_per_template_scan(task, data):
    asset = json.loads((data_dir() / f"templates_{task}.json").read_text())
    text = data.draw(spliced_texts(asset["templates"], POOL_NAMES[task]))
    assert TemplatePool.for_task(task).extract(text) == \
        reference_extract(asset["templates"], asset["name_pattern"], text)


def test_data_dir_env_override(tmp_path, monkeypatch):
    import json
    import shutil

    from reasonforge.verbalizer import data_dir

    custom = tmp_path / "assets"
    shutil.copytree(data_dir(), custom)
    templates = json.loads((custom / "templates_spatial.json").read_text())
    templates["templates"]["above"] = ["{A} hovers right over {B}.",
                                       "{A} is directly above {B}."]
    (custom / "templates_spatial.json").write_text(json.dumps(templates))

    packaged = TemplatePool.for_task("spatial")
    assert TemplatePool.for_task("spatial") is packaged
    monkeypatch.setenv("REASONFORGE_DATA_DIR", str(custom))
    pool = TemplatePool.for_task("spatial")
    assert pool is not packaged and TemplatePool.for_task("spatial") is pool
    assert pool.canonical("above", "A", "B") == "A hovers right over B."
    monkeypatch.delenv("REASONFORGE_DATA_DIR")
    assert TemplatePool.for_task("spatial") is packaged


def test_assets_read_once_per_path():
    from reasonforge.verbalizer import _read_text, load_name_pools

    load_name_pools()
    misses = _read_text.cache_info().misses
    for _ in range(5):
        load_name_pools()
    assert _read_text.cache_info().misses == misses


def test_name_pools_parsed_once_per_data_dir(tmp_path, monkeypatch):
    import json
    import shutil

    from reasonforge.verbalizer import data_dir, load_name_pools

    packaged = load_name_pools()
    assert load_name_pools() is packaged
    custom = tmp_path / "assets"
    shutil.copytree(data_dir(), custom)
    (custom / "names.json").write_text(json.dumps({"m": ["Al"], "f": ["Bo"]}))
    monkeypatch.setenv("REASONFORGE_DATA_DIR", str(custom))
    assert load_name_pools() == {"m": ["Al"], "f": ["Bo"]}
    monkeypatch.delenv("REASONFORGE_DATA_DIR")
    assert load_name_pools() is packaged
