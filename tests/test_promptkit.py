import json
import random

import pytest

from reasonforge.cli import main
from reasonforge.promptkit import (draw_shots,
                                   load_prompt_asset, parse_response,
                                   render_prompt, render_target)
from reasonforge import promptkit, taskgen
from reasonforge.taskgen import (DatasetSpec, build_dataset, derive_seed,
                                 read_jsonl, verify_dataset, write_jsonl)
from reasonforge.verbalizer import query_endpoints

KINSHIP_OPENING = ("You are given a narrative describing the familial "
                   "relationships between several individuals.")
SPATIAL_OPENING = ("You are given a narrative describing the spatial "
                   "relationships between several individuals.")
KINSHIP_LABEL_LIST = ("['aunt', 'brother', 'daughter', 'daughter-in-law', "
                      "'father', 'father-in-law', 'granddaughter', "
                      "'grandfather', 'grandmother', 'grandson', 'mother', "
                      "'mother-in-law', 'nephew', 'niece', 'sister', 'son', "
                      "'son-in-law', 'uncle']")
SPATIAL_LABEL_LIST = ('["above", "below", "left", "lower-left", "lower-right", '
                      '"right", "upper-left", "upper-right", "overlaps"]')


@pytest.fixture(scope="module")
def kinship_examples():
    return build_dataset(DatasetSpec.make("kinship", {2: 8, 5: 8}, seed=21))


@pytest.fixture(scope="module")
def spatial_examples():
    return build_dataset(DatasetSpec.make("spatial", {2: 8, 5: 8}, seed=21))


def test_assets_carry_verbatim_instructions():
    for style in ("std-p", "eta-p"):
        kin = load_prompt_asset("kinship", style)
        assert kin.startswith(KINSHIP_OPENING)
        assert KINSHIP_LABEL_LIST in kin
        spa = load_prompt_asset("spatial", style)
        assert spa.startswith(SPATIAL_OPENING)
        assert SPATIAL_LABEL_LIST in spa
    assert "First break down the narrative into ordered structured triples" \
        in load_prompt_asset("kinship", "eta-p")
    assert "First break down the narrative into ordered structured triples" \
        in load_prompt_asset("spatial", "eta-p")
    assert "Analyze the narrative and determine the familial relationship" \
        in load_prompt_asset("kinship", "std-p")


def test_zero_shot_prompt_structure(kinship_examples, spatial_examples):
    e = kinship_examples[0]
    prompt = render_prompt(e, "std-p")
    assert prompt.startswith(KINSHIP_OPENING)
    assert prompt.count("### Story:") == 1
    assert e.story in prompt
    assert e.query in prompt
    assert prompt.rstrip().endswith("### Output:")

    s = spatial_examples[0]
    eta = render_prompt(s, "eta-p")
    assert SPATIAL_LABEL_LIST in eta
    assert eta.count("### Story:") == 1
    assert eta.rstrip().endswith("### Output:")


def test_five_shot_prompt_structure(kinship_examples):
    e = kinship_examples[0]
    shots = draw_shots(kinship_examples, 5, 3, [0])
    assert len(shots) == 5
    assert all(s.id != e.id for s in shots)
    prompt = render_prompt(e, "eta-p", shots)
    assert prompt.count("### Story:") == 6
    assert prompt.count("### Output:") == 6
    assert prompt.count("Therefore,") == 5  # shots completed, query open
    body = prompt[len(load_prompt_asset("kinship", "eta-p").split("### Story:")[0]):]
    assert body.rstrip().endswith("### Output:")


def test_shot_overlap_rejected(kinship_examples):
    e = kinship_examples[0]
    with pytest.raises(ValueError):
        render_prompt(e, "std-p", [e])


def test_draw_shots_needs_enough_pool(kinship_examples):
    with pytest.raises(ValueError):
        draw_shots(kinship_examples[:3], 5, 0, [0])


def test_draw_shots_matches_filtered_sample(kinship_examples):
    # the query at the first position, at the last, and at both
    first, last = kinship_examples[0], kinship_examples[-1]
    for pool, qid in ((kinship_examples, first.id), (kinship_examples, last.id),
                      (kinship_examples + [first], first.id)):
        skip = [i for i, e in enumerate(pool) if e.id == qid]
        for seed in range(20):
            expected = random.Random(seed).sample([e for e in pool if e.id != qid], 5)
            assert draw_shots(pool, 5, seed, skip) == expected


def test_prompt_byte_stability(kinship_examples):
    e = kinship_examples[1]
    shots = draw_shots(kinship_examples, 2, 9, [1])
    assert render_prompt(e, "eta-p", shots) == render_prompt(e, "eta-p", shots)


def test_render_target_styles(spatial_examples):
    e = spatial_examples[0]
    std = render_target(e, "std-p")
    assert "\n" not in std
    eta = render_target(e, "eta-p")
    assert eta.startswith("The ordered structured triples are:\n")
    assert "\nTherefore, " in eta
    assert eta.count("\n") == e.hop + 1
    assert eta.endswith(std)


def test_each_query_parsed_once(tmp_path, monkeypatch, kinship_examples):
    # reading a row parses its query; verifying and rendering reuse it
    path = tmp_path / "d.jsonl"
    write_jsonl(kinship_examples, path)
    parsed = []

    def counting(query, task):
        parsed.append(query)
        return query_endpoints(query, task)

    monkeypatch.setattr(taskgen, "query_endpoints", counting)
    examples = read_jsonl(path)
    assert verify_dataset(examples).mismatch_count == 0
    for position, e in enumerate(examples):
        render_prompt(e, "eta-p", draw_shots(examples, 3, position, [position]))
        render_target(e, "std-p")
        render_target(e, "eta-p")
    assert parsed == [e.query for e in examples]


def render_file(path, out, style):
    # `render -k 5 --seed 7` with shots drawn from the dataset itself
    assert main(["render", "--dataset", str(path), "--style", style, "-k", "5",
                 "--shots-file", str(path), "--seed", "7", "-o", str(out)]) == 0
    return [json.loads(line) for line in out.read_text().splitlines()]


@pytest.mark.parametrize("style", ["std-p", "eta-p"])
@pytest.mark.parametrize("task", ["kinship", "spatial"])
def test_render_command_equals_public_path(tmp_path, request, task, style):
    # every record equals the one built per example from the public
    # functions, with no target or block shared between prompts
    path = tmp_path / "d.jsonl"
    write_jsonl(request.getfixturevalue(f"{task}_examples"), path)
    written = render_file(path, tmp_path / "p.jsonl", style)
    pool = read_jsonl(path)
    expected = []
    for e in pool:
        skip = [i for i, shot in enumerate(pool) if shot.id == e.id]
        shots = draw_shots(pool, 5, derive_seed(7, e.id), skip)
        expected.append({"id": e.id, "prompt": render_prompt(e, style, shots),
                         "target": render_target(e, style)})
    assert written == expected


def test_render_builds_each_target_once(tmp_path, monkeypatch, kinship_examples):
    # one `render` call builds each example's target once, however often it
    # is drawn as a shot, and reads the instruction once per task
    path = tmp_path / "d.jsonl"
    write_jsonl(kinship_examples, path)
    built, read = [], []

    def counting_target(example, style):
        built.append(example.id)
        return render_target(example, style)

    def counting_asset(task, style):
        read.append((task, style))
        return load_prompt_asset(task, style)

    monkeypatch.setattr(promptkit, "render_target", counting_target)
    monkeypatch.setattr(promptkit, "load_prompt_asset", counting_asset)
    render_file(path, tmp_path / "p.jsonl", "eta-p")
    assert sorted(built) == sorted(e.id for e in kinship_examples)
    assert read == [("kinship", "eta-p")]


# -- parsing -------------------------------------------------------------------

CASE_RESPONSES = [
    # style, task, response, expected relation
    ("eta-p", "kinship",
     "The ordered structured triples are:\nBrittney is the sister of "
     "Elizabeth.\nFrances is the daughter of Morgan.\n\nTherefore,\n"
     "Brittney is the niece of Morgan", "niece"),
    ("std-p", "kinship", "Evelyn is the grandmother of Nichole", "grandmother"),
    ("eta-p", "spatial", "Therefore,\nM is directly to the left of O.", "left"),
    ("eta-p", "spatial", "Therefore, M is to the lower-left of O.", "lower-left"),
    ("eta-p", "spatial", "Therefore,\nS is to the upper-left of T.", "upper-left"),
    # phrases match whole words only
    ("std-p", "spatial", "Therefore, A is directly above B. Upright answer.",
     "above"),
    ("eta-p", "spatial", "Therefore, K is directly below L, no leftover doubt.",
     "below"),
]


@pytest.mark.parametrize("style,task,response,expected", CASE_RESPONSES)
def test_parse_reference_responses(style, task, response, expected):
    assert parse_response(response, style, task).relation == expected


def test_parse_prefers_text_after_last_therefore():
    text = ("Therefore, X is the brother of Y.\nMore thoughts.\n"
            "Therefore, X is the uncle of Z.")
    assert parse_response(text, "std-p", "kinship").relation == "uncle"


def test_parse_longest_match_wins():
    for diagonal in ("upper-left", "upper-right", "lower-left", "lower-right"):
        text = f"Therefore, A is to the {diagonal} of B."
        assert parse_response(text, "std-p", "spatial").relation == diagonal
    assert parse_response("Therefore, A is the mother-in-law of B.",
                          "std-p", "kinship").relation == "mother-in-law"


def test_parse_unparseable():
    parsed = parse_response("I don't know", "std-p", "kinship")
    assert parsed.relation is None


def test_parse_extracts_triples_under_eta_p():
    response = ("The ordered structured triples are:\n"
                "1. Evelyn is the mother of Sean.\n"
                "- Sean is the brother of Pennie.\n"
                "Therefore, Evelyn is the mother of Pennie")
    parsed = parse_response(response, "eta-p", "kinship")
    assert parsed.relation == "mother"
    assert parsed.triples == [["Evelyn", "mother", "Sean"],
                              ["Sean", "brother", "Pennie"]]


def test_triples_marker_found_after_dotted_capital_i():
    # "İ".lower() is two characters long; the marker is found in the text
    response = ("İ" * 40 + "The ordered structured triples are:\n"
                "Evelyn is the mother of Sean.\n"
                "Sean is the brother of Pennie.\n"
                "Therefore, Evelyn is the mother of Pennie")
    assert parse_response(response, "eta-p", "kinship").triples == \
        [["Evelyn", "mother", "Sean"], ["Sean", "brother", "Pennie"]]
    assert parse_response("TRİPLES: Evelyn is the mother of Sean.",
                          "eta-p", "kinship").triples is None


def test_lowercase_therefore_ends_the_triples(kinship_examples, spatial_examples):
    # the answer sentence after a lowercase "therefore" is not one more triple
    for e in kinship_examples + spatial_examples:
        target = render_target(e, "eta-p")
        assert "\nTherefore, " in target
        lowered = target.replace("\nTherefore, ", "\ntherefore, ")
        assert parse_response(lowered, "eta-p", e.task).triples == e.gold_triples


def test_round_trip_parse_of_targets(kinship_examples, spatial_examples):
    for dataset in (kinship_examples, spatial_examples):
        for e in dataset:
            for style in ("std-p", "eta-p"):
                parsed = parse_response(render_target(e, style), style, e.task)
                assert parsed.relation == e.answer
                if style == "eta-p":
                    assert parsed.triples == e.gold_triples
