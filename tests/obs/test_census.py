"""Census tests: schema validation, structural diff, metrics
publication, and rendering across every coherence algorithm."""

import json

import pytest

from repro import ALGORITHMS, Runtime
from repro.obs.census import (CENSUS_SCHEMA, SCHEMA_ID, census, census_diff,
                              render_census, validate_census)
from repro.obs.metrics import MetricsRegistry

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree


def _run(algo: str, iterations: int = 2) -> Runtime:
    tree, P, G = make_fig1_tree()
    rt = Runtime(tree, fig1_initial(tree), algorithm=algo)
    rt.replay(fig1_stream(tree, P, G, iterations))
    return rt


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_census_validates_for_every_algorithm(algo):
    rt = _run(algo)
    doc = census(rt)
    validate_census(doc)
    assert doc["schema"] == SCHEMA_ID
    assert doc["algorithm"] == algo
    assert doc["tasks"] == len(rt.tasks)
    assert doc["edges"] == rt.graph.edge_count()
    assert set(doc["fields"]) == {"up", "down"}
    for stats in doc["fields"].values():
        assert stats["kind"] in CENSUS_SCHEMA["field_kinds"]
    # documents must be JSON-serializable end to end
    validate_census(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_census_is_pure_observation(algo):
    from repro.distributed.verify import analysis_fingerprint

    rt = _run(algo)
    before = analysis_fingerprint(rt)
    doc1 = census(rt)
    doc2 = census(rt)
    assert analysis_fingerprint(rt) == before, \
        f"{algo}: taking a census mutated the analysis state"
    assert census_diff(doc1, doc2) == {}


def test_census_diff_reports_leaves():
    rt2 = _run("raycast", iterations=2)
    rt3 = _run("raycast", iterations=3)
    diff = census_diff(census(rt2), census(rt3))
    assert diff
    assert "tasks" in diff
    a, b = diff["tasks"]
    assert a == len(rt2.tasks) and b == len(rt3.tasks)
    assert all(isinstance(path, str) and len(pair) == 2
               for path, pair in diff.items())


def test_census_publishes_gauges():
    rt = _run("raycast")
    registry = MetricsRegistry()
    doc = census(rt, registry=registry, app="fig1")
    names = {m.name for m in registry}
    assert "census.tasks" in names
    assert "census.edges" in names
    assert any(n.startswith("census.fields.up.") for n in names)
    assert "census.derived.occlusion_kill_rate" in names
    gauge = registry.gauge("census.tasks", app="fig1")
    assert gauge.value == doc["tasks"]


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_render_census_mentions_structures(algo):
    rt = _run(algo)
    doc = census(rt)
    text = render_census(doc)
    assert f"census ({algo})" in text
    assert "occlusion" in text
    kinds = {stats["kind"] for stats in doc["fields"].values()}
    if "eqsets" in kinds:
        assert "eqsets" in text
    if "tree_painter" in kinds:
        assert "composite views" in text
    if "zbuffer" in kinds:
        assert "interned sets" in text
    if "painter" in kinds:
        assert "global history" in text


# ----------------------------------------------------------------------
# validator negatives
# ----------------------------------------------------------------------
def test_validate_rejects_non_dict():
    with pytest.raises(ValueError, match="must be a dict"):
        validate_census([])


def test_validate_rejects_missing_key():
    doc = census(_run("raycast"))
    del doc["edges"]
    with pytest.raises(ValueError, match="missing required key 'edges'"):
        validate_census(doc)


def test_validate_rejects_wrong_schema():
    doc = census(_run("raycast"))
    doc["schema"] = "repro.census/0"
    with pytest.raises(ValueError, match="unknown census schema"):
        validate_census(doc)


def test_validate_rejects_unknown_field_kind():
    doc = census(_run("raycast"))
    doc["fields"]["up"]["kind"] = "octree"
    with pytest.raises(ValueError, match="unknown kind 'octree'"):
        validate_census(doc)


def test_validate_rejects_incomplete_distribution():
    doc = census(_run("raycast"))
    del doc["fields"]["up"]["sizes"]["mean"]
    with pytest.raises(ValueError, match="'sizes'.*missing 'mean'"):
        validate_census(doc)


def test_validate_rejects_non_int_meter():
    doc = census(_run("raycast"))
    doc["meter"]["entries_scanned"] = 1.5
    with pytest.raises(ValueError, match="must be an int"):
        validate_census(doc)


def test_validate_rejects_missing_derived():
    doc = census(_run("raycast"))
    del doc["derived"]["occlusion_kill_rate"]
    with pytest.raises(ValueError, match="derived block missing"):
        validate_census(doc)
