"""``repro doctor``: the escape-hatch registry resolves values and
origins from an explicit environment — no subsystem imports, no
monkeypatching of the real ``os.environ``."""

from repro.obs.doctor import (HATCHES, config_snapshot, render_doctor,
                              resolve_hatches)


def by_env(environ=None):
    return {row["env"]: row for row in resolve_hatches(environ)}


def test_defaults_have_default_origin():
    rows = by_env({})
    assert set(rows) == {h.env for h in HATCHES}
    for row in rows.values():
        assert row["origin"] == "default"
        assert row["raw"] is None
    assert len(rows) == 2
    assert rows["REPRO_PROVENANCE"]["value"] == "off"


def test_truthy_override_flips_value_and_origin():
    rows = by_env({"REPRO_PROVENANCE": "yes"})
    assert rows["REPRO_PROVENANCE"]["value"] == "recording"
    assert rows["REPRO_PROVENANCE"]["origin"] == "env"


def test_falsey_string_is_still_the_default_outcome():
    # REPRO_PROVENANCE=0 does not enable anything: serve only honors
    # truthy strings, and doctor must agree with it
    rows = by_env({"REPRO_PROVENANCE": "0"})
    assert rows["REPRO_PROVENANCE"]["value"] == "off"
    assert rows["REPRO_PROVENANCE"]["origin"] == "default"
    assert rows["REPRO_PROVENANCE"]["raw"] == "0"


def test_value_kind_reports_the_raw_setting():
    rows = by_env({"REPRO_BENCH_MAX_NODES": "64"})
    assert rows["REPRO_BENCH_MAX_NODES"]["value"] == "64"
    assert rows["REPRO_BENCH_MAX_NODES"]["origin"] == "env"
    assert by_env({})["REPRO_BENCH_MAX_NODES"]["value"] \
        == "512 (full sweep)"


def test_config_snapshot_is_keyed_by_env_var():
    snap = config_snapshot({"REPRO_PROVENANCE": "true"})
    assert set(snap) == {h.env for h in HATCHES}
    assert snap["REPRO_PROVENANCE"] == {
        "value": "recording", "origin": "env", "raw": "true"}
    assert "raw" not in snap["REPRO_BENCH_MAX_NODES"]


def test_render_lists_every_hatch_with_header():
    table = render_doctor({"REPRO_BENCH_MAX_NODES": "32"})
    lines = table.splitlines()
    assert len(lines) == len(HATCHES) + 1
    assert lines[0].split()[:2] == ["hatch", "env"]
    for hatch in HATCHES:
        assert any(hatch.env in line for line in lines[1:])
    assert any("32" in line and "env" in line for line in lines)
