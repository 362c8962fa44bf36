"""The one validator under hostile input: a real trace, telemetry segment
and flight dump each take one mutation, and every view still exits 0, 1
or 2 with an ``error:`` line, never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.export import load_trace
from tests.obs.test_flight import (make_event, make_instant, make_recorder,
                                   make_span, record)
from tests.obs.test_top import record_stream


def serialize(doc: dict, array: bool) -> str:
    """An object file, or a JSON Array segment left open as a live
    writer leaves it."""
    if not array:
        return json.dumps(doc)
    return "[\n" + "".join(json.dumps(e) + ",\n" for e in doc["traceEvents"])


def objects(node):
    """Every non-empty object inside a parsed document."""
    if isinstance(node, dict) and node:
        yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from objects(child)


def view(path, command) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        flags = ["--once"] if command == "top" else []
        return main([command, str(path), *flags]), err.getvalue()


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """``(path, text, is_array)`` of a trace, a segment and a dump."""
    root = tmp_path_factory.mktemp("sources")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--app", "stencil", "--pieces", "2",
                     "--iterations", "1", "--shards", "1",
                     "--trace-out", str(root / "trace.json")]) == 0
    record_stream(root / "telemetry", outage=True)
    rec = make_recorder(root, cooldown=0.0, exemplar_source=lambda: [
        {"metric": "service.latency_seconds", "value": 0.1, "trace": 1}])
    record(rec, make_instant(), *(
        make_span(n, start=n * 0.01, task_id=n, deps=[n - 1] if n else [])
        for n in range(3)))
    rec.record_event(make_event("expired", detail="expired in queue"))
    paths = [root / "trace.json", *(root / "telemetry").glob("*.json"),
             rec.last_dump]
    return [(p, p.read_text(), p.read_text().startswith("[")) for p in paths]


@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_mutation_never_crashes_a_view(sources, tmp_path, data):
    def pick(items):  # by index, so a failing example's repr stays small
        return items[data.draw(st.integers(0, len(items) - 1))]

    path, text, array = pick(sources)
    doc = load_trace(path)[0]
    mutation = pick(["drop", "swap", "truncate", "garbage", "swap-ts"])
    if mutation == "truncate":
        text = text[:data.draw(st.integers(0, len(text)))]
    elif mutation == "garbage":
        lines = text.splitlines(keepends=True)
        lines.insert(data.draw(st.integers(0, len(lines))), "garbage\n")
        text = "".join(lines)
    elif mutation == "swap-ts":
        timed = [e for e in doc["traceEvents"] if "ts" in e]
        a, b = pick(timed), pick(timed)
        a["ts"], b["ts"] = b["ts"], a["ts"]
    else:
        target = pick(list(objects(doc["traceEvents"] if array else doc)))
        key = pick(sorted(target))
        if mutation == "drop":
            del target[key]
        else:  # a value of another type
            target[key] = pick([v for v in ("x", 1.5, None, [1], {"k": 1},
                                            True)
                                if type(v) is not type(target[key])])
    mutant = tmp_path / path.name
    mutant.write_text(text if mutation in ("truncate", "garbage")
                      else serialize(doc, array))
    try:
        load_trace(mutant)
    except (ValueError, FileNotFoundError):
        pass
    for command in ("prof", "top", "blackbox"):
        code, err = view(mutant, command)
        assert code == 0 or (code in (1, 2) and err.startswith("error:")), \
            (command, err)


@pytest.mark.parametrize("command, source, where, key, value, error", [
    ("prof", 0, "task", "args", [1], "args: must be an object"),
    ("prof", 0, "task", "dur", None, "needs 'dur' >= 0, got None"),
    ("prof", 0, "task", "ts", "late", "'ts' must be a number >= 0"),
    ("top", 1, "histogram", "args", {"le=a": 1}, "bound 'le=a'"),
    ("top", 1, "histogram", "args", [1], "args: must be an object"),
    ("top", 1, "histogram", "args", {"le=1.0": "two"}, "number, got 'two'"),
    ("top", 1, "slo", "args", {"state": "maybe"}, "firing/resolved"),
    ("top", 1, "slo", "cat", "exemplar", "has no numeric"),
    ("blackbox", 2, "config", "REPRO_X", "env", "otherData.config:"),
    ("blackbox", 2, "otherData", "dropped", [1], "otherData.dropped:"),
    ("blackbox", 2, "trigger", "session", "4", "otherData.trigger:"),
    ("blackbox", 2, "trigger", "kind", "gremlins", "trigger: needs a kind"),
    ("blackbox", 2, "exemplars", 0, {"value": "slow"}, "a numeric value"),
    ("blackbox", 2, "$", "otherData", [], "otherData: must be an object"),
], ids=["prof-list-args", "prof-null-dur", "prof-string-ts",
        "top-bad-centroid", "top-list-digests", "top-string-bucket",
        "top-unknown-alert-state", "top-exemplar-without-value",
        "blackbox-string-config", "blackbox-list-dropped",
        "blackbox-string-session", "blackbox-unknown-trigger",
        "blackbox-string-exemplar", "blackbox-list-otherdata"])
def test_a_probe_exits_1_with_an_error(sources, tmp_path, command, source,
                                       where, key, value, error):
    """Input a view must refuse: one bad value in an event (by category),
    in ``otherData`` or one of its blocks, or in the document (``"$"``)."""
    path, _, array = sources[source]
    doc = load_trace(path)[0]
    other = doc.get("otherData", {})
    target = doc if where == "$" else other if where == "otherData" \
        else other.get(where) or [e for e in doc["traceEvents"]
                                  if e.get("cat") == where][-1]
    target[key] = value
    (tmp_path / path.name).write_text(serialize(doc, array))
    code, err = view(tmp_path / path.name, command)
    assert code == 1 and err.startswith("error:") and error in err, err
