"""Analysis-state census: the quantities behind the paper's Figs 12–17.

``census(runtime)`` walks a :class:`~repro.runtime.context.Runtime`'s
live analysis structures — without mutating anything — and returns one
JSON-serializable document: per-field equivalence-set count/size/history
distributions and bucket occupancy, composite-view compaction, painter
history length, Z-buffer intern-table size, plus the lifetime
:class:`~repro.visibility.meter.CostMeter` counters and derived
occlusion kill rates.

The document validates against :data:`CENSUS_SCHEMA` (hand-rolled
checker, same style as :func:`repro.obs.export.validate_trace`), diffs
structurally with :func:`census_diff` (empty dict ⇔ identical), and
publishes into a :class:`~repro.obs.metrics.MetricsRegistry` as
``census.*`` gauges when :func:`census` is handed one.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Version tag carried in every census document.
SCHEMA_ID = "repro.census/1"

#: Published schema (documented in docs/observability.md): required
#: top-level keys with their types, the per-field stat block keyed by
#: ``kind``, and the per-kind required numeric keys.
CENSUS_SCHEMA = {
    "schema": SCHEMA_ID,
    "top_level": {
        "schema": str,
        "algorithm": str,
        "tasks": int,
        "edges": int,
        "fields": dict,
        "meter": dict,
        "derived": dict,
    },
    "field_kinds": {
        # per-field blocks, selected by their "kind" key
        "eqsets": ("count", "sizes", "history"),
        "painter": ("history_length",),
        "tree_painter": ("total_items", "views", "captured_entries",
                         "compaction_ratio"),
        "zbuffer": ("interned_sets", "elements"),
    },
    "distribution": ("count", "min", "max", "mean", "total"),
    "derived": ("occlusion_kill_rate", "entries_occluded",
                "eqsets_coalesced", "eqsets_created"),
    # optional block, attached when the census is taken under the
    # analysis service (repro.service); published as service.* gauges
    "service": ("tenants", "sessions", "admitted", "rejected",
                "completed", "expired", "errors", "degraded_sessions",
                "breaker_state"),
}


def _field_census(algo) -> dict:
    """Stat block for one coherence-algorithm instance: the algorithm
    describes its own state (a ``kind`` plus the numbers
    ``CENSUS_SCHEMA["field_kinds"]`` requires of that kind)."""
    return {"algorithm": algo.name, **algo.describe()}


def census(runtime, registry=None, service=None, **labels) -> dict:
    """One censused snapshot of ``runtime``'s analysis state.

    Pure observation: walks live structures and copies meter counters.
    When ``registry`` is given the document is also published as
    ``census.*`` gauges (``labels`` become metric labels).  ``service``
    attaches an :meth:`AnalysisService.census_block
    <repro.service.service.AnalysisService.census_block>` as the
    optional ``service`` block.
    """
    meter = {k: int(v) for k, v in sorted(runtime.meter.snapshot().items())}
    coalesced = meter.get("eqsets_coalesced", 0)
    created = meter.get("eqsets_created", 0)
    doc = {
        "schema": SCHEMA_ID,
        "algorithm": runtime.algorithm_name,
        "tasks": len(runtime.tasks),
        "edges": int(runtime.graph.edge_count()),
        "fields": {
            name: _field_census(runtime.algorithm_for(name))
            for name in sorted(runtime.tree.field_space.names)
        },
        "meter": meter,
        "derived": {
            # of every eqset ever created, the fraction a dominating
            # write later killed — ray casting's steady-state headline
            "occlusion_kill_rate": (
                round(coalesced / created, 4) if created else 0.0),
            "entries_occluded": meter.get("entries_occluded", 0),
            "eqsets_coalesced": coalesced,
            "eqsets_created": created,
        },
    }
    if service is not None:
        doc["service"] = dict(service)
    if registry is not None:
        flat: dict = {}
        _flatten("", {key: doc[key] for key in ("fields", "derived", "tasks",
                                                "edges", "service")
                      if key in doc}, flat)
        numeric = {path: value for path, value in flat.items()
                   if isinstance(value, (int, float))
                   and not isinstance(value, bool)}
        registry.publish("census", numeric, gauges=numeric, **labels)
    return doc


def validate_census(doc: dict) -> None:
    """Raise ``ValueError`` on the first schema violation (same contract
    as :func:`repro.obs.export.validate_trace`)."""
    if not isinstance(doc, dict):
        raise ValueError(f"census document must be a dict, got {type(doc)}")
    for key, typ in CENSUS_SCHEMA["top_level"].items():
        if key not in doc:
            raise ValueError(f"census missing required key {key!r}")
        if not isinstance(doc[key], typ):
            raise ValueError(
                f"census key {key!r} must be {typ.__name__}, "
                f"got {type(doc[key]).__name__}")
    if doc["schema"] != SCHEMA_ID:
        raise ValueError(
            f"unknown census schema {doc['schema']!r} "
            f"(expected {SCHEMA_ID!r})")
    for name, stats in doc["fields"].items():
        if not isinstance(stats, dict):
            raise ValueError(f"field {name!r} stats must be a dict")
        kind = stats.get("kind")
        if kind not in CENSUS_SCHEMA["field_kinds"]:
            raise ValueError(
                f"field {name!r} has unknown kind {kind!r}")
        if "algorithm" not in stats:
            raise ValueError(f"field {name!r} stats missing 'algorithm'")
        for req in CENSUS_SCHEMA["field_kinds"][kind]:
            if req not in stats:
                raise ValueError(
                    f"field {name!r} (kind {kind!r}) missing {req!r}")
        for dist_key in ("sizes", "history"):
            if dist_key in stats:
                dist = stats[dist_key]
                if not isinstance(dist, dict):
                    raise ValueError(
                        f"field {name!r} {dist_key!r} must be a dict")
                for stat in CENSUS_SCHEMA["distribution"]:
                    if stat not in dist:
                        raise ValueError(
                            f"field {name!r} {dist_key!r} missing {stat!r}")
    for event, value in doc["meter"].items():
        if not isinstance(value, int):
            raise ValueError(
                f"meter counter {event!r} must be an int, "
                f"got {type(value).__name__}")
    for req in CENSUS_SCHEMA["derived"]:
        if req not in doc["derived"]:
            raise ValueError(f"census derived block missing {req!r}")
    if "service" in doc:
        service = doc["service"]
        if not isinstance(service, dict):
            raise ValueError("census service block must be a dict")
        for req in CENSUS_SCHEMA["service"]:
            if req not in service:
                raise ValueError(f"census service block missing {req!r}")
            if not isinstance(service[req], int):
                raise ValueError(
                    f"census service counter {req!r} must be an int, "
                    f"got {type(service[req]).__name__}")


def load_census(path) -> dict:
    """Read and validate one census JSON file; a ``ValueError`` (not
    UTF-8, not JSON, not a census) names the path."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        validate_census(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return doc


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key),
                     value[key], out)
    else:
        out[prefix] = value


def census_diff(a: dict, b: dict) -> dict:
    """Structural diff of two census documents.

    Returns ``{dotted.path: (a_value, b_value)}`` for every leaf that
    differs (missing leaves appear as ``None``); empty dict ⇔ identical.
    """
    flat_a: dict = {}
    flat_b: dict = {}
    _flatten("", a, flat_a)
    _flatten("", b, flat_b)
    diff = {}
    for path in sorted(set(flat_a) | set(flat_b)):
        va = flat_a.get(path)
        vb = flat_b.get(path)
        if va != vb:
            diff[path] = (va, vb)
    return diff


def render_census(doc: dict) -> str:
    """Aligned human-readable summary of a census document."""
    lines = [f"census ({doc['algorithm']}): {doc['tasks']} tasks, "
             f"{doc['edges']} edges"]
    for name in sorted(doc["fields"]):
        stats = doc["fields"][name]
        kind = stats["kind"]
        if kind == "eqsets":
            sizes = stats["sizes"]
            hist = stats["history"]
            extra = ""
            if "buckets" in stats:
                extra = (f", {stats['buckets']} buckets"
                         + (" (kd fallback)" if stats["kd_fallback"]
                            else ""))
            lines.append(
                f"  field {name!r}: {stats['count']} eqsets, sizes "
                f"{sizes['min']}..{sizes['max']} (mean {sizes['mean']}), "
                f"history {hist['min']}..{hist['max']} "
                f"(mean {hist['mean']}){extra}")
        elif kind == "tree_painter":
            lines.append(
                f"  field {name!r}: {stats['total_items']} live items, "
                f"{stats['views']} composite views compacting "
                f"{stats['captured_entries']} entries "
                f"({stats['compaction_ratio']}x)")
        elif kind == "zbuffer":
            lines.append(
                f"  field {name!r}: {stats['interned_sets']} interned sets "
                f"over {stats['elements']} elements")
        elif kind == "painter":
            lines.append(
                f"  field {name!r}: global history of "
                f"{stats['history_length']} entries")
    derived = doc["derived"]
    lines.append(
        f"  occlusion: kill rate {derived['occlusion_kill_rate']} "
        f"({derived['eqsets_coalesced']}/{derived['eqsets_created']} "
        f"eqsets), {derived['entries_occluded']} entries occluded")
    if "service" in doc:
        svc = doc["service"]
        lines.append(
            f"  service: {svc['tenants']} tenants, "
            f"{svc['sessions']} sessions ({svc['completed']} ok, "
            f"{svc['rejected']} rejected, {svc['expired']} expired, "
            f"{svc['errors']} errors, {svc['degraded_sessions']} "
            f"degraded), breaker state {svc['breaker_state']}")
    return "\n".join(lines)
