"""``repro doctor`` — one table of every ``REPRO_*`` escape hatch.

``repro serve`` and the benchmark sweep are steered by two environment
variables (record dependence witnesses, cap the sweep) — everything else
is a flag on the command line that asks for it.  During an incident the first question is always "which of these was actually
in effect?", so this module keeps the authoritative registry: each
:class:`Hatch` knows its environment variable, what the subsystem does
when the variable is unset, and how a set value changes that.  ``repro
doctor`` renders the table; the flight recorder embeds
:func:`config_snapshot` in every incident dump so the exact
configuration travels with the evidence.

The registry is *declarative on purpose*: resolving a hatch only reads
``os.environ`` (no subsystem imports), so ``doctor`` can run — and dumps
can be written — even while the subsystems themselves are wedged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

#: Values treated as "set" for toggle hatches.
TRUTHY = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class Hatch:
    """One environment escape hatch.  ``kind`` is ``enable`` (a truthy
    value turns a default-off feature on) or ``value`` (the raw string is
    the setting).

    ``on_effect``/``off_effect`` are the human-readable in-effect values
    when the variable is set (truthy) respectively unset/falsey; for
    ``kind="value"`` the raw string itself is the in-effect value and
    ``off_effect`` is the default.
    """

    name: str
    env: str
    kind: str
    off_effect: str
    on_effect: str
    description: str

    def resolve(self, environ: Optional[dict] = None) -> dict:
        """``{"name", "env", "value", "origin", "raw"}`` for the current
        (or given) environment.  ``origin`` is ``"env"`` when the
        variable changes the outcome, ``"default"`` otherwise."""
        env = os.environ if environ is None else environ
        raw = env.get(self.env)
        stripped = (raw or "").strip().lower()
        if self.kind == "value":
            if raw is not None and raw.strip():
                return {"name": self.name, "env": self.env,
                        "value": raw.strip(), "origin": "env", "raw": raw}
            return {"name": self.name, "env": self.env,
                    "value": self.off_effect, "origin": "default",
                    "raw": raw}
        set_ = stripped in TRUTHY
        value = self.on_effect if set_ else self.off_effect
        return {"name": self.name, "env": self.env, "value": value,
                "origin": "env" if set_ else "default", "raw": raw}


#: The authoritative hatch registry, in rough dependency order.  New
#: escape hatches MUST be appended here — ``repro doctor`` and the
#: blackbox config snapshot are only as complete as this list.
HATCHES = (
    Hatch("dependence witnesses (serve)", "REPRO_PROVENANCE", "enable",
          "off", "recording",
          "record why each dependence edge exists on the spans of "
          "repro serve --flight-out"),
    Hatch("benchmark node cap", "REPRO_BENCH_MAX_NODES", "value",
          "512 (full sweep)", "",
          "cap the node count of the benchmark sweep"),
)


def resolve_hatches(environ: Optional[dict] = None) -> list[dict]:
    """Every hatch resolved against the (given) environment."""
    return [h.resolve(environ) for h in HATCHES]


def config_snapshot(environ: Optional[dict] = None) -> dict:
    """``{env_var: {"value", "origin"}}`` — the compact form embedded in
    every blackbox dump (raw values included only when set)."""
    out = {}
    for row in resolve_hatches(environ):
        entry = {"value": row["value"], "origin": row["origin"]}
        if row["raw"] is not None:
            entry["raw"] = row["raw"]
        out[row["env"]] = entry
    return out


def render_doctor(environ: Optional[dict] = None) -> str:
    """The ``repro doctor`` table: hatch, variable, in-effect value,
    origin, and what the hatch controls."""
    rows = [("hatch", "env var", "in effect", "origin", "controls")]
    for h, row in zip(HATCHES, resolve_hatches(environ)):
        rows.append((row["name"], row["env"], row["value"], row["origin"],
                     h.description))
    widths = [max(len(r[k]) for r in rows) for k in range(5)]
    return "\n".join(
        "  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
        for row in rows)
