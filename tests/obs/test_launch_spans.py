"""What a launch records, pinned, and what it calls with the tracer off.

``Runtime._run`` checks the tracer once per launch.  With it off, a
launch must not reach the span machinery at all; with it on (at the
witness level), every launch must record the task span and the
per-access ``materialize``/``commit`` spans — names, categories, args,
nesting — that the golden digests below pin.  They were recorded at
commit ``58a9c67``, while the check still sat in a ``@traced`` wrapper
on every access: a Figure 1 stream run three times under dynamic
tracing (untraced, capture, replay), then a 4-piece stencil init and one
iteration, on one runtime per algorithm.  Times and span ids are masked;
a parent is named by its position in the buffer.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import ALGORITHMS, Runtime
from repro.apps import StencilApp
from repro.obs import tracer as obs
from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

#: ``algorithm -> (span count, sha256 of the masked span list)``
PINNED = {
    "painter": (
        142,
        "390dd4855467d20e83af1cf4d66a408b7aa16a54e7156c128cff3fd312d8f746"),
    "raycast": (
        142,
        "be7bf76a64795143b802c4df50f523f9ffac2ede5c206fe2aa29db2588da8c89"),
    "tree_painter": (
        142,
        "df19028371d60a19f9b9817f3411168123ef51691d0561485c746edea7f6c49f"),
    "warnock": (
        142,
        "73072330a5ade9a041974626329dc3cf47a07cd9345e3469e623a120b82fa032"),
    "zbuffer": (
        142,
        "f61af4b44c628d8852ebe1919790eb6b800ede565dd690d0caa55d22fe37d896"),
}


def _drive(algo: str) -> None:
    tree, P, G = make_fig1_tree()
    rt = Runtime(tree, fig1_initial(tree), algorithm=algo)
    stream = fig1_stream(tree, P, G, iterations=1)
    for _ in range(3):  # untraced, capture, replay
        rt.execute_trace("loop", stream)
    app = StencilApp(pieces=4)
    rt = Runtime(app.tree, app.initial, algorithm=algo)
    rt.replay(app.init_stream())
    rt.replay(app.iteration_stream())


def _plain(value):
    """Args as JSON: tuples become lists, numpy scalars Python ones."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def masked_spans(algo: str) -> list:
    """Every span one witness-level pass records, in buffer order, as
    ``[name, category, args, parent position]``."""
    tracer = obs.Tracer(witnesses=True)
    previous = obs.set_tracer(tracer)
    try:
        _drive(algo)
    finally:
        obs.set_tracer(previous)
    spans = tracer.snapshot().spans
    position = {s.span_id: k for k, s in enumerate(spans)}
    return [[s.name, s.category, _plain(s.args),
             position.get(s.parent_id)] for s in spans]


def digest(spans: list) -> str:
    return hashlib.sha256(
        json.dumps(spans, sort_keys=False).encode()).hexdigest()


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_witness_spans_match_golden(algo):
    spans = masked_spans(algo)
    assert (len(spans), digest(spans)) == PINNED[algo]


def test_disabled_launch_reaches_no_span_machinery(monkeypatch):
    """With the tracer off a launch reads ``enabled`` once and calls
    nothing else in :mod:`repro.obs.tracer`."""
    assert not obs.active_tracer().enabled

    def refuse(*args, **kwargs):
        raise AssertionError("a disabled launch reached the tracer")

    monkeypatch.setattr(obs, "span", refuse)
    monkeypatch.setattr(obs._OpenSpan, "__init__", refuse)
    monkeypatch.setattr(obs._NoopSpan, "__enter__", refuse)
    _drive("raycast")
