"""A warm launch reads what its per-entry and per-set tests need.

Figure 7's walk pays one interference test per history entry and one
domain test, and a geometry-cache lookup per set per access.  Each of
those is an attribute read: a space's stored ``size`` and bounds, a
privilege's ``commutes`` marker, a space's ``(generation, uid)`` memo;
and a launch re-proves nothing it built: the tree painter reads each
region's root path once built, a store appends the entries it cut
unchecked.  This holds that by name: over one warm iteration of each product
algorithm, the ``sys.setprofile`` call events of the helper frames those
reads replaced must be zero.  Names, not totals, so it holds on every
Python version (3.12 inlines comprehensions, 3.11 does not).
"""

import sys
from collections import Counter

import pytest

from repro.apps import make_app
from repro.runtime import Runtime

#: ``(file, function)`` of every frame a warm launch no longer enters.
REMOVED = {
    ("geometry/index_space.py", "size"),
    ("geometry/index_space.py", "is_empty"),
    ("geometry/index_space.py", "bounds"),
    ("repro/privileges.py", "interferes"),
    ("visibility/painter_tree.py", "_priv_key"),
    ("visibility/painter_tree.py", "_compatible"),
    ("visibility/eqset.py", "<genexpr>"),
    # the tree painter reads each region's cached root path
    ("regions/region.py", "parent"),
    ("regions/region.py", "path_from_root"),
    # a store appends the entries it cut unchecked
    ("visibility/history.py", "__post_init__"),
    ("visibility/eqset.py", "record"),
}

#: The history kernels add to the meter's counters directly.
KERNELS = {"scan_dependences", "paint_into"}


def where(code) -> tuple[str, str]:
    return "/".join(code.co_filename.replace("\\", "/").split("/")[-2:]), \
        code.co_name


def warm_calls(algorithm: str, app_name: str) -> Counter:
    """Call events by name over one iteration after init + 1: removed
    frames, ``uid_of`` on a space whose memo is current, and meter calls
    from a history kernel."""
    app = make_app(app_name, 4)
    runtime = Runtime(app.tree, app.initial, algorithm=algorithm)
    runtime.replay(app.init_stream())
    runtime.replay(app.iteration_stream())
    stream = app.iteration_stream()
    seen: Counter = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        name = where(frame.f_code)
        if name in REMOVED:
            seen[name] += 1
        elif name == ("geometry/fastpath.py", "uid_of"):
            memo = frame.f_locals["space"]._uid
            if memo is not None \
                    and memo[0] == frame.f_locals["self"]._generation:
                seen["uid_of on a memo hit"] += 1
        elif name[0] == "visibility/meter.py" \
                and frame.f_back.f_code.co_name in KERNELS:
            seen[f"{name[1]} from {frame.f_back.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        runtime.replay(stream)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("app_name", ["stencil", "circuit"])
@pytest.mark.parametrize("algorithm",
                         ["raycast", "warnock", "tree_painter", "zbuffer"])
def test_warm_launch_enters_no_removed_frame(algorithm, app_name):
    assert warm_calls(algorithm, app_name) == Counter()
