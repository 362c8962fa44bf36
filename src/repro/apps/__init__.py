"""The paper's three benchmark applications (section 8).

Each application reproduces the *access pattern* of its Regent original —
which partitions exist, which regions each task names, with which
privileges — because that stream is all the coherence algorithms ever see.
Task bodies perform real (small) numerical work so the applications are
also end-to-end correctness tests against the sequential reference
executor.

* :class:`~repro.apps.stencil.StencilApp` — 2-D 9-point star stencil
  (radius 2, no corners) on a regular grid, PRK-style, intermixed with
  data-parallel updates.
* :class:`~repro.apps.circuit.CircuitApp` — irregular graph circuit
  simulation with aliased ghost subregions and ``+`` reductions (the
  program Figure 1 is derived from).
* :class:`~repro.apps.pennant.PennantApp` — unstructured-mesh Lagrangian
  hydrodynamics skeleton with several distinct reduction operators.

All are built with ``pieces == nodes`` for weak scaling; the per-piece
problem size stays constant as the machine grows.
"""

from repro.apps.base import Application
from repro.apps.stencil import StencilApp
from repro.apps.circuit import CircuitApp
from repro.apps.pennant import PennantApp
from repro.errors import MachineError
from repro.runtime.task import TaskStream

APPS = {
    "stencil": StencilApp,
    "circuit": CircuitApp,
    "pennant": PennantApp,
}


def make_app(name: str, pieces: int) -> Application:
    """The application registered as ``name``, built at ``pieces``."""
    if name not in APPS:
        raise MachineError(f"unknown app {name!r}; known: {sorted(APPS)}")
    return APPS[name](pieces=pieces)


def session_stream(app: Application, iterations: int,
                   include_init: bool = True) -> TaskStream:
    """The deterministic task stream of one run: the app's init stream
    (for a service session, only the first on a fresh slot) plus
    ``iterations`` steady iterations."""
    stream = TaskStream()
    if include_init:
        stream.extend_from(app.init_stream())
    for _ in range(iterations):
        stream.extend_from(app.iteration_stream())
    return stream


__all__ = ["APPS", "Application", "CircuitApp", "PennantApp", "StencilApp",
           "make_app", "session_stream"]
