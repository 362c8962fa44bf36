#!/usr/bin/env python3
"""Compare the three visibility algorithms on the circuit benchmark.

Runs the same circuit task stream through the optimized painter, Warnock's
algorithm and ray casting, verifying that all three produce identical
results and sound dependence graphs, then prints the structural quantities
the paper's evaluation attributes each algorithm's scalability to:

* painter — history items and composite views accumulated in the tree;
* Warnock — live equivalence sets (monotone refinement never shrinks);
* ray casting — live equivalence sets (coalesced back to the pieces).

Run:  python examples/algorithm_comparison.py [pieces]
"""

import sys

from repro import Runtime, TaskStream
from repro.analysis import compare_algorithms, profile_graph
from repro.apps import CircuitApp

pieces = int(sys.argv[1]) if len(sys.argv) > 1 else 8
app = CircuitApp(pieces=pieces, nodes_per_piece=16, wires_per_piece=24)
print(f"circuit: {pieces} pieces, {app.graph.num_nodes} nodes, "
      f"{app.units_per_piece} wires/piece")

stream = TaskStream()
stream.extend_from(app.init_stream())
ITERATIONS = 3
for _ in range(ITERATIONS):
    stream.extend_from(app.iteration_stream())
print(f"task stream: {len(stream)} launches "
      f"({ITERATIONS} iterations + init)")

# value equivalence + dependence soundness across every algorithm
runs = compare_algorithms(app.tree, app.initial, stream, exact=False)
print("\nall algorithms match the sequential reference; "
      "dependence graphs sound\n")

STRUCTURES = {"eqsets": "{count} eqsets",
              "tree_painter": "{total_items} history items",
              "painter": "{history_length} entries",
              "zbuffer": "{interned_sets} interned sets"}
header = f"{'algorithm':>14} {'edges':>7} {'critical':>9} {'structures'}"
print(header)
print("-" * len(header))
for name, run in runs.items():
    profile = profile_graph(run.graph)
    rt: Runtime = run.runtime
    details = []
    for field in app.tree.field_space.names:
        state = rt.algorithm_for(field).describe()
        details.append(f"{field}: "
                       + STRUCTURES[state["kind"]].format(**state))
    print(f"{name:>14} {profile.edges:>7} {profile.critical_path:>9} "
          f"{'; '.join(details)}")

print("\nNote how ray casting holds the fewest equivalence sets: every")
print("update phase write coalesces the ghost-induced fragments back to")
print("one set per piece (section 7), while Warnock's refinements persist")
print("and the painter's history only shrinks under full occlusion.")
