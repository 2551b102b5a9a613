"""Why the free parameters need a strategy: an interface crossing pins some
edge-node positions, and bad luck can squeeze a subtriangle flat. Strategies
2 and 3 keep every reference angle at or below 162 degrees for any crossing;
leaving the free parameters at 1/2 (strategy 1) does not.

Run:  python3 demos/04_max_angle_audit.py
"""

import numpy as np

from patchfem.adaptation import (
    TOPOLOGIES,
    free_params_two_edges,
    free_params_vertex_edge,
    reference_local_nodes,
)
from patchfem.geometry import interior_angles
from patchfem.runner import run_angles

# A two-edge cut with crossings hugging the bottom-right corner: the middle
# subtriangle collapses unless the free parameter reacts.
s_det, r_det = 0.02, 0.97
print(f"two-edge cut with determined s={s_det}, r={r_det}:")
for strategy in (1, 2, 3):
    q, r, s = free_params_two_edges(strategy, {"s": s_det, "r": r_det})
    nodes = reference_local_nodes(q, r, s)
    worst = interior_angles(nodes[TOPOLOGIES[0]]).max()  # uncut and edge-edge
    print(f"  strategy {strategy}: free q = {q:.4f}  ->  max angle {worst:7.2f} deg")

print("\nrandom cuts, 100000 draws per cell, worst reference angle:")
rng = np.random.default_rng(0)
draws = rng.uniform(1e-9, 1 - 1e-9, 100_000)
for strategy in (1, 2, 3):
    worst = 0.0
    for name, vertex in (("r", 0), ("q", 1), ("s", 2)):
        q, r, s = free_params_vertex_edge(strategy, {name: draws})
        topo = TOPOLOGIES[1 + vertex]  # the split through the cut vertex
        nodes = reference_local_nodes(q, r, s)
        worst = max(worst, float(interior_angles(nodes[:, topo, :]).max()))
    print(f"  strategy {strategy} vertex cuts: {worst:7.2f} deg"
          + ("   (no remedy: the bound fails)" if worst > 162 else ""))

print("\nfull audit on the circle problem, n = 32:")
for strategy in (1, 2, 3):
    audit = run_angles("circle", 32, strategy)
    status = "ok" if audit.global_max <= 162.0 + 1e-9 else "VIOLATED"
    print(f"  strategy {strategy}: global max {audit.global_max:7.2f} deg  [{status}]")
