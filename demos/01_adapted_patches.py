"""Walk through the core machinery on a small mesh: build the patch grid,
classify it against a circular interface, resolve the free edge-node
parameters, and dump the adapted subtriangulation as JSON.

Run:  python3 demos/01_adapted_patches.py
"""

import collections
import json

from patchfem import Circle, adapt, build_structured_mesh, max_angle_audit
from patchfem.mesh import mesh_to_json

mesh = build_structured_mesh(8)
print(f"mesh: {mesh.n_patches} patches, {mesh.n_vertices} vertices, "
      f"{mesh.n_edges} edges, h_max = {mesh.h_max:.4f}")

interface = Circle((0.0, 0.0), 0.5)
configs, classification, conflicts = adapt(mesh, interface, strategy=2)

kinds = configs.kind_names()
print(f"cut classes: {dict(collections.Counter(kinds))}")
print(f"parameter conflicts between neighboring cut patches: {len(conflicts)}")

# Every cut patch now carries (q, r, s), read from the mesh's edge
# parameters, with the interface crossings pinned to edge nodes; show a few.
params = mesh.local_params_all()
for pid in classification.cut_ids[:4].tolist():
    q, r, s = params[pid]
    print(f"  patch {pid:3d} {kinds[pid]:11s} q={q:.4f} r={r:.4f} s={s:.4f} "
          f"sides={configs.sides[pid].tolist()}")

audit = max_angle_audit(mesh, configs)
print(f"largest subtriangle angle anywhere: {audit.global_max:.2f} degrees")

doc = json.loads(mesh_to_json(mesh, configs))
with open("adapted_mesh.json", "w", encoding="utf-8") as fh:
    json.dump(doc, fh)
print(f"adapted mesh written to adapted_mesh.json "
      f"({len(doc['subtriangles'])} patch records)")
