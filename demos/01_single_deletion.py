"""Walkthrough: one hub deletion healed by a reconstruction tree.

Builds a small hub-and-spoke network, deletes the hub, and shows what the
haft healer does: the virtual helper nodes it creates, which survivors
simulate them, and what the healed real network looks like afterwards.

Run:  python demos/01_single_deletion.py
"""

from selfheal import Graph, make_healer, node_name, virt

hub, leaves = 0, [1, 2, 3, 4, 5]
g = Graph(nodes=[hub] + leaves, edges=[(hub, leaf) for leaf in leaves])

print("before:", sorted(g.edges()))
print(f"node {hub} has degree {g.degree(hub)}; every leaf has degree 1\n")

healer = make_healer("haft")
healer.preprocess(g)
report = healer.on_delete(hub)

print(f"deleted node {hub}; the five orphans were rebuilt into one tree:")
print(f"  virtual helper nodes created: {report.virtual_nodes_created}")
print(f"  messages charged: {report.messages}, recovery rounds: {report.rounds}")
print(f"  processors touched: {sorted(report.touched)}\n")

vg = healer.vg
for vid in sorted(vg.virtuals):
    neighbors = ", ".join(node_name(x) for x in sorted(vg.neighbors(virt(vid))))
    print(f"  helper v{vid} simulated by processor {vg.sim[vid]}; edges to {neighbors}")

live = healer.live_graph()
print("\nafter healing:", sorted(live.edges()))
print("still connected:", live.is_connected())
print("degrees:", {v: live.degree(v) for v in sorted(live.nodes)})
print("\nEach orphan had degree 1 before the attack and gains at most 4")
print("edges from its leaf slot and the one helper node it may simulate.")
