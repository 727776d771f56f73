"""Anatomy of half-full trees: shapes, depths, and binary-addition merging.

A haft over L leaves is a row of complete binary trees sized by the set
bits of L, joined under a right-leaning spine. This keeps every leaf within
about log2(L) hops of the root, and lets two trees merge the way a binary
counter adds: equal sizes pair up under a single fresh node.

Run:  python demos/02_reconstruction_trees.py
"""

from selfheal import LeafSlot, VidSource, build_haft, merge_hafts
from selfheal.haft import haft_slots, leaf_depths


def slots(procs, base):
    return [LeafSlot(processor=p, origin=(base, i)) for i, p in enumerate(procs)]


print("shape of a haft over L leaves (tree sizes = binary representation):")
for L in (1, 2, 3, 5, 6, 11, 13):
    h = build_haft(slots(range(L), base=L), VidSource())
    sizes = [t.size for t in h.trees]
    depths = leaf_depths(h)
    print(f"  L={L:>2} -> trees {sizes}, leaf depths {depths}")

print("\nmerging is binary addition over the tree sizes:")
for la, lb in ((3, 1), (5, 6), (13, 11)):
    vids = VidSource()
    a = build_haft(slots(range(la), base=1), vids)
    b = build_haft(slots(range(lb), base=2), vids)
    m = merge_hafts(a, b, vids)
    sa = [t.size for t in a.trees]
    sb = [t.size for t in b.trees]
    sm = [t.size for t in m.trees]
    print(f"  {sa} + {sb} = {sm}   ({la} + {lb} = {la + lb})")

print("\nonly the spine and the carried trees are rebuilt when merging;")
print("untouched complete trees keep their helper-node ids, so repair work")
print("stays polylogarithmic in the region size.")

vids = VidSource()
a = build_haft(slots(range(4), base=1), vids)
b = build_haft(slots(range(2), base=2), vids)
m = merge_hafts(a, b, vids)
print(f"\nexample: merging trees of 4 and 2 leaves keeps all "
      f"{len(haft_slots(m))} slots and mints only the one spine node "
      f"(vids {sorted(set(m.spine))}).")
