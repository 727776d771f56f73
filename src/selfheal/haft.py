"""Half-full trees: the reconstruction-tree shape and its merge algebra.

A haft over L leaf slots is a sequence of complete binary trees whose leaf
counts are the set bits of L (strictly decreasing powers of two, largest
first), joined by a right-leaning spine of internal nodes. Leaves carry the
orphaned endpoints that the tree reconnects; internal nodes are virtual
helpers identified by fresh vids.

The shape is what makes repair cheap:

* Leaf depth is at most floor(log2 L) + 1, comfortably inside the
  2*ceil(log2 L) + 1 contract, because tree i sits at spine depth i and has
  log-size at most log2 L - i + 1.
* Two hafts merge like binary addition: equal-size complete trees pair up
  under one fresh internal node (a carry) and everything else is untouched,
  so only the spine and the carried trees cost anything.

Simulator assignment maps every internal node to the leftmost leaf of its
right subtree. Each leaf except the haft's leftmost therefore serves exactly
one internal node (the nearest ancestor whose right subtree it begins), and
the leftmost serves none. The map is injective, which caps the de-simulated
degree gain per slot at 4 real edges (2 when the simulated internal sits at
the bottom level).

Every internal node caches its subtree's leaf count, leftmost slot and
smallest slot, set from its two children when it is built, so a subtree's
size, the simulator of a new node and a piece's sort key cost O(1).
`split_marked` splits a haft along the paths above its dead slots only. The
whole-haft walks (`leaves`, `haft_slots`, `node_vids`, `split_out`,
`assign_simulators`, `to_virtual_edges`) are the oracles that audits and
tests check the fast paths against.

All structures here are immutable values; merging shares subtrees freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Union

from .virtual_graph import VidSource, VNode, real, virt


class HaftError(ValueError):
    """Base class for haft contract violations."""


class EmptySlotsError(HaftError):
    pass


class OriginOverlapError(HaftError):
    pass


class UnassignableError(HaftError):
    pass


class LeafSlot(NamedTuple):
    """One leaf of a reconstruction tree: an orphan's edge to the deleted node.

    processor  the orphaned real neighbor occupying the slot; the leaf stands
               for its real node and may simulate one internal node
    origin     the consumed edge this slot descends from, as a sorted id pair;
               unique across all live slots of all trees

    Slots order by (processor, origin).
    """

    processor: int
    origin: tuple[int, int]


@dataclass(frozen=True)
class Leaf:
    slot: LeafSlot

    # The subtree facts an `Internal` caches, for a one-leaf subtree.
    size = 1

    @property
    def first(self) -> LeafSlot:
        return self.slot

    @property
    def low(self) -> LeafSlot:
        return self.slot


@dataclass(frozen=True)
class Internal:
    """An internal node. `size` (leaf count), `first` (leftmost slot) and
    `low` (smallest slot) of the subtree are cached from the two children at
    construction, O(1) per node; equality and hashing ignore them."""

    vid: int
    left: "HaftNode"
    right: "HaftNode"
    size: int = field(init=False, compare=False, repr=False)
    first: LeafSlot = field(init=False, compare=False, repr=False)
    low: LeafSlot = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        left, right = self.left, self.right
        object.__setattr__(self, "size", left.size + right.size)
        object.__setattr__(self, "first", left.first)
        object.__setattr__(self, "low", min(left.low, right.low))


HaftNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class Haft:
    """Complete trees in strictly decreasing power-of-two sizes, plus the
    spine vids; spine[i] joins trees[i] (left child) with the rest."""

    trees: tuple[HaftNode, ...]
    spine: tuple[int, ...]

    @property
    def leaf_count(self) -> int:
        return sum(leaf_count(t) for t in self.trees)

    def root(self) -> HaftNode | None:
        """The whole haft as one tree, materializing the spine."""
        if not self.trees:
            return None
        node = self.trees[-1]
        for i in range(len(self.trees) - 2, -1, -1):
            node = Internal(self.spine[i], self.trees[i], node)
        return node


# -- structure queries ------------------------------------------------------


def leaf_count(node: HaftNode) -> int:
    return node.size


def leaves(node: HaftNode) -> list[LeafSlot]:
    """Leaf slots in left-to-right order."""
    if isinstance(node, Leaf):
        return [node.slot]
    return leaves(node.left) + leaves(node.right)


def haft_slots(h: Haft) -> list[LeafSlot]:
    out: list[LeafSlot] = []
    for t in h.trees:
        out.extend(leaves(t))
    return out


def node_vids(node: HaftNode) -> list[int]:
    if isinstance(node, Leaf):
        return []
    return [node.vid] + node_vids(node.left) + node_vids(node.right)


def haft_vids(h: Haft) -> set[int]:
    out = set(h.spine)
    for t in h.trees:
        out.update(node_vids(t))
    return out


def leaf_depths(h: Haft) -> list[int]:
    """Depth of every leaf below the haft root, left to right."""
    root = h.root()
    if root is None:
        return []
    out: list[int] = []
    stack: list[tuple[HaftNode, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            out.append(depth)
        else:
            stack.append((node.right, depth + 1))
            stack.append((node.left, depth + 1))
    return out


def ceil_log2(x: int) -> int:
    if x <= 1:
        return 0
    return (x - 1).bit_length()


# -- construction -----------------------------------------------------------


def _assemble(items: list[HaftNode], vids: VidSource) -> Haft:
    """Binary-counter combine: complete trees of equal size pair under a fresh
    carry node, smallest sizes first; per size the queue order is input order
    with carries appended. Spine vids are minted last, left to right."""
    queues: dict[int, list[HaftNode]] = {}
    for item in items:
        queues.setdefault(leaf_count(item), []).append(item)
    result: list[HaftNode] = []
    while queues:
        size = min(queues)
        queue = queues.pop(size)
        while len(queue) >= 2:
            left, right = queue.pop(0), queue.pop(0)
            queues.setdefault(size * 2, []).append(Internal(vids.take(), left, right))
        if queue:
            result.append(queue[0])
    trees = tuple(reversed(result))
    spine = tuple(vids.take() for _ in range(max(0, len(trees) - 1)))
    return Haft(trees=trees, spine=spine)


def build_haft(slots: Iterable[LeafSlot], vids: VidSource) -> Haft:
    """Haft over the given slots, preserving their order left to right."""
    slot_list = list(slots)
    if not slot_list:
        raise EmptySlotsError("cannot build a haft over zero slots")
    _check_origins(slot_list)
    return _assemble([Leaf(s) for s in slot_list], vids)


def merge_hafts(a: Haft, b: Haft, vids: VidSource) -> Haft:
    """Binary addition of two hafts; untouched complete trees keep their vids."""
    _check_origins(haft_slots(a) + haft_slots(b))
    return _assemble(list(a.trees) + list(b.trees), vids)


def _check_origins(slots: list[LeafSlot]) -> None:
    seen: set[tuple[int, int]] = set()
    for s in slots:
        if s.origin in seen:
            raise OriginOverlapError(f"origin {s.origin} occupies two leaf slots")
        seen.add(s.origin)


# -- simulator assignment -----------------------------------------------------


def assign_simulators(h: Haft) -> dict[int, LeafSlot]:
    """Assign each internal vid the leftmost leaf of its right subtree.
    Injective and subtree-local."""
    root = h.root()
    assignment: dict[int, LeafSlot] = {}
    stack = [root] if isinstance(root, Internal) else []
    while stack:
        node = stack.pop()
        assignment[node.vid] = node.right.first
        stack += [c for c in (node.right, node.left) if isinstance(c, Internal)]
    taken: set[LeafSlot] = set()
    for vid in sorted(assignment):
        slot = assignment[vid]
        if slot in taken:
            raise UnassignableError(f"slot {slot.origin} would simulate two internals")
        taken.add(slot)
    return assignment


def vnode_of(node: HaftNode) -> VNode:
    """The virtual-graph node a haft node stands for."""
    if isinstance(node, Leaf):
        return real(node.slot.processor)
    return virt(node.vid)


def to_virtual_edges(
    h: Haft, assignment: dict[int, LeafSlot]
) -> tuple[list[tuple[int, int]], list[tuple[VNode, VNode]]]:
    """Translate a haft into virtual-graph material.

    Returns (declarations, edges): one (vid, simulator processor) per internal
    node and one VNode pair per parent-child tree edge.
    """
    root = h.root()
    decls: list[tuple[int, int]] = []
    edges: list[tuple[VNode, VNode]] = []
    # Preorder: each node is declared just after the edge from its parent.
    stack: list[tuple[HaftNode, Internal | None]] = [] if root is None else [(root, None)]
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            edges.append((virt(parent.vid), vnode_of(node)))
        if isinstance(node, Leaf):
            continue
        decls.append((node.vid, assignment[node.vid].processor))
        stack += [(node.right, node), (node.left, node)]
    return decls, edges


# -- healing-time decomposition ----------------------------------------------


def split_out(h: Haft, dead_processor: int) -> tuple[list[HaftNode], list[int]]:
    """Dissolve a haft around the slots answering to a dead processor.

    Returns (pieces, dissolved): the maximal complete subtrees containing no
    dead slot, in left-to-right order with all vids intact, plus the vids of
    every dissolved internal node (ancestors of dead slots and the spine).
    """
    pieces: list[HaftNode] = []
    dissolved: list[int] = []
    for tree in h.trees:
        tree_pieces, _ = _split(tree, dead_processor, dissolved)
        pieces.extend(tree_pieces)
    dissolved.extend(h.spine)
    return pieces, dissolved


def _split(
    node: HaftNode, dead_processor: int, dissolved: list[int]
) -> tuple[list[HaftNode], bool]:
    """Pieces of one subtree and whether it held a dead slot; appends the
    vids it dissolves (children before parents) to `dissolved`."""
    if isinstance(node, Leaf):
        dead = node.slot.processor == dead_processor
        return ([] if dead else [node]), dead
    left_pieces, left_dead = _split(node.left, dead_processor, dissolved)
    right_pieces, right_dead = _split(node.right, dead_processor, dissolved)
    if not (left_dead or right_dead):
        return [node], False
    dissolved.append(node.vid)
    return left_pieces + right_pieces, True


def split_marked(
    h: Haft, marked: set[int], dead_processor: int
) -> tuple[list[HaftNode], list[int]]:
    """`split_out` that walks only the marked paths.

    `marked` holds the vids on the paths from every dead slot of `h` up to
    its tree root (vids of other hafts may be in it too). A tree or subtree
    whose root is unmarked holds no dead slot and is one piece as it
    stands, so the work is proportional to the marked vids plus the pieces.
    Returns what `split_out(h, dead_processor)` returns, in the same order.
    """
    pieces: list[HaftNode] = []
    dissolved: list[int] = []
    for tree in h.trees:
        _split_marked(tree, marked, dead_processor, pieces, dissolved)
    dissolved.extend(h.spine)
    return pieces, dissolved


def _split_marked(
    node: HaftNode,
    marked: set[int],
    dead_processor: int,
    pieces: list[HaftNode],
    dissolved: list[int],
) -> None:
    if isinstance(node, Leaf):
        if node.slot.processor != dead_processor:
            pieces.append(node)
    elif node.vid in marked:
        _split_marked(node.left, marked, dead_processor, pieces, dissolved)
        _split_marked(node.right, marked, dead_processor, pieces, dissolved)
        dissolved.append(node.vid)
    else:
        pieces.append(node)


# -- validation ---------------------------------------------------------------


def _complete_size(node: HaftNode) -> int | None:
    """Leaf count if the subtree is a complete binary tree, else None."""
    if isinstance(node, Leaf):
        return 1
    ls = _complete_size(node.left)
    rs = _complete_size(node.right)
    if ls is None or rs is None or ls != rs:
        return None
    return ls + rs


def _recount(node: HaftNode, stale: list[int]) -> tuple[int, LeafSlot, LeafSlot]:
    """(size, first, low) of a subtree recounted from its leaves; appends to
    `stale` the vid of every internal node whose cached facts differ."""
    if isinstance(node, Leaf):
        return 1, node.slot, node.slot
    left_size, first, left_low = _recount(node.left, stale)
    right_size, _, right_low = _recount(node.right, stale)
    facts = (left_size + right_size, first, min(left_low, right_low))
    if (node.size, node.first, node.low) != facts:
        stale.append(node.vid)
    return facts


def validate_haft(h: Haft) -> list[str]:
    """Shape audit, cached subtree facts included; empty list means every
    haft invariant holds."""
    problems: list[str] = []
    stale: list[int] = []
    for tree in h.trees:
        _recount(tree, stale)
    if stale:
        problems.append(f"stale-cached-facts: vids {sorted(stale)}")
    sizes = []
    for i, tree in enumerate(h.trees):
        size = _complete_size(tree)
        if size is None:
            problems.append(f"tree-not-complete: index {i}")
            size = leaf_count(tree)
        sizes.append(size)
    for s in sizes:
        if s & (s - 1):
            problems.append(f"size-not-power-of-two: {s}")
    if any(a <= b for a, b in zip(sizes, sizes[1:])):
        problems.append(f"sizes-not-strictly-decreasing: {sizes}")
    if len(h.spine) != max(0, len(h.trees) - 1):
        problems.append(f"spine-length: {len(h.spine)} for {len(h.trees)} trees")
    vids = list(h.spine)
    for tree in h.trees:
        vids.extend(node_vids(tree))
    if len(vids) != len(set(vids)):
        problems.append("duplicate-vids")
    total = sum(sizes)
    if total:
        bound = ceil_log2(total) + len(h.trees)
        depths = leaf_depths(h)
        if depths and max(depths) > bound:
            problems.append(f"depth-bound: max {max(depths)} > {bound}")
    slots = haft_slots(h)
    if len({s.origin for s in slots}) != len(slots):
        problems.append("duplicate-origins")
    return problems
