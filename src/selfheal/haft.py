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

A leaf node is its `LeafSlot`; an internal node is an `Internal`, a
slotted immutable value that a repair builds once per vid it mints. Every
internal node caches its subtree's leaf count, leftmost slot and smallest
slot, set from its two children when it is built (a slot answers the same
three questions about itself), so a subtree's size, the simulator of a new
node and a piece's sort key cost O(1). `split_marked` splits a haft along
the paths above its dead slots only, in one walk; with every vid marked
(`marked=None`, the `rebuild` healer's split) that walk takes the haft
down to its surviving slots and dissolves every internal node. The
whole-haft queries (`leaves`, `haft_slots`, `node_vids`, `leaf_depths`,
`assign_simulators`, `to_virtual_edges`) all ride on one preorder walk,
`walk`; they, `split_out` and `validate_haft` are the oracles that audits
and tests check the fast paths against.

All structures here are immutable values; merging shares subtrees freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator, NamedTuple, Union

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

    Slots order by (processor, origin). A slot is also the leaf node of its
    tree, so it carries the subtree facts an `Internal` caches: one leaf,
    which is both the leftmost and the smallest.
    """

    processor: int
    origin: tuple[int, int]

    size = 1

    @property
    def first(self) -> LeafSlot:
        return self

    @property
    def low(self) -> LeafSlot:
        return self


class Internal:
    """An internal node, Internal(vid, left, right): an immutable value.

    `size` (leaf count), `first` (leftmost slot) and `low` (smallest slot)
    of the subtree are cached from the two children at construction, O(1)
    per node; equality, hashing and the repr ignore them. It behaves as a
    frozen dataclass over (vid, left, right) would, copies and pickles
    included, but is a slotted class that stores its six fields through
    the slot descriptors: a repair builds one node per vid it mints, and
    this builds a node in about half the time.
    """

    __slots__ = ("vid", "left", "right", "size", "first", "low")

    vid: int
    left: HaftNode
    right: HaftNode
    size: int
    first: LeafSlot
    low: LeafSlot

    def __init__(self, vid: int, left: HaftNode, right: HaftNode) -> None:
        _set_vid(self, vid)
        _set_left(self, left)
        _set_right(self, right)
        _set_size(self, left.size + right.size)
        _set_first(self, left.first)
        low, right_low = left.low, right.low
        _set_low(self, right_low if right_low < low else low)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Internal:
            return NotImplemented
        return (self.vid, self.left, self.right) == (other.vid, other.left, other.right)

    def __hash__(self) -> int:
        return hash((self.vid, self.left, self.right))

    def __repr__(self) -> str:
        return f"Internal(vid={self.vid!r}, left={self.left!r}, right={self.right!r})"

    def __getstate__(self) -> tuple:
        return (self.vid, self.left, self.right, self.size, self.first, self.low)

    def __setstate__(self, state: tuple) -> None:
        for setter, value in zip(_SETTERS, state):
            setter(self, value)


_SETTERS = tuple(getattr(Internal, name).__set__ for name in Internal.__slots__)
_set_vid, _set_left, _set_right, _set_size, _set_first, _set_low = _SETTERS

HaftNode = Union[LeafSlot, Internal]


@dataclass(frozen=True)
class Haft:
    """Complete trees in strictly decreasing power-of-two sizes, plus the
    spine vids; spine[i] joins trees[i] (left child) with the rest."""

    trees: tuple[HaftNode, ...]
    spine: tuple[int, ...]

    def root(self) -> HaftNode | None:
        """The whole haft as one tree, materializing the spine."""
        if not self.trees:
            return None
        node = self.trees[-1]
        for i in range(len(self.trees) - 2, -1, -1):
            node = Internal(self.spine[i], self.trees[i], node)
        return node


# -- structure queries ------------------------------------------------------


def walk(node: HaftNode | None) -> Iterator[tuple[HaftNode, Internal | None, int]]:
    """Every node of a subtree in preorder, left before right, as (node,
    parent, depth); the start node has parent None and depth 0. None is the
    empty tree."""
    stack: list[tuple[HaftNode, Internal | None, int]] = [] if node is None else [(node, None, 0)]
    while stack:
        node, parent, depth = stack.pop()
        yield node, parent, depth
        if isinstance(node, Internal):
            stack.append((node.right, node, depth + 1))
            stack.append((node.left, node, depth + 1))


def leaves(node: HaftNode) -> list[LeafSlot]:
    """Leaf slots in left-to-right order."""
    return [x for x, _, _ in walk(node) if not isinstance(x, Internal)]


def haft_slots(h: Haft) -> list[LeafSlot]:
    return [s for t in h.trees for s in leaves(t)]


def node_vids(node: HaftNode) -> list[int]:
    """Internal vids in preorder."""
    return [x.vid for x, _, _ in walk(node) if isinstance(x, Internal)]


def leaf_depths(h: Haft) -> list[int]:
    """Depth of every leaf below the haft root, left to right."""
    return [d for x, _, d in walk(h.root()) if not isinstance(x, Internal)]


def ceil_log2(x: int) -> int:
    if x <= 1:
        return 0
    return (x - 1).bit_length()


# -- construction -----------------------------------------------------------


def _assemble(items: list[HaftNode], vids: VidSource) -> tuple[Haft, list[Internal]]:
    """Binary-counter combine: complete trees of equal size pair under a fresh
    carry node, smallest sizes first; per size the queue order is input order
    with carries appended. Spine vids are minted last, left to right.

    Returns the haft and the carries in the order they were minted, so that
    a caller wiring the new nodes need not walk the haft to find them; the
    spine nodes are the first len(spine) nodes down the right edge of
    `root()`."""
    queues: dict[int, list[HaftNode]] = {}
    for item in items:
        queues.setdefault(item.size, []).append(item)
    take = vids.take
    result: list[HaftNode] = []
    carries: list[Internal] = []
    while queues:
        size = min(queues)
        queue = queues.pop(size)
        if len(queue) >= 2:
            above = queues.setdefault(size * 2, [])
            for i in range(0, len(queue) - 1, 2):
                carry = Internal(take(), queue[i], queue[i + 1])
                above.append(carry)
                carries.append(carry)
        if len(queue) & 1:
            result.append(queue[-1])
    trees = tuple(reversed(result))
    spine = tuple(take() for _ in range(len(trees) - 1))
    return Haft(trees=trees, spine=spine), carries


def build_haft(slots: Iterable[LeafSlot], vids: VidSource) -> Haft:
    """Haft over the given slots, preserving their order left to right."""
    slot_list = list(slots)
    if not slot_list:
        raise EmptySlotsError("cannot build a haft over zero slots")
    _check_origins(slot_list)
    return _assemble(slot_list, vids)[0]


def merge_hafts(a: Haft, b: Haft, vids: VidSource) -> Haft:
    """Binary addition of two hafts; untouched complete trees keep their vids."""
    _check_origins(haft_slots(a) + haft_slots(b))
    return _assemble(list(a.trees) + list(b.trees), vids)[0]


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
    assignment = {x.vid: x.right.first for x, _, _ in walk(h.root()) if isinstance(x, Internal)}
    taken: set[LeafSlot] = set()
    for vid in sorted(assignment):
        slot = assignment[vid]
        if slot in taken:
            raise UnassignableError(f"slot {slot.origin} would simulate two internals")
        taken.add(slot)
    return assignment


def to_virtual_edges(
    h: Haft, assignment: dict[int, LeafSlot]
) -> tuple[list[tuple[int, int]], list[tuple[VNode, VNode]]]:
    """Translate a haft into virtual-graph material.

    Returns (declarations, edges): one (vid, simulator processor) per internal
    node and one VNode pair per parent-child tree edge.
    """
    decls: list[tuple[int, int]] = []
    edges: list[tuple[VNode, VNode]] = []
    # Preorder: each node is declared just after the edge from its parent.
    for node, parent, _ in walk(h.root()):
        internal = isinstance(node, Internal)
        if parent is not None:
            child = virt(node.vid) if internal else real(node.processor)
            edges.append((virt(parent.vid), child))
        if internal:
            decls.append((node.vid, assignment[node.vid].processor))
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
    if not isinstance(node, Internal):
        dead = node.processor == dead_processor
        return ([] if dead else [node]), dead
    left_pieces, left_dead = _split(node.left, dead_processor, dissolved)
    right_pieces, right_dead = _split(node.right, dead_processor, dissolved)
    if not (left_dead or right_dead):
        return [node], False
    dissolved.append(node.vid)
    return left_pieces + right_pieces, True


def split_marked(
    h: Haft, marked: Container[int] | None, dead_processor: int
) -> tuple[list[HaftNode], list[int]]:
    """`split_out` that walks only the marked paths.

    `marked` holds the vids on the paths from every dead slot of `h` up to
    its tree root (vids of other hafts may be in it too). A tree or subtree
    whose root is unmarked holds no dead slot and is one piece as it
    stands, so the work is proportional to the marked vids plus the
    pieces. Returns what `split_out(h, dead_processor)` returns, in the
    same order. None marks every vid: the pieces are then the slots that
    `dead_processor` does not hold, left to right, and every vid of `h`
    dissolves.

    The walk takes each node before its subtrees and the right subtree
    before the left: the wanted order backwards, so both lists are
    reversed at the end."""
    pieces: list[HaftNode] = []
    dissolved: list[int] = []
    stack: list[HaftNode] = list(h.trees)
    while stack:
        node = stack.pop()
        if node.__class__ is not Internal:
            if node.processor != dead_processor:
                pieces.append(node)
        elif marked is None or node.vid in marked:
            dissolved.append(node.vid)
            stack += (node.left, node.right)
        else:
            pieces.append(node)
    pieces.reverse()
    dissolved.reverse()
    dissolved += h.spine
    return pieces, dissolved


# -- validation ---------------------------------------------------------------


def _recount(node: HaftNode, stale: list[int]) -> tuple[int, LeafSlot, LeafSlot, bool]:
    """(size, first, low, complete) of a subtree recounted from its leaves,
    where complete means no internal node's children differ in leaf count;
    appends to `stale` the vid of every internal node whose cached facts
    differ."""
    if not isinstance(node, Internal):
        return 1, node, node, True
    left_size, first, left_low, left_complete = _recount(node.left, stale)
    right_size, _, right_low, right_complete = _recount(node.right, stale)
    facts = (left_size + right_size, first, min(left_low, right_low))
    if (node.size, node.first, node.low) != facts:
        stale.append(node.vid)
    return (*facts, left_complete and right_complete and left_size == right_size)


def validate_haft(h: Haft) -> list[str]:
    """Shape audit, cached subtree facts included; empty list means every
    haft invariant holds."""
    problems: list[str] = []
    stale: list[int] = []
    counts = [_recount(tree, stale) for tree in h.trees]
    if stale:
        problems.append(f"stale-cached-facts: vids {sorted(stale)}")
    sizes = []
    for i, (tree, (size, _, _, complete)) in enumerate(zip(h.trees, counts)):
        if not complete:
            problems.append(f"tree-not-complete: index {i}")
            size = tree.size
        sizes.append(size)
    for s in sizes:
        if s & (s - 1):
            problems.append(f"size-not-power-of-two: {s}")
    if any(a <= b for a, b in zip(sizes, sizes[1:])):
        problems.append(f"sizes-not-strictly-decreasing: {sizes}")
    spine_fits = len(h.spine) == max(0, len(h.trees) - 1)
    if not spine_fits:
        problems.append(f"spine-length: {len(h.spine)} for {len(h.trees)} trees")
    vids = list(h.spine) + [v for tree in h.trees for v in node_vids(tree)]
    if len(vids) != len(set(vids)):
        problems.append("duplicate-vids")
    total = sum(sizes)
    # The depth bound reads the haft as one tree, which needs its spine.
    if total and spine_fits:
        bound = ceil_log2(total) + len(h.trees)
        depths = leaf_depths(h)
        if depths and max(depths) > bound:
            problems.append(f"depth-bound: max {max(depths)} > {bound}")
    slots = haft_slots(h)
    if len({s.origin for s in slots}) != len(slots):
        problems.append("duplicate-origins")
    return problems
