"""Healing algorithms for the recovery phase.

Every healer keeps one piece of state, a `VirtualGraph`, and the healed
network is its real image. Five healers share one implementation: `preprocess`
lifts the initial graph into the virtual graph, then `on_insert` /
`on_delete` per adversary event each return a HealerReport with the edge
changes and cost accounting. A deletion removes the processor and everything
it simulates, then a healer-specific `_repair` rewires the survivors in one
`VirtualGraph.rewire` batch. The report is read off the batch's
`RepairJournal`: the real edges it changed, the numbers of virtual edges
it added and dropped, and the processors at their ends, with no second
pass over the edges. `live_graph` returns the maintained image itself,
not a copy: it is read-only and valid until the next event, so a caller that
wants to keep it calls `.copy()`.

* null     - does nothing on deletion; negative control for the checkers.
* star     - wires all orphans to the minimum-id orphan.
* ring     - wires the orphans into a cycle by ascending id.
* rebuild  - reconstruction trees rebuilt from scratch: every haft the
             deleted node touched is split down to its slots and dissolved
             whole (`haft.split_marked` with every vid marked), and one
             fresh haft is built over all surviving slots; messages and host
             time scale with the whole region.
* haft     - the flagship: surviving complete subtrees are preserved and
             merged by binary addition, so only the spine, the carries and
             the reassigned simulators are touched, and edges of dissolved
             internal nodes are dropped. The dead processor's virtual
             neighbours, which are its slots' parents, one vid -> parent
             vid map and cached subtree facts keep the host work to
             O(changed * log n) as well.

The three baselines mint no virtual nodes: each real edge they add is one
virtual edge, so their virtual graph is their healed graph.

Recovery is modeled with knowledge replication: every processor pushes its
neighbor-list and tree-metadata updates to current neighbors on change, so
after a deletion every orphan computes the same replacement structure locally
and no election is needed. Message counts are the audited metric: per
deletion, the notified live neighbors, plus two messages per virtual-graph
edge change, plus one per new simulator assignment. Rounds follow the
synchronous convention 1 + ceil(log2 |touched|) for the structural healers
and 1 for the baselines. max_hops comes from a bidirectional breadth-first
search between the deleted node and the touched nodes over the pre-deletion
graph; for the search, the image takes that graph's shape in place, with
the repair's real-edge changes undone. The ball around the deleted node
grows alone while it is the cheaper side, against one set of the touched
nodes it has not reached; once the other side is the cheaper one, the
balls around those nodes grow together as one labelled frontier, one bit
per node. Every healer also reports a
connectivity witness, the processors of the virtual edges its repair
added, which that repair has joined by construction, so that the engine
need not search for touched nodes the repair has already joined.

A healer instance owns its state exclusively; distinct instances share
nothing and may run in parallel.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field

from .graph import Graph, UnknownNodeError
from .haft import (
    Haft,
    HaftError,
    HaftNode,
    Internal,
    LeafSlot,
    _assemble,
    assign_simulators,
    ceil_log2,
    haft_slots,
    split_marked,
    split_out,  # noqa: F401  (unused here; the benchmark's tracer wraps this name)
    to_virtual_edges,
    validate_haft,
    walk,
)
from .virtual_graph import VBASE, Edge, RepairJournal, VirtualGraph, node_name

HEALER_NAMES = ("null", "star", "ring", "rebuild", "haft")


class HealerError(ValueError):
    pass


@dataclass
class HealerReport:
    """Per-event cost and change accounting.

    touched covers every endpoint of every added or dropped real edge, plus
    the deleted node's former live neighbours (on insert: the new node and
    its neighbours), so it holds every node whose live or shadow degree the
    event changed; at preprocessing it is a view of every node. messages is
    always at least |edges_added| + |edges_dropped|.
    max_hops is the farthest touched node from the deleted node, measured in
    the pre-deletion live graph.
    witness holds the processors at the endpoints of the virtual edges a
    deletion's repair added, and the repair joins them into one connected
    part of the healed graph by construction. For `haft` and `rebuild`
    those edges hang every new internal node from the new haft's root, so
    they form one tree, and the image of a connected virtual subgraph is
    connected. Every `star` edge touches the hub. Each `ring` edge among
    the orphans was either added or already there, so the ring joins every
    orphan. `null` adds no edge. Every witness node is also touched; every
    insert leaves the witness empty.
    """

    edges_added: set[tuple[int, int]] = field(default_factory=set)
    edges_dropped: set[tuple[int, int]] = field(default_factory=set)
    virtual_nodes_created: int = 0
    messages: int = 0
    rounds: int = 0
    touched: Set[int] = field(default_factory=set)
    max_hops: int = 0
    witness: set[int] = field(default_factory=set)


def make_healer(name: str) -> "Healer":
    if name == "null":
        return NullHealer()
    if name == "star":
        return StarHealer()
    if name == "ring":
        return RingHealer()
    if name in ("rebuild", "haft"):
        return HaftHealer(name)
    raise HealerError(f"unknown healer {name!r}; expected one of {HEALER_NAMES}")


class Healer:
    """A healer over a virtual graph. Subclasses supply `_repair`, and may
    override `_rounds`."""

    name = "abstract"

    def __init__(self) -> None:
        self.vg = VirtualGraph()

    # -- lifecycle ---------------------------------------------------------

    def preprocess(self, initial: Graph) -> HealerReport:
        self.vg = VirtualGraph.from_graph(initial)
        edges = initial.edge_count
        return HealerReport(
            messages=2 * edges,
            rounds=1 if edges else 0,
            touched=initial._adj.keys(),
        )

    def on_insert(self, v: int, neighbors: set[int]) -> HealerReport:
        live = self.vg.image
        if live.has_node(v):
            raise HealerError(f"insert reuses live id {v}")
        if not neighbors:
            raise HealerError("insert must attach to at least one live node")
        missing = [w for w in neighbors if not live.has_node(w)]
        if missing:
            raise UnknownNodeError(f"insert neighbor {min(missing)} is not live")
        self.vg.add_real_node(v)
        self.vg.rewire((), (), [(v, w) for w in neighbors])
        return HealerReport(
            messages=len(neighbors),
            rounds=1,
            touched={v} | set(neighbors),
            max_hops=1,
        )

    def on_delete(self, v: int) -> HealerReport:
        if v not in self.vg.reals:
            raise UnknownNodeError(f"processor {v} is not live")
        notified = self.vg.image.neighbors(v)
        nbrs = self.vg._adj[v]
        direct = sorted(w for w in nbrs if w < VBASE)
        parents = [w - VBASE for w in nbrs if w >= VBASE]

        # Adversary's removal: v, everything v simulates, their edges.
        self.vg.remove_processor(v)
        # Everything from here on is healer work.
        journal, created_virtuals = self._repair(v, direct, parents)

        # `rewire` counts a real edge change only from the virtual edges it
        # adds or drops, so every endpoint of a real change is already in
        # `joined` or `parted`.
        touched = notified.union(journal.joined, journal.parted)

        v_changes = journal.virtual_added + journal.virtual_dropped
        return HealerReport(
            edges_added=journal.real_added,
            edges_dropped=journal.real_dropped,
            virtual_nodes_created=created_virtuals,
            messages=len(notified) + 2 * v_changes + created_virtuals,
            rounds=self._rounds(len(touched)) if touched else 0,
            touched=touched,
            max_hops=self._max_hops(v, notified, journal, touched),
            witness=journal.joined,
        )

    def _max_hops(
        self, v: int, notified: set[int], journal: RepairJournal, touched: set[int]
    ) -> int:
        """The farthest touched node from v in the pre-deletion live graph.

        The removal of v drops only edges at v, so the pre-deletion graph is
        the image without the repair's added edges, with its dropped edges,
        and with v joined to `notified`. The image's adjacency is put back
        that way for the search, in place, and restored after it: O(changed)
        set operations, and no copy of any neighbourhood.
        """
        adj = self.vg.image._adj
        added, dropped = journal.real_added, journal.real_dropped
        for a, b in added:
            adj[a].discard(b)
            adj[b].discard(a)
        for a, b in dropped:
            adj[a].add(b)
            adj[b].add(a)
        adj[v] = notified
        try:
            return _farthest(adj, v, touched)
        finally:
            del adj[v]
            for a, b in dropped:
                adj[a].discard(b)
                adj[b].discard(a)
            for a, b in added:
                adj[a].add(b)
                adj[b].add(a)

    def _repair(self, v: int, direct: list[int], parents: list[int]) -> tuple[RepairJournal, int]:
        """Rewire the survivors after v's removal in one `rewire` call;
        `direct` lists v's former real neighbors in ascending order, and
        `parents` the vids of its former virtual neighbors. Returns that
        call's changes and the number of virtual nodes created."""
        raise NotImplementedError

    def _rounds(self, touched: int) -> int:
        """Recovery rounds of a repair that touched `touched` > 0 nodes."""
        return 1

    # -- views ---------------------------------------------------------------

    def live_graph(self) -> Graph:
        """The healed graph itself: read-only, valid until the next event."""
        return self.vg.image

    def virtual_node_count(self) -> int:
        return len(self.vg.virtuals)

    def audit(self) -> list[str]:
        """Virtual-graph invariants, then the healed graph's own."""
        return self.vg.audit() + self.vg.image.audit()


class NullHealer(Healer):
    name = "null"

    def _repair(self, v: int, direct: list[int], parents: list[int]) -> tuple[RepairJournal, int]:
        return RepairJournal(), 0


class StarHealer(Healer):
    name = "star"

    def _repair(self, v: int, direct: list[int], parents: list[int]) -> tuple[RepairJournal, int]:
        return self.vg.rewire((), (), [(direct[0], w) for w in direct[1:]]), 0


class RingHealer(Healer):
    name = "ring"

    def _repair(self, v: int, direct: list[int], parents: list[int]) -> tuple[RepairJournal, int]:
        pairs = list(zip(direct, direct[1:]))
        if len(direct) > 2:
            pairs.append((direct[-1], direct[0]))
        return self.vg.rewire((), (), pairs), 0


class HaftHealer(Healer):
    """Reconstruction-tree healer over a virtual graph.

    Its state is the virtual graph plus the shape of every live haft
    (`hafts`, keyed by the vid of the haft's root, which is always an
    internal node: a haft holds at least 3 slots or one tree of 2);
    simulators live only in `vg.sim`. Each deletion adds one slot per
    former real neighbor. The part of a haft a deletion touches is found
    without walking the haft. Each leaf is wired to its parent by a virtual
    edge, and those are the only virtual edges at a real node, so the
    virtual neighbors of a processor are the parent vids of its slots (two
    sibling slots of one processor share one edge). From there one map,
    `parent` (internal vid -> parent vid, spine links included), leads up
    to the haft's key.

    name "haft" merges surviving complete subtrees by binary addition. Its
    deletion walks up from the dead slots, splits only the marked paths
    and wires only the new carries and spine nodes, so it costs
    O(changed * log n). name "rebuild" finds the affected hafts the same
    way and splits each down to its surviving slots with the same walk,
    every vid marked (`split_marked(h, None, v)`), and the whole affected
    region is rebuilt from them in slot order, which costs time in
    proportion to that region. Either way the repair only collects the
    vids it dissolves, the vids it declares and the edges it adds, and
    applies them to the virtual graph as one batch, `VirtualGraph.rewire`.
    `audit` recomputes the map and the virtual edges from whole-haft
    walks.
    """

    def __init__(self, name: str):
        if name not in ("haft", "rebuild"):
            raise HealerError(f"unknown haft healer {name!r}")
        super().__init__()
        self.name = name
        self.hafts: dict[int, Haft] = {}
        self.parent: dict[int, int] = {}

    def preprocess(self, initial: Graph) -> HealerReport:
        self.hafts.clear()
        self.parent.clear()
        return super().preprocess(initial)

    def _rounds(self, touched: int) -> int:
        return 1 + ceil_log2(touched)

    def _repair(self, v: int, direct: list[int], parents: list[int]) -> tuple[RepairJournal, int]:
        """Dissolve the hafts that lost v, along the marked paths for
        "haft" and whole for "rebuild" (`split_marked` with every vid
        marked), then rebuild over what survives and the slots of v's real
        neighbors. v's former virtual neighbors, `parents`, are the parents
        of its slots in every haft. The name picks only the marks and the
        order of the items."""
        # Mark every vid above a dead slot; a path that meets a marked vid
        # has already been walked up to its haft's root.
        parent, sim = self.parent, self.vg.sim
        marked: set[int] = set()
        roots: set[int] = set()
        for key in parents:
            if key in marked:
                continue
            marked.add(key)
            while (up := parent.get(key)) is not None and up not in marked:
                marked.add(up)
                key = up
            if up is None:
                roots.add(key)

        rebuild = self.name == "rebuild"
        split = None if rebuild else marked
        pieces: list[HaftNode] = []
        dissolve: list[int] = []
        for root in sorted(roots):
            tree_pieces, dissolved = split_marked(self.hafts.pop(root), split, v)
            pieces.extend(tree_pieces)
            # The dead processor's own vids went with it.
            dissolve += [vid for vid in dissolved if vid in sim]
            for vid in dissolved:
                parent.pop(vid, None)
        # `direct` ascends, so the new slots are already in slot order.
        new_slots = [LeafSlot(w, (min(v, w), max(v, w))) for w in direct]
        if rebuild:
            items = sorted(pieces + new_slots)
        else:
            items = sorted(pieces, key=_piece_key) + new_slots
        return self._install(items, dissolve)

    def _install(self, items: list[HaftNode], dissolve: list[int]) -> tuple[RepairJournal, int]:
        """Assemble the replacement structure over `items`, and apply it,
        with the dissolution of the vids in `dissolve`, to the virtual graph
        in one `rewire`. Only the new internal nodes are wired: the carries
        `_assemble` minted and the spine nodes read down from the new root,
        each declared with its simulator and linked to its two children by
        virtual edges, and to its internal children in the parent map as
        well. Every other node is an item, already wired: a preserved
        subtree's root has its simulator checked before the graph changes.
        Every internal item but the new root gets its parent written over;
        the root's old entry is dropped. Returns the `rewire` changes and
        the number of virtual nodes created."""
        total = sum(it.size for it in items)
        if total <= 2 and len(items) == total:
            # A lone claimant keeps no structure, and two separate single
            # slots get a direct real edge; neither is a haft any more.
            procs = sorted({slot.processor for slot in items})
            edges = [(procs[0], procs[1])] if len(procs) == 2 else []
            return self.vg.rewire(dissolve, (), edges), 0
        sim, parent = self.vg.sim, self.parent
        for item in items:
            if item.__class__ is Internal:
                vid, proc = item.vid, item.right.first.processor
                if sim.get(vid) != proc:
                    raise HealerError(
                        f"preserved vid {vid} changed simulator {sim.get(vid)} -> {proc}"
                    )
        new_haft, minted = _assemble(items, self.vg.vids)
        root = node = new_haft.root()
        self.hafts[root.vid] = new_haft
        parent.pop(root.vid, None)
        for _ in new_haft.spine:
            minted.append(node)
            node = node.right
        declare: list[tuple[int, int]] = []
        edges: list[Edge] = []
        for node in minted:
            vid = node.vid
            me = VBASE + vid
            declare.append((vid, node.right.first.processor))
            for child in (node.left, node.right):
                if child.__class__ is Internal:
                    parent[child.vid] = vid
                    edges.append((me, VBASE + child.vid))
                else:
                    edges.append((me, child.processor))
        return self.vg.rewire(dissolve, declare, edges), len(declare)

    def audit(self) -> list[str]:
        """State consistency: virtual and healed graph invariants, haft
        shapes and cached subtree facts, each haft's wiring and simulators
        (recomputed from its shape) against the virtual graph, both ways,
        each haft's key against its root, and the parent map against the
        same map recomputed from the shapes. The virtual edges are the only
        record of which vid holds which slot, so a virtual edge that no
        haft has is flagged as well as a haft edge the graph lacks."""
        problems = super().audit()
        seen_vids: set[int] = set()
        seen_origins: set[tuple[int, int]] = set()
        parent: dict[int, int] = {}
        # Every edge with a virtual end, and those the hafts' wiring holds.
        virtual_edges = {e for e in self.vg.edge_set() if e[1] >= VBASE}
        wired: set[Edge] = set()
        for hid in sorted(self.hafts):
            haft = self.hafts[hid]
            for issue in validate_haft(haft):
                problems.append(f"haft {hid}: {issue}")
            # The wiring is read off the haft as one tree. A spine too short
            # to join the trees (reported above) cannot form it, and a slot
            # that would simulate two internals is reported here.
            decls, vedges = [], []
            if len(haft.spine) >= len(haft.trees) - 1:
                try:
                    decls, vedges = to_virtual_edges(haft, assign_simulators(haft))
                except HaftError as exc:
                    problems.append(f"haft {hid}: {exc}")
                root = haft.root()
                key = root.vid if isinstance(root, Internal) else root
                if key != hid:
                    problems.append(f"haft {hid}: root key is {key!r}")
                for x, up, _ in walk(root):
                    if up is not None and isinstance(x, Internal):
                        parent[x.vid] = up.vid
            for vid, proc in decls:
                if vid in seen_vids:
                    problems.append(f"haft {hid}: vid {vid} in two hafts")
                seen_vids.add(vid)
                if vid not in self.vg.virtuals:
                    problems.append(f"haft {hid}: vid {vid} missing from virtual graph")
                elif self.vg.sim[vid] != proc:
                    problems.append(f"haft {hid}: vid {vid} simulator mismatch")
            for a, b in vedges:
                edge = (a, b) if a < b else (b, a)
                wired.add(edge)
                if edge not in virtual_edges:
                    problems.append(
                        f"haft {hid}: edge {node_name(a)}-{node_name(b)} missing from virtual graph"
                    )
            for slot in haft_slots(haft):
                if slot.origin in seen_origins:
                    problems.append(f"haft {hid}: origin {slot.origin} in two slots")
                seen_origins.add(slot.origin)
        if seen_vids != self.vg.virtuals:
            stray = sorted(self.vg.virtuals - seen_vids)
            problems.append(f"virtual nodes outside any haft: {stray}")
        for a, b in sorted(virtual_edges - wired):
            problems.append(f"virtual edge {node_name(a)}-{node_name(b)} in no haft")
        for key in sorted(self.parent.keys() | parent.keys()):
            if self.parent.get(key) != parent.get(key):
                problems.append(
                    f"parent[{key}]: {self.parent.get(key)!r}, expected {parent.get(key)!r}"
                )
        return problems


# The search from v grows alone while its frontier holds at most this many
# nodes: up to there, one breadth-first search is cheaper than keeping a
# ball around each far touched node. On `haft`/`clustered` (random tree,
# T = n/4) a floor of 32 matched the one-sided search at n = 512 and cut
# the time per deletion by 40% at n = 4096 and 70% at n = 16384; 16 and
# 64 measured within a few percent of it.
SEARCH_FLOOR = 32


def _farthest(adj: dict[int, set[int]], v: int, targets: set[int]) -> int:
    """max over the targets t that v reaches of dist(v, t) in `adj`.

    A bidirectional breadth-first search: one ball around v, of radius
    `hops`, and one around each open target, all of radius `radius`. Two
    balls that do not meet are more than hops + radius apart, since a
    shortest path would cross both; so when they first meet, as one of
    them grows by a level, the distance is exactly hops + radius, and the
    target closes. Each step grows the side with the smaller frontier: v's
    ball, which serves every target, or every open ball by one level. v's
    ball grows first, so that each target ball meets it at a node other
    than v. A target whose ball, or the ball around v, stops growing
    before they meet is unreachable and is left out.

    While v's ball grows alone, each open target's ball is the target
    itself, so the open targets are kept as one set. Often v's ball closes
    every target before it stops growing alone. The targets still open
    then get one bit each, and their balls grow as one labelled frontier:
    `labels` holds, per node, the bits of the balls that hold it, and
    `fresh`, per node of the frontier, the bits it gained at the last
    level. A frontier node passes on only those bits: one it held before
    has already reached every neighbour.
    """
    seen = {v}  # v's ball
    frontier = [v]
    hops = farthest = 0
    open_targets = set(targets)
    while open_targets and frontier:
        if len(frontier) > SEARCH_FLOOR and len(frontier) > len(open_targets):
            break
        hops += 1
        reached = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
                    if w in open_targets:
                        open_targets.discard(w)
                        farthest = hops
        frontier = reached
    if not (open_targets and frontier):
        return farthest
    radius = 0
    labels = {t: 1 << i for i, t in enumerate(open_targets)}
    fresh = labels.copy()
    live = (1 << len(labels)) - 1  # the open targets' bits
    while live and fresh and frontier:
        if len(frontier) <= SEARCH_FLOOR or len(frontier) <= len(fresh):
            hops += 1
            reached = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        reached.append(w)
                        if w in labels and labels[w] & live:
                            live &= ~labels[w]
                            farthest = hops + radius  # never falls
            frontier = reached
            continue
        radius += 1
        grown: dict[int, int] = {}
        for u, bits in fresh.items():
            bits &= live
            if not bits:
                continue
            for w in adj[u]:
                if w in seen:
                    # Every ball that holds u meets v's ball at w.
                    live ^= bits
                    farthest = hops + radius
                    break
                held = labels.get(w)
                if held is None:
                    labels[w] = grown[w] = bits
                elif new := bits & ~held:
                    labels[w] = held | new
                    grown[w] = grown.get(w, 0) | new
        fresh = grown
    return farthest


def _piece_key(node: HaftNode) -> tuple[int, LeafSlot]:
    return (-node.size, node.low)
