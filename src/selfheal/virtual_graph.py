"""Virtual graphs: real nodes, simulated helper nodes, and their real image.

A virtual graph partitions its nodes into *real* nodes (one per live
processor) and *virtual* nodes, each simulated by exactly one real node.
Mapping every node to its simulating processor and taking edge images is a
graph homomorphism onto the real graph. Parallel images collapse and
self-loop images are dropped, so the real graph is always a simple graph
whose edges are exactly the images of the virtual-graph edges.

The image is maintained, not recomputed: `image` is a `Graph` kept up to
date by every mutation, with a count of the virtual edges mapping onto each
image edge. An image edge appears when its count leaves 0 and disappears
when it returns to 0. Only counts of 2 or more are stored: a pair with no
stored count has count 1 if the image has the edge and 0 if it does not.
So the lift of a real graph, where every edge is its own image, stores no
count at all. The count alone says whether an image edge is there, so
`rewire` writes the image's adjacency directly, without the checks of
`Graph.add_edge` / `remove_edge`, and `audit` recounts the image from the
virtual adjacency. `de_simulate` returns a copy of it. A processor ->
hosted-vids index makes removing a processor proportional to what it
simulates. The node sets are not stored apart: `reals` is a read-only view
of the image's nodes and `virtuals` one of the simulation map's keys.

Edges between live nodes change in one place, `rewire`, once the initial
graph is lifted (`from_graph` writes that graph's edges, each its own
image with count 1, directly). `rewire` dissolves vids, declares new ones
and adds edges as one batch, sums the count changes per processor pair,
and applies each net change once. So an image edge whose count falls to 0
and climbs back within the batch is never touched.
`rewire` returns what the batch changed as a `RepairJournal`, built in
the loops that apply it: the numbers of virtual edges added and dropped,
the processors at their ends, and the real edges added and dropped. A
healer reads its report from it instead of diffing snapshots, and no
virtual edge is stored for that. Removing a processor needs no counting: the
virtual edges it loses are exactly those that map onto its image edges (or
onto none), so those image edges and their stored counts go with it.

Two consequences of the homomorphism that downstream bounds lean on, and
that the property tests check against a breadth-first oracle:

* image distances never exceed virtual-graph distances, and
* a processor's image degree never exceeds the sum of the virtual-graph
  degrees of its real node and all virtual nodes it simulates.

Virtual-node ids come from a monotone per-run counter and are never reused,
even after removal. The graph keeps no history for that, only a watermark:
a declaration at or below a vid that an earlier batch declared is refused,
so a batch declares each vid it mints. A virtual node cannot outlive its
simulator: removing a processor cascades to everything it simulates.

A virtual-graph node is a plain int. Real processor p is p, and virtual
vid is `VBASE + vid`. Processor ids stay below VBASE: input ids are below
`graph.MAX_NODE_ID`, and a run's inserts add one each from there. So int
order is the order (kind, id) with "r" before "v": every real node sorts
before every virtual one, and edges and the DOT export sort
with no key. `node_name` spells a node "r3" / "v12" for messages. VBASE
is 2^62 + 2^60, whose hash is 2^60 + 2, so a virtual node's hash does not
equal a small processor id's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, KeysView

from .graph import MAX_NODE_ID, DuplicateNodeError, Graph, GraphError, UnknownNodeError

VNode = int
VBASE = MAX_NODE_ID + 2**60


def real(processor: int) -> VNode:
    return processor


def virt(vid: int) -> VNode:
    return VBASE + vid


def is_real(x: VNode) -> bool:
    return x < VBASE


def node_id(x: VNode) -> int:
    """The processor of a real node, the vid of a virtual one."""
    return x if x < VBASE else x - VBASE


def node_name(x: VNode) -> str:
    return f"r{x}" if x < VBASE else f"v{x - VBASE}"


class VidSource:
    """Monotone counter handing out virtual-node ids; ids are never reused."""

    __slots__ = ("_next",)

    def __init__(self, start: int = 0):
        self._next = start

    def take(self) -> int:
        vid = self._next
        self._next += 1
        return vid

    @property
    def next_vid(self) -> int:
        return self._next


Edge = tuple[VNode, VNode]


@dataclass
class RepairJournal:
    """What one `VirtualGraph.rewire` batch changed.

    `virtual_added` and `virtual_dropped` count the virtual edges the batch
    added and dropped. `joined` holds the processors at both ends of every
    added virtual edge, and `parted` those of every dropped one, each as it
    was at the edge's removal. Real edges are image edges as (min, max)
    processor pairs.
    """

    virtual_added: int = 0
    virtual_dropped: int = 0
    joined: set[int] = field(default_factory=set)
    parted: set[int] = field(default_factory=set)
    real_added: set[tuple[int, int]] = field(default_factory=set)
    real_dropped: set[tuple[int, int]] = field(default_factory=set)


class VirtualGraph:
    """Simple graph over VNodes with a total simulation map on virtual nodes,
    plus its maintained homomorphic image."""

    def __init__(self, vids: VidSource | None = None):
        self.sim: dict[int, int] = {}
        self.vids = vids if vids is not None else VidSource()
        self.image = Graph()
        self._adj: dict[VNode, set[VNode]] = {}
        self._declared_below = 0
        self._hosted: dict[int, set[int]] = {}
        # Image counts of 2 or more; see the module docstring.
        self._multiplicity: dict[tuple[int, int], int] = {}

    @property
    def reals(self) -> KeysView[int]:
        return self.image._adj.keys()

    @property
    def virtuals(self) -> KeysView[int]:
        return self.sim.keys()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_graph(cls, g: Graph) -> "VirtualGraph":
        """Lift a real graph: every node real, no virtual nodes.

        Every edge joins two real nodes, so it is its own image with count
        1, which is not stored, and the lift writes the adjacency and the
        image directly, in one pass over the nodes. It builds what
        `add_real_node` on each node in ascending order and one `rewire`
        over `g.edges()` would, down to the order in which each set and
        dict is filled, and shares no set with `g`. An id at or above
        VBASE raises GraphError, the smallest such id named.
        """
        nodes = sorted(g._adj)
        if nodes and nodes[-1] >= VBASE:
            bad = next(v for v in nodes if v >= VBASE)
            raise GraphError(f"processor id {bad} is not below {VBASE}")
        vg = cls()
        adj, image_adj = vg._adj, vg.image._adj
        for v in nodes:
            nbrs = sorted(g._adj[v])
            adj[v] = set(nbrs)
            image_adj[v] = set(nbrs)
        return vg

    def add_real_node(self, processor: int) -> None:
        if processor >= VBASE:
            raise GraphError(f"processor id {processor} is not below {VBASE}")
        if processor in self.reals:
            raise DuplicateNodeError(f"real node {processor} already present")
        self._adj[processor] = set()
        self.image.add_node(processor)

    # -- removal ----------------------------------------------------------

    def remove_processor(self, processor: int) -> None:
        """Remove a processor, cascading to every virtual node it simulates,
        and all their edges; the image loses the processor and its edges,
        with their stored counts, and no other count changes."""
        if processor not in self.reals:
            raise UnknownNodeError(f"real node {processor} not present")
        hosted = self._hosted.pop(processor, ())
        adj = self._adj
        for node in (processor, *[VBASE + vid for vid in hosted]):
            for nbr in adj.pop(node):
                adj[nbr].discard(node)
        counts = self._multiplicity
        for q in self.image.remove_node(processor):
            counts.pop((processor, q) if processor < q else (q, processor), None)
        for vid in hosted:
            del self.sim[vid]

    # -- batched repair -----------------------------------------------------

    def rewire(
        self,
        dissolve: Iterable[int],
        declare: Iterable[tuple[int, int]],
        edges: Iterable[Edge],
    ) -> RepairJournal:
        """Dissolve each vid in `dissolve` with its edges, declare each
        (vid, simulator) in `declare`, then add each virtual edge in
        `edges`: one batch, in that order. Returns the batch's changes.

        A declared simulator that is not a real node raises
        UnknownNodeError, and so does a vid not yet minted from `vids`. A
        vid already declared in this batch, or at or below a vid an
        earlier batch declared, raises DuplicateNodeError: a batch may
        declare its vids in any order, and a dissolved vid is never
        declared again. A self-loop or an endpoint not in the graph raises
        UnknownNodeError, an edge already present is skipped, and a vid to
        dissolve that is not a live virtual node raises UnknownNodeError.
        No edge is both added and dropped: each dropped edge has a
        dissolved endpoint, and a dissolved vid cannot be declared again.
        The image counts are summed per processor pair and each nonzero net
        change is applied once, at the end, even when a check raises part
        way; so the image changes only on a real move between 0 and
        nonzero.
        """
        adj, sim, hosted = self._adj, self.sim, self._hosted
        changes = RepairJournal()
        joined, parted = changes.joined, changes.parted
        net: dict[tuple[int, int], int] = {}
        n_added = n_dropped = 0
        floor = below = self._declared_below
        try:
            for vid in dissolve:
                if vid not in sim:
                    raise UnknownNodeError(f"virtual node {vid} not present")
                node = VBASE + vid
                pv = sim.pop(vid)
                nbrs = adj.pop(node)
                if nbrs:
                    n_dropped += len(nbrs)
                    parted.add(pv)
                for nbr in nbrs:
                    adj[nbr].discard(node)
                    pn = nbr if nbr < VBASE else sim[nbr - VBASE]
                    parted.add(pn)
                    if pv != pn:
                        edge = (pv, pn) if pv < pn else (pn, pv)
                        net[edge] = net.get(edge, 0) - 1
                hosted[pv].discard(vid)
            reals, minted = self.reals, self.vids.next_vid
            for vid, simulator in declare:
                if simulator not in reals:
                    raise UnknownNodeError(f"simulator {simulator} is not a real node")
                if vid < floor or vid in sim:
                    raise DuplicateNodeError(f"vid {vid} is not above every vid declared before it")
                if vid >= minted:
                    raise UnknownNodeError(f"vid {vid} was not minted from this graph's counter")
                if vid >= below:
                    below = vid + 1
                sim[vid] = simulator
                held = hosted.get(simulator)
                if held is None:
                    hosted[simulator] = {vid}
                else:
                    held.add(vid)
                adj[VBASE + vid] = set()
            for a, b in edges:
                if a == b:
                    raise UnknownNodeError(f"self-loop at {node_name(a)}")
                nbrs = adj.get(a)
                if nbrs is None:
                    raise UnknownNodeError(f"{node_name(a)} not in virtual graph")
                if b not in adj:
                    raise UnknownNodeError(f"{node_name(b)} not in virtual graph")
                if b in nbrs:
                    continue
                nbrs.add(b)
                adj[b].add(a)
                n_added += 1
                pa = a if a < VBASE else sim[a - VBASE]
                pb = b if b < VBASE else sim[b - VBASE]
                joined.add(pa)
                joined.add(pb)
                if pa != pb:
                    edge = (pa, pb) if pa < pb else (pb, pa)
                    net[edge] = net.get(edge, 0) + 1
        finally:
            self._declared_below = below
            changes.virtual_added, changes.virtual_dropped = n_added, n_dropped
            # Both ends are live processors, a count leaving 0 means the
            # image edge is absent and one reaching 0 that it is there: the
            # checks of `Graph.add_edge` / `remove_edge` hold already.
            counts, image_adj = self._multiplicity, self.image._adj
            real_added, real_dropped = changes.real_added, changes.real_dropped
            for edge, delta in net.items():
                if not delta:
                    continue
                pa, pb = edge
                before = counts.get(edge)
                if before is None:
                    before = 1 if pb in image_adj[pa] else 0
                after = before + delta
                if after >= 2:
                    counts[edge] = after
                elif before >= 2:
                    del counts[edge]
                if not before:
                    image_adj[pa].add(pb)
                    image_adj[pb].add(pa)
                    real_added.add(edge)
                elif not after:
                    image_adj[pa].discard(pb)
                    image_adj[pb].discard(pa)
                    real_dropped.add(edge)
        return changes

    # -- views ------------------------------------------------------------

    def has_node(self, x: VNode) -> bool:
        return x in self._adj

    def neighbors(self, x: VNode) -> set[VNode]:
        if x not in self._adj:
            raise UnknownNodeError(f"{node_name(x)} not in virtual graph")
        return set(self._adj[x])

    def edges(self) -> Iterator[tuple[VNode, VNode]]:
        for a in sorted(self._adj):
            for b in sorted(self._adj[a]):
                if a < b:
                    yield (a, b)

    @property
    def edge_count(self) -> int:
        return sum(len(n) for n in self._adj.values()) // 2

    # -- de-simulation ------------------------------------------------------

    def de_simulate(self) -> Graph:
        """A copy of the homomorphic image: nodes are the live processors,
        edges the images of virtual-graph edges (self-loop images dropped,
        parallels collapsed)."""
        return self.image.copy()

    def edge_set(self) -> set[tuple[VNode, VNode]]:
        """All edges as canonically ordered pairs (no sorting of the set)."""
        out: set[tuple[VNode, VNode]] = set()
        for a, nbrs in self._adj.items():
            for b in nbrs:
                out.add((a, b) if a < b else (b, a))
        return out

    # -- diagnostics --------------------------------------------------------

    def audit(self) -> list[str]:
        """Machine-readable invariant check; empty list means healthy. The
        image counts, the image's edges and the hosted index are checked
        against a recount from the adjacency and the simulation map."""
        problems = []
        for vid in sorted(self.sim):
            if self.sim[vid] not in self.reals:
                problems.append(f"dangling-simulator: {vid}->{self.sim[vid]}")
        expected = self.reals | {VBASE + v for v in self.virtuals}
        for node in sorted(self._adj):
            if node not in expected:
                problems.append(f"unknown-adjacency-key: {node_name(node)}")
        for node in sorted(expected):
            if node not in self._adj:
                problems.append(f"missing-adjacency-key: {node_name(node)}")
        for a in sorted(self._adj):
            if a in self._adj[a]:
                problems.append(f"self-loop: {node_name(a)}")
            for b in self._adj[a]:
                if b not in self._adj:
                    problems.append(f"dangling-edge: {node_name(a)}-{node_name(b)}")
                elif a not in self._adj[b]:
                    problems.append(f"asymmetric-adjacency: {node_name(a)}-{node_name(b)}")
        problems += self._audit_image()
        hosted: dict[int, set[int]] = {}
        for vid, p in self.sim.items():
            hosted.setdefault(p, set()).add(vid)
        for p in sorted(hosted.keys() | self._hosted.keys()):
            if self._hosted.get(p, set()) != hosted.get(p, set()):
                problems.append(
                    f"hosted: {p} -> {sorted(self._hosted.get(p, ()))}, "
                    f"expected {sorted(hosted.get(p, ()))}"
                )
        for vid in sorted(self.virtuals):
            if vid >= self._declared_below:
                problems.append(f"unspent-vid: {vid}")
        return problems

    def _audit_image(self) -> list[str]:
        """The image counts and edges against a recount from the adjacency
        and the simulation map. A count is read as stored, else as 1 on an
        image edge and 0 off one, and checked wherever it is stored or the
        recount is 2 or more; the image's edges decide the rest, and a
        stored count below 2 is flagged."""
        counts: dict[tuple[int, int], int] = {}
        for a, nbrs in self._adj.items():
            pa = a if a < VBASE else self.sim.get(a - VBASE)
            for b in nbrs:
                pb = b if b < VBASE else self.sim.get(b - VBASE)
                if a < b and pa is not None and pb is not None and pa != pb:
                    edge = (pa, pb) if pa < pb else (pb, pa)
                    counts[edge] = counts.get(edge, 0) + 1
        problems = []
        stored, image = self._multiplicity, set(self.image.edges())
        for edge in sorted(stored.keys() | {e for e, c in counts.items() if c >= 2}):
            kept, expected = stored.get(edge, int(edge in image)), counts.get(edge, 0)
            if kept != expected:
                problems.append(f"image-count: {edge} is {kept}, expected {expected}")
            if edge in stored and kept < 2:
                problems.append(f"image-count: {edge} is stored as {kept}, below 2")
        for edge in sorted(image - counts.keys()):
            problems.append(f"image-edge: {edge} is in the image, but no virtual edge maps onto it")
        for edge in sorted(counts.keys() - image):
            problems.append(f"image-edge: {edge} is missing from the image")
        return problems

    def to_dot(self, name: str = "virtual") -> str:
        """Debug DOT export: circles for real nodes, triangles labeled
        "vid/simulator" for virtual ones."""
        lines = [f"graph {name} {{"]
        for p in sorted(self.reals):
            lines.append(f'  "r{p}" [shape=circle, label="{p}"];')
        for vid in sorted(self.virtuals):
            lines.append(f'  "v{vid}" [shape=triangle, label="{vid}/{self.sim[vid]}"];')
        for a, b in self.edges():
            lines.append(f'  "{node_name(a)}" -- "{node_name(b)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"VirtualGraph(reals={len(self.reals)}, virtuals={len(self.virtuals)}, "
            f"edges={self.edge_count})"
        )
