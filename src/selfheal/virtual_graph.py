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
when it returns to 0. `de_simulate` returns a copy of it. A processor ->
hosted-vids index makes removing a processor proportional to what it
simulates.

A single edge (an insert, a baseline healer's repair, a removed
processor's edges) moves its image count at once. A tree healer's repair
goes through `rewire` as one batch: it dissolves vids, declares new ones
and adds edges, sums the count changes per processor pair, and applies
each net change once. So an image edge whose count falls to 0 and climbs
back within the repair is never touched.

While a `RepairJournal` is open (`open_journal` .. `close_journal`), every
mutation is also recorded in it, netted against the graph as it was when
the journal opened: a healer reads the edges its repair changed from the
journal instead of diffing snapshots.

Two consequences of the homomorphism that downstream bounds lean on, and
that the property tests check against a breadth-first oracle:

* image distances never exceed virtual-graph distances, and
* a processor's image degree never exceeds the sum of the virtual-graph
  degrees of its real node and all virtual nodes it simulates.

Virtual-node ids come from a monotone per-run counter and are never reused,
even after removal. A virtual node cannot outlive its simulator: removing a
processor cascades to everything it simulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .graph import DuplicateNodeError, Graph, GraphError, UnknownNodeError


class VNode(NamedTuple):
    """Node id in a virtual graph: kind 'r' wraps a processor id, 'v' a vid.

    Nodes order, compare and hash as the tuple (kind, id), so every real
    node sorts before every virtual one; repr and str are "r3" / "v12".
    """

    kind: str
    id: int

    def __repr__(self) -> str:
        return f"{self.kind}{self.id}"


# Both build the tuple directly: the same VNode value as VNode("r", p), at
# under half the cost of the NamedTuple's generated __new__.
def real(processor: int) -> VNode:
    return tuple.__new__(VNode, ("r", processor))


def virt(vid: int) -> VNode:
    return tuple.__new__(VNode, ("v", vid))


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
    """Net edge changes since the journal opened.

    Virtual edges are canonically ordered VNode pairs, each mapped to the
    processors of its endpoints (for a dropped edge, as they were at its
    removal). Real edges are image edges as (min, max) processor pairs. An
    edge added and dropped again within one journal appears in neither set.
    """

    virtual_added: dict[Edge, tuple[int, int]] = field(default_factory=dict)
    virtual_dropped: dict[Edge, tuple[int, int]] = field(default_factory=dict)
    real_added: set[tuple[int, int]] = field(default_factory=set)
    real_dropped: set[tuple[int, int]] = field(default_factory=set)

    def book_virtual(self, a: VNode, b: VNode, pa: int, pb: int, delta: int) -> None:
        """Net virtual edge a-b, with processors pa and pb, being added
        (delta > 0) or removed (delta < 0)."""
        key, procs = ((a, b), (pa, pb)) if a < b else ((b, a), (pb, pa))
        if delta > 0:
            if self.virtual_dropped.pop(key, None) is None:
                self.virtual_added[key] = procs
        elif self.virtual_added.pop(key, None) is None:
            self.virtual_dropped[key] = procs

    def book_real(self, edge: tuple[int, int], present: bool) -> None:
        """Net image edge `edge` appearing (present) or disappearing."""
        gained, lost = (
            (self.real_added, self.real_dropped)
            if present
            else (self.real_dropped, self.real_added)
        )
        if edge in lost:
            lost.discard(edge)
        else:
            gained.add(edge)


class VirtualGraph:
    """Simple graph over VNodes with a total simulation map on virtual nodes,
    plus its maintained homomorphic image."""

    def __init__(self, vids: VidSource | None = None):
        self.reals: set[int] = set()
        self.virtuals: set[int] = set()
        self.sim: dict[int, int] = {}
        self.vids = vids if vids is not None else VidSource()
        self.image = Graph()
        self._adj: dict[VNode, set[VNode]] = {}
        self._spent_vids: set[int] = set()
        self._hosted: dict[int, set[int]] = {}
        self._multiplicity: dict[tuple[int, int], int] = {}
        self._journal: RepairJournal | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_graph(cls, g: Graph) -> "VirtualGraph":
        """Lift a real graph: every node real, no virtual nodes."""
        vg = cls()
        for v in sorted(g.nodes):
            vg.add_real_node(v)
        for u, v in g.edges():
            vg.add_edge(real(u), real(v))
        return vg

    def add_real_node(self, processor: int) -> None:
        if processor in self.reals:
            raise DuplicateNodeError(f"real node {processor} already present")
        self.reals.add(processor)
        self._adj[real(processor)] = set()
        self.image.add_node(processor)

    def add_virtual_node(self, simulator: int) -> int:
        """Mint a fresh vid simulated by `simulator`."""
        if simulator not in self.reals:
            raise UnknownNodeError(f"simulator {simulator} is not a real node")
        vid = self.vids.take()
        self.declare_virtual(vid, simulator)
        return vid

    def declare_virtual(self, vid: int, simulator: int) -> None:
        """Register a vid already minted from this graph's VidSource.

        Lets callers build structures (e.g. reconstruction trees) with fresh
        vids before wiring them in. A vid can be declared at most once per
        run, matching the no-reuse invariant.
        """
        if simulator not in self.reals:
            raise UnknownNodeError(f"simulator {simulator} is not a real node")
        if vid in self._spent_vids:
            raise DuplicateNodeError(f"vid {vid} was already used in this run")
        if vid >= self.vids.next_vid:
            raise UnknownNodeError(f"vid {vid} was not minted from this graph's counter")
        self._spent_vids.add(vid)
        self.virtuals.add(vid)
        self.sim[vid] = simulator
        self._hosted.setdefault(simulator, set()).add(vid)
        self._adj[virt(vid)] = set()

    def add_edge(self, a: VNode, b: VNode) -> bool:
        """Add edge a-b; returns False if already present."""
        if a == b:
            raise UnknownNodeError(f"self-loop at {a}")
        for x in (a, b):
            if x not in self._adj:
                raise UnknownNodeError(f"{x} not in virtual graph")
        if b in self._adj[a]:
            return False
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._count_image(a, b, +1)
        return True

    # -- removal ----------------------------------------------------------

    def remove_processor(self, processor: int) -> None:
        """Remove a processor, cascading to every virtual node it simulates,
        and all their edges; the image loses the processor and every image
        edge no surviving virtual edge maps onto."""
        if processor not in self.reals:
            raise UnknownNodeError(f"real node {processor} not present")
        hosted = sorted(self._hosted.pop(processor, ()))
        self._detach(real(processor))
        for vid in hosted:
            self._detach(virt(vid))
        self.reals.discard(processor)
        self.image.remove_node(processor)
        for vid in hosted:
            self.virtuals.discard(vid)
            self.sim.pop(vid, None)

    def _detach(self, node: VNode) -> None:
        for nbr in self._adj.pop(node):
            self._adj[nbr].discard(node)
            self._count_image(node, nbr, -1)

    def _count_image(self, a: VNode, b: VNode, delta: int) -> None:
        """Book one virtual edge a-b being added (+1) or removed (-1) in the
        journal, if one is open, and in the count of its image edge."""
        pa, pb = self.processor_of(a), self.processor_of(b)
        if self._journal is not None:
            self._journal.book_virtual(a, b, pa, pb, delta)
        if pa != pb:
            self._shift((pa, pb) if pa < pb else (pb, pa), delta)

    def _shift(self, edge: tuple[int, int], delta: int) -> None:
        """Move the count of image edge `edge`, a (min, max) processor pair,
        by a nonzero `delta`. The image, and the open journal's real edges,
        change only when the count moves between 0 and nonzero."""
        before = self._multiplicity.get(edge, 0)
        after = before + delta
        if after:
            self._multiplicity[edge] = after
        else:
            del self._multiplicity[edge]
        if before and after:
            return
        if after:
            self.image.add_edge(*edge)
        else:
            self.image.remove_edge(*edge)
        if self._journal is not None:
            self._journal.book_real(edge, bool(after))

    # -- batched repair -----------------------------------------------------

    def rewire(
        self,
        dissolve: Iterable[int],
        declare: Iterable[tuple[int, int]],
        edges: Iterable[Edge],
    ) -> None:
        """Dissolve each vid in `dissolve` with its edges, declare each
        (vid, simulator) in `declare`, then add each virtual edge in
        `edges`: one batch, in that order.

        Every check of `declare_virtual` and `add_edge` holds, with the same
        exceptions; an edge already present is skipped, and a vid to
        dissolve that is not a live virtual node raises UnknownNodeError.
        Each virtual edge is journaled as it changes. The image counts are
        summed per processor pair and each nonzero net change is applied
        once, at the end, even when a check raises part way; so the image
        and the journal's real edges change only on a real move between 0
        and nonzero.
        """
        adj, sim, virtuals, journal = self._adj, self.sim, self.virtuals, self._journal
        net: dict[tuple[int, int], int] = {}
        try:
            for vid in dissolve:
                if vid not in virtuals:
                    raise UnknownNodeError(f"virtual node {vid} not present")
                node = virt(vid)
                pv = sim.pop(vid)
                for nbr in adj.pop(node):
                    adj[nbr].discard(node)
                    pn = nbr.id if nbr.kind == "r" else sim[nbr.id]
                    if journal is not None:
                        journal.book_virtual(node, nbr, pv, pn, -1)
                    if pv != pn:
                        edge = (pv, pn) if pv < pn else (pn, pv)
                        net[edge] = net.get(edge, 0) - 1
                virtuals.discard(vid)
                self._hosted[pv].discard(vid)
            for vid, simulator in declare:
                self.declare_virtual(vid, simulator)
            for a, b in edges:
                if a == b:
                    raise UnknownNodeError(f"self-loop at {a}")
                for x in (a, b):
                    if x not in adj:
                        raise UnknownNodeError(f"{x} not in virtual graph")
                if b in adj[a]:
                    continue
                adj[a].add(b)
                adj[b].add(a)
                pa = a.id if a.kind == "r" else sim[a.id]
                pb = b.id if b.kind == "r" else sim[b.id]
                if journal is not None:
                    journal.book_virtual(a, b, pa, pb, +1)
                if pa != pb:
                    edge = (pa, pb) if pa < pb else (pb, pa)
                    net[edge] = net.get(edge, 0) + 1
        finally:
            for edge, delta in net.items():
                if delta:
                    self._shift(edge, delta)

    # -- repair journal -----------------------------------------------------

    def open_journal(self) -> None:
        """Start recording net edge changes (replacing any open journal)."""
        self._journal = RepairJournal()

    def close_journal(self) -> RepairJournal:
        """Stop recording and return the changes since `open_journal`."""
        journal, self._journal = self._journal, None
        if journal is None:
            raise GraphError("no repair journal is open")
        return journal

    # -- views ------------------------------------------------------------

    def has_node(self, x: VNode) -> bool:
        return x in self._adj

    def neighbors(self, x: VNode) -> set[VNode]:
        if x not in self._adj:
            raise UnknownNodeError(f"{x} not in virtual graph")
        return set(self._adj[x])

    def degree(self, x: VNode) -> int:
        if x not in self._adj:
            raise UnknownNodeError(f"{x} not in virtual graph")
        return len(self._adj[x])

    def edges(self) -> Iterator[tuple[VNode, VNode]]:
        for a in sorted(self._adj):
            for b in sorted(self._adj[a]):
                if a < b:
                    yield (a, b)

    @property
    def edge_count(self) -> int:
        return sum(len(n) for n in self._adj.values()) // 2

    def processor_of(self, x: VNode) -> int:
        """The homomorphism H: a real node is its own processor."""
        if x.kind == "r":
            return x.id
        return self.sim[x.id]

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
        for vid in sorted(self.virtuals):
            if vid not in self.sim:
                problems.append(f"sim-missing: {vid}")
            elif self.sim[vid] not in self.reals:
                problems.append(f"dangling-simulator: {vid}->{self.sim[vid]}")
        for vid in sorted(self.sim):
            if vid not in self.virtuals:
                problems.append(f"sim-orphan: {vid}")
        expected = {real(p) for p in self.reals} | {virt(v) for v in self.virtuals}
        for node in sorted(self._adj):
            if node not in expected:
                problems.append(f"unknown-adjacency-key: {node}")
        for node in sorted(expected):
            if node not in self._adj:
                problems.append(f"missing-adjacency-key: {node}")
        for a in sorted(self._adj):
            if a in self._adj[a]:
                problems.append(f"self-loop: {a}")
            for b in self._adj[a]:
                if b not in self._adj:
                    problems.append(f"dangling-edge: {a}-{b}")
                elif a not in self._adj[b]:
                    problems.append(f"asymmetric-adjacency: {a}-{b}")
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
        for vid in sorted(self.virtuals - self._spent_vids):
            problems.append(f"unspent-vid: {vid}")
        return problems

    def _audit_image(self) -> list[str]:
        """The image counts and edges against a recount from the adjacency
        and the simulation map."""
        counts: dict[tuple[int, int], int] = {}
        for a, nbrs in self._adj.items():
            pa = a.id if a.kind == "r" else self.sim.get(a.id)
            for b in nbrs:
                pb = b.id if b.kind == "r" else self.sim.get(b.id)
                if a < b and pa is not None and pb is not None and pa != pb:
                    edge = (pa, pb) if pa < pb else (pb, pa)
                    counts[edge] = counts.get(edge, 0) + 1
        problems = []
        for edge in sorted(counts.keys() | self._multiplicity.keys()):
            kept, expected = self._multiplicity.get(edge, 0), counts.get(edge, 0)
            if kept != expected:
                problems.append(f"image-count: {edge} is {kept}, expected {expected}")
        image = set(self.image.edges())
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
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"VirtualGraph(reals={len(self.reals)}, virtuals={len(self.virtuals)}, "
            f"edges={self.edge_count})"
        )
