"""Shared oracles and generators.

The oracles here are written from scratch against plain adjacency dicts so
they stay independent of the library code they check: breadth-first search
with an explicit queue, all-pairs distances by Floyd-Warshall and by one
such search per source, sampled stretch by one search per drawn source, cut
vertices by deleting each vertex and recounting components, the
homomorphic image of a virtual graph and its edge counts recomputed from
its adjacency and simulation map, and the degree ratio with one Fraction
per node.
`rewire_in_sequence` is the sequential oracle of the batched
`VirtualGraph.rewire`: it changes the graph one operation and one edge at a
time, with its own image-count bookkeeping, and reads the changes off
snapshots taken before and after. `lift_per_edge` is the oracle of the
bulk `VirtualGraph.from_graph`: it goes through the checked per-node and
per-edge calls.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

import numpy as np

from selfheal.graph import Graph, UnknownNodeError
from selfheal.metrics import StretchResult, ZeroShadowDegreeError
from selfheal.virtual_graph import RepairJournal, VirtualGraph, is_real, node_id, real, virt

INF = float("inf")


# -- independent distance oracles ------------------------------------------


def oracle_bfs(adj: dict, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def oracle_apsp_floyd(adj: dict) -> dict:
    """Floyd-Warshall over an adjacency dict; keys (u, v) for all pairs."""
    nodes = sorted(adj)
    dist = {(u, v): (0 if u == v else INF) for u in nodes for v in nodes}
    for u in nodes:
        for w in adj[u]:
            dist[(u, w)] = 1
            dist[(w, u)] = 1
    for k in nodes:
        for i in nodes:
            dik = dist[(i, k)]
            if dik is INF:
                continue
            for j in nodes:
                alt = dik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def oracle_apsp_bfs(adj: dict) -> tuple[np.ndarray, dict]:
    """All-pairs hop counts by one `oracle_bfs` per source, laid out as
    `metrics.all_pairs_distances` lays them out: a dense matrix with rows
    and columns in ascending node order, INF where a pair is unreached,
    and its node -> row index."""
    nodes = sorted(adj)
    index = {v: i for i, v in enumerate(nodes)}
    dist = np.full((len(nodes), len(nodes)), INF)
    for u in nodes:
        for v, d in oracle_bfs(adj, u).items():
            dist[index[u], index[v]] = d
    return dist, index


def oracle_stretch_sampled(
    live: Graph, shadow_dist: np.ndarray, shadow_index: dict, samples: int, rng: random.Random
) -> StretchResult:
    """Sampled stretch drawn and scanned one pair at a time, the live
    distances from one `oracle_bfs` per distinct first node: the oracle of
    `metrics.stretch_sampled`, which draws every pair first and reads the
    live distances from one bit-parallel build."""
    nodes = sorted(live.nodes)
    best = Fraction(1)
    best_pair = None
    diameter_seen = 0
    cache: dict = {}
    adj = adj_of(live)
    for _ in range(samples):
        u, v = rng.sample(nodes, 2)
        if u not in cache:
            cache[u] = oracle_bfs(adj, u)
        d_live = cache[u].get(v)
        if d_live is None:
            return StretchResult(INF, "sampled", INF, (u, v))
        diameter_seen = max(diameter_seen, d_live)
        d_shadow = shadow_dist[shadow_index[u], shadow_index[v]]
        if not np.isfinite(d_shadow):
            continue
        ratio = Fraction(d_live, int(d_shadow))
        if ratio > best:
            best, best_pair = ratio, (u, v)
    return StretchResult(best, "sampled", diameter_seen, best_pair)


def oracle_articulation_points(adj: dict) -> list:
    """Cut vertices, ascending, by brute force: v is one when the graph
    without v has more connected components than the graph with it."""

    def components(nodes: set) -> int:
        seen: set = set()
        count = 0
        for source in nodes:
            if source in seen:
                continue
            count += 1
            seen.add(source)
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w in nodes and w not in seen:
                        seen.add(w)
                        queue.append(w)
        return count

    nodes = set(adj)
    base = components(nodes)
    return [v for v in sorted(adj) if components(nodes - {v}) > base]


def oracle_max_degree_node(live: Graph):
    """The live node of maximum degree, the smallest id among ties: a scan."""
    return min(live.nodes, key=lambda v: (-live.degree(v), v), default=None)


def index_view(index, live: Graph) -> tuple:
    """What an `AdversaryIndex` tells a strategy about the live graph: the
    live ids, the next fresh id and, over a live graph that is not empty,
    the live nodes with a current entry in its degree heap and its
    maximum-degree node. Checks the heap property on the way."""
    adj = live._adj
    if not adj:
        return list(index.live_ids), index.next_id, None
    # Asking for the maximum first builds the heap, or gives the set-aside
    # nodes their entries.
    top = index.max_degree_node(live)
    heap = index._heap
    assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
    current = {v for d, v in heap if v in adj and len(adj[v]) == -d}
    return list(index.live_ids), index.next_id, current, top


def adj_of(g: Graph) -> dict:
    return {v: g.neighbors(v) for v in g.nodes}


def vg_adj(vg: VirtualGraph) -> dict:
    nodes = [real(p) for p in vg.reals] + [virt(v) for v in vg.virtuals]
    return {x: vg.neighbors(x) for x in nodes}


def processor(vg: VirtualGraph, x) -> int:
    """The homomorphism H: a real node is its own processor, a virtual one
    is its simulator."""
    return node_id(x) if is_real(x) else vg.sim[node_id(x)]


def oracle_image(vg: VirtualGraph) -> Graph:
    """The homomorphic image recomputed from scratch: nodes are the live
    processors, edges the images of virtual-graph edges, self-loop images
    dropped and parallels collapsed."""
    adj = {p: set() for p in vg.reals}
    for a, nbrs in vg._adj.items():
        pa = processor(vg, a)
        for b in nbrs:
            pb = processor(vg, b)
            if pa != pb:
                adj[pa].add(pb)
    g = Graph()
    g._adj = adj
    return g


def _count_image(vg: VirtualGraph, a, b, delta: int) -> None:
    """Move the count of the image edge under virtual edge a-b by `delta`;
    the image edge appears as its count leaves 0 and goes as it returns.
    Only counts of 2 or more are stored, as `VirtualGraph` stores them."""
    pa, pb = processor(vg, a), processor(vg, b)
    if pa == pb:
        return
    edge = (min(pa, pb), max(pa, pb))
    before = effective_count(vg, edge)
    after = before + delta
    if after >= 2:
        vg._multiplicity[edge] = after
    else:
        vg._multiplicity.pop(edge, None)
    if not before:
        vg.image.add_edge(*edge)
    elif not after:
        vg.image.remove_edge(*edge)


def effective_count(vg: VirtualGraph, edge: tuple[int, int]) -> int:
    """The image count of a processor pair as the graph reads it: the
    stored count, else 1 if the image has the edge and 0 if it does not."""
    return vg._multiplicity.get(edge, int(vg.image.has_edge(*edge)))


def effective_counts(vg: VirtualGraph) -> dict[tuple[int, int], int]:
    """The effective count of every image edge and every stored pair."""
    pairs = set(vg.image.edges()) | vg._multiplicity.keys()
    return {edge: effective_count(vg, edge) for edge in pairs}


def oracle_image_counts(vg: VirtualGraph) -> dict[tuple[int, int], int]:
    """The number of virtual edges mapping onto each image edge, recounted
    from the adjacency and the simulation map."""
    counts: dict[tuple[int, int], int] = {}
    for a, nbrs in vg._adj.items():
        pa = processor(vg, a)
        for b in nbrs:
            pb = processor(vg, b)
            if a < b and pa != pb:
                edge = (min(pa, pb), max(pa, pb))
                counts[edge] = counts.get(edge, 0) + 1
    return counts


def add_virtual(vg: VirtualGraph, simulator: int) -> int:
    """Mint a vid from the graph's counter and declare it on `simulator`."""
    vid = vg.vids.take()
    vg.rewire((), [(vid, simulator)], ())
    return vid


def remove_virtual(vg: VirtualGraph, vid: int) -> None:
    """Dissolve one virtual node and its edges, one edge at a time."""
    if vid not in vg.virtuals:
        raise UnknownNodeError(f"virtual node {vid} not present")
    node = virt(vid)
    for nbr in vg._adj.pop(node):
        vg._adj[nbr].discard(node)
        _count_image(vg, node, nbr, -1)
    vg._hosted[vg.sim.pop(vid)].discard(vid)


def add_virtual_edge(vg: VirtualGraph, a, b) -> None:
    """Add one virtual edge, with the errors `VirtualGraph.rewire` gives
    an edge; an edge already present is left alone."""
    if a == b:
        raise UnknownNodeError(f"self-loop at {a}")
    for x in (a, b):
        if x not in vg._adj:
            raise UnknownNodeError(f"{x} not in virtual graph")
    if b not in vg._adj[a]:
        vg._adj[a].add(b)
        vg._adj[b].add(a)
        _count_image(vg, a, b, +1)


def edge_snapshot(vg: VirtualGraph) -> tuple[dict, set]:
    """Every virtual edge as a sorted pair, mapped to its endpoints'
    processors, and the edges of the recomputed image."""
    virtual = {}
    for a, nbrs in vg._adj.items():
        for b in nbrs:
            if a < b:
                virtual[(a, b)] = (processor(vg, a), processor(vg, b))
    return virtual, set(oracle_image(vg).edges())


def changes_between(before: tuple[dict, set], after: tuple[dict, set]) -> RepairJournal:
    """The edge changes from one `edge_snapshot` to a later one: the
    counts of virtual edges added and dropped, the processors at their
    ends (a dropped edge's as in `before`), and the real edge changes."""
    (v0, r0), (v1, r1) = before, after
    added = [p for e, p in v1.items() if e not in v0]
    dropped = [p for e, p in v0.items() if e not in v1]
    return RepairJournal(
        virtual_added=len(added),
        virtual_dropped=len(dropped),
        joined=set().union(*added),
        parted=set().union(*dropped),
        real_added=r1 - r0,
        real_dropped=r0 - r1,
    )


def rewire_in_sequence(vg: VirtualGraph, dissolve, declare, edges) -> RepairJournal:
    """What `vg.rewire(dissolve, declare, edges)` does, one operation at a
    time: `remove_virtual`, then one `rewire` per declaration, whose checks
    are the batch's own, then `add_virtual_edge`. Returns the changes
    between snapshots taken before and after."""
    before = edge_snapshot(vg)
    for vid in dissolve:
        remove_virtual(vg, vid)
    for declaration in declare:
        vg.rewire((), [declaration], ())
    for a, b in edges:
        add_virtual_edge(vg, a, b)
    return changes_between(before, edge_snapshot(vg))


def oracle_degree_ratio_max(live: Graph, shadow: Graph, deleted: set[int] | None = None):
    """max over live nodes of Fraction(live degree, shadow degree), ties to
    the smallest id, with the same errors as `metrics.degree_ratio_max`."""
    best = Fraction(1)
    arg = None
    for v in sorted(live.nodes):
        if deleted is not None and v in deleted:
            raise ZeroShadowDegreeError(f"node {v} is both live and deleted")
        if not shadow.has_node(v):
            raise UnknownNodeError(f"node {v} not in graph")
        shadow_deg = shadow.degree(v)
        if shadow_deg == 0:
            if live.degree(v) == 0:
                continue
            raise ZeroShadowDegreeError(f"live node {v} has shadow degree 0")
        ratio = Fraction(live.degree(v), shadow_deg)
        if ratio > best:
            best, arg = ratio, v
    return best, arg


def lift_per_edge(g: Graph) -> VirtualGraph:
    """`VirtualGraph.from_graph` one checked call at a time: `add_real_node`
    on each node in ascending order, then one `rewire` over `g.edges()`.
    Every edge is its own image with count 1, so, by the rule that `rewire`
    and `_count_image` follow, no count is stored."""
    vg = VirtualGraph()
    for v in sorted(g.nodes):
        vg.add_real_node(v)
    vg.rewire((), (), g.edges())
    return vg


def same_layout(a: dict, b: dict) -> bool:
    """Whether two adjacency dicts are equal and iterate alike: the keys,
    and each key's neighbour set, in the same order."""
    return list(a) == list(b) and all(list(a[v]) == list(b[v]) for v in a)


# -- generators --------------------------------------------------------------


def random_graph(rng: random.Random, max_nodes: int = 24, p: float = 0.2) -> Graph:
    n = rng.randint(1, max_nodes)
    g = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_virtual_graph(
    rng: random.Random, max_reals: int = 20, max_virtuals: int = 20
) -> VirtualGraph:
    vg = VirtualGraph()
    n_real = rng.randint(1, max_reals)
    for p in range(n_real):
        vg.add_real_node(p)
    for _ in range(rng.randint(0, max_virtuals)):
        add_virtual(vg, rng.randrange(n_real))
    nodes = [real(p) for p in range(n_real)] + [virt(v) for v in sorted(vg.virtuals)]
    if len(nodes) >= 2:
        for _ in range(rng.randint(0, 3 * len(nodes))):
            vg.rewire((), (), [tuple(rng.sample(nodes, 2))])
    return vg
