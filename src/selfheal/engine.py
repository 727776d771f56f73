"""The simulation loop: adversary event, recovery phase, measurement.

Each timestep applies one adversary event, lets the healer respond, then
measures the healed graph against the shadow graph G'. The shadow graph
contains every node ever created, with original plus insertion edges only,
never healing edges; deletions mark nodes instead of removing them, so
shadow distances keep flowing through deleted nodes. Live processors are
the shadow nodes minus the deleted set.

Exact distances are maintained, not recomputed (`DistanceOracle`). The
shadow matrix is built when a measurement first needs it and then updated
per insert. The live matrix exists only while exact stretch is on and
1 < live count <= `exact_apsp_cap`: it starts on the first such step,
fed each event's node, neighbours and the repair's added and dropped
edges, dropped on a step with sampled or skipped stretch, and built afresh
when the live count comes back under the cap. It starts as a copy of the
shadow matrix while nothing has been deleted, for the live graph is then
the shadow graph, and as a full build otherwise. A deletion rebuilds the
matrix when some distance grows and leaves it as it is otherwise. Without
a build no distance grows, so the maximum stretch and both diameters are
kept, each with the pair that attains it, from the entries each event
wrote, and a full scan of either matrix is rare. Runs with stretch off
never build either matrix. Connectivity and the maximum degree ratio are
updated per event from the nodes the event touched and the repair's
connectivity witness (`LiveMeasure`); only the t = 0 measurement, and a
step after a disconnected one, scan the whole live graph for
connectivity. The adversary's index (`adversary.AdversaryIndex`) is
refreshed from the same touched set after each event, so no step sorts
or scans every live node outside a repair, save where the `articulation`
strategy's cut search passes its cap and falls back to Tarjan. `audit` checks each of these
structures, and the healer's state, against a fresh build.

`start` builds its state in bulk, and keeps only what differs from the
lift of the initial graph: the healer lifts it in one pass per structure
(`VirtualGraph.from_graph`), storing no image count, and the t = 0
degree ratio stores no degree pair, for no live node's degree then
differs from its shadow degree (`LiveMeasure`). `start` and `run` pause
CPython's cyclic collector while they run (`graph.gc_paused`). The engine
makes no reference cycles, so reference counting frees all it lets go,
and a collection would only walk the heap the run builds.
`RunState.timers` holds all of `start` under "start", so the loop's phase
timers count events only.

Runs are deterministic: one master seed drives the adversary and the stretch
sampler, and all iteration orders are sorted. Running the same config twice
produces identical records, byte for byte once serialized.

A run ends early with status "annihilated" if the adversary deletes the
whole network, or "exhausted" when the strategy has no legal move left.

One engine instance is strictly sequential; parallel sweeps use independent
instances that share nothing.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Collection, Iterable

import numpy as np

from . import metrics
from .adversary import (
    AdversaryState,
    Event,
    StrategySpec,
    new_index,
    new_state,
    next_event,
    validate_event,
)
from .graph import INF, Graph, UnknownNodeError, gc_paused
from .healers import Healer, make_healer
from .metrics import MetricsRecord, StretchResult, ZeroShadowDegreeError, all_pairs_distances


class InvalidEventError(ValueError):
    pass


class InternalError(RuntimeError):
    """A library check failed on input that passed validation: while
    preprocessing the initial graph, or on a validated event."""


@dataclass
class RunConfig:
    initial: Graph
    healer: str = "haft"
    strategy: StrategySpec = field(default_factory=StrategySpec)
    t_max: int = 0
    seed: int = 0
    exact_apsp_cap: int = metrics.DEFAULT_EXACT_APSP_CAP
    stretch_samples: int = metrics.DEFAULT_STRETCH_SAMPLES


class DistanceOracle:
    """Exact hop distances over a graph that changes one event at a time.

    The matrix is built lazily: the first `matrix()` call runs the full APSP
    (`build`, by default `all_pairs_distances`), so a run that never reads
    it never pays for it; until then every update is a no-op. A live oracle
    whose graph is still the shadow graph (nothing deleted yet) starts
    instead from a copy of the shadow oracle's matrix (`copy_shadow`). After
    that it is maintained in place, in one float32 capacity buffer that
    grows by a sixteenth when full (entries are hop counts < 2^24, so
    float32 is exact); a build's own matrix becomes the buffer, and the old
    buffer is let go before the build runs, so that the two are never held
    at once. Rows are in arrival order, and `nodes` names the node of each:
    a build lays them out ascending, a copy as the shadow oracle holds
    them, an insert appends a row and column, and a removal moves the last
    ones into the freed slot, so no update shifts the matrix. Three
    updates:

    * `insert(v, neighbors)` (Ausiello et al., "Incremental algorithms for
      minimal length paths", 1991): v's row is one more than the nearest
      neighbour's row, and every pair then relaxes through v, that is
      through each pair of v's neighbours at length 2.
    * `add_edge(a, b)`: D = min(D, D[:, a] + 1 + D[b, :]) both ways. Only
      rows nearer a than b can gain and only columns nearer b than a, so
      the update touches that block.
    * `remove(v, added, dropped)` (the decremental rule of Ramalingam &
      Reps, J. Algorithms 1996; Demetrescu & Italiano, J. ACM 2004): some
      distance grows iff an edge was dropped or two of v's former
      neighbours are now neither adjacent nor share a neighbour, a test of
      O(deg(v)^2 * max degree) set lookups. Then the matrix is rebuilt;
      else the last row and column move into v's and the added edges are
      relaxed. Proof: a dropped edge's ends, or two such neighbours, grew
      apart. Else edges are only added, and a path of at most two hops
      avoiding v replaces the step a-v-b of any shortest path through v.

    The shadow graph only grows, so its oracle uses `insert` alone.

    So without a build no distance grows: an update lowers the entries it
    writes, adds v's row or drops it, and moves rows only whole. Two
    maxima are kept on that ground, each with the pair that attains it,
    and scanned for in full only after a build, on the first read (but for
    the stretch after a copy), or when that pair's entry changed and no
    written entry reaches the old value:

    * The diameter (`diameter`): an update keeps the pair if its entry is
      unchanged, for every other entry is at most that, and an insert
      compares it with v's row, which the relaxation leaves as it is.
    * The maximum stretch L/S of a live oracle, one given the shadow
      graph's oracle as `shadow`; `stretch` returns it as the step's
      `metrics.StretchResult`. `srow` holds the shadow row of each live
      row: it is appended on insert, moved with the last row on removal,
      rebuilt by a build and 0, 1, 2, ... after a copy. While `changed` is
      a list, each `_relax` that writes appends its (near a, near b) block
      to it, which stands for its mirror image too, and each insert its
      new row, as (rows, columns) index arrays in the row order that holds
      after the update; a build sets it to None, "every entry", and so
      does a removal that finds blocks still unread, for it moves a row
      under them. A shadow insert of v needs no blocks: it lowers S(x, y) only
      when the new shortest path runs through v, and then S(x, y) =
      S(x, v) + S(v, y) while L(x, y) <= L(x, v) + L(v, y), so the new
      ratio is at most that of (x, v) or (v, y), which v's live row holds.
      So if the stored pair's ratio is unchanged, the new maximum is the
      larger of it and the blocks' maximum; if it changed, the blocks'
      maximum stands when it is at least the stored one, which bounds
      every other ratio; else one full scan decides. A full scan also
      follows a read whose live graph is disconnected, and a shadow insert
      that the live oracle did not follow with its own before the read.
    """

    def __init__(
        self, graph: Graph, build: Callable | None = None, shadow: DistanceOracle | None = None
    ):
        self._graph = graph
        self._build = build
        self._buf: np.ndarray | None = None
        self.nodes: list[int] = []  # row i holds nodes[i]
        self._index: dict[int, int] = {}
        self.changed: list[tuple[np.ndarray, np.ndarray]] | None = None
        self.shadow = shadow
        self._srow = np.empty(0, dtype=np.intp)
        # The shadow's node count at the last read, and the inserts since
        # of nodes new to it.
        self._shadow_seen = self._inserted = 0
        # The last diameter and maximum stretch, as (value, u, w); None: a
        # full scan is due. u and w are None when no ratio is positive.
        self._far: tuple[float, int, int] | None = None
        self._best: tuple[float, int | None, int | None] | None = None

    def _load(self) -> None:
        """A full build, which becomes the buffer; the old buffer goes
        first. The build's index lists the rows in order, as
        `all_pairs_distances` makes it."""
        self._buf = None
        dist, index = (self._build or all_pairs_distances)(self._graph)
        nodes = list(index)
        srow = None
        if self.shadow is not None:
            shadow_index = self.shadow.matrix()[1]
            srow = np.fromiter(map(shadow_index.__getitem__, nodes), np.intp, len(nodes))
        self._set(dist, nodes, index, srow)

    def copy_shadow(self) -> None:
        """Start a live oracle from a copy of its shadow oracle's matrix
        instead of a build. Sound only while nothing has been deleted: the
        live graph is then the shadow graph, for every insert gave both the
        same edges. So every joined pair has stretch exactly 1, and the
        first read needs no full scan: the first maximum in row-major order
        is that of rows 0 and 1, unless the graph is disconnected, which
        the read finds from the diameter."""
        dist, index = self.shadow.matrix()
        nodes = list(self.shadow.nodes)
        self._set(dist.copy(), nodes, dict(index), np.arange(len(nodes), dtype=np.intp))
        self.changed, self._shadow_seen, self._inserted = [], len(nodes), 0
        self._best = (1.0, nodes[0], nodes[1])

    def _set(
        self, dist: np.ndarray, nodes: list[int], index: dict[int, int], srow: np.ndarray | None
    ) -> None:
        """Take `dist` as the buffer, with its rows' nodes, index and shadow
        rows; every kept maximum is due for a full scan."""
        self._buf, self.nodes, self._index = dist, nodes, index
        if srow is not None:
            self._srow = srow
        self.changed = self._far = None

    def insert(self, v: int, neighbors: Iterable[int]) -> None:
        """Add node v, joined to `neighbors` (already in the matrix)."""
        if self._buf is None:
            return
        n = len(self.nodes)
        rows = [self._index[w] for w in neighbors]
        row = self._buf[rows, :n].min(axis=0)
        row += 1.0
        if n == self._buf.shape[0]:
            cap = n + n // 16 + 1
            grown = np.empty((cap, cap), dtype=np.float32)
            grown[:n, :n] = self._buf[:n, :n]
            self._buf = grown
        buf = self._buf
        buf[n, :n] = row
        buf[:n, n] = row
        buf[n, n] = 0.0
        self.nodes.append(v)
        self._index[v] = n
        if self.changed is not None:
            self.changed.append((np.array([n]), np.arange(n)))
        if self.shadow is not None:
            s = self.shadow._index[v]
            if s >= self._shadow_seen:
                self._inserted += 1
            if n == self._srow.size:
                self._srow = np.concatenate([self._srow, np.empty(n // 4 + 1, dtype=np.intp)])
            self._srow[n] = s
        for a, b in combinations(rows, 2):
            self._relax(a, b, 2.0)
        self._keep_far()
        if self._far is not None and n:
            far = int(row.argmax())
            if row[far] > self._far[0]:
                self._far = (float(row[far]), v, self.nodes[far])

    def add_edge(self, a: int, b: int) -> None:
        """Add the edge (a, b) between two nodes in the matrix."""
        if self._buf is not None:
            self._relax(self._index[a], self._index[b], 1.0)
            self._keep_far()

    def _relax(self, a: int, b: int, length: float) -> None:
        """Every pair through a path a-b of `length` hops, both ways."""
        n = len(self.nodes)
        dist = self._buf[:n, :n]
        col_a, col_b = dist[:, a], dist[:, b]
        near_a = np.flatnonzero(col_a + length < col_b)
        near_b = np.flatnonzero(col_b + length < col_a)
        if not (near_a.size and near_b.size):
            return
        rows = near_a[:, None]
        through = np.add.outer(col_a[near_a], col_b[near_b])
        through += length
        np.minimum(through, dist[rows, near_b], out=through)
        dist[rows, near_b] = through
        dist[near_b[:, None], near_a] = through.T
        if self.changed is not None:
            self.changed.append((near_a, near_b))

    def _keep_far(self) -> None:
        """Drop the stored diameter pair if it left or its entry changed."""
        if self._far is not None:
            top, u, w = self._far
            i, j = self._index.get(u), self._index.get(w)
            if i is None or j is None or self._buf[i, j] != top:
                self._far = None

    def remove(
        self, v: int, added: Collection[tuple[int, int]], dropped: Collection[tuple[int, int]]
    ) -> None:
        """Node v leaves, and the graph gains the edges `added` and loses
        `dropped`; the graph passed in at construction is already in that
        state."""
        if self._buf is None:
            return
        # v's former neighbours are the rows at distance 1 from it.
        i = self._index.pop(v)
        adj = self._graph._adj
        near = [self.nodes[r] for r in np.flatnonzero(self._buf[i, : len(self.nodes)] == 1.0)]
        if dropped or any(
            b not in adj[a] and adj[a].isdisjoint(adj[b]) for a, b in combinations(near, 2)
        ):
            self._load()
            return
        buf = self._buf
        if self.changed:
            # Blocks not yet read name the last row by its old slot.
            self.changed = None
        # The last row and column into v's place.
        last, n = self.nodes.pop(), len(self.nodes)
        if i < n:
            buf[i, : n + 1] = buf[n, : n + 1]
            buf[: n + 1, i] = buf[: n + 1, n]
            self.nodes[i] = last
            self._index[last] = i
            if self.shadow is not None:
                self._srow[i] = self._srow[n]
        self._keep_far()
        for a, b in added:
            self.add_edge(a, b)

    def matrix(self) -> tuple[np.ndarray, dict[int, int]]:
        """The distance matrix and its node -> row index, the inverse of
        `nodes`: read-only, valid until the next update."""
        if self._buf is None:
            self._load()
        n = len(self.nodes)
        return self._buf[:n, :n], self._index

    def audit(self, fresh: tuple[np.ndarray, dict[int, int]]) -> list[str]:
        """Every entry against `fresh`, a build of the graph as
        `all_pairs_distances` returns it, each matrix read through its own
        index."""
        dist, index = self.matrix()
        fresh_dist, fresh_index = fresh
        rows = [fresh_index.get(x, -1) for x in self.nodes]
        if index.keys() != fresh_index.keys() or (fresh_dist[rows][:, rows] != dist).any():
            return ["distances not exact"]
        return []

    def diameter(self) -> object:
        """`metrics.diameter_from` of the matrix."""
        dist = self.matrix()[0]
        if dist.size <= 1:
            return 0
        if self._far is None:
            i, j = divmod(int(dist.argmax()), len(self.nodes))
            self._far = (float(dist[i, j]), self.nodes[i], self.nodes[j])
        top = self._far[0]
        return INF if top == INF else int(top)

    def stretch(self) -> StretchResult:
        """`metrics.stretch_max` of a live oracle's graph, exact: INF when
        the diameter is, 1 when no two rows are joined in the shadow graph,
        else the largest `dist[i, j]` over its shadow distance and the
        pair of nodes that attains it. Reads the changes, and has them
        recorded from here on."""
        dist, index = self.matrix()
        shadow_dist = self.shadow.matrix()[0]
        changed, inserted = self.changed, self._inserted
        if len(self.shadow.nodes) - self._shadow_seen != inserted:
            changed = None
        self.changed, self._shadow_seen, self._inserted = [], len(self.shadow.nodes), 0
        diameter = self.diameter()
        if diameter is INF:
            self._best = None
            return StretchResult(INF, "exact", INF)
        srow = self._srow[: len(self.nodes)]
        best = None if changed is None else self._best
        if best is not None:
            ratio, u, w = best
            i, j = index.get(u), index.get(w)
            kept = i is not None and j is not None
            kept = kept and float(dist[i, j]) / float(shadow_dist[srow[i], srow[j]]) == ratio
            top = self._changed_max(changed, shadow_dist)
            if kept:
                best = top if top[0] > ratio else best
            else:
                best = top if top[0] >= ratio else None
        if best is None:
            ratio, i, j = metrics.stretch_argmax(dist, shadow_dist, srow)
            best = (ratio, self.nodes[i], self.nodes[j]) if ratio else (0.0, None, None)
        self._best = best
        _, u, w = best
        if u is None:
            return StretchResult(Fraction(1), "exact", diameter)
        i, j = index[u], index[w]
        value = metrics._ratio(int(dist[i, j]), int(shadow_dist[srow[i], srow[j]]))
        return StretchResult(value, "exact", diameter, (u, w))

    def _changed_max(
        self, changed: list, shadow_dist: np.ndarray
    ) -> tuple[float, int | None, int | None]:
        """The largest stretch over the entries of the blocks, the first in
        their order, and its pair; (0.0, None, None) when no entry has a
        finite shadow distance. One block at a time, so that its
        temporaries take 16 bytes an entry of the largest block."""
        best: tuple[float, int | None, int | None] = (0.0, None, None)
        buf, srow = self._buf, self._srow
        for rows, cols in changed:
            ratio = np.divide(
                buf[rows[:, None], cols],
                shadow_dist[srow[rows][:, None], srow[cols]],
                dtype=np.float64,
            )
            k = int(ratio.argmax())
            top = float(ratio.flat[k])
            if top > best[0]:
                i, j = divmod(k, cols.size)
                best = (top, self.nodes[rows[i]], self.nodes[cols[j]])
        return best


class LiveMeasure:
    """Connectivity and the maximum degree ratio of the live graph, kept
    from one event to the next by looking only at the event's touched set.

    `HealerReport.touched` holds v's former live neighbours and every
    endpoint of a real edge the repair added or dropped, or an inserted
    node and its neighbours: every node whose live or shadow degree the
    event changed. `Graph.is_connected` and `metrics.degree_ratio_max` stay
    the oracles; at `init` the first runs in full.

    Connectivity: an insert attaches to at least one live node, so it keeps
    a connected graph connected. After a deletion from a connected graph,
    every live node still reaches a live touched node (its old path to v
    breaks first at a removed edge, next to one), so the graph is connected
    iff those nodes share one component. The report's witness, when not
    empty, is a set of touched nodes already known to share one: then only
    the touched nodes outside it must reach it, and with none outside no
    search runs. Otherwise a search from one of them stops once it has
    seen them all. After a disconnected step the full BFS decides.

    Degree ratio: the (live degree, shadow degree) pair of each live node
    whose two degrees differ, and a count of nodes per distinct pair. A
    node with equal degrees has ratio 1 (or 0/0), which never beats the
    starting maximum of 1, so it is not stored. The maximum is taken over
    the distinct pairs by integer cross-multiplication, from 1 as in
    `degree_ratio_max`; a Fraction is built only when the maximum changes.
    At t = 0 the live graph is the lifted initial graph, equal to the
    shadow graph, so `init` stores nothing after one comparison of the two
    adjacencies. When they differ, or a node is deleted, a checked pass
    over every live node in id order runs instead, with the same checks
    and errors as each event's pass over its touched nodes.
    """

    def __init__(self, shadow: Graph, deleted: set[int]):
        self._shadow = shadow
        self._deleted = deleted
        self._connected = True
        self._pair: dict[int, tuple[int, int]] = {}
        self._count: dict[tuple[int, int], int] = {}
        self._best, self._ratio = (1, 1), Fraction(1)

    def connected(
        self, live: Graph, op: str, touched: Iterable[int], witness: Collection[int] = ()
    ) -> bool:
        """Whether the live graph is connected after the event `op`, given
        the report's touched nodes and connectivity witness."""
        if op == "init" or not self._connected:
            self._connected = live.is_connected()
        elif op == "delete":
            adj = live._adj
            outside = {w for w in touched if w in adj and w not in witness}
            self._connected = _one_component(adj, outside, witness)
        return self._connected

    def refresh(self, live: Graph, op: str, node: int, touched: Iterable[int]) -> Fraction:
        """Re-read the degree pairs of `touched` (every live node at `init`),
        drop a deleted `node`, and return the maximum degree ratio."""
        live_adj, shadow_adj = live._adj, self._shadow._adj
        if op == "init":
            self._pair, self._count = {}, {}
            # Equal adjacencies pass every check and hold no pair to store.
            same = not self._deleted and live_adj == shadow_adj
            touched = () if same else sorted(live_adj)
        elif op == "delete":
            touched = [*touched, node]
        pairs, count, deleted = self._pair, self._count, self._deleted
        for v in touched:
            nbrs = live_adj.get(v)
            pair = None
            if nbrs is not None:
                if v in deleted:
                    raise ZeroShadowDegreeError(f"node {v} is both live and deleted")
                shadow_nbrs = shadow_adj.get(v)
                if shadow_nbrs is None:
                    raise UnknownNodeError(f"node {v} not in graph")
                if nbrs and not shadow_nbrs:
                    raise ZeroShadowDegreeError(f"live node {v} has shadow degree 0")
                if len(nbrs) != len(shadow_nbrs):
                    pair = (len(nbrs), len(shadow_nbrs))
            old = pairs.get(v)
            if old == pair:
                continue
            if pair is None:
                del pairs[v]
            else:
                pairs[v] = pair
                count[pair] = count.get(pair, 0) + 1
            if old is not None:
                left = count[old] - 1
                if left:
                    count[old] = left
                else:
                    del count[old]
        best = (1, 1)
        for n, d in count:
            if n * best[1] > best[0] * d:
                best = (n, d)
        if best != self._best:
            self._best, self._ratio = best, Fraction(*best)
        return self._ratio


def _one_component(
    adj: dict[int, set[int]], nodes: set[int], witness: Collection[int] = ()
) -> bool:
    """Whether `nodes` (emptied on the way) lie in one component of `adj`,
    together with `witness`, a set already known to be connected, when it
    is not empty.

    A graph search from one of the nodes that expands the others, and the
    first witness node it meets, first, and every other node in the order
    it was seen. So it stops after reading little more than their
    neighbourhoods when they are joined among themselves, and stops as soon
    as it has seen them all and met the witness: the witness then stands
    for every node it holds. The first-seen order finds a witness next to
    the start before it wanders off: on `haft`/`clustered` at n = 65536 it
    took 32 us per search against 180 us for a last-seen (depth-first)
    order, and the two measured within 10% of each other without a witness.
    """
    if not nodes:
        return True
    start = nodes.pop()
    apart = bool(witness)  # the witness is still to be met
    if not (nodes or apart):
        return True
    seen = {start}
    near, far = [start], deque()
    while near or far:
        for w in adj[near.pop() if near else far.popleft()]:
            if w not in seen:
                seen.add(w)
                if w in nodes or (apart and w in witness):
                    nodes.discard(w)
                    apart = apart and w not in witness
                    if not (nodes or apart):
                        return True
                    near.append(w)
                else:
                    far.append(w)
    return False


@dataclass
class RunState:
    config: RunConfig
    healer: Healer
    shadow: Graph
    deleted: set[int] = field(default_factory=set)
    records: list[MetricsRecord] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    t: int = 0
    status: str = "ok"
    warnings: list[str] = field(default_factory=list)
    adversary: AdversaryState | None = None
    initial_record: MetricsRecord | None = None
    setup_messages: int = 0
    oracle: DistanceOracle | None = None
    live_oracle: DistanceOracle | None = None
    measure: LiveMeasure | None = None
    # Host seconds per phase: "start", all of `start`, then per phase of
    # the loop's events, "adversary" (choosing each event in `run`,
    # refreshing the index in `step`), "heal", "connectivity" and "metrics".
    timers: defaultdict[str, float] = field(default_factory=lambda: defaultdict(float))

    def live_graph(self) -> Graph:
        """The healer's live graph: read-only, valid until the next event."""
        return self.healer.live_graph()

    @property
    def live_count(self) -> int:
        return self.shadow.node_count - len(self.deleted)


@gc_paused
def start(config: RunConfig) -> RunState:
    """Preprocessing: build healer state and the shadow graph, snapshot G0."""
    t0 = time.perf_counter()
    healer = make_healer(config.healer)
    # The healer name is known and the graph well formed, so a ValueError
    # from here on is the library's own.
    try:
        setup = healer.preprocess(config.initial)
        state = RunState(
            config=config,
            healer=healer,
            shadow=config.initial.copy(),
            adversary=new_state(config.strategy, config.seed),
            setup_messages=setup.messages,
        )
        state.adversary.index = new_index(config.strategy, state.live_graph(), state.shadow)
        state.oracle = DistanceOracle(state.shadow)
        state.measure = LiveMeasure(state.shadow, state.deleted)
        state.initial_record = _measure(state, op="init", node=-1, report=setup)
        # The live graph at t = 0 is the initial graph.
        if not state.initial_record.connected:
            state.warnings.append("initial graph is not connected")
    except ValueError as exc:
        raise InternalError(str(exc)) from exc
    # The t = 0 measurement counts as start, not as a phase of the loop.
    state.timers.clear()
    state.timers["start"] = time.perf_counter() - t0
    return state


def step(state: RunState, event: Event) -> RunState:
    """Apply one validated event: shadow update, recovery phase, measurement."""
    live = state.live_graph()
    violations = validate_event(event, live, state.shadow)
    if violations:
        raise InvalidEventError(f"illegal event {event}: {', '.join(violations)}")
    # The event is legal, so a ValueError from here on is the library's own.
    try:
        t0 = time.perf_counter()
        if event.op == "insert":
            state.shadow.add_node(event.node)
            for w in event.neighbors:
                state.shadow.add_edge(event.node, w)
            if state.oracle is not None:
                state.oracle.insert(event.node, event.neighbors)
            report = state.healer.on_insert(event.node, set(event.neighbors))
        else:
            state.deleted.add(event.node)
            report = state.healer.on_delete(event.node)
        t1 = time.perf_counter()
        state.timers["heal"] += t1 - t0
        if state.adversary.index is not None:
            state.adversary.index.update(event.op, event.node, report.touched)
            state.timers["adversary"] += time.perf_counter() - t1
        state.t += 1
        state.events.append(event)
        state.records.append(_measure(state, event.op, event.node, report, event.neighbors))
    except ValueError as exc:
        raise InternalError(str(exc)) from exc
    return state


@gc_paused
def run(config: RunConfig, on_step: Callable[[RunState], None] | None = None) -> RunState:
    """The full loop: T events or until the strategy/network gives out.

    `on_step`, if given, is called with the started state (t = 0) and
    with the state after every step. The cyclic collector is paused for
    the whole run (`graph.gc_paused`), so cycles that `on_step` makes are
    collected after it.
    """
    state = start(config)
    if on_step is not None:
        on_step(state)
    for _ in range(config.t_max):
        t0 = time.perf_counter()
        event = _next(state)
        state.timers["adversary"] += time.perf_counter() - t0
        if event is None:
            state.status = "exhausted"
            break
        step(state, event)
        if on_step is not None:
            on_step(state)
        if state.live_count == 0:
            state.status = "annihilated"
            break
    return state


def _next(state: RunState) -> Event | None:
    return next_event(
        state.config.strategy, state.live_graph(), state.shadow, state.adversary
    )


def audit(state: RunState) -> list[str]:
    """Every maintained structure against a fresh build, after the last
    step (or the t = 0 measurement), one line per problem: `state-audit`,
    the healer's own audit; `measure-audit`, the record's connectivity and
    degree ratio against the full scans and, on a step with exact stretch,
    every shadow and live distance (`DistanceOracle.audit`), the maximum
    stretch and both diameters against fresh builds of both graphs;
    `adversary-audit`, `AdversaryIndex.audit`. A ValueError from a check is
    the library's own, so it is raised as an InternalError.
    """
    t, live, shadow = state.t, state.live_graph(), state.shadow
    record = state.records[-1] if state.records else state.initial_record
    names = ["connected", "max_degree_ratio"]
    fast = [record.connected, record.max_degree_ratio]
    try:
        problems = [f"t={t} state-audit: {issue}" for issue in state.healer.audit()]
        full = [live.is_connected(), metrics.degree_ratio_max(live, shadow, state.deleted)[0]]
        if record.stretch_mode == "exact":
            built = metrics.all_pairs_distances(live)
            shadow_built = metrics.all_pairs_distances(shadow)
            fresh = metrics.stretch_exact(built, *shadow_built)
            names += ["max_stretch", "diameter_live", "diameter_shadow"]
            fast += [record.max_stretch, record.diameter_live, record.diameter_shadow]
            full += [fresh.max_stretch, fresh.diameter_live, metrics.diameter_from(shadow_built[0])]
            oracles = [("shadow", state.oracle, shadow_built), ("live", state.live_oracle, built)]
            for name, oracle, matrix in oracles:
                if oracle is not None:
                    problems += (f"t={t} measure-audit: {name} {x}" for x in oracle.audit(matrix))
        for name, got, want in zip(names, fast, full):
            if got != want:
                problems.append(f"t={t} measure-audit: {name} {got}, full scan {want}")
        index = state.adversary.index
        if index is not None:
            problems += (f"t={t} adversary-audit: {x}" for x in index.audit(live, shadow))
    except ValueError as exc:
        raise InternalError(str(exc)) from exc
    return problems


def _measure(
    state: RunState, op: str, node: int, report, neighbors: Iterable[int] = ()
) -> MetricsRecord:
    config = state.config
    live = state.live_graph()
    assert state.oracle is not None and state.measure is not None

    t0 = time.perf_counter()
    connected = state.measure.connected(live, op, report.touched, report.witness)
    state.timers["connectivity"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    ratio = state.measure.refresh(live, op, node, report.touched)
    # The live distances are kept only while every step measures exact
    # stretch over them: started on the first such step, fed each event,
    # and dropped on a step that measures none, before its stretch is
    # sampled.
    exact = 1 < live.node_count <= config.exact_apsp_cap
    if not exact:
        state.live_oracle = None
    elif state.live_oracle is None:
        state.live_oracle = DistanceOracle(live, metrics.all_pairs_distances, state.oracle)
        if not state.deleted:
            state.live_oracle.copy_shadow()
    elif op == "insert":
        state.live_oracle.insert(node, neighbors)
    elif op == "delete":
        state.live_oracle.remove(node, report.edges_added, report.edges_dropped)
    # The one place a step's stretch mode is chosen. Without samples only
    # the live oracle measures, save that at most one live node is exact 1
    # unless stretch is off (no cap, no samples).
    if state.live_oracle is not None:
        result = state.live_oracle.stretch()
    elif config.stretch_samples <= 0 and (config.exact_apsp_cap <= 0 or live.node_count > 1):
        result = StretchResult(None, "skipped", None)
    elif live.node_count <= 1:
        result = StretchResult(Fraction(1), "exact", 0)
    else:
        rng = random.Random(f"{config.seed}:stretch:{state.t}")
        result = metrics.stretch_sampled(live, *state.oracle.matrix(), config.stretch_samples, rng)
    diameter_shadow = None if result.mode == "skipped" else state.oracle.diameter()
    state.timers["metrics"] += time.perf_counter() - t0

    return MetricsRecord(
        t=state.t,
        op=op,
        node=node,
        connected=connected,
        max_degree_ratio=ratio,
        max_stretch=result.max_stretch,
        stretch_mode=result.mode,
        diameter_live=result.diameter_live,
        diameter_shadow=diameter_shadow,
        messages=report.messages,
        rounds=report.rounds,
        max_hops=report.max_hops,
        edges_added=len(report.edges_added),
        edges_dropped=len(report.edges_dropped),
        virtual_count=state.healer.virtual_node_count(),
        shadow_nodes=state.shadow.node_count,
        live_nodes=live.node_count,
        touched_count=len(report.touched),
    )
