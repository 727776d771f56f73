"""Event generation: scripted traces and online adversary strategies.

The adversary is omniscient: a strategy sees the live graph, the shadow
graph and the healer's identity (implicitly, by being chosen against it),
and performs exactly one node insertion or deletion per timestep.

Strategies are deterministic given (StrategySpec, graph sequence, state):
all randomness flows through the explicit AdversaryState, which carries the
seeded generator plus the last deletion (for the clustered strategy) and the
scripted cursor. Ties break toward the smallest node id everywhere.

An online strategy reads the live ids, the next fresh id and the node of
maximum live degree from an `AdversaryIndex`. The engine keeps one in the
state and refreshes it after every event from the event and the nodes it
touched (`update`), so choosing an event costs O(log n) rather than a sort
and a scan of every live node. Its degree heap is built on the first
request for the maximum, so a strategy that never asks (`random`, `mixed`,
or `articulation` while the graph has a cut vertex) never builds one. A
state without an index, as a direct caller passes, gets a throwaway one
built from the graphs; both make the same choices with the same draws.
`articulation` walks the index's ascending live ids to the first cut
vertex with `Graph.smallest_cut_vertex`, whose local searches cost about
the side each cut vertex cuts off, and which scans the whole graph only
once they pass their work cap.

The pinned generator is CPython's `random.Random` (Mersenne Twister); its
identity is recorded in every manifest the CLI writes.

Scripted traces are JSON lines, one event per line with strictly increasing
timesteps:

    {"t": 1, "op": "delete", "node": 5}
    {"t": 2, "op": "insert", "node": 12, "neighbors": [1, 3]}
"""

from __future__ import annotations

import bisect
import heapq
import json
import random
from dataclasses import dataclass
from typing import Iterable

from .graph import MAX_NODE_ID, Graph

RNG_NAME = "python-random-mt19937"

STRATEGY_KINDS = (
    "scripted",
    "random",
    "max-degree",
    "articulation",
    "mixed",
    "clustered",
)


class TraceFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Event:
    op: str  # "insert" | "delete"
    node: int
    neighbors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in ("insert", "delete"):
            raise ValueError(f"bad op {self.op!r}")


@dataclass(frozen=True)
class StrategySpec:
    kind: str = "mixed"
    p_delete: float = 0.7
    insert_degree: int = 2
    seed: int = 0
    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not 0.0 <= self.p_delete <= 1.0:
            raise ValueError(f"p_delete {self.p_delete} outside [0, 1]")
        if self.insert_degree < 1:
            raise ValueError(f"insert_degree {self.insert_degree} < 1")


class AdversaryIndex:
    """The live ids, the next fresh id and the maximum live degree, kept
    from one event to the next.

    * `live_ids`: every live id, ascending. A deletion bisects its id out;
      an insert appends, or bisects in a scripted id below the maximum.
    * `next_id`: one more than every id that ever existed, live or deleted.
    * A lazy max-heap of (-live degree, id), built from the graph on the
      first `max_degree_node` call and kept from then on. An entry is
      current while its node is live with that degree; stale ones are
      dropped when they reach the top. The nodes whose degree an
      event changed are set aside, and each gets a fresh entry when the
      maximum is next asked for, so that a node touched by several events
      in between is pushed once. Then every live node has a current entry,
      and the top current entry is the maximum degree with the smallest
      id. Past twice as many entries as live ids, plus 64, the heap is
      rebuilt from the graph instead, so its size stays O(n) and the
      rebuilds cost O(1) per entry pushed.
    """

    __slots__ = ("live_ids", "next_id", "_heap", "_dirty")

    def __init__(self, live: Graph, shadow: Graph):
        self.live_ids = sorted(live._adj)
        self.next_id = max(shadow._adj) + 1 if shadow._adj else 0
        self._heap: list[tuple[int, int]] | None = None
        self._dirty: set[int] = set()

    def _rebuild(self, adj: dict[int, set[int]]) -> None:
        self._heap = [(-len(adj[v]), v) for v in self.live_ids]
        heapq.heapify(self._heap)
        self._dirty.clear()

    def update(self, op: str, node: int, touched: Iterable[int]) -> None:
        """Apply the event (`op`, `node`), given every node whose live degree
        it changed."""
        ids = self.live_ids
        if op == "delete":
            del ids[bisect.bisect_left(ids, node)]
        else:
            if ids and node < ids[-1]:
                bisect.insort(ids, node)
            else:
                ids.append(node)
            if node >= self.next_id:
                self.next_id = node + 1
        if self._heap is not None:
            self._dirty.update(touched)

    def max_degree_node(self, live: Graph) -> int:
        """The live node of maximum degree, the smallest id among ties."""
        heap, adj, dirty = self._heap, live._adj, self._dirty
        if heap is None or len(heap) + len(dirty) > 2 * len(self.live_ids) + 64:
            self._rebuild(adj)
            heap = self._heap
        for w in dirty:
            nbrs = adj.get(w)
            if nbrs is not None:
                heapq.heappush(heap, (-len(nbrs), w))
        dirty.clear()
        while True:
            negdeg, v = heap[0]
            nbrs = adj.get(v)
            if nbrs is not None and len(nbrs) == -negdeg:
                return v
            heapq.heappop(heap)

    def audit(self, live: Graph, shadow: Graph) -> list[str]:
        """This index against one rebuilt from the graphs. Asking for the
        maximum only builds the heap or pushes the entries set aside, so it
        changes no later choice."""
        fresh, problems = AdversaryIndex(live, shadow), []
        if self.live_ids != fresh.live_ids:
            problems.append("live_ids differ from a rebuilt index")
        elif fresh.live_ids:
            got, want = self.max_degree_node(live), fresh.max_degree_node(live)
            if got != want:
                problems.append(f"max_degree_node {got}, rebuilt {want}")
        if self.next_id != fresh.next_id:
            problems.append(f"next_id {self.next_id}, rebuilt {fresh.next_id}")
        return problems


@dataclass
class AdversaryState:
    """Everything a strategy is allowed to remember between calls."""

    rng: random.Random
    last_deleted: int | None = None
    cursor: int = 0
    index: AdversaryIndex | None = None


def new_state(spec: StrategySpec, run_seed: int = 0) -> AdversaryState:
    return AdversaryState(rng=random.Random(f"{run_seed}:{spec.seed}:adversary"))


def new_index(spec: StrategySpec, live: Graph, shadow: Graph) -> AdversaryIndex | None:
    """The index an online strategy reads, or None for a scripted one."""
    if spec.kind == "scripted":
        return None
    return AdversaryIndex(live, shadow)


def next_event(
    spec: StrategySpec, live: Graph, shadow: Graph, state: AdversaryState
) -> Event | None:
    """One legal event, or None when the strategy is exhausted."""
    if spec.kind == "scripted":
        if state.cursor >= len(spec.events):
            return None
        ev = spec.events[state.cursor]
        state.cursor += 1
        if ev.op == "delete":
            state.last_deleted = ev.node
        return ev

    index = state.index or new_index(spec, live, shadow)
    live_nodes = index.live_ids

    if spec.kind == "mixed" or spec.kind == "random":
        p_delete = spec.p_delete if spec.kind == "mixed" else 0.5
        if not live_nodes:
            return None
        if state.rng.random() < p_delete:
            return _emit_delete(live_nodes[state.rng.randrange(len(live_nodes))], state)
        return _insert(spec, live_nodes, index.next_id, state)

    # Pure deleters from here on.
    if not live_nodes:
        return None
    if spec.kind == "max-degree":
        return _emit_delete(index.max_degree_node(live), state)
    if spec.kind == "articulation":
        target = live.smallest_cut_vertex(live_nodes)
        if target is None:
            target = index.max_degree_node(live)
        return _emit_delete(target, state)
    if spec.kind == "clustered":
        target = None
        if state.last_deleted is not None and shadow.has_node(state.last_deleted):
            target = _first_live_neighbor_of_deleted(live, shadow, state.last_deleted)
        if target is None:
            target = index.max_degree_node(live)
        return _emit_delete(target, state)
    raise AssertionError(f"unhandled kind {spec.kind}")


def _emit_delete(node: int, state: AdversaryState) -> Event:
    state.last_deleted = node
    return Event(op="delete", node=node)


def _first_live_neighbor_of_deleted(live: Graph, shadow: Graph, dead: int) -> int | None:
    """The smallest live node adjacent to the previous deletion, in the graph
    as it was: shadow adjacency works because healers never touch shadow
    edges."""
    live_adj = live._adj
    return min((w for w in shadow._adj[dead] if w in live_adj), default=None)


def _insert(spec: StrategySpec, live_nodes: list[int], fresh: int, state: AdversaryState) -> Event:
    k = min(spec.insert_degree, len(live_nodes))
    neighbors = tuple(sorted(state.rng.sample(live_nodes, k)))
    return Event(op="insert", node=fresh, neighbors=neighbors)


def validate_event(
    e: Event,
    live: Graph,
    shadow: Graph | None = None,
) -> list[str]:
    """Model-constraint check; empty list means the event is legal.

    With the shadow graph available, id freshness is checked against every
    node that ever existed (ids are never reused, even after deletion).
    """
    violations = []
    if e.op == "delete":
        if not live.has_node(e.node):
            violations.append("unknown-node")
        if e.neighbors:
            violations.append("delete-with-neighbors")
        return violations
    known = shadow if shadow is not None else live
    if known.has_node(e.node):
        violations.append("id-reuse")
    if not e.neighbors:
        violations.append("unattached-insert")
    for w in e.neighbors:
        if w == e.node:
            violations.append("self-neighbor")
        elif not live.has_node(w):
            violations.append("unknown-neighbor")
    if len(set(e.neighbors)) != len(e.neighbors):
        violations.append("duplicate-neighbor")
    return violations


# -- JSONL trace format -------------------------------------------------------


def format_trace(events: list[Event]) -> str:
    """One JSON line per event, t from 1. Every id is checked against the
    bound `parse_trace` applies, line t, so no trace is written that the
    reader would refuse."""
    lines = []
    for t, e in enumerate(events, start=1):
        _check_id(e.node, t, "node")
        obj: dict = {"t": t, "op": e.op, "node": e.node}
        if e.op == "insert":
            obj["neighbors"] = sorted(e.neighbors)
            for w in obj["neighbors"]:
                _check_id(w, t, "neighbor")
        lines.append(json.dumps(obj))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> list[Event]:
    """The events of a JSONL trace, one per non-blank line. A delete line
    holds the keys `t`, `op` and `node`, and an insert line may add
    `neighbors`; any other key is refused, as is any malformed line, with
    a `TraceFormatError` that names the line."""
    events = []
    last_t = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: not valid JSON ({exc})") from None
        except RecursionError:
            raise TraceFormatError(f"line {lineno}: not valid JSON (nested too deeply)") from None
        if not isinstance(obj, dict):
            raise TraceFormatError(f"line {lineno}: expected an object")
        try:
            t = obj["t"]
            op = obj["op"]
            node = obj["node"]
        except KeyError as exc:
            raise TraceFormatError(f"line {lineno}: missing key {exc}") from None
        if isinstance(t, bool) or not isinstance(t, int):
            raise TraceFormatError(f"line {lineno}: t={t!r} is not an integer")
        if t <= last_t:
            raise TraceFormatError(f"line {lineno}: t={t!r} not strictly increasing")
        last_t = t
        _check_id(node, lineno, "node")
        if op == "insert":
            keys = {"t", "op", "node", "neighbors"}
        elif op == "delete":
            keys = {"t", "op", "node"}
        else:
            raise TraceFormatError(f"line {lineno}: unknown op {op!r}")
        extra = obj.keys() - keys
        if extra:
            raise TraceFormatError(f"line {lineno}: {op} takes no key {min(extra)!r}")
        if op == "delete":
            events.append(Event(op="delete", node=node))
            continue
        neighbors = obj.get("neighbors", [])
        if not isinstance(neighbors, list):
            raise TraceFormatError(f"line {lineno}: neighbors must be a list")
        for w in neighbors:
            _check_id(w, lineno, "neighbor")
        events.append(Event(op="insert", node=node, neighbors=tuple(sorted(neighbors))))
    return events


def _check_id(value, lineno: int, what: str) -> None:
    """Node ids are ints in [0, MAX_NODE_ID); JSON booleans are not ids."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise TraceFormatError(f"line {lineno}: {what} {value!r} is not a non-negative integer")
    if value >= MAX_NODE_ID:
        raise TraceFormatError(f"line {lineno}: {what} {value} is not below {MAX_NODE_ID}")


def write_trace(events: list[Event], path) -> None:
    text = format_trace(events)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_trace(path) -> list[Event]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())
