"""Undirected simple graphs over integer node ids, plus the classic algorithms.

Everything downstream (virtual graphs, healers, metrics) builds on this module.
Graphs are plain dict-of-sets adjacency structures; node ids are non-negative
integers that are never reused within a run, even after deletion.

Connectivity is one search per query; no dynamic-connectivity structure
is kept here. Hop distances come from `metrics.all_pairs_distances`,
whose independent oracles live with the tests. The engine follows the
live graph's connectivity from event to event (`engine.LiveMeasure`) and
keeps `is_connected` as its oracle. The list of cut vertices comes
from one iterative Tarjan low-link depth-first search, linear in nodes plus
edges. The smallest cut vertex, which the `articulation` adversary asks for
on every event, comes from local searches that stop at the first cut vertex
in id order (`smallest_cut_vertex`); past a work cap linear in the node
count they fall back to Tarjan's list. The healed graph itself is
maintained by `virtual_graph.VirtualGraph`. `gc_paused` runs a call with
CPython's cyclic garbage collector paused; the engine's `start` and `run`
and `families.make_family` run under it.

Concurrency contract: a Graph is either exclusively owned while being mutated
or treated as immutable once shared; instances hold no hidden shared state and
may be handed freely between threads.
"""

from __future__ import annotations

import functools
import gc
from collections import deque
from typing import Callable, Iterable, Iterator, TypeVar

INF = float("inf")

# Input node ids (edge lists, traces) lie in [0, MAX_NODE_ID). A run mints
# its insert ids upwards from there, and the virtual graph numbers its
# helper nodes from `virtual_graph.VBASE`, 2^60 higher.
MAX_NODE_ID = 2**62


class GraphError(ValueError):
    """Base class for graph contract violations."""


class DuplicateNodeError(GraphError):
    pass


class UnknownNodeError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


_F = TypeVar("_F", bound=Callable)


def gc_paused(fn: _F) -> _F:
    """`fn` with CPython's cyclic garbage collector paused while it runs,
    and the caller's setting restored on every exit, a raise included.

    The library makes no reference cycles, so reference counting frees all
    it lets go, and a collection would only walk the heap a run builds,
    again and again as it grows. A call made while the collector is off
    leaves it off; cycles that the caller makes meanwhile are collected
    once it is back on. The setting is the process's: with calls in
    several threads, the first to switch it off switches it back on.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges."""

    __slots__ = ("_adj",)

    def __init__(self, nodes: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self._adj: dict[int, set[int]] = {}
        for v in nodes:
            self.add_node(v)
        for u, v in edges:
            for x in (u, v):
                if x not in self._adj:
                    self.add_node(x)
            self.add_edge(u, v)

    # -- basic accessors -------------------------------------------------

    @property
    def nodes(self) -> set[int]:
        return set(self._adj)

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def has_node(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        if v not in self._adj:
            raise UnknownNodeError(f"node {v} not in graph")
        return set(self._adj[v])

    def degree(self, v: int) -> int:
        if v not in self._adj:
            raise UnknownNodeError(f"node {v} not in graph")
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as (min, max), in sorted order."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"

    # -- mutation --------------------------------------------------------

    def add_node(self, v: int) -> None:
        if v in self._adj:
            raise DuplicateNodeError(f"node {v} already present")
        self._adj[v] = set()

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge u-v. Returns False (and changes nothing) if already present."""
        if u == v:
            raise SelfLoopError(f"self-loop at {u}")
        for x in (u, v):
            if x not in self._adj:
                raise UnknownNodeError(f"node {x} not in graph")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"edge {u}-{v} not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_node(self, v: int) -> set[int]:
        """Remove v and its incident edges; returns the former neighbors."""
        if v not in self._adj:
            raise UnknownNodeError(f"node {v} not in graph")
        orphans = self._adj.pop(v)
        for u in orphans:
            self._adj[u].discard(v)
        return orphans

    # -- traversal -------------------------------------------------------

    def is_connected(self) -> bool:
        """Empty and singleton graphs count as connected. One search that
        keeps only the set of nodes it has seen."""
        adj = self._adj
        if len(adj) <= 1:
            return True
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(adj)

    def articulation_points(self) -> list[int]:
        """Cut vertices, ascending, in O(n + m).

        Tarjan's low-link DFS, run from every undiscovered node with an
        explicit stack of (node, parent, neighbour iterator), so a path of
        any length needs no recursion. low[v] is the smallest discovery
        index reachable from v's DFS subtree by one back edge. A root is a
        cut vertex when it has more than one DFS child; any other node p is
        one when some child u has low[u] >= disc[p]. The tree edge back to
        p may count as a back edge: it lowers low[u] to disc[p] at most,
        which leaves that test unchanged.
        """
        adj = self._adj
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        cuts: set[int] = set()
        for root in adj:
            if root in disc:
                continue
            disc[root] = low[root] = len(disc)
            root_children = 0
            stack = [(root, None, iter(adj[root]))]
            while stack:
                v, parent, nbrs = stack[-1]
                for w in nbrs:
                    if w not in disc:
                        disc[w] = low[w] = len(disc)
                        stack.append((w, v, iter(adj[w])))
                        break
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    if parent is None:
                        continue
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if parent == root:
                        root_children += 1
                    elif low[v] >= disc[parent]:
                        cuts.add(parent)
            if root_children > 1:
                cuts.add(root)
        return sorted(cuts)

    def smallest_cut_vertex(self, order: Iterable[int]) -> int | None:
        """The first cut vertex in `order`, which lists every node ascending:
        the same answer as `(self.articulation_points() or [None])[0]`.

        Nodes of degree below 2 are never cut vertices and are skipped; each
        other candidate is decided by one search in G - u (`_cut_search`).
        The searches are charged one unit per adjacency entry they scan, a
        candidate's own entries included. Past CUT_SEARCH_SHARE units per
        node, the query gives up and returns Tarjan's answer instead, so it
        is exact on every graph and costs at most that share more than
        `articulation_points` where no cut vertex is found early.
        """
        adj = self._adj
        budget = CUT_SEARCH_SHARE * len(adj)
        for u in order:
            if len(adj[u]) < 2:
                continue
            is_cut, budget = _cut_search(adj, u, budget)
            if budget < 0:
                break
            if is_cut:
                return u
        else:
            return None
        cuts = self.articulation_points()
        return cuts[0] if cuts else None

    def audit(self) -> list[str]:
        """Invariant walk: adjacency symmetry, no self-loops, key consistency."""
        return audit_adjacency(self._adj)

    def to_dot(self, name: str = "g") -> str:
        lines = [f"graph {name} {{"]
        for v in sorted(self._adj):
            lines.append(f'  "{v}";')
        for u, v in self.edges():
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def audit_adjacency(adj: dict[int, set[int]], name: Callable[[int], str] = str) -> list[str]:
    """The self-loops, dangling and one-way edges of `adj`, named by `name`,
    in id order: by node, a self-loop first, then by neighbour. Only the
    problems found are sorted, so a healthy adjacency sorts nothing."""
    bad = []
    for u, nbrs in adj.items():
        if u in nbrs:
            bad.append((u, -1, "self-loop"))
        for v in nbrs:
            if v not in adj:
                bad.append((u, v, "dangling-edge"))
            elif u not in adj[v]:
                bad.append((u, v, "asymmetric-adjacency"))
    return [f"{kind}: {name(u)}" + (f"-{name(v)}" if v >= 0 else "") for u, v, kind in sorted(bad)]


# The work cap of `Graph.smallest_cut_vertex`: adjacency entries its
# searches may scan per node of the graph, before it falls back to Tarjan.
CUT_SEARCH_SHARE = 1


def _cut_search(adj: dict[int, set[int]], u: int, budget: int) -> tuple[bool, int]:
    """Whether u (of degree at least 2) is a cut vertex, and the budget left
    after the search; a negative budget means the search gave up undecided.

    One search in G - u from all of u's neighbours at once, one group per
    neighbour. The groups take turns, each expanding one node of its
    breadth-first frontier per turn, and two groups merge (a union-find
    over group ids) when one reaches a node the other holds. If one group
    is left, the neighbours are connected without u. If a group has
    nothing left to expand, it is a whole component of G - u that lacks
    the other neighbours, so u is a cut vertex. Taking turns bounds the
    cost of a cut vertex by the smallest side it cuts off, times the
    number of groups.
    """
    nbrs = adj[u]
    k = len(nbrs)
    budget -= k
    # Group k holds u alone: it is never expanded or merged.
    owner = {u: k}
    parent = list(range(k + 1))
    queues: list[deque[int] | None] = []
    for i, w in enumerate(nbrs):
        owner[w] = i
        queues.append(deque((w,)))
    groups, turn = k, range(k)
    while budget >= 0:
        kept = []
        for g in turn:
            if parent[g] != g:
                continue
            q = queues[g]
            if not q:
                return True, budget
            xn = adj[q.popleft()]
            budget -= len(xn)
            if budget < 0:
                break
            for w in xn:
                o = owner.get(w)
                if o is None:
                    owner[w] = g
                    q.append(w)
                    continue
                while parent[o] != o:
                    o = parent[o]
                if o == g or o == k:
                    continue
                groups -= 1
                if groups == 1:
                    return False, budget
                # Merge o into g, the shorter frontier into the longer.
                qo = queues[o]
                if len(qo) > len(q):
                    qo.extend(q)
                    q = queues[g] = qo
                else:
                    q.extend(qo)
                queues[o] = None
                parent[o] = g
            kept.append(g)
        turn = kept
    return False, budget


# -- edge-list text format ------------------------------------------------
#
# One "u v" pair per line, whitespace separated, '#' starts a comment.
# A line with a single token declares an isolated node so any graph
# round-trips.


def parse_edge_list(text: str) -> Graph:
    g = Graph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            v = _parse_id(parts[0], lineno)
            if v not in g:
                g.add_node(v)
        elif len(parts) == 2:
            u, v = (_parse_id(p, lineno) for p in parts)
            if u == v:
                raise SelfLoopError(f"line {lineno}: self-loop at {u}")
            for x in (u, v):
                if x not in g:
                    g.add_node(x)
            g.add_edge(u, v)
        else:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
    return g


def ascii_int(text: str) -> int:
    """The integer that ASCII digits with an optional leading '-' spell;
    ValueError for any other text. `int` alone also takes '_' between
    digits, a '+' sign, whitespace and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_id(token: str, lineno: int) -> int:
    """An id is ASCII digits only: `ascii_int` without the sign."""
    try:
        if token.startswith("-"):
            raise ValueError
        v = ascii_int(token)
    except ValueError:
        raise GraphError(f"line {lineno}: bad node id {token!r}") from None
    if v >= MAX_NODE_ID:
        raise GraphError(f"line {lineno}: node id {v} is not below {MAX_NODE_ID}")
    return v


def format_edge_list(g: Graph) -> str:
    lines = []
    seen: set[int] = set()
    for u, v in g.edges():
        lines.append(f"{u} {v}")
        seen.add(u)
        seen.add(v)
    for v in sorted(g.nodes - seen):
        lines.append(f"{v}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def dump_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
