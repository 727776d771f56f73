"""Initial-graph families for trace generation and benchmarks.

The path, star and random-tree builders write the adjacency directly,
each neighbour set filled in the order `Graph.add_edge` calls would fill
it, so a set iterates as it would after those calls.

`random_tree` draws each parent below i with the loop that
`random.Random.randrange(i)` runs inside itself: `getrandbits` of i's bit
length, drawn again while the value is i or more. So it makes the same
draws, builds the same tree and leaves the generator in the same state,
without `randrange`'s argument handling, which took about a third of the
family's time at n = 512. `tests/test_graph.py` checks the tree and the
generator's state against a `randrange` build.
"""

from __future__ import annotations

import random

from .graph import Graph, gc_paused

FAMILY_NAMES = ("path", "star", "random-tree", "erdos-renyi")


def path_graph(n: int) -> Graph:
    g = Graph()
    g._adj = {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}
    return g


def star_graph(n: int) -> Graph:
    """Center 0 plus n-1 leaves."""
    g = Graph()
    g._adj = {i: {0} for i in range(n)}
    if n:
        g._adj[0] = set(range(1, n))
    return g


def random_tree(n: int, rng: random.Random) -> Graph:
    """Random attachment tree: node i picks a parent uniformly among 0..i-1,
    drawn as `rng.randrange(i)` draws it (see the module docstring)."""
    g = Graph()
    adj = g._adj = {i: set() for i in range(n)}
    getrandbits = rng.getrandbits
    for i in range(1, n):
        k = i.bit_length()
        parent = getrandbits(k)
        while parent >= i:
            parent = getrandbits(k)
        adj[i].add(parent)
        adj[parent].add(i)
    return g


def erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def connected_erdos_renyi(
    n: int, p: float, rng: random.Random, max_tries: int = 1000
) -> Graph:
    """Resample until connected (the usual conditioning at these densities)."""
    for _ in range(max_tries):
        g = erdos_renyi(n, p, rng)
        if g.is_connected():
            return g
    raise ValueError(f"no connected G({n}, {p}) after {max_tries} tries")


@gc_paused
def make_family(name: str, n: int, p: float, rng: random.Random) -> Graph:
    if n < 1:
        raise ValueError(f"graph family size n must be at least 1, got {n}")
    # Written so that NaN fails too.
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability p must be in [0, 1], got {p}")
    if name == "path":
        return path_graph(n)
    if name == "star":
        return star_graph(n)
    if name == "random-tree":
        return random_tree(n, rng)
    if name == "erdos-renyi":
        return connected_erdos_renyi(n, p, rng)
    raise ValueError(f"unknown graph family {name!r}; expected one of {FAMILY_NAMES}")
