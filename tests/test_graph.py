"""Core graph structure and algorithms against independent oracles."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfheal.families import make_family, path_graph, random_tree, star_graph
from selfheal.graph import (
    INF,
    MAX_NODE_ID,
    DuplicateNodeError,
    Graph,
    GraphError,
    SelfLoopError,
    UnknownNodeError,
    _cut_search,
    format_edge_list,
    parse_edge_list,
)
from selfheal.metrics import all_pairs_distances, diameter_from

from conftest import (
    adj_of,
    oracle_apsp_floyd,
    oracle_articulation_points,
    oracle_bfs,
    random_graph,
    same_layout,
)


def path(n: int) -> Graph:
    g = Graph(nodes=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def star(n: int) -> Graph:
    g = Graph(nodes=range(n))
    for i in range(1, n):
        g.add_edge(0, i)
    return g


def random_tree_by_add_edge(n: int, rng: random.Random) -> Graph:
    g = Graph(nodes=range(n))
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i))
    return g


class TestAddNode:
    def test_empty_plus_node(self):
        g = Graph()
        g.add_node(0)
        assert g.nodes == {0}
        assert g.edge_count == 0

    def test_edges_untouched(self):
        g = Graph(nodes=[0, 1], edges=[(0, 1)])
        g.add_node(2)
        assert g.nodes == {0, 1, 2}
        assert list(g.edges()) == [(0, 1)]

    def test_duplicate_rejected(self):
        g = Graph(nodes=[0])
        with pytest.raises(DuplicateNodeError):
            g.add_node(0)


class TestAddEdge:
    def test_basic(self):
        g = Graph(nodes=[0, 1])
        assert g.add_edge(0, 1) is True
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_already_present_flagged(self):
        g = Graph(nodes=[0, 1], edges=[(0, 1)])
        assert g.add_edge(1, 0) is False
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(SelfLoopError):
            g.add_edge(0, 0)

    def test_unknown_node_rejected(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(UnknownNodeError):
            g.add_edge(0, 5)


class TestRemoveNode:
    def test_path_middle(self):
        g = path(3)
        orphans = g.remove_node(1)
        assert orphans == {0, 2}
        assert g.nodes == {0, 2}
        assert g.edge_count == 0

    def test_singleton(self):
        g = Graph(nodes=[0])
        assert g.remove_node(0) == set()
        assert g.nodes == set()

    def test_unknown(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(UnknownNodeError):
            g.remove_node(2)


class TestConnectivity:
    def test_path_connected(self):
        assert path(3).is_connected()

    def test_isolated_node_disconnects(self):
        g = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        assert not g.is_connected()

    def test_empty_connected_by_convention(self):
        assert Graph().is_connected()
        assert Graph(nodes=[7]).is_connected()

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_a_breadth_first_oracle(self, seed):
        g = random_graph(random.Random(seed), max_nodes=30, p=0.08)
        adj = adj_of(g)
        assert g.is_connected() == (len(oracle_bfs(adj, min(adj))) == len(adj))


class TestFamilies:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 100])
    def test_path_and_star_match_the_add_edge_builds(self, n):
        assert same_layout(path_graph(n)._adj, path(n)._adj)
        assert same_layout(star_graph(n)._adj, star(n)._adj)

    @pytest.mark.parametrize("n, seed", [(0, 0), (1, 0), (2, 1), (5, 2), (64, 3), (1000, 4), (5000, 5)])
    def test_random_tree_matches_the_add_edge_build(self, n, seed):
        bulk_rng, oracle_rng = random.Random(seed), random.Random(seed)
        bulk = random_tree(n, bulk_rng)
        assert same_layout(bulk._adj, random_tree_by_add_edge(n, oracle_rng)._adj)
        # The same draws, so a generator shared with later calls goes on alike.
        assert bulk_rng.getstate() == oracle_rng.getstate()
        assert bulk.audit() == []


def hops(g: Graph, u: int, v: int) -> float:
    """The hop count from u to v in the library's one distance build."""
    dist, index = all_pairs_distances(g)
    return dist[index[u], index[v]]


def diameter(g: Graph) -> object:
    return diameter_from(all_pairs_distances(g)[0])


class TestDistance:
    def test_path_ends(self):
        assert hops(path(3), 0, 2) == 2

    def test_identity(self):
        assert hops(path(3), 0, 0) == 0

    def test_disconnected_infinite(self):
        g = Graph(nodes=[0, 1])
        assert hops(g, 0, 1) == INF


class TestDiameter:
    def test_path4(self):
        assert diameter(path(4)) == 3

    def test_complete5(self):
        g = Graph(nodes=range(5))
        for u in range(5):
            for v in range(u + 1, 5):
                g.add_edge(u, v)
        assert diameter(g) == 1

    def test_star9_matches_apsp_oracle(self):
        g = Graph(nodes=range(9))
        for leaf in range(1, 9):
            g.add_edge(0, leaf)
        oracle = oracle_apsp_floyd(adj_of(g))
        expected = max(d for d in oracle.values())
        assert expected == 2  # frozen from the oracle
        assert diameter(g) == expected

    def test_tiny(self):
        assert diameter(Graph()) == 0
        assert diameter(Graph(nodes=[3])) == 0

    def test_disconnected_infinite(self):
        assert diameter(Graph(nodes=[0, 1])) == INF


def _count_tarjan(monkeypatch) -> list[Graph]:
    """Record each graph `articulation_points` is called on."""
    calls = []
    tarjan = Graph.articulation_points

    def counted(self):
        calls.append(self)
        return tarjan(self)

    monkeypatch.setattr(Graph, "articulation_points", counted)
    return calls


class TestArticulation:
    def test_path_interior(self):
        assert path(3).articulation_points() == [1]

    def test_complete_has_none(self):
        g = Graph(nodes=range(4))
        for u in range(4):
            for v in range(u + 1, 4):
                g.add_edge(u, v)
        assert g.articulation_points() == []

    @pytest.mark.parametrize("g", [Graph(), Graph(nodes=[7])], ids=["empty", "single"])
    def test_tiny_graphs_have_none(self, g):
        assert g.articulation_points() == oracle_articulation_points(adj_of(g)) == []

    def test_long_path_needs_no_recursion(self):
        # 5,000 nodes is far past the default recursion limit of 1,000.
        assert path(5000).articulation_points() == list(range(1, 4999))

    def test_two_triangles_joined_at_one_vertex(self):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert g.articulation_points() == oracle_articulation_points(adj_of(g)) == [2]

    def test_sorted_not_dfs_order(self):
        # Nodes added in descending id order: the DFS starts at 8 and meets
        # the cut vertex 5 before 1 and 3.
        g = Graph(nodes=[8, 5, 3, 2, 1, 0], edges=[(8, 5), (5, 1), (1, 0), (5, 3), (3, 2)])
        assert g.articulation_points() == oracle_articulation_points(adj_of(g)) == [1, 3, 5]

    def test_cycle_past_the_cap_falls_back_to_tarjan(self, monkeypatch):
        # Each search on the cycle must walk around it to merge its two
        # groups, which spends the cap on node 0; Tarjan then finds the
        # one cut vertex, 99, which holds the pendant at the largest id.
        g = Graph(edges=[(i, (i + 1) % 100) for i in range(100)] + [(99, 100)])
        calls = _count_tarjan(monkeypatch)
        assert g.smallest_cut_vertex(sorted(g.nodes)) == 99
        assert calls == [g]

    @pytest.mark.parametrize(
        "g",
        [Graph(edges=[(i, (i + 1) % 50) for i in range(50)]), Graph(edges=combinations(range(6), 2))],
        ids=["cycle", "complete"],
    )
    def test_no_cut_vertex_gives_none(self, g, monkeypatch):
        calls = _count_tarjan(monkeypatch)
        assert g.smallest_cut_vertex(sorted(g.nodes)) is None
        assert calls == [g]

    def test_tree_is_decided_without_tarjan(self, monkeypatch):
        g = make_family("random-tree", 3000, 0.0, random.Random("tarjan-tree"))
        calls = _count_tarjan(monkeypatch)
        first = min(v for v in g.nodes if g.degree(v) >= 2)
        assert g.smallest_cut_vertex(sorted(g.nodes)) == first
        assert calls == []

    def test_random_tree_cuts_are_inner_nodes(self):
        # In a tree the cut vertices are exactly the nodes of degree >= 2,
        # an oracle independent of the brute force. At 3,000 nodes a
        # quadratic copy-and-recount is slow enough to stand out in the suite.
        g = make_family("random-tree", 3000, 0.0, random.Random("tarjan-tree"))
        expected = sorted(v for v in g.nodes if g.degree(v) >= 2)
        assert g.articulation_points() == expected


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    p=st.sampled_from([0.03, 0.08, 0.15, 0.3, 0.6]),
    shuffle=st.booleans(),
)
def test_articulation_points_match_oracle(seed, p, shuffle):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=30, p=p)
    if shuffle:
        # Insertion order picks the DFS roots; ids must still come out sorted.
        order = sorted(g.nodes)
        rng.shuffle(order)
        g = Graph(nodes=order, edges=g.edges())
    assert g.articulation_points() == oracle_articulation_points(adj_of(g))


@st.composite
def pieced_graphs(draw) -> Graph:
    """Pieces of the shapes that set the cut search's cost, some joined by
    an edge, under scattered ids: isolated nodes, paths and cycles of up to
    40 nodes (long enough to spend the search's cap on a graph made mostly
    of them), complete graphs and sparse random parts."""
    pieces = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["isolated", "path", "cycle", "complete", "random"]),
                st.integers(1, 40),
                st.integers(0, 2**32),
            ),
            max_size=5,
        )
    )
    edges, size = [], 0
    for kind, k, seed in pieces:
        if kind == "isolated":
            k = 1
        elif kind == "path":
            edges += [(size + i, size + i + 1) for i in range(k - 1)]
        elif kind == "cycle":
            k = max(k, 3)
            edges += [(size + i, size + (i + 1) % k) for i in range(k)]
        elif kind == "complete":
            k = min(k, 8)
            edges += combinations(range(size, size + k), 2)
        else:
            rng = random.Random(seed)
            edges += [(size + a, size + b) for a, b in combinations(range(k), 2) if rng.random() < 0.1]
        size += k
    if size:
        joins = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        edges += [(a, b) for a, b in draw(st.lists(joins, max_size=4)) if a != b]
    ids = draw(st.lists(st.integers(0, MAX_NODE_ID - 1), min_size=size, max_size=size, unique=True))
    g = Graph(nodes=ids)
    for a, b in edges:
        g.add_edge(ids[a], ids[b])
    return g


@settings(max_examples=300, deadline=None)
@given(g=pieced_graphs())
def test_smallest_cut_vertex_is_tarjans_first(g):
    cuts = g.articulation_points()
    assert g.smallest_cut_vertex(sorted(g.nodes)) == (cuts or [None])[0]
    # A search scans each adjacency entry once at most, so with that much
    # budget it decides every candidate without Tarjan.
    budget = 2 * g.edge_count + len(g)
    for u in g.nodes:
        if g.degree(u) >= 2:
            is_cut, left = _cut_search(g._adj, u, budget)
            assert left >= 0 and is_cut == (u in cuts)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_random_graphs_audit_clean_and_distances_match_oracle(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    assert g.audit() == []
    adj = adj_of(g)
    source = min(g.nodes)
    expected = oracle_bfs(adj, source)
    dist, index = all_pairs_distances(g, [source])
    got = {v: int(dist[i, 0]) for v, i in index.items() if dist[i, 0] != INF}
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_diameter_equals_oracle_max_distance(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=16)
    oracle = oracle_apsp_floyd(adj_of(g))
    expected = max(oracle.values()) if len(g.nodes) > 1 else 0
    assert diameter(g) == expected


@pytest.mark.parametrize("seed", range(4))
def test_diameter_matches_oracle_at_64_nodes(seed):
    rng = random.Random(f"diam64:{seed}")
    g = Graph(nodes=range(64))
    for u in range(64):
        for v in range(u + 1, 64):
            if rng.random() < 0.06:
                g.add_edge(u, v)
    oracle = oracle_apsp_floyd(adj_of(g))
    assert diameter(g) == max(oracle.values())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_triangle_inequality_within_components(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=12)
    dist = oracle_apsp_floyd(adj_of(g))
    got, index = all_pairs_distances(g)
    nodes = sorted(g.nodes)
    for u in nodes:
        for v in nodes:
            if dist[(u, v)] is INF:
                continue
            assert got[index[u], index[v]] == dist[(u, v)]
            for w in nodes:
                if dist[(u, w)] is not INF and dist[(w, v)] is not INF:
                    assert dist[(u, v)] <= dist[(u, w)] + dist[(w, v)]


class TestEdgeList:
    def test_round_trip(self):
        rng = random.Random(5)
        g = random_graph(rng)
        text = format_edge_list(g)
        back = parse_edge_list(text)
        assert back == g
        assert format_edge_list(back) == text

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n0 1\n\n1 2  # trailing\n")
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_isolated_node_line(self):
        g = parse_edge_list("0 1\n5\n")
        assert g.nodes == {0, 1, 5}
        assert g.degree(5) == 0

    def test_bad_line_rejected(self):
        with pytest.raises(GraphError):
            parse_edge_list("0 1 2\n")
        with pytest.raises(GraphError):
            parse_edge_list("a b\n")
        with pytest.raises(GraphError):
            parse_edge_list("-1 2\n")

    def test_self_loop_names_its_line(self):
        with pytest.raises(SelfLoopError, match="^line 2: self-loop at 1$"):
            parse_edge_list("0 1\n1 1\n")
