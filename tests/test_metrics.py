"""Metrics: degree factor, stretch, summaries, CSV stability."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from selfheal import metrics
from selfheal.adversary import Event, StrategySpec
from selfheal.engine import RunConfig, run
from selfheal.families import erdos_renyi, path_graph
from selfheal.graph import Graph
from selfheal.metrics import (
    INF,
    MetricsRecord,
    ZeroShadowDegreeError,
    all_pairs_distances,
    degree_ratio_max,
    diameter_from,
    format_number,
    parse_csv,
    records_to_csv,
    stretch_max,
    stretch_sampled,
    summarize,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from selfheal.graph import UnknownNodeError

from conftest import (
    adj_of,
    oracle_apsp_bfs,
    oracle_apsp_floyd,
    oracle_bfs,
    oracle_degree_ratio_max,
    oracle_stretch_sampled,
    random_graph,
)


class TestDegreeRatio:
    def test_arithmetic_and_argmax(self):
        # v has live degree 6 against shadow degree 2; everyone else <= 1.
        live = Graph(nodes=range(8))
        for w in range(1, 7):
            live.add_edge(0, w)
        shadow = Graph(nodes=range(8))
        shadow.add_edge(0, 1)
        shadow.add_edge(0, 2)
        for w in range(1, 7):
            if not shadow.has_edge(0, w):
                shadow.add_node(100 + w)
                shadow.add_edge(w, 100 + w)
        shadow.add_edge(7, 1)
        ratio, arg = degree_ratio_max(live, shadow)
        assert ratio == Fraction(3)
        assert arg == 0

    def test_no_deletions_ratio_one(self):
        g = path_graph(4)
        ratio, arg = degree_ratio_max(g, g.copy())
        assert ratio == Fraction(1)

    def test_zero_shadow_degree_raises(self):
        live = Graph(nodes=[0, 1], edges=[(0, 1)])
        shadow = Graph(nodes=[0, 1], edges=[(0, 1)])
        shadow._adj[1] = set()  # corrupt the engine invariant
        shadow._adj[0].discard(1)
        with pytest.raises(ZeroShadowDegreeError):
            degree_ratio_max(live, shadow)

    def test_agrees_with_brute_force_on_run_snapshots(self):
        # independent recomputation on live snapshots from a real run
        state = run(
            RunConfig(
                initial=path_graph(20),
                strategy=StrategySpec(kind="mixed", p_delete=0.7, seed=8),
                t_max=30,
                seed=8,
            )
        )
        live = state.live_graph()
        got, arg = degree_ratio_max(live, state.shadow, state.deleted)
        best = Fraction(1)
        best_arg = None
        for v in sorted(live.nodes):
            r = Fraction(live.degree(v), state.shadow.degree(v))
            if r > best:
                best, best_arg = r, v
        assert (got, arg) == (best, best_arg)

    def test_argmax_unchanged_by_isolated_shadow_structure(self):
        live = Graph(nodes=[0, 1, 2], edges=[(0, 1), (0, 2)])
        shadow = Graph(nodes=[0, 1, 2], edges=[(0, 1), (0, 2), (1, 2)])
        _, arg = degree_ratio_max(live, shadow)
        bigger = shadow.copy()
        bigger.add_node(50)
        bigger.add_node(51)
        bigger.add_edge(50, 51)
        _, arg2 = degree_ratio_max(live, bigger)
        assert arg == arg2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroShadowDegreeError, UnknownNodeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_degree_ratio_matches_fraction_oracle(seed):
    # Live graph: a random subset of the shadow nodes with random healing
    # edges; occasionally a stray, deleted or shadow-isolated live node to
    # exercise every error path. Result and error must match the oracle.
    rng = random.Random(seed)
    shadow = random_graph(rng, max_nodes=20, p=0.25)
    nodes = sorted(shadow.nodes)
    live_nodes = [v for v in nodes if rng.random() < 0.7]
    deleted = set(nodes) - set(live_nodes)
    live = Graph(nodes=live_nodes)
    for _ in range(rng.randint(0, 3 * len(live_nodes))):
        if len(live_nodes) >= 2:
            u, v = rng.sample(live_nodes, 2)
            live.add_edge(u, v)
    corruption = rng.random()
    if corruption < 0.05 and deleted:
        live.add_node(min(deleted))
    elif corruption < 0.1:
        live.add_node(10_000)
    elif corruption < 0.15:
        deleted = None
    got = _outcome(degree_ratio_max, live, shadow, deleted)
    assert got == _outcome(oracle_degree_ratio_max, live, shadow, deleted)


def scattered_graph(rng: random.Random, n: int) -> Graph:
    """n nodes with ids scattered over [0, 7n]: a tenth of them isolated,
    the rest in up to four components, each a random tree plus a few
    chords."""
    ids = rng.sample(range(7 * n + 1), n)
    g = Graph(nodes=ids)
    joined = ids[n // 10 :]
    cuts = sorted(rng.sample(range(1, len(joined)), min(3, max(len(joined) - 1, 0))))
    bounds = [0, *cuts, len(joined)]
    for lo, hi in zip(bounds, bounds[1:]):
        part = joined[lo:hi]
        for k in range(1, len(part)):
            g.add_edge(part[k], part[rng.randrange(k)])
        for _ in range(len(part) // 4):
            u, v = rng.sample(part, 2)
            g.add_edge(u, v)
    return g


def assert_matches_per_source_bfs(g: Graph) -> np.ndarray:
    """`all_pairs_distances` against one breadth-first search per source:
    the ascending index, listed in row order as `DistanceOracle._load`
    reads it, then every entry, INF where a pair is unreached."""
    dist, index = all_pairs_distances(g)
    want, want_index = oracle_apsp_bfs(adj_of(g))
    assert index == want_index and list(index) == list(want_index)
    np.testing.assert_array_equal(dist, want)
    return dist


class TestAllPairs:
    def test_matches_floyd_oracle(self):
        for seed in range(40):
            g = random_graph(random.Random(seed), max_nodes=20)
            dist, index = all_pairs_distances(g)
            oracle = oracle_apsp_floyd(adj_of(g))
            for u in g.nodes:
                for v in g.nodes:
                    got = dist[index[u], index[v]]
                    want = oracle[(u, v)]
                    if want is INF:
                        assert np.isinf(got)
                    else:
                        assert got == want

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 127, 128, 129, 200])
    def test_matches_per_source_bfs(self, n, seed):
        # Sizes on both sides of each 64-bit word boundary.
        g = scattered_graph(random.Random(seed), n)
        dist = assert_matches_per_source_bfs(g)
        if n >= 63:
            assert np.isinf(dist).any()  # several components
            assert any(g.degree(v) == 0 for v in g.nodes)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(0, 140))
    def test_matches_per_source_bfs_on_random_graphs(self, seed, n):
        assert_matches_per_source_bfs(scattered_graph(random.Random(seed), n))

    @pytest.mark.parametrize(
        "diameter", [*range(1, 18), 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257]
    )
    def test_paths_across_the_bit_plane_boundaries(self, diameter):
        # Level counts need one more bit plane at each power of two, and a
        # wider level matrix past 255. The path runs through scattered ids
        # in random order; each source set is checked against the columns
        # of one breadth-first search per node. The path's first node
        # alone reaches the far end at the diameter, so a sampled build
        # from few sources crosses the same boundary.
        rng = random.Random(diameter)
        order = rng.sample(range(7 * (diameter + 1)), diameter + 1)
        g = Graph(nodes=order, edges=zip(order, order[1:]))
        nodes = sorted(order)
        want, want_index = oracle_apsp_bfs(adj_of(g))
        for sources in (
            None,
            order[:1],
            rng.sample(nodes, min(3, len(nodes))),
            rng.sample(nodes, min(len(nodes), 100)),
        ):
            dist, index = all_pairs_distances(g, sources)
            assert list(index) == nodes and index == want_index
            cols = list(range(len(nodes))) if sources is None else [index[s] for s in sources]
            assert dist.dtype == np.float32
            np.testing.assert_array_equal(dist, want[:, cols])
        assert diameter_from(all_pairs_distances(g)[0]) == diameter

    def test_long_path_counts_past_255_levels(self):
        # Diameter 299: a one-byte level counter would wrap.
        g = Graph(nodes=[3 * v for v in range(300)])
        for v in range(299):
            g.add_edge(3 * v, 3 * v + 3)
        dist = assert_matches_per_source_bfs(g)
        assert diameter_from(dist) == 299

    def test_diameter_from(self):
        g = path_graph(4)
        dist, _ = all_pairs_distances(g)
        assert diameter_from(dist) == 3
        assert diameter_from(np.zeros((0, 0))) == 0


class TestStretch:
    def test_healed_pair_below_one(self):
        # a-v-b with v deleted and the healed edge a-b: the only live pair
        # has live distance 1 over shadow distance 2.
        shadow = path_graph(3)
        live = Graph(nodes=[0, 2], edges=[(0, 2)])
        sdist, sindex = all_pairs_distances(shadow)
        result = stretch_max(live, sdist, sindex)
        assert result.mode == "exact"
        assert result.max_stretch == Fraction(1, 2)

    def test_no_deletions_stretch_one(self):
        g = path_graph(4)
        sdist, sindex = all_pairs_distances(g)
        result = stretch_max(g, sdist, sindex)
        assert result.max_stretch == Fraction(1)

    def test_disconnected_live_infinite(self):
        shadow = path_graph(3)
        live = Graph(nodes=[0, 2])
        sdist, sindex = all_pairs_distances(shadow)
        result = stretch_max(live, sdist, sindex)
        assert result.max_stretch is INF

    def test_exact_matches_brute_force(self):
        for seed in range(25):
            rng = random.Random(seed)
            shadow = random_graph(rng, max_nodes=14, p=0.3)
            live_nodes = sorted(shadow.nodes)[: max(2, shadow.node_count - 3)]
            live = Graph(nodes=live_nodes)
            for u, v in shadow.edges():
                if u in live_nodes and v in live_nodes and rng.random() < 0.8:
                    live.add_edge(u, v)
            sdist, sindex = all_pairs_distances(shadow)
            result = stretch_max(live, sdist, sindex)
            live_oracle = oracle_apsp_floyd(adj_of(live))
            shadow_oracle = oracle_apsp_floyd(adj_of(shadow))
            best = Fraction(1)
            disconnected = False
            for u in live_nodes:
                for v in live_nodes:
                    if u == v:
                        continue
                    dl = live_oracle[(u, v)]
                    ds = shadow_oracle[(u, v)]
                    if dl == INF:
                        disconnected = True
                        continue
                    if ds == INF:
                        continue
                    best = max(best, Fraction(int(dl), int(ds)))
            if disconnected:
                assert result.max_stretch is INF
            else:
                assert result.max_stretch == best

    def test_sampled_mode_reported(self):
        shadow = path_graph(30)
        sdist, sindex = all_pairs_distances(shadow)
        rng = random.Random(0)
        result = stretch_sampled(shadow, sdist, sindex, 50, rng)
        assert result.mode == "sampled"
        assert result.max_stretch == Fraction(1)

    @pytest.mark.parametrize("live_count", [0, 1, 2, "random"])
    @pytest.mark.parametrize("seed", range(3))
    def test_stretch_max_is_exact_over_a_fresh_build(self, live_count, seed):
        # The snapshot reference has no mode of its own: whatever the size,
        # it is `stretch_exact` over the live graph's build.
        rng = random.Random(f"stretch-max:{live_count}:{seed}")
        shadow = erdos_renyi(24, 0.15, rng)
        k = rng.randint(3, 24) if live_count == "random" else live_count
        live = Graph(nodes=rng.sample(sorted(shadow.nodes), k))
        for u, v in shadow.edges():
            if u in live and v in live and rng.random() < 0.8:
                live.add_edge(u, v)
        sdist, sindex = all_pairs_distances(shadow)
        got = stretch_max(live, sdist, sindex)
        assert got == metrics.stretch_exact(all_pairs_distances(live), sdist, sindex)
        assert got.mode == "exact"


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [1, 63, 64, 65, "all"])
def test_sources_are_columns_of_the_full_matrix(k, seed):
    # Scattered ids, isolated nodes and several components; the sources in
    # draw order, not id order.
    rng = random.Random(seed)
    g = scattered_graph(rng, 150)
    nodes = sorted(g.nodes)
    sources = rng.sample(nodes, len(nodes) if k == "all" else k)
    full, index = all_pairs_distances(g)
    dist, got_index = all_pairs_distances(g, sources)
    assert got_index == index
    assert dist.dtype == np.float32 and dist.shape == (len(nodes), len(sources))
    np.testing.assert_array_equal(dist, full[:, [index[s] for s in sources]])


def healed_graphs(rng: random.Random, n: int, parts: int, deleted: int, join: bool):
    """A shadow graph on n scattered ids in `parts` components, each a
    random tree plus chords, and a live graph on all but `deleted` of its
    nodes: the shadow edges among them and a few healing edges and, when
    `join`, one more edge between each two consecutive live components."""
    ids = rng.sample(range(5 * n), n)
    shadow = Graph(nodes=ids)
    bounds = [0, *sorted(rng.sample(range(1, n), parts - 1)), n]
    for lo, hi in zip(bounds, bounds[1:]):
        part = ids[lo:hi]
        for k in range(1, len(part)):
            shadow.add_edge(part[k], part[rng.randrange(k)])
        for _ in range(len(part) // 8):
            shadow.add_edge(*rng.sample(part, 2))
    gone = set(rng.sample(ids, deleted))
    live = Graph(nodes=[v for v in ids if v not in gone])
    for u, v in shadow.edges():
        if u not in gone and v not in gone:
            live.add_edge(u, v)
    live_ids = sorted(live.nodes)
    for _ in range(len(live_ids) // 10):
        live.add_edge(*rng.sample(live_ids, 2))
    if join:
        adj, firsts, seen = adj_of(live), [], set()
        for v in live_ids:
            if v not in seen:
                firsts.append(v)
                seen |= oracle_bfs(adj, v).keys()
        for a, b in zip(firsts, firsts[1:]):
            live.add_edge(a, b)
    return live, shadow


# (shadow nodes, shadow components, deleted, live joined, samples)
SAMPLED_CASES = {
    "connected": (120, 1, 12, True, 300),
    "live-disconnected": (120, 1, 12, False, 300),
    "shadow-disconnected": (150, 3, 10, True, 300),
    "repeated-first-nodes": (12, 1, 3, True, 200),
    "over-64-sources": (400, 2, 30, True, 1000),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(SAMPLED_CASES))
def test_sampled_stretch_matches_the_per_source_bfs_sampler(case, seed):
    n, parts, deleted, join, samples = SAMPLED_CASES[case]
    live, shadow = healed_graphs(random.Random(seed), n, parts, deleted, join)
    sdist, sindex = all_pairs_distances(shadow)
    got = stretch_sampled(live, sdist, sindex, samples, random.Random(seed))
    assert got == oracle_stretch_sampled(live, sdist, sindex, samples, random.Random(seed))
    assert got.mode == "sampled"
    assert (got.max_stretch is INF) == (case == "live-disconnected")
    nodes = sorted(live.nodes)
    rng = random.Random(seed)
    firsts = {rng.sample(nodes, 2)[0] for _ in range(samples)}
    if case == "shadow-disconnected":
        assert np.isinf(sdist).any()
    elif case == "repeated-first-nodes":
        assert len(firsts) <= len(nodes) < samples
    elif case == "over-64-sources":
        assert len(firsts) > 64


def one_block_argmax(live_dist, shadow_dist, rows):
    """`stretch_argmax` in one piece, the whole ratio matrix at once: the
    reference for the row-block scan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(live_dist, shadow_dist[rows][:, rows], dtype=np.float64)
    np.fill_diagonal(ratio, 0.0)
    i, j = divmod(int(ratio.argmax()), ratio.shape[1])
    return float(ratio[i, j]), i, j


@pytest.mark.parametrize("seed", range(8))
def test_stretch_argmax_row_blocks_match_one_block(seed, monkeypatch):
    # Hop counts of 1 to 3 tie often, and a fifth of the shadow entries are
    # infinite. The maximum, 9, is planted at (0, n - 1), at (n - 1, 0) and,
    # on odd seeds, at (1, 0): the first in row-major order must win at
    # every block height, whichever blocks hold the others.
    rng = np.random.default_rng(seed)
    n, width = 7 + seed, 11 + seed
    live = rng.integers(1, 4, (n, n)).astype(np.float32)
    shadow = rng.integers(1, 4, (width, width)).astype(np.float32)
    shadow[rng.random((width, width)) < 0.2] = np.inf
    np.fill_diagonal(live, 0.0)
    np.fill_diagonal(shadow, 0.0)
    rows = rng.permutation(width)[:n]
    for i, j in [(0, n - 1), (n - 1, 0), (1, 0)][: 3 if seed % 2 else 2]:
        live[i, j], shadow[rows[i], rows[j]] = 9.0, 1.0
    want = one_block_argmax(live, shadow, rows)
    assert want == (9.0, 0, n - 1)
    all_apart = np.where(np.eye(width, dtype=bool), np.float32(0.0), np.float32(np.inf))
    for height in (1, 2, n - 1, n):
        monkeypatch.setattr(metrics, "STRETCH_BLOCK_BYTES", height * 16 * width)
        assert metrics.stretch_block_height(width) == height
        assert metrics.stretch_argmax(live, shadow, rows) == want
        # No pair joined in the shadow graph: ratio 0 at (0, 0).
        assert metrics.stretch_argmax(live, all_apart, rows) == (0.0, 0, 0)


def make_record(**kw) -> MetricsRecord:
    base = dict(
        t=1,
        op="delete",
        node=3,
        connected=True,
        max_degree_ratio=Fraction(1),
        max_stretch=Fraction(1),
        stretch_mode="exact",
        diameter_live=2,
        diameter_shadow=2,
        messages=4,
        rounds=1,
        max_hops=1,
        edges_added=1,
        edges_dropped=0,
        virtual_count=0,
        shadow_nodes=8,
        live_nodes=7,
    )
    base.update(kw)
    return MetricsRecord(**base)


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s.records == 0
        assert s.hard_degree_violations == 0

    def test_ratio_between_targets(self):
        s = summarize([make_record(max_degree_ratio=Fraction(5, 2))])
        assert s.hard_degree_violations == 0
        assert s.target_degree_violations == 0

    def test_ratio_above_target_below_hard(self):
        s = summarize([make_record(max_degree_ratio=Fraction(7, 2))])
        assert s.hard_degree_violations == 0
        assert s.target_degree_violations == 1

    def test_hard_violations_counted(self):
        s = summarize(
            [
                make_record(max_degree_ratio=Fraction(5)),
                make_record(connected=False),
                make_record(max_stretch=Fraction(99), shadow_nodes=8),
            ]
        )
        assert s.hard_degree_violations == 1
        assert s.disconnects == 1
        assert s.hard_stretch_violations == 1
        assert len(s.violations) == 3

    def test_internal_consistency_diameters(self):
        # exact mode: diameter_live <= max_stretch * diameter_shadow
        state = run(
            RunConfig(
                initial=path_graph(10),
                strategy=StrategySpec(kind="scripted", events=(Event(op="delete", node=5),)),
                t_max=1,
            )
        )
        r = state.records[0]
        assert r.stretch_mode == "exact"
        assert r.diameter_live <= float(r.max_stretch) * r.diameter_shadow


class TestCsv:
    def test_round_trip_bytes(self):
        records = [
            make_record(),
            make_record(t=2, op="insert", node=9, max_stretch=INF, diameter_live=INF),
            make_record(t=3, max_stretch=None, stretch_mode="skipped", diameter_live=None),
        ]
        text = records_to_csv(records)
        rows = parse_csv(text)
        assert len(rows) == 3
        assert rows[1]["max_stretch"] == "inf"
        assert rows[2]["max_stretch"] == "na"
        # re-serialization of parsed rows is identical
        lines = [",".join(r[c] for c in text.splitlines()[0].split(",")) for r in rows]
        assert "\n".join([text.splitlines()[0]] + lines) + "\n" == text

    def test_corrupt_rejected(self):
        with pytest.raises(ValueError):
            parse_csv("not,a,header\n")
        good = records_to_csv([make_record()])
        with pytest.raises(ValueError):
            parse_csv(good + "1,2,3\n")

    def test_format_number(self):
        assert format_number(Fraction(1, 2)) == "0.5"
        assert format_number(INF) == "inf"
        assert format_number(None) == "na"
        assert format_number(7) == "7"
        assert format_number(True) == "true"
        assert format_number(False) == "false"
