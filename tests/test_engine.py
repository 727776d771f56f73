"""Engine loop: shadow maintenance, replay equivalence, determinism, and the
per-event measurement against its full-scan oracles."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import numpy as np
import pytest

from selfheal import engine, metrics
from selfheal.adversary import Event, StrategySpec, next_event
from selfheal.engine import (
    DistanceOracle,
    InternalError,
    InvalidEventError,
    LiveMeasure,
    RunConfig,
    run,
    start,
    step,
)
from selfheal.families import erdos_renyi, make_family, path_graph, random_tree, star_graph
from selfheal.graph import Graph, UnknownNodeError
from selfheal.healers import HEALER_NAMES, make_healer
from selfheal.metrics import (
    ZeroShadowDegreeError,
    all_pairs_distances,
    degree_ratio_max,
    diameter_from,
    stretch_argmax,
    stretch_max,
)
from selfheal.virtual_graph import is_real, node_id

from conftest import INF, adj_of, oracle_apsp_bfs, oracle_bfs


def triangle() -> Graph:
    return Graph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])


def scripted(events, initial, healer="haft", **kw):
    return RunConfig(
        initial=initial,
        healer=healer,
        strategy=StrategySpec(kind="scripted", events=tuple(events)),
        t_max=len(events),
        **kw,
    )


def hops(oracle: DistanceOracle, u: int, v: int) -> float:
    """The distance between u and v, read from the oracle's matrix."""
    dist, index = oracle.matrix()
    return float(dist[index[u], index[v]])


class TestRun:
    def test_t_zero_snapshot_only(self):
        state = run(RunConfig(initial=triangle(), t_max=0))
        assert state.records == []
        assert state.initial_record is not None
        assert state.initial_record.t == 0
        assert state.initial_record.connected

    def test_triangle_single_delete(self):
        state = run(scripted([Event(op="delete", node=2)], triangle()))
        live = state.live_graph()
        assert set(live.edges()) == {(0, 1)}
        assert state.records[-1].connected

    def test_deterministic_records(self):
        def once():
            cfg = RunConfig(
                initial=random_tree(12, random.Random(3)),
                strategy=StrategySpec(kind="mixed", p_delete=0.6, seed=4),
                t_max=30,
                seed=9,
            )
            return run(cfg).records

        assert once() == once()

    def test_annihilation_ends_early(self):
        cfg = RunConfig(
            initial=path_graph(3),
            strategy=StrategySpec(kind="max-degree"),
            t_max=50,
        )
        state = run(cfg)
        assert state.status == "annihilated"
        assert len(state.records) == 3
        assert state.live_count == 0

    def test_exhausted_status(self):
        cfg = scripted([Event(op="delete", node=1)], path_graph(3))
        cfg.t_max = 10
        state = run(cfg)
        assert state.status == "exhausted"
        assert len(state.records) == 1

    def test_disconnected_initial_warns(self):
        g = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        state = run(RunConfig(initial=g, t_max=0))
        assert state.warnings


class TestStep:
    def test_insert_updates_shadow_and_live(self):
        state = start(RunConfig(initial=Graph(nodes=[0, 1], edges=[(0, 1)]), t_max=0))
        step(state, Event(op="insert", node=2, neighbors=(0,)))
        assert state.shadow.has_edge(2, 0)
        assert state.live_graph().has_edge(2, 0)
        assert state.records[-1].op == "insert"

    def test_delete_marks_but_keeps_shadow(self):
        state = start(RunConfig(initial=triangle(), t_max=0))
        step(state, Event(op="delete", node=1))
        assert state.shadow.has_node(1)
        assert state.shadow.has_edge(0, 1)
        assert 1 in state.deleted
        assert not state.live_graph().has_node(1)

    def test_shadow_distance_through_deleted(self):
        state = start(RunConfig(initial=path_graph(3), t_max=0))
        step(state, Event(op="delete", node=1))
        assert hops(state.oracle, 0, 2) == 2

    def test_shadow_distance_identity_and_unknown(self):
        state = start(RunConfig(initial=path_graph(2), t_max=0))
        assert hops(state.oracle, 0, 0) == 0
        assert 9 not in state.oracle.matrix()[1]

    def test_shadow_distance_unjoined_components(self):
        g = Graph(nodes=[0, 1], edges=[])
        state = start(RunConfig(initial=g, t_max=0))
        assert hops(state.oracle, 0, 1) == INF

    def test_invalid_event_rejected(self):
        state = start(RunConfig(initial=path_graph(2), t_max=0))
        with pytest.raises(InvalidEventError):
            step(state, Event(op="delete", node=77))
        with pytest.raises(InvalidEventError):
            step(state, Event(op="insert", node=0, neighbors=(1,)))  # id reuse


def contents_of(g: Graph) -> tuple[list, dict[int, set[int]]]:
    """The edge list and a copy of every neighbour set of `g`."""
    return list(g.edges()), {v: set(nbrs) for v, nbrs in g._adj.items()}


class TestCallersGraph:
    """The shadow graph shares the initial graph's neighbour sets until an
    insert touches one, and no run writes to the caller's graph."""

    @pytest.mark.parametrize("kind", ["mixed", "random"])
    @pytest.mark.parametrize("healer", HEALER_NAMES)
    def test_a_run_leaves_the_initial_graph_as_it_was(self, healer, kind):
        for seed in range(3):
            config = live_config(healer, kind, random_tree(30, random.Random(seed)), seed)
            before = contents_of(config.initial)
            state = run(config)
            assert any(e.op == "insert" for e in state.events)
            assert contents_of(config.initial) == before

    def test_inserts_at_one_initial_node_copy_only_its_set(self):
        initial = path_graph(5)
        before = contents_of(initial)
        events = [
            Event(op="insert", node=10, neighbors=(2,)),
            Event(op="insert", node=11, neighbors=(2, 10)),
            Event(op="insert", node=12, neighbors=(11, 2)),
        ]
        config = scripted(events, initial, exact_apsp_cap=64, stretch_samples=0)
        state = run(config)
        assert contents_of(initial) == before
        assert state.shadow.neighbors(2) == {1, 3, 10, 11, 12}
        shared = {v for v in initial._adj if state.shadow._adj[v] is initial._adj[v]}
        assert shared == {0, 1, 3, 4}
        # A second run from the same graph starts from it unchanged.
        assert run(config).records == state.records

    def test_a_delete_only_run_copies_no_set(self):
        config = live_config("haft", "clustered", random_tree(60, random.Random(1)), 1)
        state = run(config)
        assert len(state.events) == config.t_max
        assert all(e.op == "delete" for e in state.events)
        assert state.shadow._adj.keys() == config.initial._adj.keys()
        assert all(state.shadow._adj[v] is nbrs for v, nbrs in config.initial._adj.items())


class TestInvariants:
    def test_replay_equivalence(self):
        cfg = RunConfig(
            initial=random_tree(14, random.Random(0)),
            strategy=StrategySpec(kind="mixed", p_delete=0.6, seed=2),
            t_max=25,
            seed=5,
        )
        full = run(cfg)

        manual = start(cfg)
        while len(manual.records) < len(full.records):
            event = next_event(
                cfg.strategy, manual.live_graph(), manual.shadow, manual.adversary
            )
            assert event is not None
            step(manual, event)
        assert manual.records == full.records

    def test_shadow_monotone_and_live_subset(self):
        cfg = RunConfig(
            initial=random_tree(16, random.Random(1)),
            strategy=StrategySpec(kind="mixed", p_delete=0.5, seed=1),
            t_max=40,
            seed=1,
        )
        state = start(cfg)
        healed: set = set()
        prev_nodes, prev_edges = set(state.shadow.nodes), set(state.shadow.edges())
        for _ in range(cfg.t_max):
            event = next_event(cfg.strategy, state.live_graph(), state.shadow, state.adversary)
            if event is None:
                break
            before = set(state.live_graph().edges())
            if event.op == "insert":
                before |= {
                    (min(event.node, w), max(event.node, w)) for w in event.neighbors
                }
            step(state, event)
            nodes, edges = set(state.shadow.nodes), set(state.shadow.edges())
            assert prev_nodes <= nodes and prev_edges <= edges
            prev_nodes, prev_edges = nodes, edges
            after = set(state.live_graph().edges())
            healed |= after - before - edges
            # every live edge not added by healing exists in the shadow graph
            for e in after:
                assert e in edges or e in healed
            if state.live_count == 0:
                break

    def test_live_count_matches_shadow_minus_deleted(self):
        cfg = RunConfig(
            initial=random_tree(10, random.Random(2)),
            strategy=StrategySpec(kind="mixed", p_delete=0.5, seed=3),
            t_max=20,
            seed=3,
        )
        state = run(cfg)
        assert state.live_count == state.live_graph().node_count


# -- the incremental shadow oracle against a per-source BFS -----------------


def assert_oracle_matches(oracle: DistanceOracle, shadow: Graph) -> None:
    """Every (u, v) entry and the diameter, each side read through its index,
    against one breadth-first search per source: the matrix's own builds
    and rebuilds run `all_pairs_distances`, so that is no oracle for it.
    The oracle's row -> node list inverts its index."""
    dist, index = oracle.matrix()
    fresh, fresh_index = oracle_apsp_bfs(adj_of(shadow))
    assert set(index) == set(fresh_index) == set(shadow.nodes)
    assert dist.shape == fresh.shape
    assert len(oracle.nodes) == len(index)
    assert all(oracle.nodes[i] == v for v, i in index.items())
    nodes = sorted(index)
    rows = [index[v] for v in nodes]
    fresh_rows = [fresh_index[v] for v in nodes]
    np.testing.assert_array_equal(dist[np.ix_(rows, rows)], fresh[np.ix_(fresh_rows, fresh_rows)])
    assert oracle.diameter() == diameter_from(fresh)


@pytest.fixture
def apsp_builds(monkeypatch):
    """Count the full all-pairs builds the engine makes."""
    calls = []

    def counted(g):
        calls.append(g.node_count)
        return all_pairs_distances(g)

    monkeypatch.setattr(engine, "all_pairs_distances", counted)
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_incremental_oracle_matches_fresh_apsp(seed, apsp_builds):
    rng = random.Random(seed)
    # Sparse ER graphs start disconnected, so INF entries get bridged too.
    if seed % 2:
        shadow = erdos_renyi(12, 0.1, rng)
    else:
        shadow = random_tree(12, rng)
    oracle = DistanceOracle(shadow)
    assert_oracle_matches(oracle, shadow)
    used = set(shadow.nodes)
    for _ in range(20):
        # Fresh ids both below and above the current maximum: picks past
        # max + 1 leave gaps that later picks fill.
        v = rng.choice([x for x in range(max(used) + 6) if x not in used])
        used.add(v)
        neighbors = rng.sample(sorted(shadow.nodes), rng.randint(1, min(3, shadow.node_count)))
        shadow.add_node(v)
        for w in neighbors:
            shadow.add_edge(v, w)
        oracle.insert(v, neighbors)
        assert_oracle_matches(oracle, shadow)
    assert apsp_builds == [12]


def test_oracle_is_lazy_until_the_first_read(apsp_builds):
    shadow = path_graph(4)
    oracle = DistanceOracle(shadow)
    for v, w in ((10, 3), (7, 10)):
        shadow.add_node(v)
        shadow.add_edge(v, w)
        oracle.insert(v, [w])
    assert apsp_builds == []
    assert hops(oracle, 0, 7) == 5
    assert oracle.diameter() == 5
    assert apsp_builds == [6]


def mixed_config(**kw) -> RunConfig:
    return RunConfig(
        initial=random_tree(24, random.Random(4)),
        strategy=StrategySpec(kind="mixed", p_delete=0.5, seed=6),
        t_max=60,
        seed=6,
        **kw,
    )


def test_oracle_matches_fresh_apsp_after_every_engine_step(apsp_builds):
    inserts = []

    def check(state):
        if state.events:
            inserts.append(state.events[-1].op == "insert")
        assert_oracle_matches(state.oracle, state.shadow)

    state = run(mixed_config(), on_step=check)
    assert state.status == "ok" and sum(inserts) >= 10
    assert apsp_builds == [24]


def test_oracle_first_built_when_live_count_crosses_the_cap(apsp_builds):
    # Stretch is measured only once at most 16 nodes are live, so the matrix
    # is first built mid-run, over a shadow graph that earlier inserts grew.
    built_at = []

    def check(state):
        if apsp_builds and not built_at:
            built_at.append(state.t)
        if apsp_builds:
            assert_oracle_matches(state.oracle, state.shadow)

    config = mixed_config(exact_apsp_cap=16, stretch_samples=0)
    config.strategy = StrategySpec(kind="mixed", p_delete=0.7, seed=6)
    state = run(config, on_step=check)
    (t_built,) = built_at
    ops = [e.op for e in state.events]
    assert "insert" in ops[: t_built - 1] and "insert" in ops[t_built:]
    assert len(apsp_builds) == 1 and apsp_builds[0] > 24
    modes = [r.stretch_mode for r in state.records]
    assert modes[: t_built - 1] == ["skipped"] * (t_built - 1)
    assert modes[t_built - 1] == "exact"


def test_stretch_off_run_never_builds_the_oracle(apsp_builds):
    state = run(mixed_config(exact_apsp_cap=0, stretch_samples=0))
    assert state.status == "ok" and any(e.op == "insert" for e in state.events)
    assert apsp_builds == []
    assert all(r.diameter_shadow is None for r in state.records)


def test_stretch_off_skips_the_annihilating_step(apsp_builds):
    # The last deletion leaves no live node; stretch off still skips it.
    config = RunConfig(
        initial=path_graph(3),
        strategy=StrategySpec(kind="max-degree"),
        t_max=50,
        exact_apsp_cap=0,
        stretch_samples=0,
    )
    state = run(config)
    assert state.status == "annihilated" and len(state.records) == 3
    for record in [state.initial_record, *state.records]:
        assert record.stretch_mode == "skipped" and record.diameter_shadow is None
    assert apsp_builds == []


# A star on 0..4 with the tail 4-5-6, deleted down to one node, joined by an
# insert and deleted to none: the live count runs 7, 6, ..., 1, 2, 1, 0.
CELL_EVENTS = tuple(
    [Event(op="delete", node=v) for v in (0, 5, 2, 3, 6, 1)]
    + [Event(op="insert", node=10, neighbors=(4,))]
    + [Event(op="delete", node=v) for v in (4, 10)]
)
# Per (exact_apsp_cap, stretch_samples), each record's live count,
# stretch_mode, max_stretch, diameter_live and diameter_shadow, t = 0 first,
# as `metrics.csv` writes them. Cap 4 puts 7, 6 and 5 live nodes above the
# cap and 4, 3 and 2 within it; one live node and none are exact 1 unless
# stretch is off.
CELL_RECORDS = {
    (0, 0): [f"{n} skipped na na na" for n in (7, 6, 5, 4, 3, 2, 1, 2, 1, 0)],
    (0, 6): [
        "7 sampled 1.0 4 4",
        "6 sampled 1.3333333333333333 5 4",
        "5 sampled 1.5 4 4",
        "4 sampled 1.0 2 4",
        "3 sampled 1.0 2 4",
        "2 sampled 1.0 1 4",
        "1 exact 1.0 0 4",
        "2 sampled 1.0 1 4",
        "1 exact 1.0 0 4",
        "0 exact 1.0 0 4",
    ],
    (4, 0): [
        "7 skipped na na na",
        "6 skipped na na na",
        "5 skipped na na na",
        "4 exact 1.0 2 4",
        "3 exact 0.5 2 4",
        "2 exact 0.5 1 4",
        "1 exact 1.0 0 4",
        "2 exact 1.0 1 4",
        "1 exact 1.0 0 4",
        "0 exact 1.0 0 4",
    ],
    (4, 6): [
        "7 sampled 1.0 4 4",
        "6 sampled 1.3333333333333333 5 4",
        "5 sampled 1.5 4 4",
        "4 exact 1.0 2 4",
        "3 exact 0.5 2 4",
        "2 exact 0.5 1 4",
        "1 exact 1.0 0 4",
        "2 exact 1.0 1 4",
        "1 exact 1.0 0 4",
        "0 exact 1.0 0 4",
    ],
}


@pytest.mark.parametrize(("cap", "samples"), sorted(CELL_RECORDS))
def test_every_stretch_mode_cell(cap, samples):
    initial = Graph(nodes=range(7), edges=[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)])
    config = scripted(CELL_EVENTS, initial, seed=3, exact_apsp_cap=cap, stretch_samples=samples)
    state = run(config)
    assert state.status == "annihilated"
    fields = ("live_nodes", "stretch_mode", "max_stretch", "diameter_live", "diameter_shadow")
    records = [state.initial_record, *state.records]
    got = [" ".join(metrics.format_number(getattr(r, f)) for f in fields) for r in records]
    assert got == CELL_RECORDS[(cap, samples)]


# -- the maintained live distances against a per-source BFS ---------------------


def latest_record(state):
    """The last step's record; at t = 0, the started state's."""
    return state.records[-1] if state.records else state.initial_record


def assert_live_oracle_matches(state) -> None:
    """The engine keeps live distances exactly on the steps that measure
    exact stretch, and they match a per-source BFS entry by entry. The
    shared audit (`engine.audit`) finds nothing: its checks include the
    step's maximum stretch, kept from the entries that changed, and its
    diameters against fresh builds of both graphs. The kept pair attains
    that maximum, by a BFS in each graph."""
    live = state.live_graph()
    exact = 1 < live.node_count <= state.config.exact_apsp_cap
    assert (state.live_oracle is not None) == exact
    assert engine.audit(state) == []
    if exact:
        assert_oracle_matches(state.live_oracle, live)
        record = latest_record(state)
        best = state.live_oracle._best
        if record.max_stretch != INF and best[1] is not None:
            u, w = best[1:]
            live_hops = oracle_bfs(adj_of(live), u)[w]
            shadow_hops = oracle_bfs(adj_of(state.shadow), u)[w]
            assert Fraction(live_hops, shadow_hops) == record.max_stretch


def live_config(healer, kind, initial, seed) -> RunConfig:
    return RunConfig(
        initial=initial,
        healer=healer,
        strategy=StrategySpec(kind=kind, p_delete=0.6, seed=seed),
        t_max=40,
        seed=seed,
        exact_apsp_cap=256,
        stretch_samples=0,
    )


@pytest.mark.parametrize("family", ["tree", "er"])
@pytest.mark.parametrize("kind", ["mixed", "random"])
@pytest.mark.parametrize("healer", HEALER_NAMES)
def test_live_oracle_matches_fresh_apsp_after_every_step(healer, kind, family, apsp_builds):
    # Sparse ER graphs start disconnected, so INF entries are kept too.
    for seed in range(3):
        rng = random.Random(seed)
        initial = random_tree(30, rng) if family == "tree" else erdos_renyi(30, 0.1, rng)
        state = run(live_config(healer, kind, initial, seed), on_step=assert_live_oracle_matches)
        assert len(state.records) > 20
    # Live builds do not go through the engine's (shadow) APSP.
    assert apsp_builds == [30] * 3


@pytest.mark.parametrize("seed", range(6))
def test_live_oracle_follows_null_runs_apart_and_together(seed):
    # Holes left open disconnect the live graph; inserts may join it again.
    seen = []

    def check(state):
        assert_live_oracle_matches(state)
        seen.append(latest_record(state).max_stretch)

    config = live_config("null", "mixed", random_tree(24, random.Random(seed)), seed)
    config.strategy = StrategySpec(kind="mixed", p_delete=0.5, insert_degree=3, seed=seed)
    run(config, on_step=check)
    assert any(a == INF != b for a, b in zip(seen, seen[1:]))


def test_live_oracle_dropped_at_one_live_node_and_rebuilt():
    # On the path 0-1-2, two deletions leave one live node and drop the
    # matrix; the next insert brings two back and a fresh build, which the
    # later events then update.
    events = [
        Event(op="delete", node=0),
        Event(op="delete", node=1),
        Event(op="insert", node=3, neighbors=(2,)),
        Event(op="insert", node=4, neighbors=(2, 3)),
        Event(op="delete", node=2),
        Event(op="insert", node=5, neighbors=(3, 4)),
    ]
    oracles = []
    state = start(scripted(events, path_graph(3), exact_apsp_cap=8, stretch_samples=0))
    for event in events:
        step(state, event)
        assert_live_oracle_matches(state)
        oracles.append(state.live_oracle)
    assert [x is None for x in oracles] == [False, True, False, False, False, False]
    assert oracles[2] is oracles[5]
    assert [r.stretch_mode for r in state.records] == ["exact"] * 6


@pytest.fixture
def live_loads(monkeypatch):
    """Count the full builds of live oracles (`DistanceOracle._load` on an
    oracle given a shadow), by live node count."""
    calls = []
    load = DistanceOracle._load

    def counted(self):
        if self.shadow is not None:
            calls.append(self._graph.node_count)
        load(self)

    monkeypatch.setattr(DistanceOracle, "_load", counted)
    return calls


def test_live_oracle_crosses_the_cap_both_ways(live_loads):
    # 40 live nodes under a cap of 38: mixed churn moves the live count
    # across it several times, and the matrix is dropped and rebuilt. Each
    # return under the cap follows a deletion, so it is a full build, not
    # a copy of the shadow matrix.
    config = live_config("haft", "mixed", random_tree(40, random.Random(7)), 7)
    config.exact_apsp_cap, config.stretch_samples, config.t_max = 38, 100, 60
    config.strategy = StrategySpec(kind="mixed", p_delete=0.5, seed=7)
    oracles, loads = [], []

    def check(state):
        assert_live_oracle_matches(state)
        oracles.append(state.live_oracle)
        loads.append(len(live_loads))

    state = run(config, on_step=check)
    modes = [r.stretch_mode for r in state.records]
    assert "sampled" in modes and "exact" in modes
    rebuilt = [t for t, (a, b) in enumerate(zip(oracles, oracles[1:])) if a is None and b]
    dropped = [a for a, b in zip(oracles, oracles[1:]) if a is not None and b is None]
    assert len(rebuilt) >= 2 and len(dropped) >= 2
    assert all(loads[t + 1] > loads[t] for t in rebuilt)


def test_live_oracle_starts_from_a_copy_of_the_shadow_matrix(
    apsp_builds, live_loads, full_scans
):
    # Until the first deletion the live graph is the shadow graph, so the
    # t = 0 measurement copies the shadow matrix instead of building its
    # own, and knows its stretch, 1, without a full scan. The copy shares
    # no memory with the shadow matrix: the insert and the deletion that
    # follow update the two apart, and both stay exact.
    events = [Event(op="insert", node=20, neighbors=(0, 7)), Event(op="delete", node=3)]
    initial = random_tree(12, random.Random(5))
    state = start(scripted(events, initial, exact_apsp_cap=64, stretch_samples=0))
    live, shadow = state.live_oracle, state.oracle
    assert apsp_builds == [12] and live_loads == [] and full_scans == []
    assert state.initial_record.max_stretch == 1
    assert not np.shares_memory(live._buf, shadow._buf)
    assert live.nodes == shadow.nodes and live.nodes is not shadow.nodes
    assert live._index == shadow._index and live._index is not shadow._index
    assert live._srow.tolist() == list(range(12))
    assert engine.audit(state) == []
    for event in events:
        step(state, event)
        assert state.live_oracle is live
        assert_live_oracle_matches(state)
    assert apsp_builds == [12] and live_loads in ([], [12])


@pytest.mark.parametrize("seed", range(8))
def test_live_oracle_updates_match_fresh_apsp(seed):
    # Random inserts, edge additions and removals with added and dropped
    # edges, straight on the class. Inserts go to a shadow graph too, and
    # the maximum stretch is read after a random run of updates.
    rng = random.Random(seed)
    g = erdos_renyi(40, 0.06, rng) if seed % 2 else random_tree(40, rng)
    shadow = g.copy()
    oracle = DistanceOracle(g, shadow=DistanceOracle(shadow))
    assert_oracle_matches(oracle, g)
    used = set(g.nodes)
    for _ in range(60):
        nodes = sorted(g.nodes)
        op = rng.choice(["insert", "add", "remove", "remove"]) if len(nodes) > 4 else "insert"
        if op == "insert":
            # Fresh ids below and above the current maximum, so that rows
            # arrive out of id order too.
            v = rng.choice([x for x in range(max(used) + 6) if x not in used])
            used.add(v)
            nbrs = rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
            for h in (g, shadow):
                h.add_node(v)
                for w in nbrs:
                    h.add_edge(v, w)
            oracle.shadow.insert(v, nbrs)
            oracle.insert(v, nbrs)
        elif op == "add":
            a, b = rng.sample(nodes, 2)
            if not g.has_edge(a, b):
                g.add_edge(a, b)
                oracle.add_edge(a, b)
        else:
            v = rng.choice(nodes)
            g.remove_node(v)
            rest = sorted(g.nodes)
            added = {tuple(sorted(rng.sample(rest, 2))) for _ in range(rng.randint(0, 2))}
            added = {e for e in added if not g.has_edge(*e)}
            existing = sorted(g.edges())
            dropped = set(rng.sample(existing, min(len(existing), rng.randint(0, 2))))
            for e in added:
                g.add_edge(*e)
            for e in dropped - added:
                g.remove_edge(*e)
            oracle.remove(v, added, dropped - added)
        assert_oracle_matches(oracle, g)
        if rng.random() < 0.4:
            kept = oracle.stretch()
            fresh = stretch_max(g, *all_pairs_distances(shadow))
            assert (kept.max_stretch, kept.mode, kept.diameter_live) == (
                fresh.max_stretch,
                fresh.mode,
                fresh.diameter_live,
            )
            if kept.argmax_pair is not None:
                # Ties may pick another pair, so its ratio is what must match.
                u, w = kept.argmax_pair
                hops = Fraction(oracle_bfs(adj_of(g), u)[w], oracle_bfs(adj_of(shadow), u)[w])
                assert hops == kept.max_stretch


@pytest.mark.parametrize(
    "edges, v, added, dropped, rebuilds",
    [
        # A leaf lies on no shortest path between two other nodes.
        pytest.param([(0, 1), (1, 2), (2, 3)], 3, [], [], False, id="leaf"),
        # The path 3-1-0-2-4 without 0, bridged by 1-2: every pair that went
        # through 0 is now nearer.
        pytest.param([(3, 1), (1, 0), (0, 2), (2, 4)], 0, [(1, 2)], [], False, id="shortcut"),
        # The triangle 0-1-2 without 0, beside the edge 3-4, which never
        # reached 0: its unreachable pairs are no path through 0.
        pytest.param([(0, 1), (1, 2), (2, 0), (3, 4)], 0, [], [], False, id="apart"),
        pytest.param([(0, 1), (1, 2), (2, 3)], 3, [], [(0, 1)], True, id="dropped-edge"),
        # The path 0-1-2 without 1: the pair (0, 2) went through it.
        pytest.param([(0, 1), (1, 2)], 1, [], [], True, id="tight-pair"),
        # The 4-cycle 0-1-2-3-0 without 0: (1, 3) had two shortest paths,
        # and the one through 2 remains.
        pytest.param([(0, 1), (1, 2), (2, 3), (3, 0)], 0, [], [], False, id="tie"),
        # 1-0-2 beside the detour 1-3-4-2, without 0: (1, 2) grows to 3.
        pytest.param(
            [(1, 0), (0, 2), (1, 3), (3, 4), (4, 2)], 0, [], [], True, id="detour-3"
        ),
        # The star on 0 without 0, its leaves joined 1-2-3: (1, 3) now
        # share 2, a neighbour the repair added.
        pytest.param(
            [(0, 1), (0, 2), (0, 3)], 0, [(1, 2), (2, 3)], [], False,
            id="added-common-neighbour",
        ),
    ],
)
def test_live_oracle_rebuilds_only_when_a_distance_can_grow(
    edges, v, added, dropped, rebuilds, apsp_builds
):
    g = Graph(nodes={x for e in edges for x in e}, edges=edges)
    oracle = DistanceOracle(g)
    oracle.matrix()
    g.remove_node(v)
    for e in added:
        g.add_edge(*e)
    for e in dropped:
        g.remove_edge(*e)
    oracle.remove(v, added, dropped)
    assert len(apsp_builds) == 1 + rebuilds
    assert_oracle_matches(oracle, g)


@pytest.mark.parametrize("seed", range(8))
def test_live_oracle_rebuilds_iff_a_bfs_distance_grew(seed, apsp_builds):
    # Each deletion is repaired much as haft repairs one: new edges among
    # v's former neighbours, most of a tree over them, and now and then a
    # dropped edge elsewhere. Whether any distance grew is read off one BFS per source
    # before and after.
    rng = random.Random(seed)
    g = erdos_renyi(36, 0.1, rng) if seed % 2 else random_tree(36, rng)
    oracle = DistanceOracle(g)
    oracle.matrix()
    while g.node_count > 2:
        before, index = oracle_apsp_bfs(adj_of(g))
        v = rng.choice(sorted(g.nodes))
        orphans = sorted(g.neighbors(v))
        rng.shuffle(orphans)
        g.remove_node(v)
        added = set()
        for k in range(1, len(orphans)):
            e = tuple(sorted((orphans[k], rng.choice(orphans[:k]))))
            if rng.random() < 0.9 and not g.has_edge(*e):
                added.add(e)
        existing = sorted(g.edges())
        dropped = {rng.choice(existing)} if existing and rng.random() < 0.15 else set()
        for e in added:
            g.add_edge(*e)
        for e in dropped:
            g.remove_edge(*e)
        builds = len(apsp_builds)
        oracle.remove(v, added, dropped)
        after, _ = oracle_apsp_bfs(adj_of(g))
        rows = [index[x] for x in sorted(g.nodes)]
        grew = bool((after > before[np.ix_(rows, rows)]).any())
        assert len(apsp_builds) - builds == grew
        assert_oracle_matches(oracle, g)


def test_stretch_over_rows_out_of_id_order_matches_a_fresh_build():
    # The shadow graph is the path 0-2-4-6-8-10 closed into a cycle by 1,
    # which is deleted. Then 5 joins 2 and 8, below the maximum id; 4, a
    # middle row, leaves with 2-6 added; 10, the last row, leaves. No step
    # rebuilds the live matrix, so its rows stay in arrival order.
    path = [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    shadow = Graph(nodes=[0, 1, 2, 4, 6, 8, 10], edges=path + [(0, 1), (1, 10)])
    live = shadow.copy()
    live.remove_node(1)
    builds = []

    def build(g):
        builds.append(g.node_count)
        return all_pairs_distances(g)

    shadow_oracle = DistanceOracle(shadow)
    oracle = DistanceOracle(live, build, shadow_oracle)
    oracle.matrix()
    orders, stretches = [], []
    script = [("insert", 5, [(5, 2), (5, 8)]), ("delete", 4, [(2, 6)]), ("delete", 10, [])]
    for op, v, edges in script:
        if op == "insert":
            shadow.add_node(v)
            live.add_node(v)
            for e in edges:
                shadow.add_edge(*e)
                live.add_edge(*e)
            shadow_oracle.insert(v, [w for _, w in edges])
            oracle.insert(v, [w for _, w in edges])
        else:
            live.remove_node(v)
            for e in edges:
                live.add_edge(*e)
            oracle.remove(v, edges, ())
        assert_oracle_matches(oracle, live)
        # The maximum the oracle keeps, read through the shadow row of each
        # live row.
        held = oracle.stretch()
        fresh = stretch_max(live, *all_pairs_distances(shadow))
        assert (held.max_stretch, held.mode, held.diameter_live) == (
            fresh.max_stretch,
            fresh.mode,
            fresh.diameter_live,
        )
        # The pair reported has the maximum stretch, read by BFS.
        u, w = held.argmax_pair
        hops = Fraction(oracle_bfs(adj_of(live), u)[w], oracle_bfs(adj_of(shadow), u)[w])
        assert hops == held.max_stretch
        orders.append(list(oracle.nodes))
        stretches.append(fresh.max_stretch)
    assert builds == [6]
    assert orders == [[0, 2, 4, 6, 8, 10, 5], [0, 2, 5, 6, 8, 10], [0, 2, 5, 6, 8]]
    assert stretches[0] > 1


@pytest.fixture
def full_scans(monkeypatch):
    """Count the full scans for the maximum stretch."""
    calls = []

    def counted(live_dist, shadow_dist, rows):
        calls.append(live_dist.shape[0])
        return stretch_argmax(live_dist, shadow_dist, rows)

    monkeypatch.setattr(metrics, "stretch_argmax", counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_full_stretch_scans_in_row_blocks_match_one_block(seed, monkeypatch):
    # Both full scans, a live oracle's first `stretch` read and
    # `metrics.stretch_exact` (`engine.audit`'s), give the same maximum and
    # pair at every block height. The shadow graph is a sparse ER graph, so
    # some pairs are never joined in it; the live graph is what is left
    # after four deletions, its components chained by one edge each.
    rng = random.Random(seed)
    shadow = erdos_renyi(24, 0.1, rng)
    live = shadow.copy()
    for v in rng.sample(sorted(live.nodes), 4):
        live.remove_node(v)
    ends, left = [], set(live.nodes)
    while left:
        ends.append(rng.choice(sorted(left)))
        left -= oracle_bfs(adj_of(live), ends[-1]).keys()
    for a, b in zip(ends, ends[1:]):
        live.add_edge(a, b)
    assert np.isinf(all_pairs_distances(shadow)[0]).any()

    def scans():
        held = DistanceOracle(live, shadow=DistanceOracle(shadow)).stretch()
        fresh = metrics.stretch_exact(all_pairs_distances(live), *all_pairs_distances(shadow))
        return (held.max_stretch, held.argmax_pair), (fresh.max_stretch, fresh.argmax_pair)

    one_block = scans()
    assert one_block[0] == one_block[1] and one_block[0][0] > 1
    n = live.node_count
    for height in (1, 2, n - 1, n):
        monkeypatch.setattr(metrics, "STRETCH_BLOCK_BYTES", height * 16 * shadow.node_count)
        assert metrics.stretch_block_height(shadow.node_count) == height
        assert scans() == one_block


def kept_stretch(oracle: DistanceOracle, live: Graph, shadow: Graph, full_scans) -> tuple:
    """The maximum stretch a live oracle keeps, checked against a scan over
    fresh builds of both graphs, and the full scans it made for it."""
    before = len(full_scans)
    kept = oracle.stretch()
    scans = len(full_scans) - before
    fresh = stretch_max(live, *all_pairs_distances(shadow))
    assert (kept.max_stretch, kept.diameter_live) == (fresh.max_stretch, fresh.diameter_live)
    return kept.max_stretch, scans


def test_kept_stretch_of_a_stored_pair_whose_shadow_distance_fell(full_scans):
    # The shadow path 0-1-2-3 with 1 and 2 deleted, and a repair's edge 0-3:
    # the stored pair (0, 3) has ratio 1/3. Node 4 joins 0 and 3, and the
    # pair's shadow distance falls to 2, so its ratio rises to 1/2. The
    # row of 4, the only block written, reaches 1, which stands unscanned.
    shadow, live = path_graph(4), Graph(nodes=[0, 3], edges=[(0, 3)])
    oracle = DistanceOracle(live, shadow=DistanceOracle(shadow))
    assert kept_stretch(oracle, live, shadow, full_scans) == (Fraction(1, 3), 1)
    assert oracle._best[1:] == (0, 3)
    for g in (shadow, live):
        g.add_node(4)
        g.add_edge(4, 0)
        g.add_edge(4, 3)
    oracle.shadow.insert(4, [0, 3])
    oracle.insert(4, [0, 3])
    assert hops(oracle.shadow, 0, 3) == 2 and hops(oracle, 0, 3) == 1
    assert kept_stretch(oracle, live, shadow, full_scans) == (1, 0)


def test_kept_stretch_scans_in_full_when_no_written_entry_reaches_it(full_scans):
    # The cycle 0-1-2-4-0 with a leaf 3 on 0, and 1 deleted: the live graph
    # is the path 3-0-4-2, and the stored pair (0, 2) has ratio 2/2. Node 4
    # leaves and the repair joins 0-2: the pair's ratio falls to 1/2, and
    # the block written reaches 2/3 at (3, 2). Only a full scan finds the
    # maximum, 1 at (0, 3), which no update touched.
    shadow = Graph(nodes=range(5), edges=[(0, 1), (1, 2), (2, 4), (4, 0), (0, 3)])
    live = Graph(nodes=[0, 2, 3, 4], edges=[(3, 0), (0, 4), (4, 2)])
    oracle = DistanceOracle(live, shadow=DistanceOracle(shadow))
    assert kept_stretch(oracle, live, shadow, full_scans) == (1, 1)
    assert oracle._best[1:] == (0, 2)
    live.remove_node(4)
    live.add_edge(0, 2)
    oracle.remove(4, [(0, 2)], ())
    assert oracle.changed and oracle._changed_max(oracle.changed, oracle.shadow.matrix()[0]) == (
        2 / 3, 3, 2
    )
    assert kept_stretch(oracle, live, shadow, full_scans) == (1, 1)
    assert oracle._best[1:] == (0, 3)


def test_kept_stretch_scans_in_full_after_a_shadow_insert_it_did_not_follow(full_scans):
    # Node 9 joins the shadow path 0-1-2-3 at its ends and is deleted before
    # the live oracle reads, so no live row holds the pair it brought
    # closer: the stretch of (0, 3) rises from 1 to 3/2 unseen by any block.
    shadow, live = path_graph(4), path_graph(4)
    oracle = DistanceOracle(live, shadow=DistanceOracle(shadow))
    assert kept_stretch(oracle, live, shadow, full_scans) == (1, 1)
    shadow.add_node(9)
    shadow.add_edge(9, 0)
    shadow.add_edge(9, 3)
    oracle.shadow.insert(9, [0, 3])
    assert oracle.changed == []
    assert kept_stretch(oracle, live, shadow, full_scans) == (Fraction(3, 2), 1)


def test_kept_stretch_scans_in_full_after_a_removal_under_unread_blocks(full_scans):
    # 4 joins the path 0-1-2-3 at 3, and 0 leaves before a read: the
    # removal moves 4's row into 0's slot, under the block 4's insert
    # recorded, so the next read scans in full.
    shadow, live = path_graph(4), path_graph(4)
    oracle = DistanceOracle(live, shadow=DistanceOracle(shadow))
    assert kept_stretch(oracle, live, shadow, full_scans) == (1, 1)
    for g in (shadow, live):
        g.add_node(4)
        g.add_edge(4, 3)
    oracle.shadow.insert(4, [3])
    oracle.insert(4, [3])
    live.remove_node(0)
    oracle.remove(0, (), ())
    assert oracle.nodes == [4, 1, 2, 3] and oracle.changed is None
    assert kept_stretch(oracle, live, shadow, full_scans) == (1, 1)


# -- per-event connectivity and degree ratio ------------------------------------


def assert_measure_matches_full_scans(state) -> None:
    """The step's connectivity and degree ratio, among the other checks of
    the shared audit, against the full scans."""
    assert engine.audit(state) == []


@pytest.mark.parametrize("family", ["tree", "er"])
@pytest.mark.parametrize("kind", ["clustered", "mixed", "random", "articulation", "max-degree"])
@pytest.mark.parametrize("healer", HEALER_NAMES)
def test_live_measure_matches_full_scans(healer, kind, family):
    # Sparse ER graphs start disconnected, so the fallback scan runs too.
    # Every healer's deletion carries a connectivity witness: the
    # processors of the virtual edges its repair added, read here off the
    # virtual graph before and after.
    witnesses = []
    for seed in range(3):
        rng = random.Random(seed)
        initial = random_tree(30, rng) if family == "tree" else erdos_renyi(30, 0.1, rng)
        config = RunConfig(
            initial=initial,
            healer=healer,
            strategy=StrategySpec(kind=kind, p_delete=0.6, seed=seed),
            t_max=40,
            seed=seed,
            exact_apsp_cap=0,
            stretch_samples=0,
        )
        state = start(config)
        vg, on_delete = state.healer.vg, state.healer.on_delete

        def witnessed(v):
            before = vg.edge_set()
            report = on_delete(v)
            added = vg.edge_set() - before
            procs = {node_id(x) if is_real(x) else vg.sim[node_id(x)] for edge in added for x in edge}
            assert report.witness == procs
            witnesses.append(report.witness)
            return report

        state.healer.on_delete = witnessed
        assert_measure_matches_full_scans(state)
        for _ in range(config.t_max):
            event = engine._next(state)
            if event is None or state.live_count == 0:
                break
            step(state, event)
            assert_measure_matches_full_scans(state)
    assert witnesses
    assert any(witnesses) == (healer != "null")


def test_star_hub_deletion_is_witnessed_by_every_orphan():
    # The star healer wires every orphan to the smallest one, so all of
    # them are its witness, and connectivity needs no search.
    initial = star_graph(8)
    healer = make_healer("star")
    healer.preprocess(initial)
    measure = LiveMeasure(initial.copy(), {0})
    assert measure.connected(healer.live_graph(), "init", ())
    report = healer.on_delete(0)
    orphans = set(range(1, 8))
    assert report.witness == report.touched == orphans

    class Unread(dict):
        def __getitem__(self, v):
            raise AssertionError(f"searched the neighbours of {v}")

    live = healer.live_graph().copy()
    live._adj = Unread(live._adj)
    assert measure.connected(live, "delete", report.touched, report.witness)


@pytest.mark.parametrize("seed", range(6))
def test_live_measure_follows_null_runs_apart_and_together(seed):
    # The null healer leaves every hole open, so deletions split the tree and
    # inserts, which join up to three live nodes, can join pieces again.
    seen = []

    def check(state):
        assert_measure_matches_full_scans(state)
        seen.append(latest_record(state).connected)

    config = RunConfig(
        initial=random_tree(24, random.Random(seed)),
        healer="null",
        strategy=StrategySpec(kind="mixed", p_delete=0.5, insert_degree=3, seed=seed),
        t_max=60,
        seed=seed,
        exact_apsp_cap=0,
        stretch_samples=0,
    )
    run(config, on_step=check)
    assert any(a is False and b is True for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("op", ["init", "insert"])
@pytest.mark.parametrize(
    "breach, error, message",
    [
        ("deleted", ZeroShadowDegreeError, "node 1 is both live and deleted"),
        ("no-shadow-edge", ZeroShadowDegreeError, "live node 3 has shadow degree 0"),
        ("unknown", UnknownNodeError, "node 3 not in graph"),
    ],
)
def test_live_measure_raises_for_a_broken_refreshed_node(op, breach, error, message):
    # Live: the path 0-1-2 plus node 3 hanging off 2. The shadow graph
    # lacks that edge (or node 3), or node 1 is marked deleted.
    live = Graph(nodes=[0, 1, 2, 3], edges=[(0, 1), (1, 2), (2, 3)])
    shadow = Graph(nodes=[0, 1, 2, 3], edges=[(0, 1), (1, 2), (2, 3)])
    deleted: set[int] = set()
    measure = LiveMeasure(shadow, deleted)
    if op == "insert":
        assert measure.refresh(live, "init", -1, ()) == 1
    if breach == "deleted":
        deleted.add(1)
    elif breach == "no-shadow-edge":
        shadow.remove_node(3)
        shadow.add_node(3)
    else:
        shadow.remove_node(3)
    with pytest.raises(error, match=message):
        measure.refresh(live, op, 3, {1, 3})


def test_live_measure_init_names_the_smallest_broken_node():
    # Nodes listed out of id order: 5 and 4 have live edges and no shadow
    # edge, and the error names 4, as a scan in id order finds it.
    live = Graph(nodes=[5, 0, 4, 1], edges=[(5, 0), (4, 1), (0, 1)])
    shadow = Graph(nodes=[5, 0, 4, 1], edges=[(0, 1)])
    with pytest.raises(ZeroShadowDegreeError, match="live node 4 has shadow degree 0"):
        LiveMeasure(shadow, set()).refresh(live, "init", -1, ())


def test_live_measure_init_reads_every_node():
    # The t = 0 measurement of a live graph that differs from its shadow:
    # node 1 has live degree 3 and shadow degree 1.
    live = Graph(nodes=[0, 1, 2, 3], edges=[(0, 1), (1, 2), (1, 3)])
    shadow = Graph(nodes=[0, 1, 2, 3], edges=[(0, 1), (0, 2), (0, 3)])
    measure = LiveMeasure(shadow, set())
    assert measure.connected(live, "init", ())
    assert measure.refresh(live, "init", -1, ()) == 3 == degree_ratio_max(live, shadow)[0]


@pytest.mark.parametrize(
    "edges, error, message",
    [
        # 5 and 7 are in the shadow graph without an edge there.
        ([(5, 7)], ZeroShadowDegreeError, "live node 5 has shadow degree 0"),
        # 4 is not in the shadow graph at all.
        ([(3, 4)], UnknownNodeError, "node 4 not in graph"),
        # Both breaches: the checked loop names the smallest id, 4.
        ([(3, 4), (5, 7)], UnknownNodeError, "node 4 not in graph"),
        # Both breaches: 5 comes before 8.
        ([(3, 8), (5, 7)], ZeroShadowDegreeError, "live node 5 has shadow degree 0"),
    ],
)
def test_live_measure_init_on_a_live_graph_unlike_its_shadow_takes_the_checked_loop(
    edges, error, message
):
    # Shadow: the path 0-1-2-3 and the isolated nodes 5 and 7. The live
    # graph adds `edges`, so the t = 0 comparison of the two adjacencies
    # fails, and the init reads every live node in id order with each
    # event's checks, raising what the full scan raises.
    shadow = Graph(nodes=[0, 1, 2, 3, 5, 7], edges=[(0, 1), (1, 2), (2, 3)])
    live = Graph(nodes=[0, 1, 2, 3, 5, 7], edges=[(0, 1), (1, 2), (2, 3), *edges])
    with pytest.raises(error, match=message):
        degree_ratio_max(live, shadow, set())
    with pytest.raises(error, match=message):
        LiveMeasure(shadow, set()).refresh(live, "init", -1, ())


def test_live_measure_stores_only_the_pairs_that_differ():
    # Node 1 has live degree 3 and shadow degree 1; node 2 has degree 1 in
    # both, with another neighbour; 5 and 7 are 0/0. Only node 1's pair is
    # kept, and a node whose degrees come back equal drops out.
    shadow = Graph(nodes=[0, 1, 2, 3, 5, 7], edges=[(0, 1), (0, 2), (0, 3)])
    live = Graph(nodes=[0, 1, 2, 3, 5, 7], edges=[(0, 1), (1, 2), (1, 3)])
    measure = LiveMeasure(shadow, set())
    assert measure.refresh(live, "init", -1, ()) == 3 == degree_ratio_max(live, shadow)[0]
    assert measure._pair == {0: (1, 3), 1: (3, 1)}
    assert measure._count == {(1, 3): 1, (3, 1): 1}
    for a, b in [(0, 2), (0, 3)]:
        live.add_edge(a, b)
    live.remove_edge(1, 2)
    live.remove_edge(1, 3)
    assert measure.refresh(live, "insert", -1, {0, 1, 2, 3}) == 1
    assert measure._pair == {} and measure._count == {}


def test_live_measure_init_on_the_lifted_graph_reads_no_node():
    # At t = 0 the live graph equals the shadow graph: one comparison of the
    # two adjacencies, and no degree pair is read or stored.
    class Unread(dict):
        def __getitem__(self, v):
            raise AssertionError(f"read node {v}")

        get = __getitem__

        def __iter__(self):
            raise AssertionError("iterated the live nodes")

    shadow = random_tree(40, random.Random(2))
    live = shadow.copy()
    live._adj = Unread(live._adj)
    measure = LiveMeasure(shadow, set())
    assert measure.refresh(live, "init", -1, ()) == 1
    assert measure._pair == {} and measure._count == {}


@pytest.mark.parametrize(
    "touched, witness, joined",
    [
        ({1, 3, 5}, {1, 3}, True),  # 5 is outside the witness and reaches it
        ({1, 3, 7}, {1, 3}, False),  # 7 is outside the witness and cut off
        ({1, 3}, {1, 3}, True),  # nothing outside the witness: no search
        ({1, 2, 5, 9}, {2}, False),  # 5 reaches the witness, 9 does not
        ({7, 8, 9}, {8}, True),
        ({1, 5}, set(), True),  # no witness: the touched nodes must meet
        ({1, 7}, set(), False),
        ({1}, set(), True),
    ],
)
def test_live_measure_searches_from_touched_nodes_outside_the_witness(touched, witness, joined):
    # After a deletion: the path 1-2-3-4-5, and the path 7-8-9 cut off from it.
    live = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 5), (7, 8), (8, 9)])
    measure = LiveMeasure(live.copy(), set())
    assert measure.connected(live, "delete", touched, witness) is joined


# -- the shared audit -------------------------------------------------------------


def test_distance_oracle_audit_reads_each_matrix_through_its_own_index():
    # An insert and a removal leave the rows out of node order.
    g = path_graph(5)
    oracle = DistanceOracle(g)
    oracle.matrix()
    g.add_node(5)
    g.add_edge(5, 4)
    oracle.insert(5, [4])
    g.remove_node(0)
    oracle.remove(0, (), ())
    assert oracle.nodes == [5, 1, 2, 3, 4]
    fresh = all_pairs_distances(g)
    assert oracle.audit(fresh) == []
    assert oracle.audit(all_pairs_distances(path_graph(6))) == ["distances not exact"]
    oracle.matrix()[0][0, 1] += 1  # one entry, without its mirror
    assert oracle.audit(fresh) == ["distances not exact"]


@pytest.mark.parametrize("healer", HEALER_NAMES)
def test_audit_is_clean_after_every_step(healer):
    # Mixed churn moves the live count across the cap, so some steps
    # measure exact stretch and some sample it.
    config = RunConfig(
        initial=random_tree(40, random.Random(7)),
        healer=healer,
        strategy=StrategySpec(kind="mixed", p_delete=0.5, seed=7),
        t_max=60,
        seed=7,
        exact_apsp_cap=38,
        stretch_samples=100,
    )
    audits = []
    state = run(config, on_step=lambda s: audits.append(engine.audit(s)))
    # One audit of the started state, then one per step.
    assert len(state.records) == 60 and audits == [[]] * 61
    assert {r.stretch_mode for r in state.records} == {"exact", "sampled"}


def test_timers_cover_every_phase_of_the_loop():
    config = RunConfig(
        initial=random_tree(64, random.Random(5)),
        strategy=StrategySpec(kind="articulation", seed=5),
        t_max=32,
        seed=5,
        exact_apsp_cap=0,
        stretch_samples=0,
    )
    timers = run(config).timers
    assert {"start", "adversary", "heal", "connectivity", "metrics"} <= timers.keys()
    assert timers["adversary"] > 0
    # The t = 0 measurement counts as start: no phase of the loop has run.
    assert start(config).timers.keys() == {"start"}


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The cyclic collector switched on or off for the test, and the
    setting before it restored after it."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def test_start_run_and_make_family_leave_the_collector_as_they_found_it(collector):
    initial = make_family("random-tree", 40, 0.0, random.Random(1))
    assert gc.isenabled() is collector
    config = RunConfig(initial=initial, strategy=StrategySpec(kind="clustered", seed=1), t_max=8)
    start(config)
    assert gc.isenabled() is collector
    paused = []
    run(config, on_step=lambda state: paused.append(not gc.isenabled()))
    assert gc.isenabled() is collector
    # Paused over the whole run, the callback included.
    assert paused == [True] * 9
    with pytest.raises(ValueError, match="at least 1"):
        make_family("path", 0, 0.0, random.Random(1))
    assert gc.isenabled() is collector


def test_a_run_that_raises_leaves_the_collector_as_it_found_it(collector):
    with pytest.raises(InvalidEventError):
        run(scripted([Event(op="delete", node=1), Event(op="delete", node=77)], path_graph(3)))
    assert gc.isenabled() is collector

    def fail(state):
        if state.t == 2:
            raise RuntimeError("on_step failed")

    config = RunConfig(initial=path_graph(8), strategy=StrategySpec(kind="random", seed=2), t_max=5)
    with pytest.raises(RuntimeError, match="on_step failed"):
        run(config, on_step=fail)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("cap, samples", [(64, 0), (8, 50)], ids=["exact", "sampled"])
@pytest.mark.parametrize("healer", HEALER_NAMES)
def test_a_run_leaves_no_cyclic_garbage(healer, cap, samples):
    # The premise of pausing the collector over a run: reference counting
    # alone frees all that the run, its audits and its state let go.
    config = RunConfig(
        initial=random_tree(24, random.Random(healer)),
        healer=healer,
        strategy=StrategySpec(kind="mixed", p_delete=0.6, seed=3),
        t_max=40,
        seed=3,
        exact_apsp_cap=cap,
        stretch_samples=samples,
    )
    problems: list[str] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        state = run(config, on_step=lambda s: problems.extend(engine.audit(s)))
        modes = {r.stretch_mode for r in state.records}
        del state
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert problems == []
    assert modes == {"exact" if samples == 0 else "sampled"}


def test_audit_names_the_step_and_the_structure(monkeypatch):
    state = start(RunConfig(initial=path_graph(6), exact_apsp_cap=64, stretch_samples=0))
    state.adversary.index.next_id += 1
    assert engine.audit(state) == ["t=0 adversary-audit: next_id 7, rebuilt 6"]
    state.adversary.index.next_id -= 1
    step(state, Event(op="delete", node=0))
    assert engine.audit(state) == []
    state.live_oracle.matrix()[0][0, 1] += 1
    assert engine.audit(state) == ["t=1 measure-audit: live distances not exact"]

    def breach(*args):
        raise ZeroShadowDegreeError("live node 3 has shadow degree 0")

    monkeypatch.setattr(metrics, "degree_ratio_max", breach)
    with pytest.raises(InternalError, match="shadow degree 0"):
        engine.audit(state)


def test_audit_builds_each_graph_once_per_exact_step(monkeypatch):
    # The maximum stretch is scanned over the same live build that the
    # live oracle's audit reads; it used to build the live matrix again.
    config = RunConfig(
        initial=random_tree(40, random.Random(7)),
        strategy=StrategySpec(kind="mixed", p_delete=0.5, seed=7),
        t_max=30,
        seed=7,
        exact_apsp_cap=128,
        stretch_samples=0,
    )
    builds = []

    def counted(g):
        builds.append(g)
        return all_pairs_distances(g)

    def audited(state):
        builds.clear()
        assert engine.audit(state) == []
        assert [id(g) for g in builds] == [id(state.live_graph()), id(state.shadow)]

    monkeypatch.setattr(metrics, "all_pairs_distances", counted)
    state = run(config, on_step=audited)
    assert len(state.records) == 30
    assert {r.stretch_mode for r in state.records} == {"exact"}
