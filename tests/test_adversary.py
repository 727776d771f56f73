"""Adversary strategies, event validation, and the JSONL trace format."""

from __future__ import annotations

import dataclasses
import random

import pytest

from selfheal import engine
from selfheal.adversary import (
    AdversaryIndex,
    Event,
    StrategySpec,
    TraceFormatError,
    format_trace,
    new_state,
    next_event,
    parse_trace,
    validate_event,
)
from selfheal.engine import RunConfig, start, step
from selfheal.families import erdos_renyi, path_graph, random_tree, star_graph
from selfheal.graph import Graph
from selfheal.healers import HEALER_NAMES
from selfheal.metrics import records_to_csv

from conftest import index_view, oracle_max_degree_node


def complete(n: int) -> Graph:
    g = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


class TestStrategies:
    def test_max_degree_picks_star_center(self):
        g = star_graph(6)
        spec = StrategySpec(kind="max-degree")
        event = next_event(spec, g, g.copy(), new_state(spec))
        assert event == Event(op="delete", node=0)

    def test_articulation_picks_cut_vertex(self):
        g = path_graph(3)
        spec = StrategySpec(kind="articulation")
        event = next_event(spec, g, g.copy(), new_state(spec))
        assert event == Event(op="delete", node=1)

    def test_articulation_falls_back_on_complete_graph(self):
        # K4 has no cut vertex (removing any node leaves K3), so the rule
        # falls back to max degree with the smallest-id tie-break.
        g = complete(4)
        spec = StrategySpec(kind="articulation")
        event = next_event(spec, g, g.copy(), new_state(spec))
        assert event == Event(op="delete", node=0)

    def test_articulation_deletes_smallest_cut_vertex(self):
        # A wheel (hub 0, rim 1-3-4-5) with the tail 5-2-8-9-6. Nodes are
        # added from 9 down, so the DFS meets the cut vertices 9, 8, 2, 5
        # in that order; the max-degree fallback would pick the hub 0.
        g = Graph(
            nodes=[9, 6, 8, 2, 5, 4, 3, 1, 0],
            edges=[(0, 1), (0, 3), (0, 4), (0, 5), (1, 3), (3, 4), (4, 5), (5, 1)]
            + [(5, 2), (2, 8), (8, 9), (9, 6)],
        )
        assert g.articulation_points() == [2, 5, 8, 9]
        spec = StrategySpec(kind="articulation")
        event = next_event(spec, g, g.copy(), new_state(spec))
        assert event == Event(op="delete", node=2)

    def test_articulation_finds_cut_vertex_in_second_component(self):
        # A triangle has no cut vertex; the path 7-5-9 after it has one.
        g = Graph(nodes=[0, 1, 2, 7, 5, 9], edges=[(0, 1), (1, 2), (0, 2), (7, 5), (5, 9)])
        spec = StrategySpec(kind="articulation")
        event = next_event(spec, g, g.copy(), new_state(spec))
        assert event == Event(op="delete", node=5)

    def test_clustered_walks_neighbors(self):
        g = path_graph(6)
        spec = StrategySpec(kind="clustered")
        state = new_state(spec)
        shadow = g.copy()
        first = next_event(spec, g, shadow, state)
        assert first.op == "delete"
        g.remove_node(first.node)
        second = next_event(spec, g, shadow, state)
        assert second.node in shadow.neighbors(first.node)

    def test_exhausted_on_empty_network(self):
        empty = Graph()
        for kind in ("mixed", "max-degree", "articulation", "clustered", "random"):
            spec = StrategySpec(kind=kind, p_delete=1.0)
            assert next_event(spec, empty, empty.copy(), new_state(spec)) is None

    def test_scripted_replays_and_exhausts(self):
        events = (Event(op="delete", node=1), Event(op="delete", node=2))
        spec = StrategySpec(kind="scripted", events=events)
        state = new_state(spec)
        g = path_graph(4)
        assert next_event(spec, g, g.copy(), state) == events[0]
        assert next_event(spec, g, g.copy(), state) == events[1]
        assert next_event(spec, g, g.copy(), state) is None

    def test_insert_caps_degree_at_live_size(self):
        g = path_graph(2)
        spec = StrategySpec(kind="mixed", p_delete=0.0, insert_degree=5, seed=3)
        event = next_event(spec, g, g.copy(), new_state(spec))
        assert event.op == "insert"
        assert event.node == 2
        assert set(event.neighbors) == {0, 1}

    def test_determinism_replay(self):
        def emit(seed):
            spec = StrategySpec(kind="mixed", p_delete=0.6, insert_degree=2, seed=seed)
            state = new_state(spec, run_seed=17)
            live = path_graph(8)
            shadow = live.copy()
            out = []
            for _ in range(30):
                event = next_event(spec, live, shadow, state)
                if event is None:
                    break
                out.append(event)
                if event.op == "insert":
                    shadow.add_node(event.node)
                    live.add_node(event.node)
                    for w in event.neighbors:
                        shadow.add_edge(event.node, w)
                        live.add_edge(event.node, w)
                else:
                    live.remove_node(event.node)
            return out

        assert emit(5) == emit(5)
        assert emit(5) != emit(6)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StrategySpec(kind="bogus")
        with pytest.raises(ValueError):
            StrategySpec(p_delete=1.5)
        with pytest.raises(ValueError):
            StrategySpec(insert_degree=0)


class TestValidateEvent:
    def test_legal_delete(self):
        g = path_graph(3)
        assert validate_event(Event(op="delete", node=1), g) == []

    def test_id_reuse_detected_against_shadow(self):
        live = Graph(nodes=[1])
        shadow = Graph(nodes=[0, 1])  # node 0 existed once
        event = Event(op="insert", node=0, neighbors=(1,))
        assert "id-reuse" in validate_event(event, live, shadow)

    def test_unattached_insert(self):
        g = path_graph(2)
        event = Event(op="insert", node=9)
        assert "unattached-insert" in validate_event(event, g)

    def test_unknown_neighbor(self):
        g = path_graph(2)
        event = Event(op="insert", node=9, neighbors=(55,))
        assert "unknown-neighbor" in validate_event(event, g)

    def test_unknown_delete_target(self):
        g = path_graph(2)
        assert "unknown-node" in validate_event(Event(op="delete", node=9), g)


def test_fuzz_emitted_events_all_validate():
    # 10^5 emitted events across many seeds, all legal at emission time.
    checked = 0
    seed = 0
    while checked < 100_000:
        spec = StrategySpec(kind="mixed", p_delete=0.5, insert_degree=2, seed=seed)
        state = new_state(spec, run_seed=seed)
        live = path_graph(12)
        shadow = live.copy()
        for _ in range(2000):
            event = next_event(spec, live, shadow, state)
            if event is None:
                break
            assert validate_event(event, live, shadow) == []
            checked += 1
            if event.op == "insert":
                shadow.add_node(event.node)
                live.add_node(event.node)
                for w in event.neighbors:
                    shadow.add_edge(event.node, w)
                    live.add_edge(event.node, w)
            else:
                live.remove_node(event.node)
        seed += 1
    assert checked >= 100_000


class TestTraceFormat:
    def test_round_trip(self):
        events = [
            Event(op="delete", node=5),
            Event(op="insert", node=12, neighbors=(3, 1)),
        ]
        text = format_trace(events)
        lines = text.splitlines()
        assert lines[0] == '{"t": 1, "op": "delete", "node": 5}'
        assert lines[1] == '{"t": 2, "op": "insert", "node": 12, "neighbors": [1, 3]}'
        back = parse_trace(text)
        assert back == [
            Event(op="delete", node=5),
            Event(op="insert", node=12, neighbors=(1, 3)),
        ]

    def test_non_increasing_t_rejected(self):
        text = '{"t": 1, "op": "delete", "node": 1}\n{"t": 1, "op": "delete", "node": 2}\n'
        with pytest.raises(TraceFormatError, match="line 2: t=1 not strictly increasing"):
            parse_trace(text)

    def test_bool_t_rejected(self):
        with pytest.raises(TraceFormatError, match="t=True is not an integer"):
            parse_trace('{"t": true, "op": "delete", "node": 1}\n')

    @pytest.mark.parametrize("t, shown", [("1.0", "1.0"), ('"1"', "'1'"), ("null", "None")])
    def test_non_integer_t_named(self, t, shown):
        with pytest.raises(TraceFormatError) as excinfo:
            parse_trace(f'{{"t": {t}, "op": "delete", "node": 1}}\n')
        assert str(excinfo.value) == f"line 1: t={shown} is not an integer"

    def test_bad_json_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace("{not json}\n")

    def test_unknown_op_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace('{"t": 1, "op": "explode", "node": 1}\n')

    def test_missing_key_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace('{"t": 1, "op": "delete"}\n')

    # A key the reader does not read is refused, not dropped: a delete's
    # `neighbors` would hide from `validate_event`'s `delete-with-neighbors`
    # check, and a misspelt `neighbours` would leave an insert unattached.
    @pytest.mark.parametrize(
        "line, message",
        [
            (
                '{"t": 1, "op": "delete", "node": 1, "neighbors": [2]}',
                "line 1: delete takes no key 'neighbors'",
            ),
            (
                '{"t": 1, "op": "insert", "node": 9, "neighbours": [1]}',
                "line 1: insert takes no key 'neighbours'",
            ),
        ],
        ids=["delete-with-neighbors", "misspelt-neighbors"],
    )
    def test_key_the_reader_does_not_read_is_refused(self, line, message):
        with pytest.raises(TraceFormatError) as excinfo:
            parse_trace(line + "\n")
        assert str(excinfo.value) == message


# -- the maintained index against one rebuilt from the graphs -------------------


def rebuilt(state) -> AdversaryIndex:
    return AdversaryIndex(state.live_graph(), state.shadow)


def assert_index_current(state) -> None:
    live = state.live_graph()
    index = state.adversary.index
    assert index_view(index, live) == index_view(rebuilt(state), live)
    if live.node_count:
        assert index.max_degree_node(live) == oracle_max_degree_node(live)


def next_from_both(state) -> Event | None:
    """The engine's next event, after checking that a state without an
    index, with the same generator and memory, draws the same one."""
    adversary = state.adversary
    rng = random.Random()
    rng.setstate(adversary.rng.getstate())
    fresh = dataclasses.replace(adversary, rng=rng, index=None)
    spec, live = state.config.strategy, state.live_graph()
    expected = next_event(spec, live, state.shadow, fresh)
    event = engine._next(state)
    assert event == expected
    assert adversary.rng.getstate() == rng.getstate()
    assert adversary.last_deleted == fresh.last_deleted
    return event


@pytest.mark.parametrize("family", ["tree", "er"])
@pytest.mark.parametrize("kind", ["random", "mixed", "max-degree", "articulation", "clustered"])
@pytest.mark.parametrize("healer", HEALER_NAMES)
def test_maintained_index_matches_a_rebuilt_one(healer, kind, family):
    # Sparse ER graphs start disconnected; the null healer splits trees.
    for seed in range(2):
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
        # No heap until the maximum is first asked for.
        assert state.adversary.index._heap is None
        assert_index_current(state)
        assert state.adversary.index._heap is not None
        for _ in range(config.t_max):
            event = next_from_both(state)
            if event is None:
                break
            step(state, event)
            assert_index_current(state)
            if state.live_count == 0:
                break


@pytest.mark.parametrize("kind", ["random", "max-degree"])
def test_index_takes_a_scripted_id_below_the_maximum(kind):
    # Ids 0, 2, 5 and 7: an insert of 3 lands between live ids, and one of
    # 1 below the deleted 2, and neither moves the next fresh id past 8.
    initial = Graph(nodes=[0, 2, 5, 7], edges=[(0, 2), (2, 5), (5, 7)])
    config = RunConfig(
        initial=initial,
        strategy=StrategySpec(kind=kind, seed=3),
        t_max=20,
        exact_apsp_cap=0,
        stretch_samples=0,
    )
    state = start(config)
    for event in (
        Event(op="insert", node=3, neighbors=(0, 5)),
        Event(op="delete", node=2),
        Event(op="insert", node=1, neighbors=(0, 3, 5)),
        Event(op="insert", node=12, neighbors=(1,)),
    ):
        step(state, event)
        assert_index_current(state)
    assert state.adversary.index.live_ids == [0, 1, 3, 5, 7, 12]
    assert state.adversary.index.next_id == 13
    for _ in range(config.t_max):
        event = next_from_both(state)
        if event is None:
            break
        step(state, event)
        assert_index_current(state)
        if state.live_count == 0:
            break


@pytest.mark.parametrize("healer", ["haft", "rebuild"])
def test_articulation_fallback_picks_the_maximum_degree_between_deletions(healer):
    # A wheel has no cut vertex, and neither has what the tree healers
    # make of it on most steps, so the strategy falls back to the maximum
    # degree from its index's heap, refreshed by the deletions in between.
    rim = 16
    wheel = Graph(nodes=range(rim + 1))
    for i in range(1, rim + 1):
        wheel.add_edge(0, i)
        wheel.add_edge(i, i % rim + 1)
    config = RunConfig(
        initial=wheel,
        healer=healer,
        strategy=StrategySpec(kind="articulation"),
        t_max=0,
        exact_apsp_cap=0,
        stretch_samples=0,
    )
    state = start(config)
    fallbacks = []
    for _ in range(rim - 2):
        live = state.live_graph()
        fallback = not live.articulation_points()
        event = next_from_both(state)
        if fallback:
            assert event.node == oracle_max_degree_node(live)
            fallbacks.append(event.node)
        step(state, event)
    assert fallbacks[0] == 0 and len(fallbacks) >= rim // 2


@pytest.mark.parametrize("healer", ["haft", "rebuild"])
@pytest.mark.parametrize(
    "family",
    [lambda rng: random_tree(96, rng), lambda rng: erdos_renyi(48, 0.12, rng)],
    ids=["random-tree", "erdos-renyi"],
)
def test_articulation_records_match_tarjans_choice(healer, family, monkeypatch):
    # The cut search and Tarjan's list pick the same target at every step,
    # so the records are byte for byte the same.
    def csv():
        config = RunConfig(
            initial=family(random.Random(f"{healer}:cuts")),
            healer=healer,
            strategy=StrategySpec(kind="articulation", seed=3),
            t_max=64,
            seed=3,
            exact_apsp_cap=0,
            stretch_samples=0,
        )
        return records_to_csv(engine.run(config).records)

    searched = csv()
    monkeypatch.setattr(
        Graph, "smallest_cut_vertex", lambda g, order: (g.articulation_points() or [None])[0]
    )
    assert csv() == searched


def test_index_heap_is_rebuilt_once_stale_entries_pile_up():
    # Max-degree deletions on a star: every deletion touches the orphans.
    # Each query of the maximum pushes the nodes touched since the last
    # one (here 4 per event), unless the heap would then hold more than
    # twice the live ids plus 64: then it is rebuilt from the graph.
    config = RunConfig(
        initial=star_graph(40),
        healer="null",
        strategy=StrategySpec(kind="max-degree"),
        t_max=0,
        exact_apsp_cap=0,
        stretch_samples=0,
    )
    state = start(config)
    index = state.adversary.index
    sizes = []
    for v in range(40, 200):
        step(state, Event(op="insert", node=v, neighbors=(1, 2, 3)))
        assert_index_current(state)
        sizes.append(len(index._heap))
        assert len(index._heap) <= 2 * len(index.live_ids) + 64
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def test_index_audit_reports_each_corruption_in_one_line():
    live = path_graph(5)
    shadow = live.copy()
    index = AdversaryIndex(live, shadow)
    assert index.audit(live, shadow) == []
    index.next_id += 1
    assert index.audit(live, shadow) == ["next_id 6, rebuilt 5"]
    index.next_id -= 1
    index.live_ids.remove(3)
    assert index.audit(live, shadow) == ["live_ids differ from a rebuilt index"]
    index.live_ids.insert(3, 3)
    assert index.audit(live, shadow) == []
    # The heap now holds every node, and 3 gains an edge that no update
    # reports: its entry goes stale, so the index misses the new maximum.
    live.add_edge(3, 0)
    assert index.audit(live, shadow) == ["max_degree_node 1, rebuilt 3"]
