"""Virtual-graph layer: simulation map, cascade removal, de-simulation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfheal.families import erdos_renyi, path_graph, random_tree, star_graph
from selfheal.graph import MAX_NODE_ID, DuplicateNodeError, Graph, GraphError, UnknownNodeError
from selfheal.virtual_graph import (
    VBASE,
    RepairJournal,
    VirtualGraph,
    VNode,
    is_real,
    node_id,
    node_name,
    real,
    virt,
)

from conftest import (
    add_virtual,
    changes_between,
    edge_snapshot,
    effective_counts,
    lift_per_edge,
    oracle_bfs,
    oracle_image,
    oracle_image_counts,
    processor,
    random_graph,
    random_virtual_graph,
    remove_virtual,
    rewire_in_sequence,
    vg_adj,
)


class TestVNode:
    def test_repr_and_str(self):
        assert node_name(real(3)) == "r3"
        assert node_name(virt(12)) == "v12"
        assert f"{node_name(virt(0))}-{node_name(real(7))}" == "v0-r7"

    def test_reals_sort_before_virtuals(self):
        nodes = [virt(0), real(10**6), virt(5), real(0), real(2)]
        assert sorted(nodes) == [real(0), real(2), real(10**6), virt(0), virt(5)]
        assert max(real(p) for p in range(50)) < min(virt(v) for v in range(50))
        # Room above every input id for a run's inserts, all still real.
        assert MAX_NODE_ID + 2**59 < VBASE
        assert real(VBASE - 1) < virt(0)
        assert is_real(real(VBASE - 1)) and not is_real(virt(0))

    def test_equal_nodes_hash_equal(self):
        a, b = VNode(str(VBASE + 4)), virt(4)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, real(4)}) == 2
        assert real(4) != virt(4)

    def test_virtual_hashes_miss_small_processor_ids(self):
        assert {hash(virt(v)) for v in range(1000)}.isdisjoint(range(10**6))

    @pytest.mark.parametrize("i", [0, 1, 7, 10**6, MAX_NODE_ID - 1])
    def test_real_virt_and_node_id_round_trip(self, i):
        assert node_id(real(i)) == i and is_real(real(i))
        assert node_id(virt(i)) == i and not is_real(virt(i))

    def test_add_real_node_refuses_a_virtual_id(self):
        vg = VirtualGraph()
        vg.add_real_node(VBASE - 1)
        with pytest.raises(GraphError, match="not below"):
            vg.add_real_node(VBASE)
        assert vg.reals == {VBASE - 1}


class TestAddNodes:
    def test_add_real(self):
        vg = VirtualGraph()
        vg.add_real_node(3)
        assert vg.reals == {3}
        vg.add_real_node(7)
        assert vg.reals == {3, 7}

    def test_duplicate_real(self):
        vg = VirtualGraph()
        vg.add_real_node(3)
        with pytest.raises(DuplicateNodeError):
            vg.add_real_node(3)

    def test_add_virtual(self):
        vg = VirtualGraph()
        vg.add_real_node(1)
        vid = add_virtual(vg, 1)
        assert vid == 0
        assert vg.sim == {0: 1}

    def test_one_real_simulates_many(self):
        vg = VirtualGraph()
        vg.add_real_node(1)
        vg.add_real_node(2)
        a = add_virtual(vg, 1)
        b = add_virtual(vg, 1)
        assert (a, b) == (0, 1)
        assert vg.sim == {0: 1, 1: 1}

    def test_unknown_simulator(self):
        vg = VirtualGraph()
        with pytest.raises(UnknownNodeError):
            vg.rewire((), [(vg.vids.take(), 9)], ())
        assert vg.sim == {}

    def test_vids_never_reused(self):
        vg = VirtualGraph()
        vg.add_real_node(1)
        vid = add_virtual(vg, 1)
        remove_virtual(vg, vid)
        assert add_virtual(vg, 1) == vid + 1
        with pytest.raises(DuplicateNodeError):
            vg.rewire((), [(vid, 1)], ())

    def test_vid_minted_before_an_earlier_declaring_batch_is_refused(self):
        vg = VirtualGraph.from_graph(Graph(nodes=[1]))
        early, late = vg.vids.take(), vg.vids.take()
        vg.rewire((), [(late, 1)], ())
        with pytest.raises(DuplicateNodeError, match=f"vid {early} is not above every vid"):
            vg.rewire((), [(early, 1)], ())
        assert vg.sim == {late: 1}
        assert vg.audit() == []

    def test_one_batch_declares_its_vids_in_any_order(self):
        vg = VirtualGraph.from_graph(Graph(nodes=[1, 2]))
        a, b, c = (vg.vids.take() for _ in range(3))
        vg.rewire((), [(c, 2), (b, 1), (a, 1)], [(virt(c), virt(a)), (virt(b), real(2))])
        assert vg.sim == {a: 1, b: 1, c: 2}
        assert vg.audit() == []
        with pytest.raises(DuplicateNodeError):
            vg.rewire([a], [(a, 2)], ())


def _scattered_tree(n: int, seed: int) -> Graph:
    """A random tree over ids spread up to just below VBASE, its nodes and
    edges added in shuffled order."""
    rng = random.Random(seed)
    ids = rng.sample(range(10**12), n - 2) + [MAX_NODE_ID - 1, VBASE - 1]
    rng.shuffle(ids)
    edges = [(ids[u], ids[v]) for u, v in random_tree(n, rng).edges()]
    rng.shuffle(edges)
    return Graph(nodes=ids, edges=edges)


LIFT_CASES = {
    "path": lambda: path_graph(12),
    "star": lambda: star_graph(12),
    "random-tree": lambda: random_tree(300, random.Random(3)),
    "erdos-renyi": lambda: erdos_renyi(60, 0.1, random.Random(4)),
    "empty": Graph,
    "one-node": lambda: Graph(nodes=[7]),
    "isolated-nodes": lambda: Graph(nodes=[4, 0, 9, 2], edges=[(9, 0)]),
    "scattered-ids": lambda: _scattered_tree(80, 5),
}


class TestFromGraph:
    @pytest.mark.parametrize("case", LIFT_CASES)
    def test_bulk_lift_matches_the_per_edge_lift(self, case):
        g = LIFT_CASES[case]()
        bulk, per_edge = VirtualGraph.from_graph(g), lift_per_edge(g)
        # Equal in content: set order is no contract.
        assert bulk._adj == per_edge._adj
        assert bulk.image._adj == per_edge.image._adj
        # Every edge is its own image with count 1, and none is stored.
        assert bulk._multiplicity == per_edge._multiplicity == {}
        assert effective_counts(bulk) == effective_counts(per_edge) == oracle_image_counts(bulk)
        assert bulk.sim == per_edge.sim == {}
        assert bulk._hosted == per_edge._hosted == {}
        assert bulk._declared_below == per_edge._declared_below == 0
        assert bulk.vids.next_vid == 0
        assert bulk.audit() == []

    @pytest.mark.parametrize("seed", range(12))
    def test_bulk_lift_matches_on_random_graphs(self, seed):
        g = random_graph(random.Random(seed), max_nodes=40, p=0.15)
        bulk, per_edge = VirtualGraph.from_graph(g), lift_per_edge(g)
        assert bulk._adj == per_edge._adj
        assert bulk.image._adj == per_edge.image._adj
        assert bulk._multiplicity == per_edge._multiplicity == {}
        assert effective_counts(bulk) == effective_counts(per_edge) == oracle_image_counts(bulk)
        assert bulk.audit() == []

    def test_lift_shares_no_set_with_its_input(self):
        g = random_tree(50, random.Random(1))
        vg = VirtualGraph.from_graph(g)
        inputs = {id(s) for s in g._adj.values()}
        lifted = [id(s) for s in vg._adj.values()]
        imaged = [id(s) for s in vg.image._adj.values()]
        assert len(inputs | set(lifted) | set(imaged)) == 3 * 50
        g.add_edge(0, 49)
        assert 49 not in vg._adj[0] and 49 not in vg.image._adj[0]
        assert vg.audit() == []

    def test_an_id_at_vbase_is_refused_as_the_per_edge_lift_refuses_it(self):
        g = Graph(nodes=[VBASE + 3, 1, VBASE, VBASE - 1], edges=[(1, VBASE)])
        with pytest.raises(GraphError) as bulk:
            VirtualGraph.from_graph(g)
        with pytest.raises(GraphError) as per_edge:
            lift_per_edge(g)
        assert str(bulk.value) == str(per_edge.value) == f"processor id {VBASE} is not below {VBASE}"
        assert VirtualGraph.from_graph(Graph(nodes=[VBASE - 1])).reals == {VBASE - 1}


class TestRemoveProcessor:
    def test_cascade_with_orphan_report(self):
        # reals {1, 2}, virtual h simulated by 1, edge (h, 2); removing 1
        # removes h and its edge too, leaving h's orphaned neighbor 2 with
        # no edges. The graph itself is the report: nothing is returned.
        vg = VirtualGraph()
        vg.add_real_node(1)
        vg.add_real_node(2)
        h = add_virtual(vg, 1)
        vg.rewire((), (), [(virt(h), real(2))])
        assert vg.remove_processor(1) is None
        assert vg.reals == {2}
        assert vg.virtuals == set()
        assert vg.sim == {}
        assert vg.neighbors(real(2)) == set()
        assert vg.image.nodes == {2}
        assert set(vg.image.edges()) == set()

    def test_last_node(self):
        vg = VirtualGraph()
        vg.add_real_node(1)
        vg.remove_processor(1)
        assert vg.reals == set()
        assert vg.image.nodes == set()

    def test_unknown(self):
        vg = VirtualGraph()
        with pytest.raises(UnknownNodeError):
            vg.remove_processor(4)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_remove_processor_keeps_image_and_counts(seed):
    # Processors removed one by one, in random order, from a random virtual
    # graph in which every hosting processor's vids also touch its own real
    # node, each other and another processor: after each removal the graph
    # audits clean, the image equals the from-scratch image, and no image
    # count is left on the removed processor.
    rng = random.Random(seed)
    vg = random_virtual_graph(rng, max_reals=12, max_virtuals=24)
    nodes = [real(p) for p in sorted(vg.reals)] + [virt(v) for v in sorted(vg.virtuals)]
    for p in sorted(vg.reals):
        hosted = [virt(v) for v in sorted(vg.virtuals) if vg.sim[v] == p]
        if hosted:
            vg.rewire((), (), [(hosted[0], real(p))])
            if len(hosted) > 1:
                vg.rewire((), (), [(hosted[0], hosted[1])])
            others = [x for x in nodes if processor(vg, x) != p]
            if others:
                vg.rewire((), (), [(hosted[-1], rng.choice(others))])
    while vg.reals:
        p = rng.choice(sorted(vg.reals))
        vg.remove_processor(p)
        assert vg.audit() == []
        assert vg.image == oracle_image(vg)
        assert effective_counts(vg) == oracle_image_counts(vg)
        assert not any(p in edge for edge in vg._multiplicity)


class TestDeSimulate:
    def test_collapsing_image(self):
        # reals {1,2,3}; virtual h sim by 1; edges (h,2), (h,3), (1,2).
        # Image of (h,2) collapses with (1,2); image set {(1,2),(1,3)}.
        vg = VirtualGraph()
        for p in (1, 2, 3):
            vg.add_real_node(p)
        h = add_virtual(vg, 1)
        vg.rewire((), (), [(virt(h), real(2)), (virt(h), real(3)), (real(1), real(2))])
        image = vg.de_simulate()
        assert set(image.edges()) == {(1, 2), (1, 3)}

    def test_identity_without_virtuals(self):
        vg = VirtualGraph()
        vg.add_real_node(1)
        vg.add_real_node(2)
        vg.rewire((), (), [(real(1), real(2))])
        image = vg.de_simulate()
        assert image.nodes == {1, 2}
        assert set(image.edges()) == {(1, 2)}

    def test_self_loop_image_dropped(self):
        vg = VirtualGraph()
        vg.add_real_node(1)
        h = add_virtual(vg, 1)
        vg.rewire((), (), [(virt(h), real(1))])
        image = vg.de_simulate()
        assert set(image.edges()) == set()
        assert image.nodes == {1}


class TestMaintainedImage:
    def test_parallel_images_counted(self):
        # (h,2) and (1,2) share the image edge 1-2: it survives until both go.
        vg = VirtualGraph()
        for p in (1, 2):
            vg.add_real_node(p)
        h = add_virtual(vg, 1)
        vg.rewire((), (), [(virt(h), real(2)), (real(1), real(2))])
        remove_virtual(vg, h)
        assert set(vg.image.edges()) == {(1, 2)}
        vg.remove_processor(2)
        assert vg.image.nodes == {1}
        assert set(vg.image.edges()) == set()

    def test_de_simulate_is_a_copy(self):
        vg = VirtualGraph()
        vg.add_real_node(1)
        image = vg.de_simulate()
        image.add_node(2)
        assert vg.image.nodes == {1}

    def test_remove_processor_cascades_through_index(self):
        vg = VirtualGraph()
        for p in (1, 2, 3):
            vg.add_real_node(p)
        a, b = add_virtual(vg, 1), add_virtual(vg, 2)
        vg.rewire((), (), [(virt(a), virt(b)), (virt(a), real(3))])
        vg.remove_processor(1)
        assert vg.reals == {2, 3}
        assert vg.virtuals == {b}
        assert vg.sim == {b: 2}
        assert not vg.has_node(virt(a))
        assert vg.neighbors(virt(b)) == set()
        assert vg.neighbors(real(3)) == set()
        assert vg.image == oracle_image(vg)
        assert set(vg.image.edges()) == set()


class TestJournal:
    def test_each_batch_returns_only_its_own_changes(self):
        vg = VirtualGraph()
        for p in (1, 2, 3):
            vg.add_real_node(p)
        first = vg.rewire((), (), [(real(1), real(2))])
        assert first.real_added == {(1, 2)}
        h = vg.vids.take()
        second = vg.rewire((), [(h, 3)], [(virt(h), real(1))])
        assert second == RepairJournal(virtual_added=1, joined={1, 3}, real_added={(1, 3)})
        assert first.real_added == {(1, 2)}

    def test_batch_counts_and_processors(self):
        vg = VirtualGraph.from_graph(Graph(nodes=[5, 9]))
        vid = add_virtual(vg, 9)
        journal = vg.rewire((), (), [(virt(vid), real(5)), (real(9), real(5))])
        assert journal == RepairJournal(virtual_added=2, joined={5, 9}, real_added={(5, 9)})
        other = add_virtual(vg, 5)
        vg.rewire((), (), [(virt(other), virt(vid))])
        journal = vg.rewire([vid], (), ())
        # Both edges of vid go, and r9-r5 still carries the image edge.
        assert journal == RepairJournal(virtual_dropped=2, parted={5, 9})

    def test_dissolved_vid_without_edges_parts_nothing(self):
        vg = VirtualGraph.from_graph(Graph(nodes=[1, 2, 3]))
        lone, wired = add_virtual(vg, 1), add_virtual(vg, 3)
        vg.rewire((), (), [(virt(wired), real(2))])
        assert vg.rewire([lone], (), ()) == RepairJournal()
        journal = vg.rewire([wired], (), ())
        assert journal == RepairJournal(virtual_dropped=1, parted={2, 3}, real_dropped={(2, 3)})

    def test_edge_within_one_processor_is_virtual_only(self):
        # v(h) on 1 joined to r1 maps onto no image edge: a virtual change
        # at processor 1, and no real one.
        vg = VirtualGraph.from_graph(Graph(nodes=[1, 2]))
        h = add_virtual(vg, 1)
        journal = vg.rewire((), (), [(virt(h), real(1))])
        assert journal == RepairJournal(virtual_added=1, joined={1})
        assert vg.rewire([h], (), ()) == RepairJournal(virtual_dropped=1, parted={1})
        assert set(vg.image.edges()) == set() and vg._multiplicity == {}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_image_and_journal_match_recomputation(seed):
    # Random removals and re-wirings, one `rewire` batch each: the
    # maintained image equals the from-scratch image, and each batch's
    # returned changes equal the difference of edge sets before and after.
    rng = random.Random(seed)
    vg = random_virtual_graph(rng)
    assert vg.image == oracle_image(vg)
    for _ in range(rng.randint(1, 12)):
        before = edge_snapshot(vg)
        roll = rng.random()
        if roll < 0.3 and vg.virtuals:
            changes = vg.rewire([rng.choice(sorted(vg.virtuals))], (), ())
        elif roll < 0.5 and len(vg.reals) > 1:
            changes = vg.rewire((), [(vg.vids.take(), rng.choice(sorted(vg.reals)))], ())
        else:
            nodes = [real(p) for p in sorted(vg.reals)] + [virt(v) for v in sorted(vg.virtuals)]
            edges = [tuple(rng.sample(nodes, 2))] if len(nodes) >= 2 else []
            changes = vg.rewire((), (), edges)
        assert vg.image == oracle_image(vg)
        assert effective_counts(vg) == oracle_image_counts(vg)
        assert changes == changes_between(before, edge_snapshot(vg))


def _state(vg: VirtualGraph) -> tuple:
    """Everything a mutation may change."""
    return (
        vg.reals,
        vg.virtuals,
        vg._adj,
        vg.sim,
        vg._hosted,
        vg._declared_below,
        vg._multiplicity,
        vg.image,
    )


def _twin_graphs(seed: int) -> tuple[VirtualGraph, VirtualGraph]:
    """Two equal random virtual graphs."""
    return tuple(
        random_virtual_graph(random.Random(seed), max_reals=8, max_virtuals=12) for _ in range(2)
    )


def _random_batch(rng: random.Random, batched: VirtualGraph, sequential: VirtualGraph):
    """A repair-shaped batch: dissolve some vids, re-declare some of them
    under fresh vids with the same simulator and wire them to the same
    surviving neighbours (so their image pairs fall to 0 and climb back),
    plus random new edges and edges already present. Fresh vids are minted
    from both graphs' counters alike."""
    virtuals = sorted(batched.virtuals)
    dissolve = rng.sample(virtuals, rng.randint(0, len(virtuals)))
    gone = {virt(vid) for vid in dissolve}
    reals = sorted(batched.reals)
    declare, edges = [], []
    for vid in dissolve:
        if rng.random() < 0.6:
            fresh = batched.vids.take()
            sequential.vids.take()
            declare.append((fresh, batched.sim[vid]))
            edges += [(virt(fresh), nbr) for nbr in sorted(batched.neighbors(virt(vid)) - gone)]
    for _ in range(rng.randint(0, 3)):
        fresh = batched.vids.take()
        sequential.vids.take()
        declare.append((fresh, rng.choice(reals)))
    nodes = [real(p) for p in reals] + [virt(v) for v in virtuals if virt(v) not in gone]
    nodes += [virt(vid) for vid, _ in declare]
    present = [e for e in batched.edges() if not gone & set(e)]
    edges += rng.sample(present, min(len(present), rng.randint(0, 3)))
    if len(nodes) >= 2:
        edges += [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(0, 8))]
    edges += rng.sample(edges, min(len(edges), 2))  # some edges twice in one batch
    rng.shuffle(edges)
    return dissolve, declare, edges


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_rewire_matches_the_per_operation_path(seed):
    # One batched rewire leaves exactly what remove_virtual, one-declaration
    # batches and add_virtual_edge leave in sequence: adjacency, simulation map,
    # hosted index, declared watermark, stored image counts and the image; and it
    # returns the changes between snapshots taken before and after. The
    # effective count of every image edge is the recount.
    batched, sequential = _twin_graphs(seed)
    batch = _random_batch(random.Random(seed + 1), batched, sequential)
    assert batched.rewire(*batch) == rewire_in_sequence(sequential, *batch)
    assert _state(batched) == _state(sequential)
    assert batched.image == oracle_image(batched)
    assert effective_counts(batched) == effective_counts(sequential) == oracle_image_counts(batched)
    assert all(count >= 2 for count in batched._multiplicity.values())
    assert batched.audit() == []


class _RecordingGraph(Graph):
    """A Graph that logs every edge mutation."""

    __slots__ = ("calls",)

    def add_edge(self, u, v):
        self.calls.append(("add", u, v))
        return super().add_edge(u, v)

    def remove_edge(self, u, v):
        self.calls.append(("remove", u, v))
        super().remove_edge(u, v)


class TestRewire:
    def test_pair_that_returns_is_not_touched(self):
        # h (on 1) carries the only edge 1-2; its replacement g (on 1) brings
        # it back in the same batch, so the image and the real changes never
        # see it go, while the virtual changes record both virtual edges.
        vg = VirtualGraph()
        for p in (1, 2):
            vg.add_real_node(p)
        h = add_virtual(vg, 1)
        vg.rewire((), (), [(virt(h), real(2))])
        image = _RecordingGraph()
        image._adj, image.calls = vg.image._adj, []
        vg.image = image
        g = vg.vids.take()
        journal = vg.rewire([h], [(g, 1)], [(virt(g), real(2))])
        assert image.calls == []
        assert vg._multiplicity == {}
        assert effective_counts(vg) == oracle_image_counts(vg) == {(1, 2): 1}
        assert set(image.edges()) == {(1, 2)}
        assert journal == RepairJournal(
            virtual_added=1, virtual_dropped=1, joined={1, 2}, parted={1, 2}
        )

    def test_edge_already_present_is_skipped(self):
        vg = VirtualGraph()
        for p in (1, 2):
            vg.add_real_node(p)
        vg.rewire((), (), [(real(1), real(2))])
        assert vg.rewire([], [], [(real(2), real(1)), (real(1), real(2))]) == RepairJournal()
        assert vg._multiplicity == {}
        assert effective_counts(vg) == oracle_image_counts(vg) == {(1, 2): 1}
        assert vg.neighbors(real(1)) == {real(2)}
        # Beside a new edge, the present one counts nowhere either.
        vg.add_real_node(3)
        journal = vg.rewire((), (), [(real(2), real(1)), (real(3), real(2))])
        assert journal == RepairJournal(virtual_added=1, joined={2, 3}, real_added={(2, 3)})


# Malformed batches for `_small_graph`: reals 0..3, vids 0 (on 0) and 1
# (on 1), and vid 2 minted but never declared.
BAD_BATCHES = {
    "dissolve-unknown-vid": ([7], [], []),
    "dissolve-undeclared-vid": ([2], [], []),
    "dissolve-twice": ([0, 0], [], []),
    "declare-spent-vid": ([], [(0, 2)], []),
    "declare-dissolved-vid": ([1], [(1, 2)], []),
    "declare-twice": ([], [(2, 0), (2, 1)], []),
    "declare-unminted-vid": ([], [(9, 0)], []),
    "declare-on-unknown-simulator": ([], [(2, 8)], []),
    "self-loop": ([], [], [(virt(0), virt(0))]),
    "edge-to-unknown-node": ([], [], [(real(0), real(9))]),
    "edge-to-dissolved-node": ([0], [], [(real(2), real(3)), (virt(0), real(2))]),
    "edge-to-undeclared-vid": ([], [], [(virt(2), real(1))]),
}


def _small_graph() -> VirtualGraph:
    vg = VirtualGraph()
    for p in range(4):
        vg.add_real_node(p)
    a, b = add_virtual(vg, 0), add_virtual(vg, 1)
    vg.rewire((), (), [(virt(a), real(2)), (virt(a), virt(b)), (virt(b), real(3))])
    vg.vids.take()
    return vg


@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
def test_rewire_raises_as_the_per_operation_path(case):
    # The same exception type, and, since the counts summed before the
    # failure are still applied, the same graph afterwards.
    batched, sequential = _small_graph(), _small_graph()
    batch = BAD_BATCHES[case]
    with pytest.raises(GraphError) as batched_error:
        batched.rewire(*batch)
    with pytest.raises(GraphError) as sequential_error:
        rewire_in_sequence(sequential, *batch)
    assert batched_error.type is sequential_error.type
    assert _state(batched) == _state(sequential)
    assert effective_counts(batched) == effective_counts(sequential) == oracle_image_counts(batched)
    assert batched.audit() == []


class TestAudit:
    def test_clean(self):
        rng = random.Random(1)
        assert random_virtual_graph(rng).audit() == []

    def test_image_count_and_edge(self):
        # reals {1, 2, 3}; h on 1 with edges to 2 and 3; 1-2 also directly.
        # So (1, 2) has count 2, stored, and (1, 3) count 1, not stored.
        vg = VirtualGraph()
        for p in (1, 2, 3):
            vg.add_real_node(p)
        h = add_virtual(vg, 1)
        vg.rewire((), (), [(virt(h), real(2)), (virt(h), real(3)), (real(1), real(2))])
        assert vg._multiplicity == {(1, 2): 2}
        assert vg.audit() == []
        vg._multiplicity[(1, 2)] += 1  # corrupt: over-counted
        vg._multiplicity[(1, 3)] = 1  # corrupt: a count of 1 stored
        vg.image.add_edge(2, 3)  # corrupt: no preimage
        assert vg.audit() == [
            "image-count: (1, 2) is 3, expected 2",
            "image-count: (1, 3) is stored as 1, below 2",
            "image-edge: (2, 3) is in the image, but no virtual edge maps onto it",
        ]
        vg._multiplicity[(1, 3)] = 2  # corrupt: over-counted, and no longer below 2
        assert vg.audit()[1] == "image-count: (1, 3) is 2, expected 1"
        del vg._multiplicity[(1, 3)]
        del vg._multiplicity[(1, 2)]  # corrupt: a count of 2 lost, read as 1
        vg.image.remove_edge(2, 3)
        assert vg.audit() == ["image-count: (1, 2) is 1, expected 2"]
        vg._multiplicity[(1, 2)] = 2
        assert vg.audit() == []
        vg.image.remove_edge(1, 3)  # corrupt: an edge with a preimage
        assert vg.audit() == ["image-edge: (1, 3) is missing from the image"]
        vg.image.add_edge(1, 3)
        vg.image.remove_edge(1, 2)  # corrupt: an edge with a stored count
        assert vg.audit() == ["image-edge: (1, 2) is missing from the image"]

    def test_hosted_and_spent(self):
        vg = VirtualGraph()
        for p in (1, 2):
            vg.add_real_node(p)
        h, g = add_virtual(vg, 1), add_virtual(vg, 2)
        vg._hosted[1].discard(h)  # corrupt: h missing from its host's index
        vg._hosted[1].add(g)  # corrupt: g indexed under the wrong host
        vg._declared_below = g  # corrupt: a live vid at the watermark
        assert vg.audit() == [
            f"hosted: 1 -> [{g}], expected [{h}]",
            f"unspent-vid: {g}",
        ]

    def test_dangling_simulator(self):
        vg = VirtualGraph()
        vg.add_real_node(1)
        h = add_virtual(vg, 1)
        vg.sim[h] = 99  # corrupt
        assert any(p.startswith("dangling-simulator") for p in vg.audit())

    def test_dangling_edge(self):
        vg = VirtualGraph()
        vg.add_real_node(1)
        vg.add_real_node(2)
        vg.rewire((), (), [(real(1), real(2))])
        vg._adj[real(1)].add(virt(42))  # corrupt
        assert any(p.startswith("dangling-edge") for p in vg.audit())

    def test_problems_come_in_id_order_whatever_the_layout(self):
        # Node 1 of a broken lift has dangling edges to 8 and 16, which
        # share a home slot in a small set, so the order they go in decides
        # the order the set iterates in. Both audits read alike either way.
        audits, layouts = [], []
        for fill in ((0, 8, 16), (0, 16, 8)):
            vg = VirtualGraph.from_graph(Graph(nodes=[0, 1], edges=[(0, 1)]))
            for adj in (vg._adj, vg.image._adj):
                adj[1] = set()
                for w in fill:
                    adj[1].add(w)  # corrupt: 8 and 16 are not nodes
            layouts.append(list(vg._adj[1]))
            audits.append((vg.audit(), vg.image.audit()))
        assert layouts[0] != layouts[1]
        assert audits[0] == audits[1]
        assert audits[0][1] == ["dangling-edge: 1-8", "dangling-edge: 1-16"]
        assert audits[0][0][:2] == ["dangling-edge: r1-r8", "dangling-edge: r1-r16"]


class TestDot:
    def test_shapes_and_labels(self):
        vg = VirtualGraph()
        vg.add_real_node(3)
        h = add_virtual(vg, 3)
        vg.rewire((), (), [(virt(h), real(3))])
        dot = vg.to_dot()
        assert 'shape=circle, label="3"' in dot
        assert f'shape=triangle, label="{h}/3"' in dot
        assert '"r3" -- "v0";' in dot


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_distance_transfer_inequality(seed):
    # dist_image(H(u), H(v)) <= dist_virtual(u, v) for every pair.
    vg = random_virtual_graph(random.Random(seed))
    adj = vg_adj(vg)
    image = vg.de_simulate()
    image_adj = {v: image.neighbors(v) for v in image.nodes}
    for u in adj:
        du = oracle_bfs(adj, u)
        hu = oracle_bfs(image_adj, processor(vg, u))
        for v, d in du.items():
            assert hu[processor(vg, v)] <= d


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_degree_sum_inequality(seed):
    # deg_image(p) <= deg(real p) + sum of deg(virtual v) over sim[v] == p.
    vg = random_virtual_graph(random.Random(seed))
    image = vg.de_simulate()
    for p in vg.reals:
        preimage_total = len(vg.neighbors(real(p))) + sum(
            len(vg.neighbors(virt(v))) for v in vg.virtuals if vg.sim[v] == p
        )
        assert image.degree(p) <= preimage_total


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_de_simulate_is_identity_on_virtual_free_graphs(seed):
    rng = random.Random(seed)
    vg = random_virtual_graph(rng, max_virtuals=0)
    image = vg.de_simulate()
    assert image.nodes == vg.reals
    expected = {(min(node_id(a), node_id(b)), max(node_id(a), node_id(b))) for a, b in vg.edges()}
    assert set(image.edges()) == expected
