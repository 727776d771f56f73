"""Healer behaviors: baselines, rebuild, and the merging haft healer."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from selfheal import engine, healers
from selfheal.adversary import StrategySpec, next_event, new_state
from selfheal.families import connected_erdos_renyi, path_graph, random_tree, star_graph
from selfheal.graph import Graph, UnknownNodeError
from selfheal.haft import Haft, Internal, LeafSlot, haft_slots, leaves, node_vids, walk
from selfheal.healers import HealerError, make_healer
from selfheal.virtual_graph import VirtualGraph, is_real, node_id, node_name, real, virt

from conftest import adj_of, oracle_bfs

def triangle() -> Graph:
    return Graph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])


class TestPreprocess:
    def test_haft_state_mirrors_triangle(self):
        h = make_healer("haft")
        h.preprocess(triangle())
        assert h.vg.reals == {0, 1, 2}
        assert h.vg.virtuals == set()
        assert h.vg.edge_count == 3

    def test_empty_graph(self):
        h = make_healer("haft")
        report = h.preprocess(Graph())
        assert report.messages == 0
        assert h.live_graph().nodes == set()

    def test_setup_messages_two_per_edge(self):
        h = make_healer("star")
        report = h.preprocess(path_graph(4))
        assert report.messages == 6


class TestInsert:
    @pytest.mark.parametrize("name", ["null", "star", "ring", "rebuild", "haft"])
    def test_insert_attaches(self, name):
        h = make_healer(name)
        h.preprocess(Graph(nodes=[0, 1], edges=[(0, 1)]))
        report = h.on_insert(2, {0, 1})
        live = h.live_graph()
        assert live.has_edge(2, 0) and live.has_edge(2, 1)
        assert report.messages == 2
        assert report.rounds == 1
        assert report.edges_added == set()

    def test_empty_neighbors_rejected(self):
        h = make_healer("haft")
        h.preprocess(triangle())
        with pytest.raises(HealerError):
            h.on_insert(9, set())

    def test_insert_into_empty_network_rejected(self):
        h = make_healer("haft")
        h.preprocess(Graph())
        with pytest.raises(HealerError):
            h.on_insert(0, set())

    def test_unknown_neighbor_rejected(self):
        h = make_healer("haft")
        h.preprocess(triangle())
        with pytest.raises(UnknownNodeError):
            h.on_insert(9, {0, 77})


class TestDeleteBaselines:
    def test_null_disconnects_path(self):
        h = make_healer("null")
        h.preprocess(path_graph(3))
        report = h.on_delete(1)
        assert report.edges_added == set()
        assert not h.live_graph().is_connected()

    def test_star_heals_to_min_id_orphan(self):
        h = make_healer("star")
        h.preprocess(star_graph(5))
        report = h.on_delete(0)
        live = h.live_graph()
        assert report.edges_added == {(1, 2), (1, 3), (1, 4)}
        assert live.degree(1) == 3

    def test_ring_cycle_by_ascending_id(self):
        h = make_healer("ring")
        h.preprocess(star_graph(5))
        h.on_delete(0)
        assert set(h.live_graph().edges()) == {(1, 2), (2, 3), (3, 4), (1, 4)}

    def test_ring_two_orphans_single_edge(self):
        h = make_healer("ring")
        h.preprocess(path_graph(3))
        report = h.on_delete(1)
        assert report.edges_added == {(0, 2)}

    def test_ring_one_orphan_nothing(self):
        h = make_healer("ring")
        h.preprocess(path_graph(2))
        report = h.on_delete(1)
        assert report.edges_added == set()


class TestDeleteHaft:
    def test_path_delete_shortcut(self):
        # a-v-b: two orphans get the direct edge, no virtual nodes.
        h = make_healer("haft")
        h.preprocess(path_graph(3))
        report = h.on_delete(1)
        live = h.live_graph()
        assert set(live.edges()) == {(0, 2)}
        assert h.virtual_node_count() == 0
        assert live.degree(0) == 1 and live.degree(2) == 1
        assert report.edges_added == {(0, 2)}

    def test_degree_zero_delete_empty_report(self):
        h = make_healer("haft")
        g = Graph(nodes=[0, 1, 5], edges=[(0, 1)])
        h.preprocess(g)
        report = h.on_delete(5)
        assert report.edges_added == set()
        assert report.edges_dropped == set()
        assert report.messages == 0
        assert report.rounds == 0
        assert report.touched == set()

    def test_five_neighbor_delete_builds_tree(self):
        # A hub with five neighbors is replaced by a reconstruction tree
        # over five leaf slots (trees of 4 and 1 under one spine node).
        g = star_graph(6)
        h = make_healer("haft")
        h.preprocess(g)
        report = h.on_delete(0)
        assert len(h.hafts) == 1
        (haft,) = h.hafts.values()
        assert sum(t.size for t in haft.trees) == 5
        assert h.virtual_node_count() == 4
        assert report.virtual_nodes_created == 4
        assert h.live_graph().is_connected()

    def test_star_center_delete_degree_ratio(self):
        # eight orphaned leaves with shadow degree 1: hard bound 4x, and the
        # fresh complete tree actually lands on the 3x target
        from fractions import Fraction

        from selfheal.metrics import degree_ratio_max

        h = make_healer("haft")
        h.preprocess(star_graph(9))
        h.on_delete(0)
        live = h.live_graph()
        ratio, _ = degree_ratio_max(live, star_graph(9), {0})
        assert ratio <= Fraction(4)
        assert ratio == Fraction(3)

    def test_lone_orphan_keeps_no_structure(self):
        h = make_healer("haft")
        h.preprocess(path_graph(2))
        report = h.on_delete(1)
        assert h.virtual_node_count() == 0
        assert len(h.hafts) == 0
        assert report.edges_added == set()

    def test_unknown_node(self):
        h = make_healer("haft")
        h.preprocess(path_graph(2))
        with pytest.raises(UnknownNodeError):
            h.on_delete(33)

    def test_live_graph_after_preprocess(self):
        h = make_healer("haft")
        h.preprocess(triangle())
        assert h.live_graph() == triangle()

    def test_preserved_root_changing_simulator_is_an_internal_error(self):
        h = make_healer("haft")
        h.preprocess(star_graph(9))
        h.on_delete(0)
        (haft,) = h.hafts.values()
        kept = haft.trees[0].right  # survives the deletion of leaf 1
        h.vg.sim[kept.vid] = 8 if h.vg.sim[kept.vid] != 8 else 7  # corrupt
        with pytest.raises(HealerError, match="changed simulator"):
            h.on_delete(1)

    def test_preserved_root_changing_simulator_raises_when_nothing_is_minted(self):
        # Trees of 4 and 1 under one spine node, which the lone leaf, 5,
        # simulates. Deleting 5 leaves the tree of 4 as the one piece: the
        # new haft is that tree, and the repair mints nothing.
        h = make_healer("haft")
        h.preprocess(star_graph(6))
        h.on_delete(0)
        (haft,) = h.hafts.values()
        kept = haft.trees[0]
        h.vg.sim[kept.vid] = 1  # corrupt: it is simulated by 3
        with pytest.raises(HealerError, match=f"preserved vid {kept.vid} changed simulator"):
            h.on_delete(5)

    def test_one_slot_per_orphan(self):
        from selfheal.haft import LeafSlot, haft_slots

        h = make_healer("haft")
        h.preprocess(star_graph(6))
        h.on_delete(0)
        (haft,) = h.hafts.values()
        assert haft_slots(haft) == [LeafSlot(w, (0, w)) for w in range(1, 6)]


class TestRebuild:
    def test_rebuild_recreates_all_vids(self):
        g = star_graph(8)
        h = make_healer("rebuild")
        h.preprocess(g)
        h.on_delete(0)
        vids_before = set(h.vg.virtuals)
        h.on_delete(1)
        # every virtual node is fresh after the second rebuild
        assert not (set(h.vg.virtuals) & vids_before)
        assert h.audit() == []

    def test_haft_preserves_some_vids(self):
        g = star_graph(8)
        h = make_healer("haft")
        h.preprocess(g)
        h.on_delete(0)
        vids_before = set(h.vg.virtuals)
        h.on_delete(1)
        assert set(h.vg.virtuals) & vids_before
        assert h.audit() == []


def _healed_haft():
    # Trees of 4, 2 and 1 leaves under a two-node spine: the hub's deletion
    # builds one tree of 8, and the deletion of leaf 1 splits and remerges it.
    h = make_healer("haft")
    h.preprocess(star_graph(9))
    h.on_delete(0)
    h.on_delete(1)
    (hid,) = h.hafts
    assert [t.size for t in h.hafts[hid].trees] == [4, 2, 1]
    assert h.audit() == []
    return h, hid


def _corrupt_parent(h, hid):
    key = h.hafts[hid].trees[0].left.vid
    h.parent[key] = -1
    return f"parent[{key}]: -1, expected {h.hafts[hid].trees[0].vid}"


def _extra_virtual_edge(h, hid):
    # The virtual edges alone say which vid holds which slot, so an edge
    # that no haft has would mark the wrong path at 8's deletion.
    vid = h.hafts[hid].trees[0].vid
    h.vg.rewire((), (), [(virt(vid), 8)])
    return f"virtual edge r8-v{vid} in no haft"


def _corrupt_haft_key(h, hid):
    # Filed under the vid of a tree, not of the spine node at its root.
    key = h.hafts[hid].trees[1].vid
    h.hafts[key] = h.hafts.pop(hid)
    return f"haft {key}: root key is {hid}"


def _corrupt_virtual_edge(h, hid):
    root = h.hafts[hid].trees[0]
    a, b = virt(root.vid), virt(root.left.vid)
    h.vg._adj[a].discard(b)
    h.vg._adj[b].discard(a)
    return f"haft {hid}: edge {node_name(a)}-{node_name(b)} missing from virtual graph"


def _corrupt_simulator(h, hid):
    vid = h.hafts[hid].trees[0].vid
    h.vg.sim[vid] = 8 if h.vg.sim[vid] != 8 else 7
    return f"haft {hid}: vid {vid} simulator mismatch"


def _short_spine(h, hid):
    haft = h.hafts[hid]
    h.hafts[hid] = Haft(trees=haft.trees, spine=haft.spine[:-1])
    return f"haft {hid}: spine-length: 1 for 3 trees"


def _stray_virtual(h, hid):
    vid = h.vg.vids.take()
    h.vg.rewire((), [(vid, 2)], ())
    return f"virtual nodes outside any haft: [{vid}]"


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_parent,
        _extra_virtual_edge,
        _corrupt_haft_key,
        _corrupt_virtual_edge,
        _corrupt_simulator,
        _short_spine,
        _stray_virtual,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_haft_audit_names_each_corrupted_fact(corrupt):
    h, hid = _healed_haft()
    expected = corrupt(h, hid)
    problems = h.audit()
    assert any(p.startswith(expected) for p in problems), problems


def test_parent_chain_runs_from_each_slot_through_the_spine_to_the_haft_key():
    h, hid = _healed_haft()
    haft = h.hafts[hid]
    depth = {x.origin: d for x, _, d in walk(haft.root()) if isinstance(x, LeafSlot)}
    last = len(haft.spine) - 1
    for i, tree in enumerate(haft.trees):
        # trees[i] hangs from spine[i], and the last tree from the last spine node.
        spine_path = [haft.spine[j] for j in range(min(i, last), -1, -1)]
        for slot in leaves(tree):
            # Every slot here has a processor of its own, so the
            # processor's one virtual neighbour is the slot's parent.
            (up,) = h.vg._adj[slot.processor] - h.vg.reals
            chain = [node_id(up)]
            while chain[-1] in h.parent:
                chain.append(h.parent[chain[-1]])
            assert len(chain) == depth[slot.origin]
            assert chain[len(chain) - len(spine_path) :] == spine_path
    assert spine_path[-1] == hid


@pytest.mark.parametrize("name,messages", [("rebuild", 5), ("haft", 3)])
def test_sibling_slots_of_one_processor_share_one_virtual_edge(name, messages):
    # K(2,3), hubs 0 and 1 and leaves 2-4: after 0, 1 and 2 go, the four
    # surviving slots pair up by processor, so slots (0, 3) and (1, 3) are
    # siblings under one vid, wired to 3 by one virtual edge.
    g = Graph(nodes=range(5), edges=[(hub, leaf) for hub in (0, 1) for leaf in (2, 3, 4)])
    h = make_healer(name)
    h.preprocess(g)
    for v in (0, 1, 2):
        h.on_delete(v)
        assert h.audit() == []
    (hid,) = h.hafts
    (up,) = h.vg._adj[3] - h.vg.reals
    sibling = Internal(node_id(up), LeafSlot(3, (0, 3)), LeafSlot(3, (1, 3)))
    assert h.hafts[hid].trees[0].left == sibling
    report = h.on_delete(3)
    assert h.audit() == []
    assert report.messages == messages


def scripted_churn(healer_name: str, seed: int, n0: int = 24, steps: int = 60):
    """Drive a healer directly with a mixed adversary; return reports."""
    rng = random.Random(f"churn:{seed}")
    initial = (
        random_tree(n0, rng) if seed % 2 else connected_erdos_renyi(n0, 0.2, rng)
    )
    healer = make_healer(healer_name)
    healer.preprocess(initial)
    shadow = initial.copy()
    spec = StrategySpec(kind="mixed", p_delete=0.7, insert_degree=2, seed=seed)
    adv = new_state(spec, seed)
    reports = []
    pre_lives = []
    for _ in range(steps):
        live = healer.live_graph()
        if live.node_count == 0:
            break
        event = next_event(spec, live, shadow, adv)
        if event is None:
            break
        if event.op == "insert":
            shadow.add_node(event.node)
            for w in event.neighbors:
                shadow.add_edge(event.node, w)
            reports.append((event, healer.on_insert(event.node, set(event.neighbors))))
        else:
            pre_lives.append((event.node, live))
            reports.append((event, healer.on_delete(event.node)))
    return healer, shadow, reports


@pytest.mark.parametrize("name", ["star", "ring", "rebuild", "haft"])
def test_connectivity_preserved_under_churn(name):
    for seed in range(6):
        healer, shadow, reports = scripted_churn(name, seed)
        live = healer.live_graph()
        assert live.is_connected()


def test_haft_degree_hard_bound_under_churn():
    for seed in range(8):
        healer, shadow, reports = scripted_churn("haft", seed)
        live = healer.live_graph()
        for v in live.nodes:
            assert live.degree(v) <= 4 * shadow.degree(v)
        assert healer.audit() == []


def test_report_invariants_under_churn():
    for seed in range(6):
        healer, shadow, reports = scripted_churn("haft", seed)
        for event, report in reports:
            endpoints = {x for e in report.edges_added | report.edges_dropped for x in e}
            assert endpoints <= report.touched
            assert report.messages >= len(report.edges_added) + len(report.edges_dropped)


def test_haft_locality_bound_under_churn():
    # Touched nodes stay within 2*ceil(log2 n') + 2 hops of the deletion.
    from selfheal.haft import ceil_log2

    for seed in range(6):
        healer, shadow, reports = scripted_churn("haft", seed)
        for event, report in reports:
            if event.op != "delete":
                continue
            bound = 2 * ceil_log2(shadow.node_count) + 2
            assert report.max_hops <= bound


def test_haft_deletion_never_walks_a_whole_haft(monkeypatch):
    # The whole-haft walks are oracles for the audit and the tests; a haft
    # run heals from the maps and the cached subtree facts alone. (rebuild
    # walks its region by design.)
    def config():
        return engine.RunConfig(
            initial=random_tree(256, random.Random("locality")),
            healer="haft",
            strategy=StrategySpec(kind="clustered", seed=3),
            t_max=64,
            seed=3,
            exact_apsp_cap=0,
            stretch_samples=0,
        )

    expected = engine.run(config()).records

    def whole_haft_walk(*args, **kwargs):
        raise AssertionError("a whole-haft walk ran on the deletion path")

    for name in ("walk", "haft_slots", "split_out", "assign_simulators"):
        monkeypatch.setattr(healers, name, whole_haft_walk)
    state = engine.run(config())
    assert state.records == expected
    assert len(state.healer.hafts) > 0


REAL_FLOOR = healers.SEARCH_FLOOR


def _closes_alone(dist: dict, targets: set, floor: int) -> bool:
    """Whether `_farthest` ends before it grows any target's own ball, by
    its rule read off the exact distances:
    v's frontier after h hops is the nodes at distance h, and the ball
    grows alone while that frontier holds at most `floor` nodes or no more
    than the targets still open."""
    layer = Counter(dist.values())
    for hops in itertools.count():
        still_open = sum(1 for t in targets if dist.get(t, hops + 1) > hops)
        if not still_open or not layer[hops]:
            return True
        if layer[hops] > floor and layer[hops] > still_open:
            return False


@pytest.mark.parametrize("floor", [0, 4, REAL_FLOOR])
@pytest.mark.parametrize("family", ["tree", "er"])
def test_farthest_matches_a_full_bfs(family, floor, monkeypatch):
    # Graphs large enough for the search to grow balls around the targets
    # at the real floor; lower floors make it do so on every search. The
    # sparse ER graphs fall apart, so some targets are out of reach. Up to
    # 12 targets anywhere, then up to 80, past the floor, either anywhere
    # or, as a repair's touched nodes are, among the nodes nearest v: v's
    # ball alone may then close every target, and otherwise the search
    # switches to the balls of the targets still open.
    monkeypatch.setattr(healers, "SEARCH_FLOOR", floor)
    paths = Counter()
    for seed in range(8):
        rng = random.Random(seed)
        if family == "tree":
            g = random_tree(400, rng)
        else:
            g = Graph(nodes=range(300))
            for _ in range(330):
                a, b = rng.sample(range(300), 2)
                g.add_edge(a, b)
        adj = adj_of(g)
        for most, near in ((12, False), (80, False), (80, True)):
            for _ in range(20):
                v = rng.randrange(g.node_count)
                dist = oracle_bfs(adj, v)
                k = rng.randint(1, most)
                pool = sorted(g.nodes - {v})
                if near:
                    pool = sorted(pool, key=lambda x: dist.get(x, len(pool)))[: 2 * k]
                targets = set(rng.sample(pool, k))
                expected = max((dist[t] for t in targets if t in dist), default=0)
                assert healers._farthest(g._adj, v, targets) == expected
                paths[len(targets) > REAL_FLOOR, _closes_alone(dist, targets, floor)] += 1
    # Both paths run at every floor, and at the real one on sets past it.
    assert {alone for _, alone in paths} == {True, False}, paths
    if floor == REAL_FLOOR:
        assert paths[True, True] and paths[True, False], paths


@pytest.mark.parametrize("name", ["haft", "rebuild"])
def test_install_wires_exactly_the_minted_nodes(name, monkeypatch):
    # Against a walk of each new haft: a repair declares the vids that
    # `_assemble` minted, carries and spine, each simulated by the leftmost
    # slot of its right subtree, and adds one edge from each new node to
    # each of its two children, and no other edge.
    on_delete, assemble, rewire = healers.HaftHealer.on_delete, healers._assemble, VirtualGraph.rewire
    assembled, batches, sizes = [], [], []

    def recording_assemble(items, vids):
        before = vids.next_vid
        new_haft, carries = assemble(items, vids)
        assembled.append((new_haft, range(before, vids.next_vid)))
        return new_haft, carries

    def recording_rewire(vg, dissolve, declare, edges):
        declare, edges = list(declare), list(edges)
        batches.append((declare, edges))
        return rewire(vg, dissolve, declare, edges)

    def checked_on_delete(healer, v):
        assembled.clear()
        batches.clear()
        report = on_delete(healer, v)
        ((declare, edges),) = batches
        if not assembled:
            assert declare == []
            return report
        ((new_haft, minted),) = assembled
        new = [x for x, _, _ in walk(new_haft.root()) if isinstance(x, Internal) and x.vid in minted]
        assert sorted(vid for vid, _ in declare) == list(minted) == sorted(x.vid for x in new)
        simulators = dict(declare)
        for x in new:
            assert simulators[x.vid] == leaves(x.right)[0].processor
        children = Counter(
            (virt(x.vid), virt(c.vid) if isinstance(c, Internal) else real(c.processor))
            for x in new
            for c in (x.left, x.right)
        )
        assert Counter(edges) == children
        sizes.append((len(new), len(new_haft.spine)))
        return report

    monkeypatch.setattr(healers, "_assemble", recording_assemble)
    monkeypatch.setattr(VirtualGraph, "rewire", recording_rewire)
    monkeypatch.setattr(healers.HaftHealer, "on_delete", checked_on_delete)
    config = engine.RunConfig(
        initial=random_tree(128, random.Random("install")),
        healer=name,
        strategy=StrategySpec(kind="clustered", seed=5),
        t_max=48,
        seed=5,
        exact_apsp_cap=0,
        stretch_samples=0,
    )
    state = engine.run(config)
    # Every deletion repairs into a haft, and some mint carries too.
    assert len(sizes) == 48 and any(size > spine for size, spine in sizes)
    assert state.healer.audit() == []


@pytest.mark.parametrize("seed", range(4))
def test_rebuild_dissolves_each_affected_haft_whole(seed, monkeypatch):
    # Against the whole-haft oracles, taken before each deletion: the vids
    # that leave the virtual graph are those of the hafts holding a slot of
    # the deleted node, the batch dissolves all of them but the deleted
    # node's own, and the new haft's slots are the survivors and the new
    # slots in slot order.
    on_delete, rewire = healers.HaftHealer.on_delete, VirtualGraph.rewire
    batches = []

    def recording_rewire(vg, dissolve, declare, edges):
        batches.append(list(dissolve))
        return rewire(vg, dissolve, declare, edges)

    regions = []

    def checked_on_delete(healer, v):
        before = dict(healer.hafts)
        affected = [h for h in before.values() if any(s.processor == v for s in haft_slots(h))]
        sim = dict(healer.vg.sim)
        direct = sorted(node_id(w) for w in healer.vg.neighbors(real(v)) if is_real(w))
        batches.clear()
        report = on_delete(healer, v)
        vids = {vid for h in affected for vid in node_vids(h.root())}
        (dissolve,) = batches
        assert sorted(dissolve) == sorted(vid for vid in vids if sim[vid] != v)
        assert set(sim) - set(healer.vg.sim) == vids
        slots = [s for h in affected for s in haft_slots(h) if s.processor != v]
        slots += [LeafSlot(w, (min(v, w), max(v, w))) for w in direct]
        new = [h for key, h in healer.hafts.items() if key not in before]
        assert [haft_slots(h) for h in new] == ([sorted(slots)] if len(slots) > 2 else [])
        regions.append(len(affected))
        return report

    monkeypatch.setattr(VirtualGraph, "rewire", recording_rewire)
    monkeypatch.setattr(healers.HaftHealer, "on_delete", checked_on_delete)
    # Random churn on a sparse random graph leaves hafts apart, so that
    # some deletions dissolve two or three hafts into one.
    config = engine.RunConfig(
        initial=connected_erdos_renyi(96, 0.08, random.Random(seed)),
        healer="rebuild",
        strategy=StrategySpec(kind="random", seed=seed),
        t_max=48,
        seed=seed,
        exact_apsp_cap=0,
        stretch_samples=0,
    )
    state = engine.run(config)
    assert len(regions) >= 12 and max(regions) >= 2
    assert state.healer.audit() == []
