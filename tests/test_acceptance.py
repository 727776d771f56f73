"""Acceptance suite: every criterion at its stated tolerance.

Criteria 1-4 share one 500-trial corpus (random trees and connected
Erdos-Renyi graphs, n0=32, T=128 events, 70% deletions, mixed adversary).
Each test prints one pass/fail line on the live terminal.

Criterion 7a (ring healer reaching stretch >= 16 under interior deletions
on a path) is implemented exactly as stated and marked xfail: on a path
every deletion orphans at most the two nearest live path neighbors, the
ring healer then adds the direct edge between them, so the live graph is
always the path over the survivors and stretch never exceeds 1. The
ring-vs-haft separation the exit codes must detect is demonstrated on the
hub-deletion control alongside it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from statistics import median

import pytest

from selfheal.adversary import Event, StrategySpec
from selfheal.cli import loglog_slope, main
from selfheal.engine import RunConfig, run
from selfheal.families import connected_erdos_renyi, path_graph, random_tree, star_graph
from selfheal.graph import INF, Graph, dump_edge_list
from selfheal.haft import build_haft, ceil_log2, haft_slots, leaf_depths, merge_hafts
from selfheal.haft import Internal, LeafSlot, assign_simulators, leaves, validate_haft
from selfheal.virtual_graph import VidSource, node_id, real, virt
from selfheal.adversary import write_trace

from conftest import oracle_bfs, processor, random_virtual_graph, vg_adj

CORPUS_TRIALS = 500
N0 = 32
T_MAX = 128
P_DELETE = 0.7


def _corpus_config(seed: int) -> RunConfig:
    rng = random.Random(f"acceptance:{seed}")
    if seed < CORPUS_TRIALS // 2:
        initial = random_tree(N0, rng)
    else:
        initial = connected_erdos_renyi(N0, 0.15, rng)
    return RunConfig(
        initial=initial,
        healer="haft",
        strategy=StrategySpec(
            kind="mixed", p_delete=P_DELETE, insert_degree=seed % 3 + 1, seed=seed
        ),
        t_max=T_MAX,
        seed=seed,
        exact_apsp_cap=256,
        stretch_samples=1000,
    )


@pytest.fixture(scope="session")
def corpus():
    t0 = time.perf_counter()
    records = []
    heal_time = 0.0
    conn_time = 0.0
    for seed in range(CORPUS_TRIALS):
        state = run(_corpus_config(seed))
        assert state.healer.audit() == [], f"trial {seed}: healer state audit failed"
        heal_time += state.timers.get("heal", 0.0)
        # The t = 0 connectivity scan is timed with the rest of start.
        conn_time += state.timers.get("connectivity", 0.0) + state.timers["start"]
        records.extend(state.records)
    return {
        "records": records,
        "heal_time": heal_time,
        "conn_time": conn_time,
        "wall": time.perf_counter() - t0,
    }


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_connectivity(corpus, capsys):
    records = corpus["records"]
    violations = [r for r in records if not r.connected]
    budget = corpus["heal_time"] + corpus["conn_time"]
    ok = not violations and budget <= 60.0
    announce(
        capsys,
        f"[{'PASS' if ok else 'FAIL'}] criterion 1 connectivity: "
        f"{len(violations)} violations over {len(records)} timesteps in "
        f"{CORPUS_TRIALS} trials; heal+connectivity+start {budget:.1f}s (budget 60s)",
    )
    assert violations == []
    assert budget <= 60.0


def test_criterion_2_degree_factor(corpus, capsys):
    records = corpus["records"]
    hard = [r for r in records if r.max_degree_ratio > Fraction(4)]
    within_target = sum(1 for r in records if r.max_degree_ratio <= Fraction(3))
    frac = within_target / len(records)
    ok = not hard
    announce(
        capsys,
        f"[{'PASS' if ok else 'FAIL'}] criterion 2 degree factor: "
        f"{len(hard)} hard violations (>4x); {frac:.1%} of {len(records)} "
        f"timesteps within the 3x target",
    )
    assert hard == []
    assert frac > 0.5  # the target holds for the overwhelming majority


def test_degree_bound_witness_reaches_four():
    # The 4x bound is tight and the 3x target is not met. A 24-node random
    # tree under clustered deletions 1, 0, 7, 20, 2: at t = 5, node 9 (a
    # tree leaf, shadow degree 1) has lost its only neighbour 0 and has
    # live degree 4. Its slot keeps one image edge, to the simulator of its
    # parent; the helper it simulates (the leftmost leaf of that helper's
    # right subtree) adds three more, to the simulator of the helper's
    # parent and to the images of the helper's two children.
    config = RunConfig(
        initial=random_tree(24, random.Random("0:family")),
        healer="haft",
        strategy=StrategySpec(kind="clustered", seed=0),
        t_max=5,
        exact_apsp_cap=0,
        stretch_samples=0,
    )
    state = run(config)
    assert [e.node for e in state.events] == [1, 0, 7, 20, 2]
    live, vg = state.live_graph(), state.healer.vg
    assert state.shadow.neighbors(9) == {0} and 0 in state.deleted
    assert live.neighbors(9) == {4, 6, 13, 15}
    assert state.records[-1].max_degree_ratio == Fraction(4)
    helpers = [x for x in vg.virtuals if vg.sim[x] == 9]
    assert len(helpers) == 1
    (leaf_edge,) = vg.neighbors(real(9))
    helper_edges = vg.neighbors(virt(helpers[0]))
    assert len(helper_edges) == 3
    assert {vg.sim[node_id(x)] for x in helper_edges | {leaf_edge}} == live.neighbors(9)


def test_criterion_3_stretch(corpus, capsys):
    records = [
        r
        for r in corpus["records"]
        if r.stretch_mode == "exact" and r.live_nodes <= 64 and r.shadow_nodes > 1
    ]
    hard = []
    worst = Fraction(0)
    worst_target_ratio = 0.0
    for r in records:
        bound = 2 * ceil_log2(r.shadow_nodes)
        target = ceil_log2(r.shadow_nodes)
        s = r.max_stretch
        if s is INF or s > bound:
            hard.append(r)
        if isinstance(s, Fraction):
            worst = max(worst, s)
            if target:
                worst_target_ratio = max(worst_target_ratio, float(s) / target)
    ok = not hard
    announce(
        capsys,
        f"[{'PASS' if ok else 'FAIL'}] criterion 3 stretch: {len(hard)} hard "
        f"violations (>2*ceil(log2 n')) over {len(records)} exact timesteps; "
        f"max observed {float(worst):.2f}, worst fraction of the log2-target "
        f"{worst_target_ratio:.2f}",
    )
    assert hard == []


def test_criterion_4_diameter(corpus, capsys):
    records = [r for r in corpus["records"] if r.stretch_mode == "exact"]
    checked = 0
    violations = []
    for r in records:
        dl, ds = r.diameter_live, r.diameter_shadow
        if dl is None or ds is None or dl is INF or ds is INF:
            continue
        checked += 1
        if dl > 2 * ceil_log2(r.shadow_nodes) * ds:
            violations.append(r)
    ok = not violations
    announce(
        capsys,
        f"[{'PASS' if ok else 'FAIL'}] criterion 4 diameter: {len(violations)} "
        f"violations of diameter_live <= 2*ceil(log2 n')*diameter_shadow over "
        f"{checked} finite timesteps",
    )
    assert violations == []


def test_criterion_5_homomorphism_observations(capsys):
    graphs = 10_000
    for seed in range(graphs):
        vg = random_virtual_graph(random.Random(f"homo:{seed}"))
        adj = vg_adj(vg)
        image = vg.de_simulate()
        image_adj = {v: image.neighbors(v) for v in image.nodes}
        for p in vg.reals:
            preimage = len(vg.neighbors(real(p))) + sum(
                len(vg.neighbors(virt(v))) for v in vg.virtuals if vg.sim[v] == p
            )
            assert image.degree(p) <= preimage, f"degree transfer failed, seed {seed}"
        for u in adj:
            du = oracle_bfs(adj, u)
            hu = oracle_bfs(image_adj, processor(vg, u))
            for v, d in du.items():
                assert hu[processor(vg, v)] <= d, f"distance transfer failed, seed {seed}"
    announce(
        capsys,
        f"[PASS] criterion 5 homomorphism: distance and degree transfer hold "
        f"on {graphs} random virtual graphs (<= 40 nodes) against the BFS oracle",
    )


def _slots(procs, base=0):
    return [
        LeafSlot(processor=p, origin=(base, 10 * base + i))
        for i, p in enumerate(procs)
    ]


def test_criterion_6_haft_structure(capsys):
    # exhaustive shape, depth, assignment checks for L <= 64
    for L in range(1, 65):
        h = build_haft(_slots(range(L), base=1), VidSource())
        assert validate_haft(h) == []
        if L > 1:
            assert max(leaf_depths(h)) <= 2 * ceil_log2(L) + 1
        assignment = assign_simulators(h)
        assert len(set(assignment.values())) == len(assignment)
        _assert_subtree_local(h, assignment)
    # exhaustive pairwise merge sizes = binary addition, for la + lb <= 64
    for la in range(1, 33):
        for lb in range(1, 65 - la):
            vids = VidSource()
            a = build_haft(_slots(range(la), base=1), vids)
            b = build_haft(_slots(range(lb), base=2), vids)
            m = merge_hafts(a, b, vids)
            total = la + lb
            expected = [1 << i for i in range(total.bit_length()) if total >> i & 1]
            assert sorted(t.size for t in m.trees) == expected
    # 10^4 random merges preserve the leaf-slot multiset
    rng = random.Random("merges")
    for _ in range(10_000):
        la, lb = rng.randint(1, 32), rng.randint(1, 32)
        vids = VidSource()
        a = build_haft(_slots(range(la), base=1), vids)
        b = build_haft(_slots(range(lb), base=2), vids)
        m = merge_hafts(a, b, vids)
        assert sorted((s.processor, s.origin) for s in haft_slots(m)) == sorted(
            (s.processor, s.origin) for s in haft_slots(a) + haft_slots(b)
        )
        assert validate_haft(m) == []
    announce(
        capsys,
        "[PASS] criterion 6 haft structure: exhaustive L <= 64 depth/assignment "
        "checks, exhaustive merge size sequences, 10000 random merges",
    )


def _assert_subtree_local(h, assignment):
    def walk(node):
        if not isinstance(node, Internal):
            return
        assert assignment[node.vid] in leaves(node)
        walk(node.left)
        walk(node.right)

    root = h.root()
    if root is not None:
        walk(root)


# -- criterion 7: negative controls ------------------------------------------


def _interior_deletion_trace(n: int):
    return tuple(Event(op="delete", node=i) for i in range(1, n - 1))


def _max_stretch(state) -> float:
    values = [
        float(r.max_stretch)
        for r in state.records
        if isinstance(r.max_stretch, Fraction) or r.max_stretch is INF
    ]
    return max(values) if values else 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Unattainable as stated: on a path every deletion orphans at most the "
        "two nearest live path neighbors and the ring healer reconnects them "
        "directly, so the live graph is always the survivor path and stretch "
        "is at most 1 for any interior-deletion script. The intended "
        "separation is demonstrated on the hub-deletion control instead."
    ),
)
def test_criterion_7a_ring_on_path_as_stated(capsys):
    events = _interior_deletion_trace(128)
    ring = run(
        RunConfig(
            initial=path_graph(128),
            healer="ring",
            strategy=StrategySpec(kind="scripted", events=events),
            t_max=len(events),
            seed=0,
            stretch_samples=0,
        )
    )
    ring_stretch = _max_stretch(ring)
    announce(
        capsys,
        f"[FAIL] criterion 7a ring-on-path: max stretch {ring_stretch:.2f} < 16 "
        f"(documented spec defect; see xfail reason and the hub control below)",
    )
    assert ring_stretch >= 16


def test_criterion_7a_haft_on_path_within_bound(capsys):
    events = _interior_deletion_trace(128)
    haft = run(
        RunConfig(
            initial=path_graph(128),
            healer="haft",
            strategy=StrategySpec(kind="scripted", events=events),
            t_max=len(events),
            seed=0,
            stretch_samples=0,
        )
    )
    bound = 2 * ceil_log2(128)
    ok = _max_stretch(haft) <= bound
    announce(
        capsys,
        f"[{'PASS' if ok else 'FAIL'}] criterion 7a haft-on-path: max stretch "
        f"{_max_stretch(haft):.2f} <= {bound}",
    )
    assert _max_stretch(haft) <= bound


def test_criterion_7a_hub_control_separates_by_exit_code(tmp_path, capsys):
    # The achievable ring-vs-haft separation: hub deletions on star(128).
    graph_path = tmp_path / "star.edges"
    dump_edge_list(star_graph(128), graph_path)
    trace_path = tmp_path / "attack.jsonl"
    write_trace([Event(op="delete", node=i) for i in range(8)], trace_path)

    ring = run(
        RunConfig(
            initial=star_graph(128),
            healer="ring",
            strategy=StrategySpec(
                kind="scripted",
                events=tuple(Event(op="delete", node=i) for i in range(8)),
            ),
            t_max=8,
            seed=0,
        )
    )
    haft = run(
        RunConfig(
            initial=star_graph(128),
            healer="haft",
            strategy=StrategySpec(
                kind="scripted",
                events=tuple(Event(op="delete", node=i) for i in range(8)),
            ),
            t_max=8,
            seed=0,
        )
    )
    ring_stretch, haft_stretch = _max_stretch(ring), _max_stretch(haft)

    codes = {}
    for healer in ("ring", "haft"):
        cfg = tmp_path / f"verify_{healer}.cfg"
        cfg.write_text(
            f"graph = {graph_path}\ntrace = {trace_path}\nhealer = {healer}\n",
            encoding="utf-8",
        )
        codes[healer] = main(
            ["verify", "--config", str(cfg), "--out", str(tmp_path / healer), "--quiet"]
        )
    ok = (
        ring_stretch >= 16
        and haft_stretch <= 2 * ceil_log2(128)
        and codes == {"ring": 1, "haft": 0}
    )
    announce(
        capsys,
        f"[{'PASS' if ok else 'FAIL'}] criterion 7a hub control: ring stretch "
        f"{ring_stretch:.2f} >= 16, haft {haft_stretch:.2f} <= 14, cmd_verify "
        f"exits ring={codes['ring']} haft={codes['haft']}",
    )
    assert ring_stretch >= 16
    assert haft_stretch <= 2 * ceil_log2(128)
    assert codes == {"ring": 1, "haft": 0}


def test_criterion_7b_star_healer_degree_blowup(tmp_path, capsys):
    graph_path = tmp_path / "star.edges"
    dump_edge_list(star_graph(12), graph_path)
    events = [Event(op="delete", node=i) for i in range(8)]
    trace_path = tmp_path / "attack.jsonl"
    write_trace(events, trace_path)

    results = {}
    codes = {}
    for healer in ("star", "haft"):
        state = run(
            RunConfig(
                initial=star_graph(12),
                healer=healer,
                strategy=StrategySpec(kind="scripted", events=tuple(events)),
                t_max=len(events),
                seed=0,
            )
        )
        results[healer] = max(float(r.max_degree_ratio) for r in state.records)
        cfg = tmp_path / f"verify_{healer}.cfg"
        cfg.write_text(
            f"graph = {graph_path}\ntrace = {trace_path}\nhealer = {healer}\n",
            encoding="utf-8",
        )
        codes[healer] = main(
            ["verify", "--config", str(cfg), "--out", str(tmp_path / healer), "--quiet"]
        )
    ok = results["star"] > 4 and results["haft"] <= 4 and codes == {"star": 1, "haft": 0}
    announce(
        capsys,
        f"[{'PASS' if ok else 'FAIL'}] criterion 7b star control: star healer "
        f"ratio {results['star']:.1f} > 4 within 8 deletions, haft "
        f"{results['haft']:.1f} <= 4, cmd_verify exits star={codes['star']} "
        f"haft={codes['haft']}",
    )
    assert results["star"] > 4
    assert results["haft"] <= 4
    assert codes == {"star": 1, "haft": 0}


def test_criterion_8_message_economy(capsys):
    ns = (64, 128, 256)
    trials = 3
    medians: dict[str, dict[int, float]] = {"haft": {}, "rebuild": {}}
    touched_points: dict[str, list[tuple[int, float]]] = {"haft": [], "rebuild": []}
    for n in ns:
        for healer in ("haft", "rebuild"):
            messages: list[int] = []
            touched: list[int] = []
            for trial in range(trials):
                rng = random.Random(f"bench:{n}:{trial}")
                state = run(
                    RunConfig(
                        initial=random_tree(n, rng),
                        healer=healer,
                        strategy=StrategySpec(kind="clustered", seed=trial),
                        t_max=n // 2,
                        seed=trial,
                        exact_apsp_cap=0,
                        stretch_samples=0,
                    )
                )
                for r in state.records:
                    if r.op == "delete":
                        messages.append(r.messages)
                        touched.append(r.touched_count)
            medians[healer][n] = float(median(messages))
            touched_points[healer].append((n, float(median(touched))))
    slope_haft = loglog_slope(touched_points["haft"])
    slope_rebuild = loglog_slope(touched_points["rebuild"])
    dominated = all(medians["haft"][n] <= medians["rebuild"][n] for n in ns)
    ok = dominated and slope_haft < slope_rebuild
    announce(
        capsys,
        f"[{'PASS' if ok else 'FAIL'}] criterion 8 message economy: haft median "
        f"messages {[medians['haft'][n] for n in ns]} <= rebuild "
        f"{[medians['rebuild'][n] for n in ns]} at every n; touched-region "
        f"log-log slopes haft {slope_haft:.2f} < rebuild {slope_rebuild:.2f}",
    )
    assert dominated
    assert slope_haft < slope_rebuild


def test_criterion_9_determinism(tmp_path, capsys):
    graph_path = tmp_path / "g.edges"
    dump_edge_list(connected_erdos_renyi(24, 0.15, random.Random("det")), graph_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"graph = {graph_path}\nhealer = haft\nstrategy = mixed\n"
        f"p_delete = 0.7\nT = 48\nseed = 11\n",
        encoding="utf-8",
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("metrics.csv", "live.dot", "virtual.dot", "summary.json")
    )
    announce(
        capsys,
        f"[{'PASS' if identical else 'FAIL'}] criterion 9 determinism: repeated "
        f"runs byte-identical across metrics.csv, live.dot, virtual.dot, summary.json",
    )
    assert identical
