"""Stateful invariants of every healer under interleaved churn.

A Hypothesis state machine drives each of the five healers through random
inserts and deletes. After every step the maintained live graph must equal
the image recomputed from scratch, the healer's audit must be clean, and
the report's edge changes, message count, touched set and max_hops must
equal a recount from before/after snapshots of the real and virtual graphs.
An `engine.LiveMeasure` fed each report must agree with the full
connectivity and degree-ratio scans, and an `engine.DistanceOracle` fed the
same events must hold the live graph's all-pairs distances entry by entry,
as one breadth-first search per source finds them. An `AdversaryIndex` fed
each event and its touched set must equal one rebuilt from the live graph,
and every deletion's connectivity witness, the processors of the virtual
edges its repair added, must lie in one live component.
"""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from selfheal.adversary import AdversaryIndex
from selfheal.engine import DistanceOracle, LiveMeasure
from selfheal.healers import make_healer
from selfheal.metrics import degree_ratio_max
from selfheal.virtual_graph import real, virt

from conftest import adj_of, index_view, oracle_apsp_bfs, oracle_bfs, oracle_image, random_graph


class HealerMachine(RuleBasedStateMachine):
    mode = "haft"

    @initialize(seed=st.integers(0, 10**9))
    def start(self, seed):
        self.rng = random.Random(seed)
        self.healer = make_healer(self.mode)
        initial = random_graph(self.rng, max_nodes=16, p=0.3)
        self.healer.preprocess(initial)
        self.next_id = max(initial.nodes) + 1
        self.shadow, self.deleted = initial.copy(), set()
        self.measure = LiveMeasure(self.shadow, self.deleted)
        live = self.healer.live_graph()
        self.connected = self.measure.connected(live, "init", ())
        self.ratio = self.measure.refresh(live, "init", -1, ())
        self.distances = DistanceOracle(self.healer.live_graph())
        self.distances.matrix()
        self.index = AdversaryIndex(self.healer.live_graph(), self.shadow)

    def measured(self, op, node, report):
        live = self.healer.live_graph()
        self.connected = self.measure.connected(live, op, report.touched, report.witness)
        self.ratio = self.measure.refresh(live, op, node, report.touched)
        self.index.update(op, node, report.touched)

    @property
    def vg(self):
        return self.healer.vg

    @rule(degree=st.integers(1, 3))
    def insert(self, degree):
        live = sorted(self.vg.reals)
        neighbors = set(self.rng.sample(live, min(degree, len(live))))
        v, self.next_id = self.next_id, self.next_id + 1
        before = set(oracle_image(self.vg).edges())
        self.shadow.add_node(v)
        for w in neighbors:
            self.shadow.add_edge(v, w)
        report = self.healer.on_insert(v, neighbors)
        self.measured("insert", v, report)
        self.distances.insert(v, neighbors)
        after = set(oracle_image(self.vg).edges())
        assert after - before == {(min(v, w), max(v, w)) for w in neighbors}
        assert before <= after
        assert report.messages == len(neighbors)

    # The last live node stays, so that inserts always have a neighbor.
    @precondition(lambda self: len(self.vg.reals) > 1)
    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick):
        vg = self.vg
        live = sorted(vg.reals)
        v = live[pick % len(live)]
        before_image = oracle_image(vg)
        hops = oracle_bfs(adj_of(before_image), v)
        notified = before_image.neighbors(v)
        before_real = {e for e in before_image.edges() if v not in e}
        doomed = {real(v)} | {virt(x) for x in vg.virtuals if vg.sim[x] == v}
        before_virtual = {e for e in vg.edge_set() if not doomed & set(e)}
        before_sim = dict(vg.sim)
        before_virtuals = set(vg.virtuals)

        self.deleted.add(v)
        report = self.healer.on_delete(v)
        self.measured("delete", v, report)
        self.distances.remove(v, report.edges_added, report.edges_dropped)

        after_real = set(oracle_image(vg).edges())
        after_virtual = vg.edge_set()
        assert report.edges_added == after_real - before_real
        assert report.edges_dropped == before_real - after_real
        v_added = after_virtual - before_virtual
        v_dropped = before_virtual - after_virtual
        created = len(vg.virtuals - before_virtuals)
        assert report.virtual_nodes_created == created
        assert report.messages == len(notified) + 2 * (len(v_added) + len(v_dropped)) + created

        def proc(x, sim):
            return x.id if x.kind == "r" else sim[x.id]

        touched = set(notified)
        for a, b in report.edges_added | report.edges_dropped:
            touched.update((a, b))
        for a, b in v_added:
            touched.update((proc(a, vg.sim), proc(b, vg.sim)))
        for a, b in v_dropped:
            touched.update((proc(a, before_sim), proc(b, before_sim)))
        assert report.touched == touched
        # The witness: the processors of the added virtual edges, in one
        # live component.
        ends = {x for edge in v_added for x in edge}
        assert report.witness == {proc(x, vg.sim) for x in ends}
        if report.witness:
            reach = oracle_bfs(adj_of(vg.image), min(report.witness))
            assert report.witness <= touched and report.witness <= reach.keys()
        assert report.max_hops == max((hops[p] for p in touched if p in hops), default=0)
        if self.mode in ("haft", "rebuild"):
            assert report.rounds == (1 + math.ceil(math.log2(len(touched))) if touched else 0)
        else:
            assert report.rounds == (1 if touched else 0)
            assert not vg.virtuals  # a baseline adds real edges only

    @invariant()
    def image_matches_oracle(self):
        if hasattr(self, "healer"):
            assert self.vg.image == oracle_image(self.vg)
            assert self.healer.live_graph() is self.vg.image

    @invariant()
    def measure_matches_full_scans(self):
        if hasattr(self, "healer"):
            live = self.healer.live_graph()
            assert self.connected == live.is_connected()
            assert self.ratio == degree_ratio_max(live, self.shadow, self.deleted)[0]

    @invariant()
    def live_distances_match_fresh_apsp(self):
        if hasattr(self, "healer"):
            dist, index = self.distances.matrix()
            fresh, fresh_index = oracle_apsp_bfs(adj_of(self.healer.live_graph()))
            assert set(index) == set(fresh_index)
            assert dist.shape == fresh.shape
            nodes = sorted(index)
            rows = [index[v] for v in nodes]
            fresh_rows = [fresh_index[v] for v in nodes]
            np.testing.assert_array_equal(
                dist[np.ix_(rows, rows)], fresh[np.ix_(fresh_rows, fresh_rows)]
            )

    @invariant()
    def index_matches_a_rebuilt_one(self):
        if hasattr(self, "healer"):
            live = self.healer.live_graph()
            fresh = AdversaryIndex(live, self.shadow)
            assert index_view(self.index, live) == index_view(fresh, live)

    @invariant()
    def audit_clean(self):
        if hasattr(self, "healer"):
            assert self.healer.audit() == []


class RebuildMachine(HealerMachine):
    mode = "rebuild"


class NullMachine(HealerMachine):
    mode = "null"


class StarMachine(HealerMachine):
    mode = "star"


class RingMachine(HealerMachine):
    mode = "ring"


SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)

TestHaftStateful = HealerMachine.TestCase
TestHaftStateful.settings = SETTINGS
TestRebuildStateful = RebuildMachine.TestCase
TestRebuildStateful.settings = SETTINGS
TestNullStateful = NullMachine.TestCase
TestNullStateful.settings = SETTINGS
TestStarStateful = StarMachine.TestCase
TestStarStateful.settings = SETTINGS
TestRingStateful = RingMachine.TestCase
TestRingStateful.settings = SETTINGS
