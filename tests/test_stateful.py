"""Stateful invariants of every healer under interleaved churn.

A Hypothesis state machine drives each of the five healers through random
inserts and deletes, each applied as an `Event` through `engine.step`, with
exact stretch on every step. After every step `engine.audit` must be clean:
the healer's audit; connectivity and the degree ratio against the full
scans; every shadow and live distance, the maximum stretch and both
diameters against fresh builds; and the adversary's index against a rebuilt
one. The maintained live graph must equal the image recomputed from
scratch. Each event's report, captured from the healer, must equal a
recount from before/after snapshots of the real and virtual graphs: its
edge changes, message count, touched set and max_hops, and every
deletion's connectivity witness, the processors of the virtual edges its
repair added, which must lie in one live component.
"""

from __future__ import annotations

import math
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from selfheal.adversary import Event, StrategySpec
from selfheal.engine import RunConfig, audit, start, step
from selfheal.virtual_graph import is_real, node_id, real, virt

from conftest import adj_of, oracle_bfs, oracle_image, random_graph


class HealerMachine(RuleBasedStateMachine):
    mode = "haft"

    @initialize(seed=st.integers(0, 10**9))
    def start(self, seed):
        self.rng = random.Random(seed)
        initial = random_graph(self.rng, max_nodes=16, p=0.3)
        self.next_id = max(initial.nodes) + 1
        # An online strategy, so that the state keeps an adversary index.
        config = RunConfig(
            initial=initial,
            healer=self.mode,
            strategy=StrategySpec(kind="mixed"),
            exact_apsp_cap=64,
            stretch_samples=0,
        )
        self.state = start(config)
        healer = self.state.healer
        healer.on_insert = self.captured(healer.on_insert)
        healer.on_delete = self.captured(healer.on_delete)

    def captured(self, method):
        """`method`, keeping the report of its last call."""

        def call(*args):
            self.report = method(*args)
            return self.report

        return call

    def apply(self, event):
        step(self.state, event)
        return self.report

    @property
    def vg(self):
        return self.state.healer.vg

    @rule(degree=st.integers(1, 3))
    def insert(self, degree):
        live = sorted(self.vg.reals)
        neighbors = tuple(sorted(self.rng.sample(live, min(degree, len(live)))))
        v, self.next_id = self.next_id, self.next_id + 1
        before = set(oracle_image(self.vg).edges())
        report = self.apply(Event(op="insert", node=v, neighbors=neighbors))
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

        report = self.apply(Event(op="delete", node=v))

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
            return node_id(x) if is_real(x) else sim[node_id(x)]

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
        if hasattr(self, "state"):
            assert self.vg.image == oracle_image(self.vg)
            assert self.state.live_graph() is self.vg.image

    @invariant()
    def audit_clean(self):
        if hasattr(self, "state"):
            assert audit(self.state) == []


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
