"""Haft shape, merging as binary addition, and simulator assignment."""

from __future__ import annotations

import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfheal.haft import (
    EmptySlotsError,
    Haft,
    Internal,
    LeafSlot,
    OriginOverlapError,
    _assemble,
    assign_simulators,
    build_haft,
    ceil_log2,
    haft_slots,
    leaf_depths,
    leaves,
    merge_hafts,
    node_vids,
    split_marked,
    split_out,
    to_virtual_edges,
    validate_haft,
    walk,
)
from selfheal.virtual_graph import VidSource, VirtualGraph


def make_slots(procs, origin_base=1000):
    return [LeafSlot(processor=p, origin=(p, origin_base + i)) for i, p in enumerate(procs)]


def _materialize(h, assignment):
    """De-simulated image of a lone haft."""
    vg = VirtualGraph(vids=VidSource(start=max(node_vids(h.root()), default=0) + 1))
    for slot in haft_slots(h):
        if slot.processor not in vg.reals:
            vg.add_real_node(slot.processor)
    vg.rewire((), *to_virtual_edges(h, assignment))
    return vg.de_simulate()


class TestBuild:
    def test_single_slot(self):
        h = build_haft(make_slots([1]), VidSource())
        assert sum(t.size for t in h.trees) == 1
        assert node_vids(h.root()) == []
        assert leaf_depths(h) == [0]

    def test_power_of_two(self):
        h = build_haft(make_slots([1, 2, 3, 4]), VidSource())
        assert [t.size for t in h.trees] == [4]
        assert len(set(node_vids(h.root()))) == 3
        assert leaf_depths(h) == [2, 2, 2, 2]

    def test_five_slots(self):
        h = build_haft(make_slots([1, 2, 3, 4, 5]), VidSource())
        assert [t.size for t in h.trees] == [4, 1]
        assert leaf_depths(h) == [3, 3, 3, 3, 1]
        assert max(leaf_depths(h)) == ceil_log2(5)
        assert validate_haft(h) == []

    def test_order_preserved(self):
        procs = [9, 4, 7, 1, 8]
        h = build_haft(make_slots(procs), VidSource())
        assert [s.processor for s in haft_slots(h)] == procs

    def test_empty_rejected(self):
        with pytest.raises(EmptySlotsError):
            build_haft([], VidSource())

    def test_duplicate_origin_rejected(self):
        slot = LeafSlot(processor=1, origin=(0, 1))
        with pytest.raises(OriginOverlapError):
            build_haft([slot, slot], VidSource())

    def test_deterministic(self):
        a = build_haft(make_slots([1, 2, 3, 4, 5, 6]), VidSource())
        b = build_haft(make_slots([1, 2, 3, 4, 5, 6]), VidSource())
        assert a == b


class TestMerge:
    def test_three_plus_one_carries_to_four(self):
        vids = VidSource()
        a = build_haft(make_slots([1, 2, 3]), vids)
        b = build_haft(make_slots([4], origin_base=2000), vids)
        m = merge_hafts(a, b, vids)
        assert [t.size for t in m.trees] == [4]
        assert validate_haft(m) == []

    def test_one_plus_one(self):
        vids = VidSource()
        a = build_haft(make_slots([1]), vids)
        b = build_haft(make_slots([2], origin_base=2000), vids)
        m = merge_hafts(a, b, vids)
        assert [t.size for t in m.trees] == [2]
        assert leaf_depths(m) == [1, 1]

    def test_four_plus_two_no_carry(self):
        vids = VidSource()
        a = build_haft(make_slots([1, 2, 3, 4]), vids)
        b = build_haft(make_slots([5, 6], origin_base=2000), vids)
        m = merge_hafts(a, b, vids)
        assert [t.size for t in m.trees] == [4, 2]
        assert len(m.spine) == 1
        # untouched complete trees keep their internal vids
        assert set(node_vids(a.trees[0])) <= set(node_vids(m.root()))
        assert set(node_vids(b.trees[0])) <= set(node_vids(m.root()))

    def test_untouched_trees_keep_assignments(self):
        vids = VidSource()
        a = build_haft(make_slots([1, 2, 3, 4]), vids)
        b = build_haft(make_slots([5, 6], origin_base=2000), vids)
        before = assign_simulators(a)
        m = merge_hafts(a, b, vids)
        after = assign_simulators(m)
        for vid, slot in before.items():
            assert after[vid] == slot

    def test_overlapping_origins_rejected(self):
        vids = VidSource()
        a = build_haft(make_slots([1, 2]), vids)
        b = build_haft(make_slots([1, 2]), vids)
        with pytest.raises(OriginOverlapError):
            merge_hafts(a, b, vids)


class TestAssignment:
    def test_two_leaves_root_simulated_by_second(self):
        h = build_haft(make_slots([10, 20]), VidSource())
        assignment = assign_simulators(h)
        assert [s.processor for s in assignment.values()] == [20]

    @pytest.mark.parametrize("merged", [False, True], ids=["built", "merged"])
    @pytest.mark.parametrize("L", list(range(1, 65)))
    def test_leftmost_of_right_subtree_and_injective(self, L, merged):
        vids = VidSource()
        la = (L + 2) // 3 if merged else L
        h = build_haft(make_slots(range(la)), vids)
        if la < L:  # merging carries, and the trees that do not carry keep their vids
            h = merge_hafts(h, build_haft(make_slots(range(100, 100 + L - la)), vids), vids)
        assert sum(t.size for t in h.trees) == L
        assignment = assign_simulators(h)
        assert len(assignment) == L - 1
        stack = [h.root()]
        while stack:
            node = stack.pop()
            if not isinstance(node, Internal):
                continue
            assert assignment[node.vid] == leaves(node.right)[0]
            stack += [node.left, node.right]
        # Injective: every leaf but the leftmost simulates exactly one node.
        assert sorted(assignment.values()) == sorted(haft_slots(h)[1:])

    def test_single_leaf_empty(self):
        h = build_haft(make_slots([1]), VidSource())
        assert assign_simulators(h) == {}

    def test_subtree_local(self):
        h = build_haft(make_slots(list(range(1, 14))), VidSource())
        assignment = assign_simulators(h)

        def check(node):
            if not isinstance(node, Internal):
                return
            assert assignment[node.vid] in leaves(node)
            check(node.left)
            check(node.right)

        check(h.root())


class TestVirtualEdges:
    def test_single_leaf_nothing(self):
        h = build_haft(make_slots([1]), VidSource())
        decls, edges = to_virtual_edges(h, assign_simulators(h))
        assert decls == [] and edges == []

    def test_two_leaves_image_is_single_edge(self):
        h = build_haft(make_slots([10, 20]), VidSource())
        image = _materialize(h, assign_simulators(h))
        assert set(image.edges()) == {(10, 20)}

    def test_three_leaves_counts_and_degrees(self):
        h = build_haft(make_slots([1, 2, 3]), VidSource())
        decls, edges = to_virtual_edges(h, assign_simulators(h))
        assert len(decls) == 2
        assert len(edges) == 4
        image = _materialize(h, assign_simulators(h))
        assert all(image.degree(p) <= 3 for p in image.nodes)


class TestSplitOut:
    def test_survivors_keep_vids(self):
        vids = VidSource()
        h = build_haft(make_slots([1, 2, 3, 4, 5]), vids)
        pieces, dissolved = split_out(h, 5)
        assert sum(p.size for p in pieces) == 4
        assert set(node_vids(h.trees[0])) == {
            v for p in pieces for v in node_vids(p)
        }
        assert set(dissolved) >= set(h.spine)

    def test_interior_slot_decomposes(self):
        vids = VidSource()
        h = build_haft(make_slots([1, 2, 3, 4]), vids)
        pieces, dissolved = split_out(h, 2)
        assert sorted(p.size for p in pieces) == [1, 2]
        assert len(dissolved) == 2  # the leaf's parent and the root

    def test_unaffected_tree_is_one_piece(self):
        vids = VidSource()
        h = build_haft(make_slots([1, 2, 3, 4, 5, 6]), vids)  # trees [4, 2]
        pieces, _ = split_out(h, 5)
        assert sorted(p.size for p in pieces) == [1, 4]


def _leaf(i, origin=None):
    return LeafSlot(i, origin or (0, i))


class TestInternalValue:
    def _node(self):
        return Internal(10, Internal(11, _leaf(2), _leaf(1)), Internal(12, _leaf(3), _leaf(4)))

    def test_eq_and_hash_ignore_the_cached_facts(self):
        a, b = self._node(), self._node()
        object.__setattr__(b, "size", 9)
        object.__setattr__(b, "low", _leaf(7))
        assert a == b and hash(a) == hash(b)
        assert a != Internal(13, a.left, a.right)
        assert a != Internal(10, a.right, a.left)
        assert a != (10, a.left, a.right)

    @pytest.mark.parametrize("name", ["vid", "left", "right", "size", "first", "low"])
    def test_assignment_raises(self, name):
        node = self._node()
        with pytest.raises(AttributeError):
            setattr(node, name, 1)
        with pytest.raises(AttributeError):
            delattr(node, name)
        assert node == self._node() and node.size == 4

    def test_repr(self):
        assert repr(Internal(5, _leaf(1), _leaf(2))) == (
            "Internal(vid=5, left=LeafSlot(processor=1, origin=(0, 1)), "
            "right=LeafSlot(processor=2, origin=(0, 2)))"
        )

    @pytest.mark.parametrize(
        "round_trip",
        [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["deepcopy", "pickle"],
    )
    def test_round_trip_keeps_the_value_and_the_cached_facts(self, round_trip):
        node = self._node()
        back = round_trip(node)
        assert back == node and back is not node
        assert (back.size, back.first, back.low) == (4, _leaf(2), _leaf(1))
        assert (back.left.size, back.right.low) == (2, _leaf(3))
        with pytest.raises(AttributeError):
            back.vid = 1


def _stale_inner_size():
    h = build_haft(make_slots([1, 2, 3, 4]), VidSource())
    object.__setattr__(h.trees[0].left, "size", 5)
    return h, [f"stale-cached-facts: vids [{h.trees[0].left.vid}]"]


def _stale_root_low():
    h = build_haft(make_slots([1, 2, 3, 4]), VidSource())
    object.__setattr__(h.trees[0], "low", LeafSlot(9, (9, 9)))
    return h, [f"stale-cached-facts: vids [{h.trees[0].vid}]"]


def _lopsided_four():
    # Children of the root hold 3 and 1 leaves: 4 in all, yet not complete.
    tree = Internal(10, Internal(11, Internal(12, _leaf(1), _leaf(2)), _leaf(3)), _leaf(4))
    return Haft(trees=(tree,), spine=()), ["tree-not-complete: index 0"]


def _lopsided_subtree():
    # The root's children hold 4 leaves each, but its left child is lopsided.
    lopsided = _lopsided_four()[0].trees[0]
    complete = build_haft(make_slots([5, 6, 7, 8]), VidSource(start=20)).trees[0]
    return Haft(trees=(Internal(30, lopsided, complete),), spine=()), [
        "tree-not-complete: index 0"
    ]


def _three_leaf_tree():
    tree = Internal(10, Internal(11, _leaf(1), _leaf(2)), _leaf(3))
    return Haft(trees=(tree,), spine=()), [
        "tree-not-complete: index 0",
        "size-not-power-of-two: 3",
    ]


def _equal_sizes():
    h = Haft(trees=(_leaf(1), _leaf(2)), spine=(10,))
    return h, ["sizes-not-strictly-decreasing: [1, 1]"]


def _long_spine():
    h = Haft(trees=(Internal(10, _leaf(1), _leaf(2)), _leaf(3)), spine=(11, 12))
    return h, ["spine-length: 2 for 2 trees"]


def _short_spine():
    # Too short to join the trees into one: the depth bound, which reads
    # the haft as one tree, is skipped.
    h = Haft(trees=(Internal(10, _leaf(1), _leaf(2)), _leaf(3)), spine=())
    return h, ["spine-length: 0 for 2 trees"]


def _spine_reuses_a_vid():
    h = Haft(trees=(Internal(10, _leaf(1), _leaf(2)), _leaf(3)), spine=(10,))
    return h, ["duplicate-vids"]


def _caterpillar():
    tree = _leaf(1)
    for i in range(2, 9):
        tree = Internal(100 + i, tree, _leaf(i))
    return Haft(trees=(tree,), spine=()), [
        "tree-not-complete: index 0",
        "depth-bound: max 7 > 4",
    ]


def _shared_origin():
    tree = Internal(10, _leaf(1, (0, 1)), _leaf(2, (0, 1)))
    return Haft(trees=(tree,), spine=()), ["duplicate-origins"]


@pytest.mark.parametrize(
    "malformed",
    [
        _stale_inner_size,
        _stale_root_low,
        _lopsided_four,
        _lopsided_subtree,
        _three_leaf_tree,
        _equal_sizes,
        _long_spine,
        _short_spine,
        _spine_reuses_a_vid,
        _caterpillar,
        _shared_origin,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_validate_haft_reports_each_malformation(malformed):
    h, expected = malformed()
    assert validate_haft(h) == expected


def test_helpers_leave_no_cyclic_garbage():
    # Every walk is iterative or a module-level recursion, so a call frees
    # all it allocated by reference counting alone.
    h = build_haft(make_slots(range(64)), VidSource())
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assignment = assign_simulators(h)
        to_virtual_edges(h, assignment)
        split_out(h, 5)
        split_marked(h, set(node_vids(h.trees[0])), 5)
        split_marked(h, None, 5)
        leaf_depths(h)
        validate_haft(h)
        del assignment
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- exhaustive structure checks (acceptance criterion 6 runs these at 64) --


@pytest.mark.parametrize("L", list(range(1, 33)))
def test_depth_bound_and_injectivity_exhaustive(L):
    h = build_haft(make_slots(list(range(1, L + 1))), VidSource())
    assert validate_haft(h) == []
    depths = leaf_depths(h)
    assert max(depths) <= 2 * ceil_log2(L) + 1
    assignment = assign_simulators(h)
    assert len(assignment) == len(set(node_vids(h.root())))
    assert len({s.origin for s in assignment.values()}) == len(assignment)


@pytest.mark.parametrize("L", list(range(2, 33)))
def test_degree_consequence_exhaustive(L):
    # Fresh tree over distinct real leaves: each processor gains at most 4
    # real edges, at most 2 when it simulates a bottom-level internal node.
    h = build_haft(make_slots(list(range(1, L + 1))), VidSource())
    assignment = assign_simulators(h)
    image = _materialize(h, assignment)
    bottom_sims = set()

    def walk(node):
        if not isinstance(node, Internal):
            return
        if not isinstance(node.left, Internal) and not isinstance(node.right, Internal):
            bottom_sims.add(assignment[node.vid].processor)
        walk(node.left)
        walk(node.right)

    walk(h.root())
    for p in image.nodes:
        assert image.degree(p) <= 4
        if p in bottom_sims:
            assert image.degree(p) <= 2


def test_depth_bound_randomized_to_1024():
    rng = random.Random("depth1024")
    for _ in range(40):
        L = rng.randint(65, 1024)
        h = build_haft(make_slots(list(range(L))), VidSource())
        assert max(leaf_depths(h)) <= 2 * ceil_log2(L) + 1
        assert validate_haft(h) == []


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_merge_is_binary_addition_and_preserves_slots(seed):
    rng = random.Random(seed)
    la = rng.randint(1, 24)
    lb = rng.randint(1, 24)
    vids = VidSource()
    a = build_haft(make_slots(list(range(la)), origin_base=1000), vids)
    b = build_haft(make_slots(list(range(lb)), origin_base=5000), vids)
    m = merge_hafts(a, b, vids)
    assert validate_haft(m) == []
    total = la + lb
    expected_sizes = [1 << i for i in range(total.bit_length()) if total >> i & 1]
    assert sorted(t.size for t in m.trees) == expected_sizes
    merged = sorted((s.processor, s.origin) for s in haft_slots(m))
    original = sorted((s.processor, s.origin) for s in haft_slots(a) + haft_slots(b))
    assert merged == original


def _internals(h):
    out = []
    stack = list(h.trees)
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            out.append(node)
            stack += [node.left, node.right]
    return out


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_path_only_split_and_cached_facts_match_their_oracles(seed):
    # Hafts from builds and merges, split around a dead processor and
    # reassembled from their pieces and fresh slots, as the healer does.
    rng = random.Random(seed)
    vids = VidSource()
    base = 0

    def fresh(count):
        nonlocal base
        base += 1000
        return make_slots([rng.randrange(8) for _ in range(count)], origin_base=base)

    h = build_haft(fresh(rng.randint(1, 24)), vids)
    for _ in range(rng.randint(0, 2)):
        h = merge_hafts(h, build_haft(fresh(rng.randint(1, 24)), vids), vids)
    for _ in range(3):
        nodes = _internals(h)
        for node in nodes:
            slots = leaves(node)
            leftmost = node
            while isinstance(leftmost, Internal):
                leftmost = leftmost.left
            assert node.size == len(slots)
            assert node.first == leftmost == slots[0]
            assert node.low == min(slots)

        dead = rng.randrange(8)
        marked = {x.vid for x in nodes if any(s.processor == dead for s in leaves(x))}
        # vids of other hafts may be marked too
        pieces, dissolved = split_marked(h, marked | {vids.next_vid + 7}, dead)
        want_pieces, want_dissolved = split_out(h, dead)
        assert [id(p) for p in pieces] == [id(p) for p in want_pieces]
        assert dissolved == want_dissolved

        items = pieces + fresh(rng.randint(0, 6))
        if not items:
            break
        before = vids.next_vid
        h, carries = _assemble(items, vids)
        assert validate_haft(h) == []
        # The carries are the vids minted below the spine, in mint order,
        # and each is a node of the new haft.
        minted = [vid for vid in range(before, vids.next_vid) if vid not in h.spine]
        assert [carry.vid for carry in carries] == minted
        in_haft = {id(x) for x, _, _ in walk(h.root())}
        assert all(id(carry) in in_haft for carry in carries)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_split_with_every_vid_marked_leaves_the_surviving_slots(seed):
    # The `rebuild` healer's split: every internal node and the spine
    # dissolve, and the pieces are the slots the dead processor does not
    # own, left to right.
    rng = random.Random(seed)
    vids = VidSource()
    h = build_haft(make_slots([rng.randrange(8) for _ in range(rng.randint(1, 40))]), vids)
    for i in range(rng.randint(0, 3)):
        procs = [rng.randrange(8) for _ in range(rng.randint(1, 24))]
        h = merge_hafts(h, build_haft(make_slots(procs, origin_base=2000 * (i + 1)), vids), vids)
    dead = rng.randrange(9)
    pieces, dissolved = split_marked(h, None, dead)
    assert pieces == [s for s in haft_slots(h) if s.processor != dead]
    everything = [*h.spine, *(vid for tree in h.trees for vid in node_vids(tree))]
    assert sorted(dissolved) == sorted(everything)
    # None is every vid marked, in the order the repair hands to `rewire`.
    assert (pieces, dissolved) == split_marked(h, set(everything), dead)
