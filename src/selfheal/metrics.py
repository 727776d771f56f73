"""Success metrics: degree factor, stretch, diameters, and run summaries.

Everything is measured against the shadow graph G': degree ratios divide a
live node's healed degree by its shadow degree (which counts edges to deleted
neighbors), and stretch divides live distances by shadow distances computed
through deleted nodes.

Ratios are kept as exact integer Fractions until CSV formatting, so outputs
are byte-stable across platforms.

Every distance the engine reads comes from one kernel,
`all_pairs_distances`: a bit-parallel breadth-first search from many
sources at once, every node by default. Each row's reached set is packed
64 sources to a uint64 word, and each distance level grows every row with
one gather and one `bitwise_or.reduceat` over the nodes' closed neighbour
lists, numpy only. The engine runs it from every node to start or rebuild
the matrices it maintains (`engine.DistanceOracle`), whose live oracle
keeps the exact maximum stretch itself, and, above the exact cap, from
the first nodes of a seeded sample of live pairs (`stretch_sampled`); the
record notes which mode produced the stretch; `engine._measure` alone
picks that mode. `verify` audits the kept maximum with `stretch_exact`
over fresh builds; `stretch_max` is the tests' snapshot reference, exact
stretch over one fresh build. The kernel's independent oracle is one
plain breadth-first search per source, kept with the tests
(`oracle_apsp_bfs`), which cross-check the two entry by entry on random
graphs whose sizes cross the 64-bit word boundaries, with isolated nodes,
several components and scattered ids.

All functions are pure snapshots-in, values-out; records from finished runs
can be crunched in parallel.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from statistics import median

import numpy as np

from .graph import INF, Graph, UnknownNodeError
from .haft import ceil_log2

CSV_COLUMNS = [
    "t",
    "op",
    "node",
    "connected",
    "max_degree_ratio",
    "max_stretch",
    "stretch_mode",
    "diameter_live",
    "diameter_shadow",
    "messages",
    "rounds",
    "max_hops",
    "edges_added",
    "edges_dropped",
    "virtual_count",
]

CSV_HEADER = ",".join(CSV_COLUMNS)


class ZeroShadowDegreeError(ValueError):
    """A live node has shadow degree 0: an engine invariant was breached."""


@dataclass(slots=True)
class MetricsRecord:
    t: int
    op: str
    node: int
    connected: bool
    max_degree_ratio: Fraction
    max_stretch: object  # Fraction, INF, or None when not computed
    stretch_mode: str  # "exact" | "sampled" | "skipped"
    diameter_live: object  # int, INF, or None when skipped
    diameter_shadow: object
    messages: int
    rounds: int
    max_hops: int
    edges_added: int
    edges_dropped: int
    virtual_count: int
    # Not CSV columns; carried for threshold evaluation and benchmarks.
    shadow_nodes: int = 0
    live_nodes: int = 0
    touched_count: int = 0


# -- degree factor ------------------------------------------------------------


def degree_ratio_max(
    live: Graph, shadow: Graph, deleted: set[int] | None = None
) -> tuple[Fraction, int | None]:
    """max over live nodes of degree(v, live) / degree(v, shadow).

    Ties break toward the smallest id. Returns (Fraction(1), None) when the
    live graph is empty. A live node with shadow degree 0 signals an engine
    invariant breach and raises.
    """
    # The running maximum is best_n / best_d; candidates are compared by
    # integer cross-multiplication and one Fraction is built at the end.
    best_n, best_d = 1, 1
    arg: int | None = None
    live_adj, shadow_adj = live._adj, shadow._adj
    for v in sorted(live_adj):
        if deleted is not None and v in deleted:
            raise ZeroShadowDegreeError(f"node {v} is both live and deleted")
        if v not in shadow_adj:
            raise UnknownNodeError(f"node {v} not in graph")
        live_deg, shadow_deg = len(live_adj[v]), len(shadow_adj[v])
        if shadow_deg == 0:
            if live_deg == 0:
                continue
            raise ZeroShadowDegreeError(f"live node {v} has shadow degree 0")
        if live_deg * best_d > best_n * shadow_deg:
            best_n, best_d, arg = live_deg, shadow_deg, v
    return Fraction(best_n, best_d), arg


# -- exact all-pairs distances ---------------------------------------------------


def all_pairs_distances(
    g: Graph, sources: list[int] | None = None
) -> tuple[np.ndarray, dict[int, int]]:
    """Dense float32 hop-count matrix (np.inf where disconnected) and
    node -> row index, rows in ascending node order. Column j holds the
    distances from `sources[j]`, which must be distinct nodes of `g`; by
    default every node is a source, in row order.

    A breadth-first search from every source at once, 64 sources to a
    word: row i holds the set of sources that reach i, packed into uint64
    words. Each level ORs together the sets of i's closed neighbourhood (i
    and its neighbours), one gather over those lists laid end to end and
    one `bitwise_or.reduceat`, until a level changes nothing. Before each
    level, the pairs still apart gain 1 in a uint16 level counter, so an
    entry ends as its hop count; the counter becomes the float32 matrix
    once, at the end, and pairs never reached become INF. A count can
    reach 2^16 only after 2^16 levels, that is on a path of more than
    2^16 nodes, whose n x n float32 matrix alone would take over 16 GiB.
    O(diam * m * k/64) word operations for k sources; float32 is exact
    for hop counts < 2^24.
    """
    nodes = sorted(g._adj)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float32), index
    # Row i's closed neighbourhood at closed[starts[i]:], i first.
    lists = list(map(g._adj.__getitem__, nodes))
    size = np.fromiter(map(len, lists), np.intp, n) + 1
    starts = np.cumsum(size) - size
    rows = np.arange(n)
    closed = np.empty(int(size.sum()), dtype=np.intp)
    closed[starts] = rows
    others = np.ones(closed.size, dtype=bool)
    others[starts] = False
    ids = np.fromiter(chain.from_iterable(lists), np.int64, closed.size - n)
    closed[others] = np.searchsorted(np.array(nodes, dtype=np.int64), ids)
    src = rows if sources is None else np.fromiter(map(index.__getitem__, sources), np.intp)
    k = src.size
    cols = np.arange(k)
    words = -(-k // 64)
    # Bit j of row i, counted in little-endian bytes, is source j.
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[src, cols >> 3] = (1 << (cols & 7)).astype(np.uint8)
    reached = packed.view(np.uint64)
    gathered = np.empty((closed.size, words), dtype=np.uint64)
    levels = np.zeros((n, k), dtype=np.uint16)
    while True:
        levels += np.unpackbits(~packed, axis=1, count=k, bitorder="little")
        np.take(reached, closed, axis=0, out=gathered)
        grown = np.bitwise_or.reduceat(gathered, starts, axis=0)
        if np.array_equal(grown, reached):
            break
        reached = grown
        packed = reached.view(np.uint8)
    dist = levels.astype(np.float32)
    dist[np.unpackbits(packed, axis=1, count=k, bitorder="little") == 0] = np.inf
    return dist, index


def diameter_from(dist: np.ndarray) -> object:
    """Max pairwise distance: 0 for <= 1 node, INF when disconnected."""
    if dist.size <= 1:
        return 0
    top = dist.max()
    return INF if top == np.inf else int(top)


# -- stretch ---------------------------------------------------------------------


# Exact stretch up to this many live nodes, and this many sampled pairs
# above it: the defaults of `RunConfig` and of the config keys
# `exact_apsp_cap` and `stretch_samples`. The cap is the largest power of
# two whose exact runs stay under a 300 MB peak RSS budget: 262 MB on a
# random tree of 4096 nodes under `haft`/`mixed` (T = 32), where the two
# float32 matrices take 64 MiB each. Below it, exact stretch costs less per
# event than sampling (22.6 against 31.4 ms at n = 2048), and a sample
# gives only a lower bound.
DEFAULT_EXACT_APSP_CAP = 4096
DEFAULT_STRETCH_SAMPLES = 1000


@dataclass
class StretchResult:
    max_stretch: object  # Fraction or INF or None
    mode: str
    diameter_live: object
    argmax_pair: tuple[int, int] | None = None


def stretch_max(
    live: Graph, shadow_dist: np.ndarray, shadow_index: dict[int, int]
) -> StretchResult:
    """max over live pairs of dist_live(u, v) / dist_shadow(u, v), exact,
    from a fresh build of `live`: INF when the live graph is disconnected,
    and 1 when there are fewer than two live nodes. Pairs never joined in
    the shadow graph contribute nothing. The snapshot reference of tests;
    a run picks its stretch mode in `engine._measure`."""
    return stretch_exact(all_pairs_distances(live), shadow_dist, shadow_index)


def stretch_exact(
    live_built: tuple[np.ndarray, dict[int, int]],
    shadow_dist: np.ndarray,
    shadow_index: dict[int, int],
) -> StretchResult:
    """`stretch_max` over every live pair, read from `live_built`, the live
    graph's build as `all_pairs_distances` returns it."""
    live_dist, live_index = live_built
    if len(live_index) <= 1:
        return StretchResult(Fraction(1), "exact", 0)
    diameter_live = diameter_from(live_dist)
    if diameter_live is INF:
        return StretchResult(INF, "exact", INF)
    nodes = list(live_index)
    rows = np.fromiter(map(shadow_index.__getitem__, nodes), np.intp, len(nodes))
    ratio, i, j = stretch_argmax(live_dist, shadow_dist, rows)
    if not ratio:
        return StretchResult(Fraction(1), "exact", diameter_live)
    value = _ratio(int(live_dist[i, j]), int(shadow_dist[rows[i], rows[j]]))
    return StretchResult(value, "exact", diameter_live, (nodes[i], nodes[j]))


# The bytes a row block of `stretch_argmax` may hold in temporaries. At 16
# bytes per entry of a shadow row, a scan with up to 1024 shadow rows runs
# in one block.
STRETCH_BLOCK_BYTES = 1 << 24


def stretch_block_height(width: int) -> int:
    """Rows per block of `stretch_argmax` over a shadow matrix `width`
    wide. A block gathers its shadow rows whole (4 bytes an entry) and then
    at the live rows' columns (4 more), and divides into float64 ratios (8
    more), so it holds at most 16 bytes per entry of its shadow rows."""
    return max(1, STRETCH_BLOCK_BYTES // (16 * width))


def stretch_argmax(
    live_dist: np.ndarray, shadow_dist: np.ndarray, rows: np.ndarray
) -> tuple[float, int, int]:
    """The largest ratio `live_dist[i, j] / shadow_dist[rows[i], rows[j]]`
    over the off-diagonal entries, and its i and j: the first in row-major
    order. The ratios are float64 whatever the matrices store, so that ties
    break one way. A shadow-infinite pair gives 0 and drops out, so the
    ratio is 0 when no pair is joined in the shadow graph. The scan runs in
    blocks of `stretch_block_height` rows, so that its temporaries stay
    within `STRETCH_BLOCK_BYTES` whatever the size; a later block wins only
    with a larger ratio, which keeps the first maximum."""
    n = live_dist.shape[0]
    height = stretch_block_height(shadow_dist.shape[1])
    best = (0.0, 0, 0)
    for lo in range(0, n, height):
        block = rows[lo : lo + height]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(
                live_dist[lo : lo + block.size],
                shadow_dist[block][:, rows],
                dtype=np.float64,
            )
        # 0/0 on the diagonal, at (r, lo + r) of the block.
        ratio.reshape(-1)[lo :: n + 1] = 0.0
        k = int(ratio.argmax())
        top = float(ratio.flat[k])
        del ratio  # before the next block's temporaries
        if top > best[0]:
            best = (top, lo + k // n, k % n)
    return best


@lru_cache(maxsize=None)
def _ratio(num: int, den: int) -> Fraction:
    """`Fraction(num, den)`, one object per pair of hop counts (few distinct
    ones), so that a run's records share their stretch values."""
    return Fraction(num, den)


def stretch_sampled(
    live: Graph,
    shadow_dist: np.ndarray,
    shadow_index: dict[int, int],
    samples: int,
    rng: random.Random,
) -> StretchResult:
    """`stretch_max` over `samples` pairs of live nodes drawn with `rng`,
    scanned in draw order: INF at the first pair apart, the diameter of the
    pairs drawn. One kernel run from the pairs' distinct first nodes."""
    nodes = sorted(live._adj)
    pairs = [rng.sample(nodes, 2) for _ in range(samples)]
    sources = list(dict.fromkeys(u for u, _ in pairs))
    dist, index = all_pairs_distances(live, sources)
    column = {u: j for j, u in enumerate(sources)}
    best, best_pair, diameter_seen = Fraction(1), None, 0
    for u, v in pairs:
        d_live = dist[index[v], column[u]]
        if d_live == np.inf:
            return StretchResult(INF, "sampled", INF, (u, v))
        diameter_seen = max(diameter_seen, int(d_live))
        d_shadow = shadow_dist[shadow_index[u], shadow_index[v]]
        if np.isfinite(d_shadow) and (ratio := _ratio(int(d_live), int(d_shadow))) > best:
            best, best_pair = ratio, (u, v)
    return StretchResult(best, "sampled", diameter_seen, best_pair)


# -- summaries --------------------------------------------------------------------


def hard_stretch_bound(shadow_nodes: int) -> int:
    return 2 * ceil_log2(shadow_nodes)


def target_stretch_bound(shadow_nodes: int) -> int:
    return ceil_log2(shadow_nodes)


HARD_DEGREE_BOUND = Fraction(4)
TARGET_DEGREE_BOUND = Fraction(3)


@dataclass
class Summary:
    records: int = 0
    disconnects: int = 0
    hard_degree_violations: int = 0
    target_degree_violations: int = 0
    hard_stretch_violations: int = 0
    target_stretch_violations: int = 0
    max_degree_ratio: float = 0.0
    max_stretch: float = 0.0
    median_messages: float = 0.0
    max_messages: int = 0
    median_rounds: float = 0.0
    max_rounds: int = 0
    median_max_hops: float = 0.0
    max_max_hops: int = 0
    edges_added: int = 0
    edges_dropped: int = 0
    violations: list[str] = field(default_factory=list)


def summarize(records: list[MetricsRecord]) -> Summary:
    """Maxima, medians and threshold-violation counts for one run.

    Hard bounds are construction-guaranteed (degree 4x, stretch
    2*ceil(log2 n')); target bounds are the reported aspirations (3x,
    ceil(log2 n')), counted but not asserted here.
    """
    s = Summary(records=len(records))
    if not records:
        return s
    for r in records:
        if not r.connected:
            s.disconnects += 1
            s.violations.append(f"t={r.t}: disconnected")
        if r.max_degree_ratio > HARD_DEGREE_BOUND:
            s.hard_degree_violations += 1
            s.violations.append(f"t={r.t}: degree ratio {r.max_degree_ratio} > 4")
        if r.max_degree_ratio > TARGET_DEGREE_BOUND:
            s.target_degree_violations += 1
        if isinstance(r.max_stretch, Fraction) or r.max_stretch is INF:
            if r.shadow_nodes > 1:
                hard = hard_stretch_bound(r.shadow_nodes)
                target = target_stretch_bound(r.shadow_nodes)
                if r.max_stretch is INF or r.max_stretch > hard:
                    s.hard_stretch_violations += 1
                    s.violations.append(
                        f"t={r.t}: stretch {format_number(r.max_stretch)} > {hard}"
                    )
                if r.max_stretch is INF or r.max_stretch > target:
                    s.target_stretch_violations += 1
    s.max_degree_ratio = float(max(r.max_degree_ratio for r in records))
    stretches = [r.max_stretch for r in records if isinstance(r.max_stretch, Fraction)]
    if any(r.max_stretch is INF for r in records):
        s.max_stretch = math.inf
    elif stretches:
        s.max_stretch = float(max(stretches))
    s.median_messages = float(median(r.messages for r in records))
    s.max_messages = max(r.messages for r in records)
    s.median_rounds = float(median(r.rounds for r in records))
    s.max_rounds = max(r.rounds for r in records)
    s.median_max_hops = float(median(r.max_hops for r in records))
    s.max_max_hops = max(r.max_hops for r in records)
    s.edges_added = sum(r.edges_added for r in records)
    s.edges_dropped = sum(r.edges_dropped for r in records)
    return s


# -- CSV ---------------------------------------------------------------------------


def format_number(x) -> str:
    """Stable text for ratios, hop counts and flags: '.' decimals, 'inf',
    'na', 'true'/'false'."""
    if x is None:
        return "na"
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is INF or x == math.inf:
        return "inf"
    if isinstance(x, Fraction):
        return repr(float(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def record_to_row(r: MetricsRecord) -> str:
    return ",".join(format_number(getattr(r, c)) for c in CSV_COLUMNS)


def records_to_csv(records: list[MetricsRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(record_to_row(r) for r in records)
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[dict[str, str]]:
    """Re-read a metrics CSV into per-row dicts of raw column strings."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("bad metrics CSV header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(CSV_COLUMNS)} columns")
        row = dict(zip(CSV_COLUMNS, parts))
        int(row["t"])  # type sanity; raises on corruption
        rows.append(row)
    return rows
