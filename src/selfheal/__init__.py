"""Self-healing reconfigurable networks under adversarial churn.

A deterministic simulator and library: an omniscient adversary inserts or
deletes one node per timestep, healers respond by adding (and dropping)
edges, and invariant checkers measure connectivity, degree factor, stretch
and diameter against the shadow graph of what the network would have been
without deletions.

The flagship healer replaces each deleted node with a half-full
reconstruction tree over its orphaned neighbors, maintained on a virtual
graph whose homomorphic image is the real network.
"""

from .adversary import (
    AdversaryState,
    Event,
    StrategySpec,
    next_event,
    parse_trace,
    read_trace,
    validate_event,
    write_trace,
)
from .engine import RunConfig, RunState, audit, run, start, step
from .families import (
    connected_erdos_renyi,
    erdos_renyi,
    make_family,
    path_graph,
    random_tree,
    star_graph,
)
from .graph import (
    INF,
    MAX_NODE_ID,
    DuplicateNodeError,
    Graph,
    GraphError,
    SelfLoopError,
    UnknownNodeError,
    dump_edge_list,
    format_edge_list,
    load_edge_list,
    parse_edge_list,
)
from .haft import (
    Haft,
    HaftError,
    LeafSlot,
    assign_simulators,
    build_haft,
    merge_hafts,
    to_virtual_edges,
    validate_haft,
)
from .healers import Healer, HealerReport, make_healer
from .metrics import (
    MetricsRecord,
    Summary,
    all_pairs_distances,
    degree_ratio_max,
    records_to_csv,
    stretch_max,
    summarize,
)
from .virtual_graph import VBASE, VidSource, VirtualGraph, VNode, real, virt
from .virtual_graph import is_real, node_id, node_name

__version__ = "0.1.0"

__all__ = [
    "AdversaryState",
    "Event",
    "StrategySpec",
    "next_event",
    "parse_trace",
    "read_trace",
    "validate_event",
    "write_trace",
    "RunConfig",
    "RunState",
    "audit",
    "run",
    "start",
    "step",
    "connected_erdos_renyi",
    "erdos_renyi",
    "make_family",
    "path_graph",
    "random_tree",
    "star_graph",
    "INF",
    "MAX_NODE_ID",
    "DuplicateNodeError",
    "Graph",
    "GraphError",
    "SelfLoopError",
    "UnknownNodeError",
    "dump_edge_list",
    "format_edge_list",
    "load_edge_list",
    "parse_edge_list",
    "Haft",
    "HaftError",
    "LeafSlot",
    "assign_simulators",
    "build_haft",
    "merge_hafts",
    "to_virtual_edges",
    "validate_haft",
    "Healer",
    "HealerReport",
    "make_healer",
    "MetricsRecord",
    "Summary",
    "all_pairs_distances",
    "degree_ratio_max",
    "records_to_csv",
    "stretch_max",
    "summarize",
    "VidSource",
    "VirtualGraph",
    "VBASE",
    "VNode",
    "is_real",
    "node_id",
    "node_name",
    "real",
    "virt",
    "__version__",
]
