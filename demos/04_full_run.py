"""End-to-end run with file artifacts, the same way the CLI drives it.

Generates a connected random graph, unleashes a mixed adversary for 60
timesteps against the haft healer, and writes the metrics CSV, DOT exports
and summary into ./demo_out. Re-running produces byte-identical files.

Run:  python demos/04_full_run.py
"""

import json
import random
from dataclasses import asdict
from pathlib import Path

from selfheal import (
    RunConfig,
    StrategySpec,
    connected_erdos_renyi,
    records_to_csv,
    run,
    summarize,
)
out = Path("demo_out")
out.mkdir(exist_ok=True)

initial = connected_erdos_renyi(32, 0.15, random.Random("demo"))
config = RunConfig(
    initial=initial,
    healer="haft",
    strategy=StrategySpec(kind="mixed", p_delete=0.7, insert_degree=2, seed=4),
    t_max=60,
    seed=4,
)
state = run(config)

(out / "metrics.csv").write_text(records_to_csv(state.records), encoding="utf-8")
(out / "live.dot").write_text(state.live_graph().to_dot("live"), encoding="utf-8")
(out / "virtual.dot").write_text(state.healer.vg.to_dot("virtual"), encoding="utf-8")
summary = summarize(state.records)
(out / "summary.json").write_text(
    json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n", encoding="utf-8"
)

print(f"status: {state.status} after {len(state.records)} timesteps")
print(f"connected throughout: {summary.disconnects == 0}")
print(f"max degree ratio: {summary.max_degree_ratio:.2f} (hard bound 4)")
print(f"max stretch: {summary.max_stretch:.2f}")
print(f"median messages per event: {summary.median_messages}")
print(f"live nodes: {state.live_count}, helper nodes: {state.healer.virtual_node_count()}")
print(f"artifacts: {out}/metrics.csv, live.dot, virtual.dot, summary.json")
print("\nrender the healed overlay with:  dot -Tpng demo_out/virtual.dot -o overlay.png")
