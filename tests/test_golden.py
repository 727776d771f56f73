"""Golden digests: CLI output stays byte-identical across refactors.

A small fixed corpus of runs (healers `haft` and `rebuild`; adversaries
`clustered`, `mixed`, `random` and `articulation`; exact stretch on) is
executed through the CLI, and the sha256 of each output file is compared
with the digests in `tests/golden/digests.json`. Two negative-control runs
(`star`, `null`) pin a `summary.json` with non-empty `violations`, one
`ring` run pins the third baseline under inserts and deletions, one
scripted run inserts ids out of order, one `haft` run has stretch off
(every record `skipped`), two wide runs with stretch off (one `haft`, one
`rebuild`) reach the second phase of the `max_hops` search, one `haft` run
crosses the exact-stretch cap both ways, one `haft` run samples the
stretch of every step, one `gen` case pins the generated edge list, trace
and manifest, and one `bench` case pins the scaling table, its slopes and
the manifest.
`test_outputs_do_not_read_set_order` runs every `run` case again with the
initial graph laid out otherwise, and requires the same outputs.
`summary.json` and `manifest.json` are hashed without `rng.python`, which
embeds the interpreter version.

Regenerate the digests (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from selfheal import healers
from selfheal.cli import _run_config, main, parse_config
from selfheal.engine import run
from selfheal.graph import Graph
from selfheal.metrics import records_to_csv, summarize

from conftest import _closes_alone, oracle_bfs, relaid_adjacency

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
OUTPUTS = {
    "run": ("metrics.csv", "live.dot", "virtual.dot", "summary.json"),
    "gen": ("graph.edges", "trace.jsonl", "manifest.json"),
    "bench": ("bench.csv", "bench_summary.json", "manifest.json"),
}

FAMILIES = {
    "tree": "family = random-tree\nn = 40\n",
    "er": "family = erdos-renyi\nn = 32\np = 0.12\n",
}

CASES = {
    f"{healer}-{strategy}-{family}": (
        "run",
        FAMILIES[family]
        + f"healer = {healer}\nstrategy = {strategy}\nT = 30\nexact_apsp_cap = 256\n",
    )
    for healer in ("haft", "rebuild")
    for strategy in ("clustered", "mixed", "random")
    for family in FAMILIES
}
# A larger tree grows deeper hafts, so merges carry across several sizes.
CASES["haft-clustered-bigtree"] = (
    "run",
    "family = random-tree\nn = 96\nhealer = haft\nstrategy = clustered\n"
    "T = 64\nexact_apsp_cap = 256\n",
)
# Stretch off, as in `bench` and the benchmark's heal-bound workloads: no
# shadow APSP, every record `skipped`.
CASES["haft-clustered-nostretch"] = (
    "run",
    "family = random-tree\nn = 96\nhealer = haft\nstrategy = clustered\n"
    "T = 64\nexact_apsp_cap = 0\nstretch_samples = 0\n",
)
# Wide regions, stretch off: at these sizes some of `max_hops`'s searches
# outgrow the ball around the deleted node and grow balls around the
# touched nodes too, `_farthest`'s second phase, which no other case
# reaches (`test_wide_cases_grow_target_balls`).
WIDE = {
    "haft-clustered-wide": "n = 1024\nhealer = haft\nstrategy = clustered\nT = 256\n",
    "rebuild-articulation-wide": "n = 216\nhealer = rebuild\nstrategy = articulation\nT = 200\n",
}
CASES.update(
    (name, ("run", f"family = random-tree\n{text}exact_apsp_cap = 0\nstretch_samples = 0\n"))
    for name, text in WIDE.items()
)
# Exact stretch under churn with the live count crossing `exact_apsp_cap`
# both ways (40 nodes, cap 38): steps switch between exact and sampled
# stretch, so the maintained live distances are dropped and rebuilt.
CASES["haft-mixed-capcross"] = (
    "run",
    FAMILIES["tree"] + "healer = haft\nstrategy = mixed\np_delete = 0.5\nT = 40\n"
    "exact_apsp_cap = 38\nstretch_samples = 100\n",
)
# Sampled stretch on every step: some 300 live nodes against a cap of 64
# (CI's `sampled` verify row).
CASES["haft-mixed-sampled"] = (
    "run",
    "family = random-tree\nn = 300\nhealer = haft\nstrategy = mixed\nT = 40\n"
    "exact_apsp_cap = 64\nstretch_samples = 200\n",
)
# Negative controls: the star healer breaks the 4x degree bound, and the null
# healer disconnects the tree (infinite stretch), so `violations` is filled.
CASES["star-maxdegree-star"] = (
    "run",
    "family = star\nn = 24\nhealer = star\nstrategy = max-degree\n"
    "T = 8\nexact_apsp_cap = 256\n",
)
CASES["null-random-tree"] = (
    "run",
    FAMILIES["tree"] + "healer = null\nstrategy = random\nT = 20\nexact_apsp_cap = 256\n",
)
# The ring baseline under churn: inserts, and deletions healed by a cycle.
CASES["ring-mixed-tree"] = (
    "run",
    FAMILIES["tree"] + "healer = ring\nstrategy = mixed\nT = 30\nexact_apsp_cap = 256\n",
)
# The articulation adversary: each deletion takes the smallest cut vertex.
CASES["rebuild-articulation-tree"] = (
    "run",
    FAMILIES["tree"] + "healer = rebuild\nstrategy = articulation\n"
    "T = 30\nexact_apsp_cap = 256\n",
)
CASES["haft-articulation-er"] = (
    "run",
    FAMILIES["er"] + "healer = haft\nstrategy = articulation\n"
    "T = 30\nexact_apsp_cap = 256\n",
)
# A scripted trace whose inserted ids are not monotone (1000, then 500,
# then 40): the shadow graph grows by ids below its current maximum. The
# inserts lengthen the shadow diameter (1000 hangs off an end of it) and
# then shorten it (500 and 700 join far nodes).
# `run_case` writes the trace next to the config.
TRACES = {
    "haft-scripted-tree": (
        '{"t": 1, "op": "insert", "node": 1000, "neighbors": [31]}\n'
        '{"t": 2, "op": "delete", "node": 5}\n'
        '{"t": 3, "op": "insert", "node": 500, "neighbors": [8, 1000]}\n'
        '{"t": 4, "op": "delete", "node": 1000}\n'
        '{"t": 5, "op": "insert", "node": 40, "neighbors": [500]}\n'
        '{"t": 6, "op": "delete", "node": 0}\n'
        '{"t": 7, "op": "insert", "node": 700, "neighbors": [26, 32, 40]}\n'
        '{"t": 8, "op": "delete", "node": 12}\n'
        '{"t": 9, "op": "insert", "node": 41, "neighbors": [2, 39]}\n'
        '{"t": 10, "op": "delete", "node": 500}\n'
    ),
}
CASES["haft-scripted-tree"] = (
    "run",
    FAMILIES["tree"] + "healer = haft\ntrace = {trace}\nexact_apsp_cap = 256\n",
)
# `gen` without `T` (default 32); its `trace` key is ignored.
CASES["gen-mixed-tree"] = (
    "gen",
    FAMILIES["tree"] + "healer = haft\nstrategy = mixed\np_delete = 0.6\n"
    "trace = unused.jsonl\n",
)

# `bench` over two sizes, two trials each, and one healer of each kind:
# the medians, the maximum degree ratio and the slopes of the table.
CASES["bench"] = (
    "bench",
    "n_list = 16,32\nhealers = haft,rebuild,star\ntrials = 2\n",
)


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name in ("summary.json", "manifest.json"):
        payload = json.loads(data)
        del payload["rng"]["python"]
        data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def case_text(name: str, workdir: Path) -> str:
    """The case's config; a scripted case's trace is written to `workdir`."""
    text = CASES[name][1]
    if name in TRACES:
        trace = workdir / f"{name}.jsonl"
        trace.write_text(TRACES[name], encoding="utf-8")
        text = text.replace("{trace}", str(trace))
    return text


def run_case(name: str, workdir: Path) -> dict[str, str]:
    command, text = CASES[name][0], case_text(name, workdir)
    cfg = workdir / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = workdir / name
    code = main([command, "--config", str(cfg), "--out", str(out), "--seed", "7", "--quiet"])
    assert code == 0
    return {f: _digest(out / f) for f in OUTPUTS[command]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert run_case(name, tmp_path) == expected[name]


def _run_outputs(config) -> tuple:
    """What `selfheal run` writes, before serialising."""
    state = run(config)
    return (
        records_to_csv(state.records),
        state.live_graph().to_dot("live"),
        state.healer.vg.to_dot("virtual"),
        summarize(state.records),
        state.status,
        state.warnings,
        state.setup_messages,
    )


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_cases_grow_target_balls(name, tmp_path, monkeypatch):
    # Read off exact distances, some searches of the digested run (seed 7,
    # as `run_case` passes) grow balls around the touched nodes, so the
    # digests pin `_farthest`'s second phase.
    farthest, grown = healers._farthest, []

    def recording(adj, v, targets):
        grown.append(not _closes_alone(oracle_bfs(adj, v), targets, healers.SEARCH_FLOOR))
        return farthest(adj, v, targets)

    monkeypatch.setattr(healers, "_farthest", recording)
    run(_run_config(parse_config(case_text(name, tmp_path)), 7))
    assert any(grown), f"no search of {len(grown)} grew a target's ball"


@pytest.mark.parametrize("name", sorted(n for n, (command, _) in CASES.items() if command == "run"))
def test_outputs_do_not_read_set_order(name, tmp_path):
    # No output may read the order in which a set or dict iterates: each
    # run at seeds 1-3 gives the same outputs from the initial graph as
    # given and from the same graph with every neighbour set rebuilt and
    # the keys reversed, some set of which then iterates otherwise.
    cfg = parse_config(case_text(name, tmp_path))
    for seed in (1, 2, 3):
        config = _run_config(cfg, seed)
        given, relaid = config.initial._adj, Graph()
        relaid._adj = relaid_adjacency(given)
        assert any(list(relaid._adj[v]) != list(given[v]) for v in given)
        assert _run_outputs(replace(config, initial=relaid)) == _run_outputs(config)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cases to {DIGESTS}", file=sys.stderr)
