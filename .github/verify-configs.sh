#!/usr/bin/env bash
# Runs `selfheal verify --seed 1` on each config of the table below, from
# the repository root, and prints one PASS or FAIL line per config. Exits 1
# if any config failed. Configs, outputs and stderr go to ci-verify/.
#
# Usage: .github/verify-configs.sh
#
# Each row runs `python -m selfheal.cli verify` with PYTHONPATH=src, so the
# table checks this checkout's sources and needs no install.
#
# A row passes when verify exits with the row's code. A row expected to
# exit 1 (a baseline healer that breaks a hard bound by design) must also
# leave no audit line in its report; a row expected to exit 2 must print no
# traceback.
set -u
cd "$(dirname "$0")/.."
mkdir -p ci-verify
failed=0

# row NAME EXPECTED_EXIT CONFIG_LINE...
row() {
  local name=$1 expect=$2 status=0 why=
  shift 2
  printf '%s\n' "$@" > "ci-verify/$name.cfg"
  PYTHONPATH=src python -m selfheal.cli verify --config "ci-verify/$name.cfg" \
    --out "ci-verify/$name-out" --seed 1 \
    2> "ci-verify/$name.err" || status=$?
  cat "ci-verify/$name.err"
  if [ "$status" -ne "$expect" ]; then
    why="verify exited $status, expected $expect"
  elif [ "$expect" -eq 1 ] && grep -e '-audit:' "ci-verify/$name-out/verify_report.json"; then
    why="audit lines in the report"
  elif [ "$expect" -eq 2 ] && grep -q Traceback "ci-verify/$name.err"; then
    why="traceback on stderr"
  fi
  if [ -z "$why" ]; then
    echo "PASS $name"
  else
    echo "FAIL $name: $why"
    failed=1
  fi
}

# The per-event measurement at benchmark scale.
row verify 0 'family = random-tree' 'n = 512' 'healer = haft' 'strategy = clustered' \
  'T = 256' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The max-degree adversary's maintained degree heap.
row max-degree 0 'family = random-tree' 'n = 512' 'healer = haft' 'strategy = max-degree' \
  'T = 256' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The rebuild healer at benchmark scale.
row rebuild 0 'family = random-tree' 'n = 216' 'healer = rebuild' 'strategy = articulation' \
  'T = 200' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The rebuild healer's whole-haft walk: clustered deletions at n = 512
# dissolve regions of several hafts.
row rebuild-clustered 0 'family = random-tree' 'n = 512' 'healer = rebuild' \
  'strategy = clustered' 'T = 256' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The rebuild healer's whole-haft split: random churn on a
# sparse graph keeps hafts apart, so some deletions dissolve several hafts
# into one.
row rebuild-er 0 'family = erdos-renyi' 'n = 512' 'p = 0.02' 'healer = rebuild' \
  'strategy = random' 'T = 256' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The rebuild healer on wide regions: clustered deletions at n = 2048 touch
# a median of 188 nodes and up to 287, so the per-step wiring and
# image-count audits run on minted batches far larger than other rows'.
row rebuild-wide 0 'family = random-tree' 'n = 2048' 'healer = rebuild' \
  'strategy = clustered' 'T = 128' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The haft healer on hafts that share processors: random churn on a sparse
# graph keeps up to 32 hafts live at once, and up to 171 processors hold
# slots in more than one of them. So in 23 deletions the virtual
# neighbours of the deleted node, the parents of its slots, lead into two
# or more hafts.
row haft-er 0 'family = erdos-renyi' 'n = 512' 'p = 0.02' 'healer = haft' \
  'strategy = random' 'T = 256' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The haft healer under the articulation adversary.
row articulation 0 'family = random-tree' 'n = 512' 'healer = haft' \
  'strategy = articulation' 'T = 256' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The articulation adversary on graphs with no cut vertex: its cut search
# spends its cap and falls back to Tarjan's list, and then to the
# maximum degree.
row articulation-er 0 'family = erdos-renyi' 'n = 512' 'p = 0.02' 'healer = haft' \
  'strategy = articulation' 'T = 128' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The rebuild healer under churn with exact stretch.
row rebuild-churn 0 'family = random-tree' 'n = 160' 'healer = rebuild' 'strategy = random' \
  'T = 224' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# Exact stretch over the maintained live distances.
row stretch 0 'family = random-tree' 'n = 160' 'healer = haft' 'strategy = random' \
  'T = 224' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# Exact stretch past four words of the all-pairs build.
row stretch-wide 0 'family = random-tree' 'n = 300' 'healer = haft' 'strategy = random' \
  'T = 150' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# Exact stretch on a long path: the live diameter falls from 259 to 254
# over the first steps, so the per-step audit checks builds on both sides
# of the kernel's step from 8 to 9 bit planes, where its level matrix
# widens from uint8 to uint16.
row path-exact 0 'family = path' 'n = 300' 'healer = haft' 'strategy = mixed' \
  'T = 24' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# The live distances over deletions that drop edges.
row dropped 0 'family = random-tree' 'n = 160' 'healer = haft' 'strategy = clustered' \
  'T = 120' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# The ring baseline's bookkeeping.
row ring 0 'family = random-tree' 'n = 512' 'healer = ring' 'strategy = mixed' \
  'T = 256' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The star and null baselines' bookkeeping.
row star 1 'family = random-tree' 'n = 512' 'healer = star' 'strategy = mixed' \
  'T = 256' 'exact_apsp_cap = 0' 'stretch_samples = 0'
row null 1 'family = random-tree' 'n = 512' 'healer = null' 'strategy = mixed' \
  'T = 256' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# The ring baseline under churn with exact stretch.
row ring-churn 0 'family = random-tree' 'n = 160' 'healer = ring' 'strategy = random' \
  'T = 224' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# The star baseline under churn: hub deletions drive the live distances'
# rebuild test at high degree.
row star-churn 1 'family = random-tree' 'n = 160' 'healer = star' 'strategy = random' \
  'T = 224' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# The null baseline under churn: holes left open disconnect the live graph
# from the second step on, so the maintained distances and stretch run
# through infinite entries.
row null-churn 1 'family = random-tree' 'n = 160' 'healer = null' 'strategy = random' \
  'T = 224' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# Sampled stretch above the exact cap: some 300 live nodes against a cap of
# 64, so every step samples its stretch.
row sampled 0 'family = random-tree' 'n = 300' 'healer = haft' 'strategy = mixed' \
  'T = 40' 'exact_apsp_cap = 64' 'stretch_samples = 200'
# The default stretch settings, the only row without an `exact_apsp_cap`
# key: some 600 live nodes lie under the default cap, so every step
# measures exact stretch.
row default-cap 0 'family = random-tree' 'n = 600' 'healer = haft' 'strategy = mixed' \
  'T = 24'
# Sampled stretch at the default settings, with no stretch key: some 8192
# live nodes lie above the default cap, so every step samples its stretch.
row default-sampled 0 'family = random-tree' 'n = 8192' 'healer = haft' 'strategy = mixed' \
  'T = 4'
# Start at scale: the bulk lift of a 65536-node initial graph, its t = 0
# measurement and audit, and a short loop after them.
row bulk-start 0 'family = random-tree' 'n = 65536' 'healer = haft' 'strategy = clustered' \
  'T = 8' 'exact_apsp_cap = 0' 'stretch_samples = 0'
# A gen trace replays through verify. gen writes the initial graph after
# its run, so an insert that leaked into the caller's graph would put the
# inserted nodes in graph.edges, and the replay would refuse the trace.
printf '%s\n' 'family = star' 'n = 512' 'healer = haft' 'strategy = mixed' 'insert_degree = 3' \
  'T = 256' > ci-verify/gen-star.cfg
PYTHONPATH=src python -m selfheal.cli gen --config ci-verify/gen-star.cfg \
  --out ci-verify/gen-star-out --seed 1 --quiet 2> ci-verify/gen-star.err
cat ci-verify/gen-star.err
row gen-replay 0 'graph = ci-verify/gen-star-out/graph.edges' \
  'trace = ci-verify/gen-star-out/trace.jsonl' 'healer = haft' 'exact_apsp_cap = 0' \
  'stretch_samples = 0'
# The largest legal node ids with exact stretch: ids run up to
# MAX_NODE_ID - 1 = 2^62 - 1, and random churn inserts ids above it; every
# real id stays below the virtual nodes' VBASE.
printf '%s\n' '0 1' '1 4611686018427387903' '2 4611686018427387903' '3 2' \
  '4611686018427387902 0' > ci-verify/top-ids.edges
row top-ids 0 'graph = ci-verify/top-ids.edges' 'healer = haft' 'strategy = random' \
  'T = 6' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# Isolated nodes next to a tree, from an edge list: the lift and the t = 0
# degree ratio start on 0/0 degree pairs, and inserts may attach to them.
# The initial graph is disconnected, so verify exits 1, with no audit line.
printf '%s\n' '0 1' '1 2' '1 3' '3 4' '4 5' '7' '2 6' '9' > ci-verify/isolated.edges
row isolated 1 'graph = ci-verify/isolated.edges' 'healer = haft' 'strategy = mixed' \
  'T = 12' 'exact_apsp_cap = 512' 'stretch_samples = 0'
# A node id at MAX_NODE_ID is rejected with exit 2.
printf '%s\n' '0 1' '1 4611686018427387904' > ci-verify/over-ids.edges
row over-ids 2 'graph = ci-verify/over-ids.edges' 'T = 1' 'exact_apsp_cap = 512' \
  'stretch_samples = 0'
# A trace line nested too deeply for the JSON decoder is rejected with
# exit 2.
printf '%s\n' '0 1' '1 2' > ci-verify/nested.edges
python3 -c "print('[' * 100000 + ']' * 100000)" > ci-verify/nested.jsonl
row nested-trace 2 'graph = ci-verify/nested.edges' 'trace = ci-verify/nested.jsonl'
# A config key that no subcommand reads, here a misspelt cap, is rejected
# with exit 2 rather than run with the cap's default.
row unknown-key 2 'family = path' 'n = 5' 'T = 2' 'exact_apsp_capp = 0'
# A key that only another subcommand reads, here bench's `healers` for
# `healer`, is rejected with exit 2 rather than run with the default healer.
row other-key 2 'family = path' 'n = 5' 'T = 2' 'healers = rebuild'

exit "$failed"
