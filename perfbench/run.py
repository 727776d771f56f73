"""The repository benchmark: one workload, one seed, one process, one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload clustered-haft --seed 1 --seconds 30 --trace 0

With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
alternates untraced and traced repetitions of the loop, and reports the
per-layer split plus the tracing overhead. The workloads and the metrics
reported, with their units, are the ones BENCHMARK.json names. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Traced runs also write their spans to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# numpy's BLAS reads these when it loads; the float32 matmuls in the APSP
# would otherwise spread over every core and measure thread contention.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "selfheal" / "__init__.py").is_file():
        print(f"perfbench: no selfheal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import bench
    from spans import Recorder

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workload = bench.WORKLOADS[args.workload]
    env = bench.environment(ROOT, args.seed)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(
        f"workload {workload.name}: {workload.healer} healer, random-tree n={workload.n}, "
        f"{workload.adversary} adversary, T={workload.t_max}, "
        + (f"exact stretch (cap {workload.exact_apsp_cap})" if workload.exact_apsp_cap else "stretch off")
    )
    print("loop: closed, 1 client, 1 thread; each event is issued after the previous one is measured")

    traced_rec = Recorder(trace=True)
    recorders = (Recorder(trace=False), traced_rec) if args.trace else (Recorder(trace=False),)
    reps, *rest = bench.run_passes(workload, args.seed, args.seconds, *recorders)
    traced = rest[0] if rest else []

    all_reps = reps + traced
    attempted = sum(r.events for r in all_reps)
    failed = sum(r.events for r in all_reps if r.problems)
    crashed = any(not r.sha256 for r in all_reps)
    seeds = workload.seeds(args.seed)
    print(f"corpus: instance seeds {seeds}")
    for phase, phase_reps in (("untraced", reps), ("traced", traced)):
        for i, r in enumerate(phase_reps, start=1):
            status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
            print(
                f"{phase} rep {i} (seed {seeds[r.instance]}): {r.events} events "
                f"in {r.loop_s:.3f} s, check {status}"
            )
    if not crashed:
        print(f"records_sha256 {bench.records_sha256(bench.corpus(reps))}")
    print(f"error_rate {failed / attempted!r} ({failed} failed / {attempted} attempted events)")

    setup = bench.setup_times(all_reps)
    e2e = bench.end_to_end(reps)
    e2e["setup_s"] = setup["setup_s"]
    print(f"set-up samples: {sum(len(r.setups) for r in all_reps)}")
    samples = sum(len(r.latencies_s) for r in reps)
    print(f"event latency samples: {samples}, {samples - int(0.95 * samples)} above p95")
    probes = [p for r in reps for p in r.probes]
    if probes:
        print(
            f"speed probe: {len(probes)} samples, median {statistics.median(probes) * 1e3:.4f} ms, "
            f"reference {bench.PROBE_REFERENCE_S * 1e3:.4f} ms"
        )
    print("times below are at the reference speed; 'host' lines give the same as the host clock read them")
    host = bench.end_to_end(reps, host=True)
    for name, unit in e2e_units.items():
        print(f"metric {name} = {e2e.get(name, 0.0)!r} {unit}")
        if name in host and unit != "MB":
            print(f"host {name} = {host[name]!r} {unit}")
    if not crashed:
        for name, value in bench.quality(workload, bench.corpus(reps)).items():
            print(f"sim {name} = {value!r} {layer_units[name]}")
    if not workload.exact_apsp_cap:
        print("sim metrics.max_stretch is 0: stretch is off on this workload")

    if args.trace:
        layers = {"families.make_family_s": setup["families.make_family_s"]}
        if not crashed:
            layers.update(bench.per_layer(workload, traced_rec, traced))
            traced_eps = bench.end_to_end(traced)["events_per_s"]
            layers["trace.overhead"] = e2e["events_per_s"] / traced_eps - 1
            print(
                f"dominant layer ({' + '.join(workload.dominant)}): "
                f"{layers['trace.dominant_share']:.0%} of loop time"
            )
        for name, unit in layer_units.items():
            print(f"layer {name} = {layers.get(name, 0.0)!r} {unit}")
        print("time waited: not applicable, one process on one thread has no queue")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps({"env": env, "spans": bench.spans_json(traced_rec)}) + "\n",
            encoding="utf-8",
        )
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        values, units = layers, layer_units
    else:
        values, units = e2e, e2e_units
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    if failed:
        print("perfbench: correctness check FAILED", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
