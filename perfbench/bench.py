"""Workloads, the timed loop, the correctness check and the metrics.

Every workload runs in one process on one thread as a closed loop with a
single client: `engine.run` issues the next adversary event only after the
previous one has been healed and measured. The seed names a small corpus of
instances (`Workload.corpus` seeds derived from it), so that one run
averages over several inputs. A run passes over the corpus until its time
budget is spent and checks every repetition.

Times are host times at a reference speed. On a shared host, a core runs
the same code up to ~50% slower while another tenant uses it, in spells of
milliseconds to minutes. So the clock times a fixed loop of the benchmark's
own, the speed probe, between every two events, and scales each event's host
time by PROBE_REFERENCE_S over the probe times that bracket it. On an idle core of
the reference machine the scale is ~1, and a scaled time is the host time.
The probe runs no library code, so a change to the library cannot move it.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from selfheal import engine, families
from selfheal.adversary import StrategySpec
from selfheal.metrics import MetricsRecord, records_to_csv, summarize

from spans import LAYER_POINTS, Recorder, instrument, probe

# The speed probe's time on an idle core of the reference machine, a
# 2-vCPU "Intel(R) Xeon(R) Processor" VM with Python 3.11.7: the 5th
# percentile of 8000 runs of the probe (0.214 ms at least, and 0.308 ms at
# the median, as other tenants were busy).
PROBE_REFERENCE_S = 2.24e-4

# Set-ups timed before each repetition, so that they are spread over the run.
SETUPS_PER_REP = 6


@dataclass(frozen=True)
class Workload:
    name: str
    healer: str
    n: int
    adversary: str
    t_max: int
    # Exact stretch on every step when the live count stays under the cap;
    # 0 turns stretch (and the shadow APSP that feeds it) off.
    exact_apsp_cap: int
    # The per-layer times that should take at least half the loop: the
    # layer this workload is there to stress.
    dominant: tuple[str, ...]
    # Instances per corpus. The time of an instance varies between seeds
    # (sd ~3% on clustered-haft and cut-rebuild, ~8% on churn-stretch, where
    # the live count drifts), and the corpus averages that out.
    corpus: int = 4

    def seeds(self, seed: int) -> list[int]:
        """The corpus of instance seeds a run seed names; disjoint across seeds."""
        return [seed * self.corpus + i for i in range(self.corpus)]

    def graph(self, seed: int):
        return families.make_family("random-tree", self.n, 0.0, random.Random(f"{seed}:family"))

    def config(self, seed: int, initial) -> engine.RunConfig:
        return engine.RunConfig(
            initial=initial,
            healer=self.healer,
            strategy=StrategySpec(kind=self.adversary, seed=seed),
            t_max=self.t_max,
            seed=seed,
            exact_apsp_cap=self.exact_apsp_cap,
            stretch_samples=0,
        )


# Sizes give ~1-2 s per instance on an idle core of a 2-core Xeon, so a
# 30 s run makes one to three passes over its corpus. Every instance has at
# least 200 events.
WORKLOADS = {
    w.name: w
    for w in (
        # Heal does most of the work: clustered deletions grow hafts, and each
        # deletion snapshots and diffs the whole graph. No inserts, so the
        # shadow APSP never runs.
        Workload("clustered-haft", "haft", 512, "clustered", 256, 0, ("healers.on_delete_s",)),
        # Metrics do most of the work: exact stretch every step, and the
        # shadow APSP reruns after every insert. Also drives heal's insert path.
        Workload(
            "churn-stretch", "haft", 160, "random", 224, 512,
            ("engine.shadow_apsp_s", "metrics.stretch_max_s"), corpus=16,
        ),
        # The adversary does most of the work: brute-force articulation points
        # before each deletion. Heal runs the rebuild branch of on_delete.
        Workload("cut-rebuild", "rebuild", 216, "articulation", 200, 0, ("graph.articulation_points_s",)),
    )
}


# -- correctness ---------------------------------------------------------------


def check(workload: Workload, state: engine.RunState) -> list[str]:
    """Problems with one finished run; an empty list means it is correct."""
    problems = []
    if state.status != "ok":
        problems.append(f"status {state.status!r}, expected 'ok'")
    if len(state.records) != workload.t_max:
        problems.append(f"{len(state.records)} events, expected {workload.t_max}")
    audit = state.healer.audit()
    if audit:
        problems.append(f"healer audit: {len(audit)} problems, first {audit[0]!r}")
    summary = summarize(state.records)
    hard = summary.disconnects + summary.hard_degree_violations + summary.hard_stretch_violations
    if hard:
        problems.append(f"{hard} hard violations, first {summary.violations[0]!r}")
    if workload.exact_apsp_cap and any(r.stretch_mode != "exact" for r in state.records):
        problems.append("stretch not exact on every step")
    return problems


def records_sha256(corpus: list[list[MetricsRecord]]) -> str:
    """sha256 of the instances' `records_to_csv`, concatenated in seed order."""
    digest = hashlib.sha256()
    for records in corpus:
        digest.update(records_to_csv(records).encode("utf-8"))
    return digest.hexdigest()


# -- measurement ----------------------------------------------------------------


def time_setups(workload: Workload, seed: int) -> list[tuple[float, float]]:
    """Time of `make_family`, and of `make_family` + `engine.start`, scaled
    to the reference speed by the probes before and after the burst."""
    samples = []
    before = probe()
    for _ in range(SETUPS_PER_REP):
        gc.collect()
        t0 = time.perf_counter()
        initial = workload.graph(seed)
        t1 = time.perf_counter()
        engine.start(workload.config(seed, initial))
        samples.append((t1 - t0, time.perf_counter() - t0))
    scale = 2 * PROBE_REFERENCE_S / (before + probe())
    return [(f * scale, t * scale) for f, t in samples]


def scaled(latencies: list[float], probes: list[float]) -> list[float]:
    """Each event's host time at the reference speed: scaled by the mean of
    the probes just before and just after it (`probes[0]` follows set-up)."""
    return [
        latency * 2 * PROBE_REFERENCE_S / (before + after)
        for latency, before, after in zip(latencies, probes, probes[1:])
    ]


@dataclass
class Rep:
    """One `engine.run` of one instance."""

    instance: int
    setups: list[tuple[float, float]]
    events: int
    loop_s: float
    latencies_s: list[float]
    # latencies_s at the reference speed, and the speed probes they rest on
    scaled_s: list[float]
    probes: list[float]
    problems: list[str]
    sha256: str
    # Kept for the first repetition of each instance in each phase only, so
    # that peak memory does not grow with the number of repetitions.
    records: list[MetricsRecord] | None


def run_passes(workload: Workload, seed: int, seconds: float, *recs: Recorder) -> list[list[Rep]]:
    """Pass over the corpus until about `seconds` of wall time are spent.

    Only whole passes run, so every instance weighs the same; the last one
    starts only if it is expected to end less than half a pass late. Within
    a pass, each instance runs once per recorder, in turn, so that phases
    compared with each other (traced and untraced) see the same load on the
    machine. Returns one list of repetitions per recorder.
    """
    phases: list[list[Rep]] = [[] for _ in recs]
    first_sha: dict[int, str] = {}
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, instance_seed in enumerate(workload.seeds(seed)):
            for rec, reps in zip(recs, phases):
                rep = _run_once(workload, i, instance_seed, rec)
                reps.append(rep)
                if not rep.sha256:  # it crashed
                    return phases
                # Same seed, same inputs: every repetition must match the first.
                if first_sha.setdefault(i, rep.sha256) != rep.sha256:
                    rep.problems.append("records differ from the first repetition")
                if any(r.instance == i for r in reps[:-1]):
                    rep.records = None
        now = time.perf_counter()
        if now - begin + (now - pass_start) / 2 >= seconds:
            return phases


def _run_once(workload: Workload, instance: int, seed: int, rec: Recorder) -> Rep:
    setups = time_setups(workload, seed)
    initial = workload.graph(seed)
    config = workload.config(seed, initial)
    gc.collect()
    rec.new_rep()
    try:
        with instrument(rec):
            state = engine.run(config)
    except Exception as exc:  # a crashing run is a failed run, not a crashed benchmark
        traceback.print_exc()
        return Rep(instance, setups, workload.t_max, 0.0, [], [], [], [f"{type(exc).__name__}: {exc}"], "", None)
    problems = check(workload, state)
    if len(rec.latencies) != len(state.records):
        problems.append("engine.run no longer calls engine.step once per event")
    return Rep(
        instance=instance,
        setups=setups,
        events=len(state.records),
        loop_s=sum(rec.latencies),
        latencies_s=rec.latencies,
        scaled_s=scaled(rec.latencies, rec.probes),
        probes=rec.probes,
        problems=problems,
        sha256=records_sha256([state.records]),
        records=state.records,
    )


def corpus(reps: list[Rep]) -> list[list[MetricsRecord]]:
    """Each instance's records, in seed order."""
    kept = {r.instance: r.records for r in reps if r.records is not None}
    return [kept[i] for i in sorted(kept)]


def setup_times(reps: list[Rep]) -> dict[str, float]:
    """Medians over every set-up timed in the run, at the reference speed."""
    samples = [x for r in reps for x in r.setups]
    return {
        "families.make_family_s": statistics.median(f for f, _ in samples),
        "setup_s": statistics.median(s for _, s in samples),
    }


def end_to_end(reps: list[Rep], host: bool = False) -> dict[str, float]:
    """Time metrics over every event of the repetitions that ran to the end:
    at the reference speed, or as the host clock read them if `host`.

    Only whole passes run, so every instance weighs the same.
    """
    latencies = [x for r in reps if r.loop_s > 0 for x in (r.latencies_s if host else r.scaled_s)]
    if not latencies:
        return {}
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "events_per_s": len(latencies) / sum(latencies),
        "event_p50_ms": statistics.median(latencies) * 1e3,
        "event_p95_ms": q[94] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def quality(workload: Workload, records_by_instance: list[list[MetricsRecord]]) -> dict[str, float]:
    """Repair cost and healed-network quality over the corpus: deterministic
    for a seed."""
    records = [r for rs in records_by_instance for r in rs]
    deletes = [r.messages for r in records if r.op == "delete"]
    summary = summarize(records)
    stretch = summary.max_stretch if workload.exact_apsp_cap else 0.0
    return {
        "healers.messages_per_delete_p50": float(statistics.median(deletes)) if deletes else 0.0,
        "metrics.max_degree_ratio": summary.max_degree_ratio,
        # 0 where stretch is off; -1 for a disconnected network (infinite stretch).
        "metrics.max_stretch": stretch if math.isfinite(stretch) else -1.0,
    }


def per_layer(workload: Workload, rec: Recorder, reps: list[Rep]) -> dict[str, float]:
    """Span times and counts of a traced phase, per pass over the corpus.

    Times are means over passes; counts repeat exactly for a seed.
    """
    records_by_instance = corpus(reps)
    n_passes = len(reps) / len(records_by_instance)
    time_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_s = [0.0] * len(rec.spans)
    for s in rec.spans:
        if s is not None and s[3] >= 0:
            child_s[s[3]] += s[2] - s[1]
    on_delete_self = 0.0
    for i, s in enumerate(rec.spans):
        if s is None:
            continue
        name, start, end, _, _, event = s
        # Loop layers count from the first event on; preprocess runs only
        # inside engine.start.
        if event == 0 and name != "healers.preprocess":
            continue
        time_s[name] = time_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name == "healers.on_delete":
            on_delete_self += (end - start) - child_s[i]
    records = [r for rs in records_by_instance for r in rs]
    inserts = sum(1 for r in records if r.op == "insert")
    loop_s = sum(r.loop_s for r in reps)

    out = {f"{name}_s": time_s.get(name, 0.0) / n_passes for name in LAYER_POINTS}
    out["healers.on_delete_self_s"] = on_delete_self / n_passes
    for name in ("graph.articulation_points", "engine.shadow_apsp", "virtual_graph.de_simulate"):
        out[f"{name}_calls"] = calls.get(name, 0) / n_passes
    out["engine.shadow_apsp_per_insert"] = (
        out["engine.shadow_apsp_calls"] / inserts if inserts else 0.0
    )
    out["engine.live_graph_calls"] = rec.counts.get("engine.live_graph_calls", 0) / n_passes
    out["virtual_graph.de_simulate_per_event"] = out["virtual_graph.de_simulate_calls"] / len(records)
    out["healers.messages"] = sum(r.messages for r in records)
    out["healers.touched"] = sum(r.touched_count for r in records)
    out["healers.edges_changed"] = sum(r.edges_added + r.edges_dropped for r in records)
    out["haft.dissolved_vids"] = rec.counts.get("haft.dissolved_vids", 0) / n_passes
    out["haft.vids_minted"] = rec.counts.get("haft.vids_minted", 0) / n_passes
    out["trace.loop_s"] = loop_s / n_passes
    out["trace.dominant_share"] = sum(out[m] for m in workload.dominant) * n_passes / loop_s
    out.update(quality(workload, records_by_instance))
    return out


def spans_json(rec: Recorder) -> list[dict]:
    return [
        {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "rep": s[4], "event": s[5]}
        for s in rec.spans
        if s is not None
    ]


# -- environment -------------------------------------------------------------


def _blas() -> tuple[str, str]:
    """Name and thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    getters = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter in getters:
            if hasattr(lib, getter):
                return name, str(getattr(lib, getter)())
    return name, "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict[str, str]:
    import numpy

    blas, threads = _blas()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": str(usable),
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
        "seed": str(seed),
    }
