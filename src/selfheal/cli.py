"""Command-line front end: gen, run, verify, bench.

Usage:
    selfheal gen    --config gen.cfg    --out traces/
    selfheal run    --config run.cfg    --out results/
    selfheal verify --config run.cfg    --out results/
    selfheal bench  --config bench.cfg  --out bench/

Every subcommand takes --config, --out, --seed and --quiet; gen, run and
verify also take --healer, and bench takes --trials. Config files are flat
"key = value" lines with '#' comments, each key one of `CONFIG_KEYS` and
on one line at most. A subcommand reads its values first and then refuses
a key that only another subcommand reads (`COMMAND_KEYS`), before it does
any work. The master seed comes from --seed, else the SELFHEAL_SEED
environment variable, else the config's `seed` key.
Exit codes: 0 success (for verify: zero violations), 1 verification found
violations, 2 parse/config/I-O failure, 3 internal invariant breach (any
library check that fails while preprocessing the initial graph or on an
event the engine already validated).

gen, run and verify build their `RunConfig` in one place (`_run_config`)
and all drive `engine.run`; verify adds `engine.audit` at t = 0 and
after every step, and reports the same hard-bound violations that
`summary.json` counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
from dataclasses import asdict, replace
from pathlib import Path
from statistics import median

from .adversary import RNG_NAME, STRATEGY_KINDS, StrategySpec, format_trace, read_trace
from .engine import InternalError, RunConfig, audit, run
from .families import FAMILY_NAMES, make_family
from .graph import Graph, ascii_int, dump_edge_list, load_edge_list
from .healers import HEALER_NAMES
from .metrics import (
    DEFAULT_EXACT_APSP_CAP,
    DEFAULT_STRETCH_SAMPLES,
    MetricsRecord,
    parse_csv,
    records_to_csv,
    summarize,
)


class ConfigError(ValueError):
    pass


_RUN_KEYS = frozenset(
    "seed family graph n p healer trace T strategy p_delete insert_degree"
    " exact_apsp_cap stretch_samples".split()
)
# The keys each subcommand reads. A key in none of them is refused as the
# file is parsed, and one that only other subcommands read by the
# subcommand itself, so that a misspelt key cannot leave its setting at
# the default. gen takes a run's config and ignores its `trace`,
# `exact_apsp_cap` and `stretch_samples`.
COMMAND_KEYS = {
    "gen": _RUN_KEYS,
    "run": _RUN_KEYS,
    "verify": _RUN_KEYS | {"csv"},
    "bench": frozenset(
        "seed family p T strategy p_delete insert_degree n_list healers trials".split()
    ),
}
CONFIG_KEYS = frozenset().union(*COMMAND_KEYS.values())


class Config(dict):
    """A parsed config: key -> value, and `lines`, key -> its line number."""

    lines: dict[str, int]


def parse_config(text: str) -> Config:
    cfg = Config()
    cfg.lines = lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {lines[key]})")
        lines[key] = lineno
        cfg[key] = value
    return cfg


def load_config(path: str) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _refuse_keys_of_others(cfg: Config, command: str) -> None:
    """Refuse the first key, by line, that `command` does not read."""
    foreign = cfg.keys() - COMMAND_KEYS[command]
    if foreign:
        key = min(foreign, key=cfg.lines.__getitem__)
        readers = ", ".join(name for name, keys in COMMAND_KEYS.items() if key in keys)
        raise ConfigError(
            f"line {cfg.lines[key]}: config key {key!r} is read by {readers}, not by {command}"
        )


def _get_int(cfg: dict, key: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        return ascii_int(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} must be an integer") from None


def _named_int(name: str, text: str) -> int:
    """A flag's or an environment variable's integer, by `ascii_int`."""
    try:
        return ascii_int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {text!r}") from None


def _get_count(cfg: dict, key: str, default: int | None = None) -> int:
    """An integer key that must not be negative (a length, a cap, a count)."""
    value = _get_int(cfg, key, default)
    if value < 0:
        raise ConfigError(f"config key {key!r} must be >= 0, got {value}")
    return value


def _get_float(cfg: dict, key: str, default: float) -> float:
    if key not in cfg:
        return default
    # `float` alone also takes '_' between digits and other scripts' digits.
    text = cfg[key]
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        return float(text)
    except ValueError:
        raise ConfigError(f"config key {key!r} must be a number") from None


def _strategy_from(cfg: dict, seed: int) -> StrategySpec:
    """The online strategy the config names (default `mixed`): its `strategy`
    key must name a strategy that draws its own events."""
    kind = cfg.get("strategy", "mixed")
    if kind not in STRATEGY_KINDS:
        raise ConfigError(f"unknown strategy {kind!r}; expected one of {STRATEGY_KINDS}")
    if kind == "scripted":
        raise ConfigError("strategy 'scripted' needs a 'trace' key (run and verify only)")
    return StrategySpec(
        kind=kind,
        p_delete=_get_float(cfg, "p_delete", 0.7),
        insert_degree=_get_int(cfg, "insert_degree", 2),
        seed=seed,
    )


def _initial_graph(cfg: dict, seed: int) -> Graph:
    family = cfg.get("family", "from-file")
    if family == "from-file":
        path = cfg.get("graph")
        if not path:
            raise ConfigError("family from-file needs a 'graph' key")
        graph = load_edge_list(path)
        if graph.node_count == 0:
            raise ConfigError(f"edge list {path} has no nodes")
        return graph
    if family not in FAMILY_NAMES:
        raise ConfigError(
            f"unknown family {family!r}; expected one of {FAMILY_NAMES + ('from-file',)}"
        )
    n = _get_int(cfg, "n")
    p = _get_float(cfg, "p", 0.15)
    return make_family(family, n, p, random.Random(f"{seed}:family"))


def _write_manifest(out: Path, command: str, cfg: dict, seed: int) -> None:
    manifest = {
        "command": command,
        "parameters": dict(sorted(cfg.items())),
        "seed": seed,
        "rng": {"name": RNG_NAME, "python": platform.python_version()},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# -- subcommands ----------------------------------------------------------------


def cmd_gen(cfg: Config, out: Path, seed: int, quiet: bool) -> int:
    """Write an initial graph, a scripted trace, and a manifest."""
    # Online strategies see the healed graph, so trace generation replays
    # the loop against the named healer (recorded in the manifest). gen
    # always draws from the online strategy, so a `trace` key is ignored.
    online = {key: value for key, value in cfg.items() if key != "trace"}
    config = replace(
        _run_config({"T": "32", **online}, seed), exact_apsp_cap=0, stretch_samples=0
    )
    _refuse_keys_of_others(cfg, "gen")
    state = run(config)
    # Formatted first: a trace that `run` would refuse writes no file.
    trace = format_trace(state.events)
    out.mkdir(parents=True, exist_ok=True)
    dump_edge_list(config.initial, out / "graph.edges")
    (out / "trace.jsonl").write_text(trace, encoding="utf-8")
    _write_manifest(out, "gen", cfg, seed)
    if not quiet:
        print(f"gen: {config.initial.node_count} nodes, {len(state.events)} events -> {out}")
    return 0


def _run_config(cfg: dict, seed: int) -> RunConfig:
    initial = _initial_graph(cfg, seed)
    healer = cfg.get("healer", "haft")
    if healer not in HEALER_NAMES:
        raise ConfigError(f"unknown healer {healer!r}")
    if "trace" in cfg:
        events = tuple(read_trace(cfg["trace"]))
        strategy = StrategySpec(kind="scripted", events=events, seed=seed)
        t_max = _get_count(cfg, "T", len(events))
    else:
        strategy = _strategy_from(cfg, seed)
        t_max = _get_count(cfg, "T")
    return RunConfig(
        initial=initial,
        healer=healer,
        strategy=strategy,
        t_max=t_max,
        seed=seed,
        exact_apsp_cap=_get_count(cfg, "exact_apsp_cap", DEFAULT_EXACT_APSP_CAP),
        stretch_samples=_get_count(cfg, "stretch_samples", DEFAULT_STRETCH_SAMPLES),
    )


def cmd_run(cfg: Config, out: Path, seed: int, quiet: bool) -> int:
    """Execute a run; write metrics CSV, DOT exports, and a summary."""
    config = _run_config(cfg, seed)
    _refuse_keys_of_others(cfg, "run")
    state = run(config)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(records_to_csv(state.records), encoding="utf-8")
    (out / "live.dot").write_text(state.live_graph().to_dot("live"), encoding="utf-8")
    (out / "virtual.dot").write_text(state.healer.vg.to_dot("virtual"), encoding="utf-8")
    summary = summarize(state.records)
    payload = {
        "status": state.status,
        "timesteps": len(state.records),
        "warnings": state.warnings,
        "setup_messages": state.setup_messages,
        "healer": cfg.get("healer", "haft"),
        "seed": seed,
        "rng": {"name": RNG_NAME, "python": platform.python_version()},
        "summary": asdict(summary),
    }
    (out / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(out, "run", cfg, seed)
    if not quiet:
        print(
            f"run: {len(state.records)} timesteps, status={state.status}, "
            f"violations={len(summary.violations)} -> {out}"
        )
    return 0


def cmd_verify(cfg: Config, out: Path, seed: int, quiet: bool) -> int:
    """Replay a run and check every invariant level.

    On the started state (t = 0) and after every step, `engine.audit`
    checks each maintained structure against a fresh build: the healer's
    state (virtual level), the adversary's index, and the step's
    measurement (connectivity, degree ratio and, on a step with exact
    stretch, every live and shadow distance, the maximum stretch and both
    diameters). After the run come
    the hard bounds that `summary.json` counts (real level): connectivity,
    the 4x degree bound and the 2*ceil(log2 n') stretch bound (exact or
    sampled; a sampled maximum never exceeds the true one). The virtual
    checks implying the real ones is the point; both are exercised.
    """
    violations: list[str] = []
    config = _run_config(cfg, seed)
    _refuse_keys_of_others(cfg, "verify")
    state = run(config, on_step=lambda s: violations.extend(audit(s)))
    violations.extend(summarize(state.records).violations)
    if "csv" in cfg:
        try:
            text = Path(cfg["csv"]).read_text(encoding="utf-8")
            parse_csv(text)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"metrics CSV unreadable: {exc}") from None
        if text != records_to_csv(state.records):
            violations.append("csv: stored metrics differ from replay")
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "healer": state.config.healer,
        "seed": seed,
        "timesteps": len(state.records),
        "status": state.status,
        "violations": violations,
    }
    (out / "verify_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if not quiet:
        for v in violations:
            print(f"VIOLATION {v}")
        print(f"verify: {len(violations)} violations over {len(state.records)} timesteps")
    return 1 if violations else 0


BENCH_COLUMNS = (
    "n",
    "healer",
    "trials",
    "deletions",
    "median_messages",
    "median_rounds",
    "median_max_hops",
    "median_touched",
    "max_degree_ratio",
)


def cmd_bench(cfg: Config, out: Path, seed: int, quiet: bool, trials_override: int | None) -> int:
    """Sweep (n, healer) points; write a scaling table and log-log slopes."""
    n_list = _int_list(cfg.get("n_list", "64,128,256"))
    healers = _name_list(cfg.get("healers", "haft,rebuild"), HEALER_NAMES)
    if trials_override is not None and trials_override < 0:
        raise ConfigError(f"--trials must be >= 0, got {trials_override}")
    trials = trials_override if trials_override is not None else _get_count(cfg, "trials", 3)
    family = cfg.get("family", "random-tree")
    p = _get_float(cfg, "p", 0.15)
    strategy = _strategy_from({"strategy": "clustered", **cfg}, seed)
    # T defaults to n/2 at each size.
    t_fixed = _get_count(cfg, "T") if "T" in cfg else None
    _refuse_keys_of_others(cfg, "bench")
    rows = []
    touched_by_healer: dict[str, list[tuple[int, float]]] = {h: [] for h in healers}
    for n in n_list:
        t_max = n // 2 if t_fixed is None else t_fixed
        for healer in healers:
            deletions: list[MetricsRecord] = []
            for trial in range(trials):
                trial_seed = seed + 7919 * trial
                initial = make_family(family, n, p, random.Random(f"{trial_seed}:{n}:family"))
                state = run(
                    RunConfig(
                        initial=initial,
                        healer=healer,
                        strategy=replace(strategy, seed=trial_seed),
                        t_max=t_max,
                        seed=trial_seed,
                        exact_apsp_cap=0,
                        stretch_samples=0,
                    )
                )
                deletions += [r for r in state.records if r.op == "delete"]
            if deletions:
                med_touched = float(median(r.touched_count for r in deletions))
                touched_by_healer[healer].append((n, med_touched))
                rows.append(
                    {
                        "n": n,
                        "healer": healer,
                        "trials": trials,
                        "deletions": len(deletions),
                        "median_messages": float(median(r.messages for r in deletions)),
                        "median_rounds": float(median(r.rounds for r in deletions)),
                        "median_max_hops": float(median(r.max_hops for r in deletions)),
                        "median_touched": med_touched,
                        "max_degree_ratio": max(float(r.max_degree_ratio) for r in deletions),
                    }
                )
    lines = [",".join(BENCH_COLUMNS)]
    lines.extend(",".join(str(row[c]) for c in BENCH_COLUMNS) for row in rows)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    slopes = {
        healer: loglog_slope(points) for healer, points in touched_by_healer.items() if points
    }
    (out / "bench_summary.json").write_text(
        json.dumps({"touched_loglog_slopes": slopes}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    _write_manifest(out, "bench", cfg, seed)
    if not quiet:
        for line in lines:
            print(line)
        for healer, slope in sorted(slopes.items()):
            print(f"slope[{healer}] = {slope:.3f}")
    return 0


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def _int_list(text: str) -> list[int]:
    try:
        return [ascii_int(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad integer list {text!r}") from None


def _name_list(text: str, allowed: tuple[str, ...]) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    for name in names:
        if name not in allowed:
            raise ConfigError(f"unknown name {name!r}; expected one of {allowed}")
    return names


# -- entry point ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="selfheal",
        description="Self-healing network simulator: trace generation, runs, "
        "verification, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen", "run", "verify", "bench"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="key = value config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", default=None, help="master seed override")
        if name == "bench":
            sp.add_argument("--trials", default=None, help="trials override")
        else:
            sp.add_argument("--healer", default=None, help="healer name override")
        sp.add_argument("--quiet", action="store_true")
    # Every option that takes a value, read from the subcommands' parsers.
    takes_value = {
        option
        for sp in sub.choices.values()
        for action in sp._actions
        if action.nargs is None
        for option in action.option_strings
    }
    args = parser.parse_args(
        _attach_dash_values(sys.argv[1:] if argv is None else argv, takes_value)
    )
    try:
        cfg = load_config(args.config)
        if getattr(args, "healer", None) is not None:
            cfg["healer"] = args.healer
        seed = _resolve_seed(args.seed, cfg)
        out = Path(args.out)
        if args.command == "gen":
            return cmd_gen(cfg, out, seed, args.quiet)
        if args.command == "run":
            return cmd_run(cfg, out, seed, args.quiet)
        if args.command == "verify":
            return cmd_verify(cfg, out, seed, args.quiet)
        trials = None if args.trials is None else _named_int("--trials", args.trials)
        return cmd_bench(cfg, out, seed, args.quiet, trials)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _attach_dash_values(argv: list[str], takes_value: set[str]) -> list[str]:
    """argv with `--opt X` joined into `--opt=X` for each option in
    `takes_value` where X starts with a single '-' and is not `-h`.
    argparse reads such a token as an option unless it spells a plain
    negative number, so `--seed -1_0` or `--healer -x` would end in a usage
    block rather than in the one-line error that `--seed 1_0` or
    `--healer=-x` gives, and `--out -o` would not write to `-o`."""
    out: list[str] = []
    for token in argv:
        if (
            out
            and out[-1] in takes_value
            and token.startswith("-")
            and not token.startswith("--")
            and token != "-h"
        ):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _resolve_seed(flag: str | None, cfg: dict) -> int:
    if flag is not None:
        return _named_int("--seed", flag)
    env = os.environ.get("SELFHEAL_SEED")
    if env is not None:
        return _named_int("SELFHEAL_SEED", env)
    return _get_int(cfg, "seed", 0)


if __name__ == "__main__":
    sys.exit(main())
