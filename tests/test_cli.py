"""CLI subcommands, file formats, exit codes, and byte-stable outputs."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from selfheal import metrics
from selfheal.adversary import AdversaryIndex, read_trace
from selfheal.cli import CONFIG_KEYS, loglog_slope, main, parse_config
from selfheal.engine import DistanceOracle, LiveMeasure
from selfheal.graph import MAX_NODE_ID, Graph, UnknownNodeError
from selfheal.haft import Haft, Internal, haft_slots
from selfheal.healers import HaftHealer, HealerError
from selfheal.metrics import ZeroShadowDegreeError
from selfheal.virtual_graph import RepairJournal


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config():
    cfg = parse_config("# comment\nfamily = path\nn = 8\n\nT=3 # inline\n")
    assert cfg == {"family": "path", "n": "8", "T": "3"}


def test_parse_config_rejects_bad_line():
    from selfheal.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_config("just words\n")


@pytest.mark.parametrize("command", ["gen", "run", "verify", "bench"])
def test_duplicate_config_key_exits_2(tmp_path, capsys, command):
    # Used to keep the last value: `n = 5` then `n = 7` ran a 7-node path.
    cfg = write(tmp_path / "c.cfg", "family = path\nn = 5\nn = 7\nT = 2\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: duplicate key 'n' (first on line 2)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "run", "verify", "bench"])
def test_unknown_config_key_exits_2(tmp_path, capsys, command):
    # Used to run with exit 0 and the default cap, the misspelt key showing
    # only in manifest.json.
    cfg = write(tmp_path / "c.cfg", "family = path\nn = 5\nT = 2\nexact_apsp_capp = 0\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: line 4: unknown config key 'exact_apsp_capp'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("gen", "family = path\nn = 5\nT = 2\nn_list = 4\n",
         "line 4: config key 'n_list' is read by bench, not by gen"),
        ("run", "family = path\nn = 5\nhealers = rebuild\nT = 2\n",
         "line 3: config key 'healers' is read by bench, not by run"),
        ("run", "family = path\nn = 5\nT = 2\ncsv = nothere.csv\n",
         "line 4: config key 'csv' is read by verify, not by run"),
        ("verify", "family = path\nn = 5\nT = 2\ntrials = 1\nhealers = rebuild\n",
         "line 4: config key 'trials' is read by bench, not by verify"),
        ("bench", "n_list = 8\nhealers = haft\ntrials = 1\nfamily = path\nT = 2\nhealer = star\n",
         "line 6: config key 'healer' is read by gen, run, verify, not by bench"),
    ],
    ids=["gen-n_list", "run-healers", "run-csv", "verify-trials", "bench-healer"],
)
def test_key_of_another_subcommand_exits_2(tmp_path, capsys, command, text, message):
    # Each used to exit 0: `healers = rebuild`, a slip for `healer`, ran
    # the default `haft`, and `csv` was read by verify alone.
    cfg = write(tmp_path / "c.cfg", text)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_every_config_key_is_accepted():
    text = "".join(f"{key} = 1\n" for key in sorted(CONFIG_KEYS))
    assert parse_config(text) == {key: "1" for key in CONFIG_KEYS}
    assert len(CONFIG_KEYS) == 17


@pytest.mark.parametrize("command", ["run", "verify"])
def test_deeply_nested_trace_line_exits_2(tmp_path, capsys, command):
    # Valid JSON that the decoder cannot nest into: it once raised
    # RecursionError with a traceback and exit 1, which for verify means
    # "violations found".
    graph = write(tmp_path / "g.edges", "0 1\n1 2\n")
    trace = write(tmp_path / "t.jsonl", "[" * 100000 + "]" * 100000 + "\n")
    cfg = write(tmp_path / "r.cfg", f"graph = {graph}\ntrace = {trace}\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 1: not valid JSON (nested too deeply)\n"
    assert not out.exists()


class TestGen:
    def test_path_family_edge_count(self, tmp_path):
        cfg = write(tmp_path / "g.cfg", "family = path\nn = 8\nstrategy = max-degree\nT = 0\n")
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        lines = (tmp_path / "o" / "graph.edges").read_text().strip().splitlines()
        assert len(lines) == 7

    def test_max_degree_on_star_deletes_center(self, tmp_path):
        cfg = write(
            tmp_path / "g.cfg", "family = star\nn = 9\nstrategy = max-degree\nT = 1\n"
        )
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        events = read_trace(tmp_path / "o" / "trace.jsonl")
        assert len(events) == 1
        assert events[0].op == "delete" and events[0].node == 0

    def test_invalid_family_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.cfg", "family = moebius\nn = 8\n")
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_generated_mixed_trace_replays(self, tmp_path):
        # inserts must be recorded with their attach-time neighbors, not the
        # final shadow adjacency, or replay would reject them
        cfg = write(
            tmp_path / "g.cfg",
            "family = random-tree\nn = 12\nstrategy = mixed\np_delete = 0.4\nT = 30\n",
        )
        gen_out = tmp_path / "o"
        assert main(["gen", "--config", cfg, "--out", str(gen_out), "--quiet"]) == 0
        events = read_trace(gen_out / "trace.jsonl")
        assert any(e.op == "insert" for e in events)
        run_cfg = write(
            tmp_path / "r.cfg",
            f"graph = {gen_out}/graph.edges\ntrace = {gen_out}/trace.jsonl\nhealer = haft\n",
        )
        assert main(["run", "--config", run_cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 0
        lines = (tmp_path / "r" / "metrics.csv").read_text().splitlines()
        assert len(lines) == len(events) + 1

    def test_run_only_stretch_keys_are_accepted_and_ignored(self, tmp_path):
        # README: `gen` takes a `run` config whole and ignores its stretch
        # keys, even ones that would turn stretch off on every step.
        base = "family = random-tree\nn = 12\nstrategy = mixed\np_delete = 0.4\nT = 20\n"
        outputs = []
        for name, extra in [("plain", ""), ("keyed", "exact_apsp_cap = 0\nstretch_samples = 5\n")]:
            cfg = write(tmp_path / f"{name}.cfg", base + extra)
            out = tmp_path / name
            assert main(["gen", "--config", cfg, "--out", str(out), "--seed", "3", "--quiet"]) == 0
            outputs.append([(out / f).read_bytes() for f in ("graph.edges", "trace.jsonl")])
        assert outputs[0] == outputs[1]
        assert outputs[0][1]

    def test_trace_that_run_would_refuse_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # The largest legal ids: random churn inserts one above them at t = 1,
        # which `gen` once wrote and `run` then refused.
        top = MAX_NODE_ID - 1
        graph = write(
            tmp_path / "g.edges", f"0 1\n1 {top}\n2 {top}\n3 2\n{top - 1} 0\n"
        )
        cfg = write(tmp_path / "g.cfg", f"graph = {graph}\nstrategy = random\nT = 6\n")
        out = tmp_path / "o"
        assert main(["gen", "--config", cfg, "--out", str(out), "--seed", "1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 1: node {MAX_NODE_ID} is not below {MAX_NODE_ID}\n"
        assert not (out / "graph.edges").exists() and not (out / "trace.jsonl").exists()

    def test_manifest_pins_rng(self, tmp_path):
        cfg = write(tmp_path / "g.cfg", "family = path\nn = 4\nT = 0\n")
        main(["gen", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["rng"]["name"] == "python-random-mt19937"
        assert manifest["seed"] == 0


@pytest.fixture
def triangle_run(tmp_path):
    graph = write(tmp_path / "g.edges", "0 1\n1 2\n0 2\n")
    trace = write(tmp_path / "t.jsonl", '{"t": 1, "op": "delete", "node": 2}\n')
    cfg = write(
        tmp_path / "run.cfg",
        f"graph = {graph}\ntrace = {trace}\nhealer = haft\n",
    )
    return cfg, tmp_path


class TestRun:
    def test_triangle_single_row(self, triangle_run):
        cfg, tmp_path = triangle_run
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one event row
        assert lines[1].split(",")[1] == "delete"
        assert lines[1].split(",")[3] == "true"
        assert (out / "live.dot").exists()
        assert (out / "virtual.dot").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["summary"]["disconnects"] == 0

    def test_null_healer_reports_disconnect_but_exits_zero(self, tmp_path):
        graph = write(tmp_path / "g.edges", "0 1\n1 2\n")
        trace = write(tmp_path / "t.jsonl", '{"t": 1, "op": "delete", "node": 1}\n')
        cfg = write(tmp_path / "r.cfg", f"graph = {graph}\ntrace = {trace}\nhealer = null\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[1].split(",")[3] == "false"

    @pytest.mark.parametrize(
        "line",
        [
            '{"t": 1, "op": "delete", "node": true}',
            '{"t": 1, "op": "delete", "node": [5]}',
            '{"t": 1, "op": "delete", "node": "x"}',
            '{"t": 1, "op": "delete", "node": -1}',
            '{"t": 1, "op": "insert", "node": 9, "neighbors": [1, "a"]}',
            '{"t": 1, "op": "insert", "node": 9, "neighbors": [false]}',
        ],
        ids=["bool", "list", "str", "negative", "str-neighbor", "bool-neighbor"],
    )
    def test_mistyped_trace_ids_exit_2(self, tmp_path, capsys, line):
        graph = write(tmp_path / "g.edges", "0 1\n1 2\n")
        trace = write(tmp_path / "t.jsonl", line + "\n")
        cfg = write(tmp_path / "r.cfg", f"graph = {graph}\ntrace = {trace}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "not a non-negative integer" in capsys.readouterr().err

    def test_malformed_edge_list_exits_2(self, tmp_path):
        graph = write(tmp_path / "g.edges", "0 1\n1 x\n")
        cfg = write(tmp_path / "r.cfg", f"graph = {graph}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

    # `int` reads each of these ids (as 10, 1, 1, -1 and 0), and the first
    # three were once taken that way.
    @pytest.mark.parametrize(
        "token",
        ["1_0", "+1", "\u0661", "-1", "-0"],
        ids=["underscore", "plus", "arabic-indic", "minus", "minus-zero"],
    )
    def test_edge_list_id_other_than_ascii_digits_exits_2(self, tmp_path, capsys, token):
        graph = write(tmp_path / "g.edges", f"0 1\n1 {token}\n")
        cfg = write(tmp_path / "r.cfg", f"graph = {graph}\nT = 1\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: line 2: bad node id {token!r}\n"
        assert not out.exists()

    # 2^64 once died in the all-pairs build with OverflowError (exit 1).
    @pytest.mark.parametrize("big", [MAX_NODE_ID, 2**64], ids=["max", "2^64"])
    def test_edge_list_id_out_of_range_exits_2(self, tmp_path, capsys, big):
        graph = write(tmp_path / "g.edges", f"0 1\n1 {big}\n")
        cfg = write(tmp_path / "r.cfg", f"graph = {graph}\nT = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"line 2: node id {big} is not below {MAX_NODE_ID}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("big", [MAX_NODE_ID, 2**64], ids=["max", "2^64"])
    @pytest.mark.parametrize("op", ["delete", "insert", "neighbor"])
    def test_trace_id_out_of_range_exits_2(self, tmp_path, capsys, big, op):
        graph = write(tmp_path / "g.edges", "0 1\n1 2\n")
        line = {
            "delete": f'{{"t": 1, "op": "delete", "node": {big}}}',
            "insert": f'{{"t": 1, "op": "insert", "node": {big}, "neighbors": [1]}}',
            "neighbor": f'{{"t": 1, "op": "insert", "node": 9, "neighbors": [1, {big}]}}',
        }[op]
        trace = write(tmp_path / "t.jsonl", line + "\n")
        cfg = write(tmp_path / "r.cfg", f"graph = {graph}\ntrace = {trace}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "line 1: " in err and str(big) in err
        assert "Traceback" not in err

    def test_largest_ids_run_with_exact_stretch(self, tmp_path):
        top = MAX_NODE_ID - 1
        graph = write(tmp_path / "g.edges", f"0 1\n1 {top}\n2 1\n")
        trace = write(
            tmp_path / "t.jsonl",
            f'{{"t": 1, "op": "insert", "node": {top - 1}, "neighbors": [0, {top}]}}\n'
            '{"t": 2, "op": "delete", "node": 1}\n',
        )
        cfg = write(
            tmp_path / "r.cfg",
            f"graph = {graph}\ntrace = {trace}\nexact_apsp_cap = 512\nstretch_samples = 0\n",
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet"]) == 0
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert report["status"] == "ok" and report["violations"] == []
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 0
        lines = (tmp_path / "r" / "metrics.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [row[2] for row in rows] == [str(top - 1), "1"]
        assert [(row[3], row[6]) for row in rows] == [("true", "exact")] * 2

    # A check that fails after the engine validated its input is a library
    # bug, whatever ValueError subclass it raises: UnknownNodeError is a
    # GraphError, like a malformed edge list, yet it exits 3 here. That holds
    # before the first event too, in preprocessing and the t=0 measurement,
    # and in verify's full-scan audit of the measurement.
    @pytest.mark.parametrize(
        "command, target, error",
        [
            ("run", (HaftHealer, "on_delete"), HealerError),
            ("verify", (HaftHealer, "on_delete"), HealerError),
            ("run", (HaftHealer, "on_delete"), UnknownNodeError),
            ("verify", (HaftHealer, "on_delete"), UnknownNodeError),
            ("run", (HaftHealer, "preprocess"), UnknownNodeError),
            ("verify", (HaftHealer, "preprocess"), UnknownNodeError),
            ("run", (LiveMeasure, "refresh"), ZeroShadowDegreeError),
            ("verify", (LiveMeasure, "refresh"), ZeroShadowDegreeError),
            ("verify", (metrics, "degree_ratio_max"), ZeroShadowDegreeError),
        ],
        ids=[
            "run",
            "verify",
            "run-UnknownNodeError",
            "verify-UnknownNodeError",
            "run-preprocess",
            "verify-preprocess",
            "run-measure",
            "verify-measure",
            "verify-measure-audit",
        ],
    )
    def test_internal_breach_exits_3(
        self, triangle_run, monkeypatch, capsys, command, target, error
    ):
        def breach(*args):
            raise error("simulator moved")

        monkeypatch.setattr(*target, breach)
        cfg, tmp_path = triangle_run
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
        assert "internal error: simulator moved" in capsys.readouterr().err

    def test_unknown_healer_exits_2(self, triangle_run, capsys):
        cfg, tmp_path = triangle_run
        args = ["run", "--config", cfg, "--healer", "bogus", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert "unknown healer" in capsys.readouterr().err

    def test_missing_trace_exits_2(self, tmp_path):
        graph = write(tmp_path / "g.edges", "0 1\n")
        cfg = write(tmp_path / "r.cfg", f"graph = {graph}\ntrace = {tmp_path}/nope.jsonl\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

    def test_golden_determinism(self, triangle_run):
        cfg, tmp_path = triangle_run
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        for name in ("metrics.csv", "live.dot", "virtual.dot", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_outputs_rereadable(self, triangle_run):
        cfg, tmp_path = triangle_run
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--quiet"])
        from selfheal.metrics import parse_csv

        rows = parse_csv((out / "metrics.csv").read_text())
        assert rows[0]["op"] == "delete"

    def test_trials_flag_rejected(self, triangle_run, capsys):
        # --trials is a bench flag; run would ignore it
        cfg, tmp_path = triangle_run
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--trials", "2"])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    def test_healer_flag_overrides_config(self, triangle_run):
        cfg, tmp_path = triangle_run
        out = tmp_path / "out"
        assert (
            main(["run", "--config", cfg, "--out", str(out), "--healer", "null", "--quiet"])
            == 0
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["healer"] == "null"


_remove = DistanceOracle.remove


def _remove_leaving_a_stale_entry(self, v, added, dropped):
    """A live-matrix removal that leaves one distance one hop too long."""
    _remove(self, v, added, dropped)
    dist = self.matrix()[0]
    dist[0, -1] = dist[-1, 0] = dist[0, -1] + 1


def _remove_never_rebuilding(self, v, added, dropped):
    """A live-matrix removal that skips its rebuild: it passes on no dropped
    edge and shows its rule a graph in which v's former neighbours are all
    adjacent, so it relaxes the added edges and frees v's row even when a
    distance grew."""
    dist, index = self.matrix()
    near = [self.nodes[r] for r in np.flatnonzero(dist[index[v]] == 1.0)]
    graph, self._graph = self._graph, Graph(nodes=near, edges=combinations(near, 2))
    try:
        _remove(self, v, added, ())
    finally:
        self._graph = graph


_insert = DistanceOracle.insert


def _shadow_insert_of_the_first_neighbour(self, v, neighbors):
    """The shadow oracle, the one without a shadow of its own, joins an
    inserted node to its first neighbour only."""
    _insert(self, v, neighbors if self.shadow is not None else list(neighbors)[:1])


_on_delete = HaftHealer.on_delete


def _delete_with_a_false_witness(self, v):
    """A haft deletion that leaves the hole open, yet reports every orphan
    in its witness, as if the repair had joined them."""
    self._repair = lambda v, direct, parents: (RepairJournal(), 0)
    report = _on_delete(self, v)
    report.witness = set(report.touched)
    return report


_repair = HaftHealer._repair


def _repair_sharing_a_simulator(self, v, direct, parents):
    """A haft repair that then reshapes every haft into two subtrees over
    the same two slots, so that the second slot would simulate two
    internals."""
    result = _repair(self, v, direct, parents)
    for hid, haft in self.hafts.items():
        a, b = haft_slots(haft)[:2]
        self.hafts[hid] = Haft((Internal(hid, Internal(-1, a, b), Internal(-2, a, b)),), ())
    return result


_update = AdversaryIndex.update


def _update_setting_aside_one_node(self, op, node, touched):
    """An index update that sets aside only the smallest touched node, so
    the heap misses the other nodes' new degrees."""
    _update(self, op, node, sorted(touched)[:1])


def _update_forgetting_inserts(self, op, node, touched):
    """An index update that leaves an inserted node out of the live ids."""
    _update(self, op, node, touched)
    if op == "insert":
        self.live_ids.remove(node)


def _update_skipping_an_id(self, op, node, touched):
    """An index update that moves the next fresh id one too far on an insert."""
    _update(self, op, node, touched)
    if op == "insert":
        self.next_id += 1


class TestVerify:
    def test_clean_haft_run_exits_zero(self, triangle_run):
        cfg, tmp_path = triangle_run
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet"]) == 0
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert report["violations"] == []

    def test_star_healer_degree_violation_exits_one(self, tmp_path):
        # star-center attacks push the star healer over the hard 4x bound
        lines = "\n".join(f"0 {i}" for i in range(1, 12))
        graph = write(tmp_path / "g.edges", lines + "\n")
        trace = write(tmp_path / "t.jsonl", '{"t": 1, "op": "delete", "node": 0}\n')
        cfg = write(tmp_path / "v.cfg", f"graph = {graph}\ntrace = {trace}\nhealer = star\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet"]) == 1
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert any("degree" in v for v in report["violations"])

    @pytest.mark.parametrize(
        "method, wrong",
        [
            ("connected", lambda *args: False),
            ("refresh", lambda *args: Fraction(1, 2)),
            ("remove", _remove_leaving_a_stale_entry),
            ("on_delete", _delete_with_a_false_witness),
        ],
    )
    def test_wrong_fast_measure_exits_one(self, triangle_run, monkeypatch, method, wrong):
        # `remove` is the live-distance update, `on_delete` reports the
        # connectivity witness, and the others are LiveMeasure's.
        owner = {"remove": DistanceOracle, "on_delete": HaftHealer}.get(method, LiveMeasure)
        monkeypatch.setattr(owner, method, wrong)
        cfg, tmp_path = triangle_run
        if method == "on_delete":
            # The path 0-2-1, which the deletion of node 2 cuts in two.
            write(tmp_path / "g.edges", "0 2\n2 1\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet"]) == 1
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert any("measure-audit" in v for v in report["violations"])

    def test_started_state_is_audited(self, tmp_path, monkeypatch):
        # With no step at all, only the audit of the started state can see
        # the t = 0 measurement's wrong degree ratio.
        monkeypatch.setattr(LiveMeasure, "refresh", lambda *args: Fraction(1, 2))
        graph = write(tmp_path / "g.edges", "0 1\n1 2\n")
        cfg = write(tmp_path / "v.cfg", f"graph = {graph}\nhealer = haft\nT = 0\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet"]) == 1
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert report["timesteps"] == 0
        assert report["violations"] == ["t=0 measure-audit: max_degree_ratio 1/2, full scan 1"]

    def test_live_distance_off_the_maximum_exits_one(self, tmp_path, monkeypatch):
        # At seed 3 some step's wrong live distances leave its maximum stretch
        # and live diameter right, so only the entry-by-entry audit sees it.
        monkeypatch.setattr(DistanceOracle, "remove", _remove_never_rebuilding)
        cfg = write(
            tmp_path / "c.cfg",
            "family = random-tree\nn = 16\nhealer = haft\nstrategy = clustered\nT = 12\n"
            "exact_apsp_cap = 512\nstretch_samples = 0\n",
        )
        args = ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet", "--seed", "3"]
        assert main(args) == 1
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        steps = {}
        for line in report["violations"]:
            t, _, audit = line.partition(" measure-audit: ")
            steps.setdefault(t, []).append(audit)
        assert ["live distances not exact"] in steps.values()

    def test_shadow_distances_off_the_graph_exit_one(self, tmp_path, monkeypatch):
        # The shadow graph gets every edge, so only the audit of the shadow
        # matrix against a fresh build of the shadow graph can tell.
        monkeypatch.setattr(DistanceOracle, "insert", _shadow_insert_of_the_first_neighbour)
        cfg = write(
            tmp_path / "c.cfg",
            "family = random-tree\nn = 160\nhealer = haft\nstrategy = random\nT = 224\n"
            "exact_apsp_cap = 512\nstretch_samples = 0\n",
        )
        args = ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet", "--seed", "1"]
        assert main(args) == 1
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        audits = {line.partition(" measure-audit: ")[2] for line in report["violations"]}
        assert "shadow distances not exact" in audits
        assert any(audit.startswith("diameter_shadow ") for audit in audits)

    @pytest.mark.parametrize(
        "wrong, strategy, name",
        [
            (_update_setting_aside_one_node, "max-degree", "max_degree_node"),
            (_update_forgetting_inserts, "mixed", "live_ids"),
            (_update_skipping_an_id, "mixed", "next_id"),
        ],
    )
    def test_broken_adversary_index_exits_one(self, tmp_path, monkeypatch, wrong, strategy, name):
        # Its events stay legal, so only the audit against a rebuilt index
        # can tell.
        monkeypatch.setattr(AdversaryIndex, "update", wrong)
        cfg = write(
            tmp_path / "c.cfg",
            f"family = random-tree\nn = 16\nhealer = haft\nstrategy = {strategy}\nT = 8\n"
            "exact_apsp_cap = 0\nstretch_samples = 0\n",
        )
        args = ["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet", "--seed", "1"]
        assert main(args) == 1
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert any(f"adversary-audit: {name}" in v for v in report["violations"])

    def test_unassignable_haft_exits_one(self, tmp_path, monkeypatch):
        # No simulator assignment exists for such a haft. The state audit
        # reports it like any other corrupt haft: a violation, not a user
        # error (exit 2) nor a crash of the audit itself (exit 3).
        monkeypatch.setattr(HaftHealer, "_repair", _repair_sharing_a_simulator)
        graph = write(tmp_path / "g.edges", "0 1\n0 2\n0 3\n0 4\n")
        trace = write(tmp_path / "t.jsonl", '{"t": 1, "op": "delete", "node": 0}\n')
        cfg = write(tmp_path / "v.cfg", f"graph = {graph}\ntrace = {trace}\nhealer = haft\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet"]) == 1
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert any(
            v.startswith("t=1 state-audit: haft ")
            and v.endswith(": slot (0, 2) would simulate two internals")
            for v in report["violations"]
        )

    def test_corrupt_csv_exits_two(self, triangle_run):
        cfg, tmp_path = triangle_run
        bad = write(tmp_path / "bad.csv", "t,op\n1,delete\n")
        cfg2 = write(
            tmp_path / "v.cfg",
            (tmp_path / "run.cfg").read_text() + f"csv = {bad}\n",
        )
        assert main(["verify", "--config", cfg2, "--out", str(tmp_path / "v"), "--quiet"]) == 2

    def test_matching_csv_checked(self, triangle_run):
        cfg, tmp_path = triangle_run
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--quiet"])
        cfg2 = write(
            tmp_path / "v.cfg",
            (tmp_path / "run.cfg").read_text() + f"csv = {out}/metrics.csv\n",
        )
        assert main(["verify", "--config", cfg2, "--out", str(tmp_path / "v"), "--quiet"]) == 0


@pytest.mark.parametrize("healer", ["haft", "null"])
@pytest.mark.parametrize(
    "trace, extra, status",
    [
        # every node of the path deleted: the engine stops as "annihilated"
        pytest.param(
            '{"t": 1, "op": "delete", "node": 1}\n'
            '{"t": 2, "op": "delete", "node": 0}\n'
            '{"t": 3, "op": "delete", "node": 2}\n',
            "",
            "annihilated",
            id="annihilated",
        ),
        # one scripted event under T = 3: the strategy runs out, "exhausted"
        pytest.param(
            '{"t": 1, "op": "delete", "node": 1}\n', "T = 3\n", "exhausted", id="exhausted"
        ),
    ],
)
def test_run_and_verify_agree(tmp_path, healer, trace, extra, status):
    graph = write(tmp_path / "g.edges", "0 1\n1 2\n")
    trace_path = write(tmp_path / "t.jsonl", trace)
    cfg = write(
        tmp_path / "c.cfg", f"graph = {graph}\ntrace = {trace_path}\nhealer = {healer}\n{extra}"
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet"])
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert summary["status"] == report["status"] == status
    assert summary["timesteps"] == report["timesteps"]
    assert set(summary["summary"]["violations"]) <= set(report["violations"])
    assert code == (1 if report["violations"] else 0)
    if healer == "null":
        assert summary["summary"]["violations"]


class TestBench:
    def test_single_point_single_trial(self, tmp_path):
        cfg = write(
            tmp_path / "b.cfg",
            "n_list = 16\nhealers = haft\ntrials = 1\nfamily = random-tree\nT = 6\n",
        )
        out = tmp_path / "b"
        assert main(["bench", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("n,healer,")

    def test_empty_grid_header_only(self, tmp_path):
        cfg = write(tmp_path / "b.cfg", "n_list =\nhealers = haft\ntrials = 1\n")
        out = tmp_path / "b"
        assert main(["bench", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_trials_flag_overrides(self, tmp_path):
        cfg = write(
            tmp_path / "b.cfg",
            "n_list = 12\nhealers = haft\ntrials = 5\nfamily = path\nT = 4\n",
        )
        out = tmp_path / "b"
        assert main(["bench", "--config", cfg, "--out", str(out), "--trials", "1", "--quiet"]) == 0
        line = (out / "bench.csv").read_text().splitlines()[1]
        assert line.split(",")[2] == "1"

    def test_negative_trials_flag_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "b.cfg", BENCH_POINT)
        out = tmp_path / "b"
        assert main(["bench", "--config", cfg, "--out", str(out), "--trials", "-4"]) == 2
        assert "--trials must be >= 0, got -4" in capsys.readouterr().err
        assert not out.exists()

    def test_healer_flag_rejected(self, tmp_path, capsys):
        # bench sweeps the `healers` key; a --healer flag would be ignored
        cfg = write(tmp_path / "b.cfg", "n_list = 12\nhealers = haft\ntrials = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", cfg, "--out", str(tmp_path / "b"), "--healer", "star"])
        assert exc.value.code == 2
        assert "--healer" in capsys.readouterr().err

    def test_mixed_shape_keys_reach_the_strategy(self, tmp_path):
        # With p_delete = 1 every event of every trial is a deletion.
        cfg = write(
            tmp_path / "b.cfg",
            "n_list = 32\nhealers = haft\ntrials = 2\nfamily = random-tree\nT = 16\n"
            "strategy = mixed\np_delete = 1.0\ninsert_degree = 3\n",
        )
        out = tmp_path / "b"
        assert main(["bench", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        row = (out / "bench.csv").read_text().splitlines()[1].split(",")
        assert row[3] == str(2 * 16)


BENCH_POINT = "n_list = 8\nhealers = haft\ntrials = 1\nfamily = path\nT = 2\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("gen", "family = path\nn = 4\nT = 2\nstrategy = scripted\n", "'trace' key"),
        ("run", "family = path\nn = 4\nT = 2\nstrategy = scripted\n", "'trace' key"),
        ("verify", "family = path\nn = 4\nT = 2\nstrategy = scripted\n", "'trace' key"),
        ("bench", BENCH_POINT + "strategy = scripted\n", "'trace' key"),
        ("gen", "family = path\nn = 0\nT = 2\n", "at least 1, got 0"),
        ("run", "family = star\nn = 0\nT = 2\n", "at least 1, got 0"),
        ("verify", "family = random-tree\nn = -3\nT = 2\n", "at least 1, got -3"),
        ("bench", BENCH_POINT.replace("n_list = 8", "n_list = 8,0"), "at least 1, got 0"),
        ("gen", "family = from-file\ngraph = {dir}/empty.edges\nT = 2\n", "has no nodes"),
        ("run", "family = from-file\ngraph = {dir}/empty.edges\nT = 2\n", "has no nodes"),
        ("verify", "graph = {dir}/empty.edges\nT = 2\n", "has no nodes"),
        ("run", "family = path\nn = 4\nT = -3\n", "'T' must be >= 0, got -3"),
        ("gen", "family = path\nn = 4\nT = -1\n", "'T' must be >= 0, got -1"),
        ("bench", BENCH_POINT.replace("T = 2", "T = -2"), "'T' must be >= 0, got -2"),
        ("bench", BENCH_POINT.replace("trials = 1", "trials = -1"), "'trials' must be >= 0"),
        ("run", "family = path\nn = 4\nT = 2\nexact_apsp_cap = -1\n",
         "'exact_apsp_cap' must be >= 0, got -1"),
        ("verify", "family = path\nn = 4\nT = 2\nstretch_samples = -5\n",
         "'stretch_samples' must be >= 0, got -5"),
        ("gen", "family = erdos-renyi\nn = 4\np = 2.0\nT = 2\n", "p must be in [0, 1], got 2.0"),
        ("run", "family = erdos-renyi\nn = 4\np = nan\nT = 2\n", "p must be in [0, 1], got nan"),
        ("verify", "family = erdos-renyi\nn = 4\np = -1\nT = 2\n", "p must be in [0, 1], got -1.0"),
        ("bench", BENCH_POINT.replace("family = path", "family = erdos-renyi\np = 1.5"),
         "p must be in [0, 1], got 1.5"),
    ],
    ids=[
        "gen-scripted", "run-scripted", "verify-scripted", "bench-scripted",
        "gen-n0", "run-n0", "verify-n-negative", "bench-n0",
        "gen-empty-edge-list", "run-empty-edge-list", "verify-empty-edge-list",
        "run-T-negative", "gen-T-negative", "bench-T-negative", "bench-trials-negative",
        "run-exact-apsp-cap-negative", "verify-stretch-samples-negative",
        "gen-p-above-one", "run-p-nan", "verify-p-negative", "bench-p-above-one",
    ],
)
def test_config_that_would_run_empty_exits_2(tmp_path, capsys, command, text, message):
    # All used to exit 0: with an empty run whose status is "exhausted",
    # with a negative cap or sample count taken as given, or with p > 1
    # taken as a complete graph. An edge probability of NaN or below 0
    # failed only after 1000 resampled graphs, with another message.
    write(tmp_path / "empty.edges", "# comments only\n\n")
    cfg = write(tmp_path / "c.cfg", text.replace("{dir}", str(tmp_path)))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "run", "verify", "bench"])
@pytest.mark.parametrize("value", ["1_0", "+1", "\u0661\u0662"], ids=["underscore", "plus", "arabic-indic"])
def test_config_integer_other_than_ascii_digits_exits_2(tmp_path, capsys, command, value):
    # `int` reads these as 10, 1 and 12, and they were once taken that way.
    cfg = write(tmp_path / "c.cfg", f"family = path\nn = 4\nT = {value}\nn_list = 4\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: config key 'T' must be an integer\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "run", "verify", "bench"])
@pytest.mark.parametrize(
    "key, value",
    [("p", "\u0660.\u0665"), ("p", "0_5"), ("p_delete", "0_7"), ("p_delete", "\uff10.7")],
    ids=["p-arabic-indic", "p-underscore", "p_delete-underscore", "p_delete-fullwidth"],
)
def test_config_float_other_than_ascii_exits_2(tmp_path, capsys, command, key, value):
    # `float` reads these as 0.5, 5.0, 7.0 and 0.7.
    cfg = write(
        tmp_path / "c.cfg",
        f"family = erdos-renyi\nn = 4\nT = 2\nn_list = 4\nstrategy = mixed\n{key} = {value}\n",
    )
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: config key {key!r} must be a number\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["4_0", "+4", "\u0664"], ids=["underscore", "plus", "arabic-indic"])
def test_bench_size_list_other_than_ascii_digits_exits_2(tmp_path, capsys, value):
    cfg = write(tmp_path / "c.cfg", BENCH_POINT.replace("n_list = 8", f"n_list = 8, {value}"))
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: bad integer list '8, {value}'\n"


class TestSeeds:
    def test_env_seed_used(self, tmp_path, monkeypatch):
        cfg = write(tmp_path / "g.cfg", "family = path\nn = 4\nT = 0\n")
        monkeypatch.setenv("SELFHEAL_SEED", "99")
        main(["gen", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        cfg = write(tmp_path / "g.cfg", "family = path\nn = 4\nT = 0\n")
        monkeypatch.setenv("SELFHEAL_SEED", "99")
        main(["gen", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "7", "--quiet"])
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_bad_env_seed_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = write(tmp_path / "g.cfg", "family = path\nn = 4\nT = 0\n")
        monkeypatch.setenv("SELFHEAL_SEED", "pi")
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    # `int` reads each of these as 10, 3 and 1, and they were once taken
    # that way: `--seed 1_0` wrote seed 10 to the manifest.
    @pytest.mark.parametrize(
        "command, flags, env, message",
        [
            ("gen", ["--seed", "1_0"], None, "--seed must be an integer, got '1_0'"),
            ("run", ["--seed", "\u0663"], None, "--seed must be an integer, got '\u0663'"),
            ("gen", [], "+3", "SELFHEAL_SEED must be an integer, got '+3'"),
            ("verify", [], " 3", "SELFHEAL_SEED must be an integer, got ' 3'"),
            ("bench", ["--trials", "0_1"], None, "--trials must be an integer, got '0_1'"),
            ("bench", ["--trials", "+1"], None, "--trials must be an integer, got '+1'"),
            # argparse takes a token that starts with '-' for an option
            # unless it spells a plain negative number.
            ("gen", ["--seed", "-1_0"], None, "--seed must be an integer, got '-1_0'"),
            ("run", ["--seed", "-1_0"], None, "--seed must be an integer, got '-1_0'"),
            ("verify", ["--seed", "-1_0"], None, "--seed must be an integer, got '-1_0'"),
            ("bench", ["--seed", "-1_0"], None, "--seed must be an integer, got '-1_0'"),
            ("bench", ["--trials", "-0_1"], None, "--trials must be an integer, got '-0_1'"),
        ],
        ids=["seed-underscore", "seed-arabic-indic", "env-plus", "env-space", "trials-underscore",
             "trials-plus", "gen-seed-dash-underscore", "run-seed-dash-underscore",
             "verify-seed-dash-underscore", "bench-seed-dash-underscore",
             "trials-dash-underscore"],
    )
    def test_flag_or_env_integer_other_than_ascii_digits_exits_2(
        self, tmp_path, monkeypatch, capsys, command, flags, env, message
    ):
        cfg = write(tmp_path / "c.cfg", "n = 4\n" + BENCH_POINT)
        if env is None:
            monkeypatch.delenv("SELFHEAL_SEED", raising=False)
        else:
            monkeypatch.setenv("SELFHEAL_SEED", env)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_flag_accepted(self, tmp_path):
        cfg = write(tmp_path / "g.cfg", "family = path\nn = 4\nT = 0\n")
        main(["gen", "--config", cfg, "--out", str(tmp_path / "j"), "--seed=-5", "--quiet"])
        manifest = json.loads((tmp_path / "j" / "manifest.json").read_text())
        assert manifest["seed"] == -5
        main(["gen", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-5", "--quiet"])
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == -5


def test_default_cap_measures_exact_stretch_over_300_live_nodes(tmp_path):
    # No `exact_apsp_cap` key: 300 nodes and 8 events keep some 292 to 308
    # live, above the old default of 256 and within the new one, so every
    # step measures exact stretch.
    text = "family = random-tree\nn = 300\nhealer = haft\nstrategy = mixed\nT = 8\n"
    cfg = write(tmp_path / "c.cfg", text)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "1", "--quiet"]) == 0
    rows = metrics.parse_csv((out / "metrics.csv").read_text(encoding="utf-8"))
    assert len(rows) == 8 and 300 + 8 <= metrics.DEFAULT_EXACT_APSP_CAP
    assert [row["stretch_mode"] for row in rows] == ["exact"] * 8


# A value that starts with '-' belongs to the option before it, for every
# option that takes a value, as it does when written `--option=value`.
def test_dash_healer_value_is_a_healer_name(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "family = path\nn = 4\nT = 0\n")
    out = tmp_path / "o"
    assert main(["gen", "--config", cfg, "--healer", "-x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown healer '-x'\n"
    assert not out.exists()


def test_dash_out_value_is_the_output_directory(tmp_path, monkeypatch):
    cfg = write(tmp_path / "c.cfg", "family = path\nn = 4\nT = 2\n")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", cfg, "--out", "-o", "--quiet"]) == 0
    assert (tmp_path / "-o" / "metrics.csv").is_file()


def test_dash_config_value_is_the_config_path(tmp_path, monkeypatch):
    write(tmp_path / "-c", "family = path\nn = 4\nT = 2\n")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "-c", "--out", "o", "--quiet"]) == 0
    assert (tmp_path / "o" / "metrics.csv").is_file()


def test_loglog_slope():
    points = [(10, 10.0), (100, 100.0), (1000, 1000.0)]
    assert abs(loglog_slope(points) - 1.0) < 1e-9
    flat = [(10, 5.0), (100, 5.0)]
    assert abs(loglog_slope(flat)) < 1e-9
