"""Golden digests: `selfheal run` output stays byte-identical across refactors.

A small fixed corpus of runs (healers `haft` and `rebuild`; adversaries
`clustered`, `mixed` and `random`; exact stretch on) is executed through the
CLI, and the sha256 of each output file is compared with the digests in
`tests/golden/digests.json`. `summary.json` is hashed without `rng.python`,
which embeds the interpreter version.

Regenerate the digests (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from selfheal.cli import main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
OUTPUTS = ("metrics.csv", "live.dot", "virtual.dot", "summary.json")

FAMILIES = {
    "tree": "family = random-tree\nn = 40\n",
    "er": "family = erdos-renyi\nn = 32\np = 0.12\n",
}

CASES = {
    f"{healer}-{strategy}-{family}": (
        FAMILIES[family]
        + f"healer = {healer}\nstrategy = {strategy}\nT = 30\nexact_apsp_cap = 256\n"
    )
    for healer in ("haft", "rebuild")
    for strategy in ("clustered", "mixed", "random")
    for family in FAMILIES
}
# A larger tree grows deeper hafts, so merges carry across several sizes.
CASES["haft-clustered-bigtree"] = (
    "family = random-tree\nn = 96\nhealer = haft\nstrategy = clustered\n"
    "T = 64\nexact_apsp_cap = 256\n"
)


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        payload = json.loads(data)
        del payload["rng"]["python"]
        data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: Path) -> dict[str, str]:
    cfg = workdir / f"{name}.cfg"
    cfg.write_text(CASES[name], encoding="utf-8")
    out = workdir / name
    code = main(["run", "--config", str(cfg), "--out", str(out), "--seed", "7", "--quiet"])
    assert code == 0
    return {f: _digest(out / f) for f in OUTPUTS}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert run_case(name, tmp_path) == expected[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cases to {DIGESTS}", file=sys.stderr)
