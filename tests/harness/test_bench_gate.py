"""The bench regression gate: every suite compared, none skipped."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import bench  # noqa: E402


def _suite(rows):
    return {"wall_s": 1.0, "events": 10, "events_per_s": 10, "rows": rows}


def test_suite_without_baseline_fails_the_gate():
    report = {"suites": {"old": _suite([["a", 1]]), "new": _suite([["b", 2]])}}
    baseline = {"suites": {"old": _suite([["a", 1]])}}
    gated = bench.compare(report, baseline, gate=True)
    assert "cycles identical" in gated[0]
    assert gated[1] == "new: REGRESSED (no baseline)"
    # outside the gate the gap is reported, not failed
    assert bench.compare(report, baseline)[1] == "new: no baseline"


def test_seed_baseline_covers_every_smoke_suite():
    seed = json.loads((ROOT / "BENCH_seed.json").read_text())["suites"]
    report = bench.run_bench([], n_procs=2, smoke=True)
    for name, suite in report["suites"].items():
        assert name in seed, name
        assert suite["rows"] == seed[name]["rows"], name
        assert suite["events"] == seed[name]["events"], name
