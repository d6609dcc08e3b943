#!/usr/bin/env python3
"""The repository benchmark: one workload per process, median over units.

    python3 perfbench/run.py --workload em3d-paper --seed 1 --seconds 15 --trace 0

Set-up builds the workload's inputs and references from ``--seed`` and runs
one untimed warm-up unit.  The measured loop then repeats units for
``--seconds`` and checks every unit's outputs outside the timed region.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates plain and cProfile'd units and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A metric or
workload that ``BENCHMARK.json`` names but the run did not produce stops the
benchmark with an error instead of a result.  README.md explains the
workloads, the metrics and the noise on the host they were sized on.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import LAYERS, profiled  # noqa: E402
from workloads import WORKLOADS, Spans  # noqa: E402

#: set-ups measured per untraced run (this process plus fresh child
#: processes); setup_s is their median
SETUPS = 3
PROBE_TIMEOUT_S = 150

#: per-layer metrics that only some workloads produce; on the others they
#: read 0.  Any other metric missing from a run is an error.
ONLY_ON = {
    "fidelity.em3d_static_speedup": {"em3d-paper"},
    "fidelity.crl_over_ace": {"em3d-paper"},
    "compiler.compile_ms": {"acec-ladder"},
    "compiler.pass.hoisted": {"acec-ladder"},
    "compiler.pass.merged": {"acec-ladder"},
    "compiler.pass.devirtualized": {"acec-ladder"},
    "compiler.pass.deleted": {"acec-ladder"},
    "serve.controller_ms": {"serve-shift"},
    "serve.stall_fraction": {"serve-shift"},
    "serve.drain_ratio.r8": {"serve-shift"},
    "serve.drain_ratio.r10": {"serve-shift"},
    "serve.drain_ratio.r12": {"serve-shift"},
    "serve.p99_cycles": {"serve-shift"},
    "serve.max_rate": {"serve-shift"},
    **{f"wait.{b}": {"em3d-paper", "em3d-lossy"}
       for b in ("compute", "msg", "dir", "barrier", "lock", "retry")},
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def host_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, or None."""
    if len(values) < 11:
        return None
    cuts = statistics.quantiles(values, n=100)
    for p in (99, 95, 90, 75, 50):
        if sum(v > cuts[p - 1] for v in values) >= 10:
            return p, cuts[p - 1]
    return None


class Bench:
    """One workload's set-up, measured loop and results."""

    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload](seed)
        spans = Spans()
        failed, self.counts = self.wl.verify(self.wl.unit(spans))
        self.setup_s = time.perf_counter() - _T0
        self.attempted = 0
        self.failed = 0
        self.drift: list[str] = []
        if failed:
            print(f"warm-up unit: {failed} failed operations", file=sys.stderr)

    def one_unit(self, run) -> tuple[float, object, dict]:
        """Time ``run(unit)`` once; check its outputs and counts afterwards."""
        spans = Spans()
        # Garbage left by the previous unit is collected here, not at a
        # random point inside the timed region.
        gc.collect()
        t0 = time.perf_counter()
        outputs, extra = run(lambda: self.wl.unit(spans))
        wall = time.perf_counter() - t0
        failed, counts = self.wl.verify(outputs)
        self.attempted += self.wl.ops_per_unit
        if self.same("unit counts vs warm-up", self.counts, counts):
            self.failed += failed
        return wall, extra, spans.totals

    def same(self, label: str, want: dict, got: dict) -> bool:
        """Deterministic values must repeat exactly.  A difference is
        recorded as drift and fails one unit's operations."""
        if want == got:
            return True
        diff = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        self.drift.append(f"{label}: " + ", ".join(
            f"{k} {want.get(k)} != {got.get(k)}" for k in diff[:8]))
        self.failed += self.wl.ops_per_unit
        return False

    def probe_setups(self, args) -> list[float]:
        """Set up again in fresh processes; their counts must match ours."""
        times = [self.setup_s]
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
        for _ in range(SETUPS - 1):
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"set-up probe exited with {proc.returncode}")
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            times.append(probe["setup_s"])
            # The probe's warm-up unit is checked here, so its operations
            # count as attempted.
            self.attempted += self.wl.ops_per_unit
            self.same("counts in a fresh process", self.counts, probe["counts"])
        return times


def plain(unit):
    return unit(), None


def measure_untraced(bench: Bench, args) -> tuple[dict, list[str]]:
    setups = bench.probe_setups(args)
    walls = []
    t_end = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < t_end:
        walls.append(bench.one_unit(plain)[0])
    counts = bench.counts
    metrics = {
        "unit_wall_ms": statistics.median(walls) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cycles": counts["sim_cycles"],
    }
    notes = [f"units: {len(walls)}; setups (s): " + ", ".join(f"{s:.3f}" for s in setups)]
    t = tail([w * 1e3 for w in walls])
    notes.append("unit_wall_ms tail: " + (
        f"p{t[0]} = {t[1]:.1f} ms over {len(walls)} units (not gated)" if t
        else f"none with ten samples beyond it over {len(walls)} units"))
    return metrics, notes


def measure_traced(bench: Bench, args, names: set) -> tuple[dict, list[str]]:
    plain_walls, traced_walls, splits, span_totals = [], [], [], []
    t_end = time.perf_counter() + args.seconds
    while not traced_walls or time.perf_counter() < t_end:
        wall, _, spans = bench.one_unit(plain)
        plain_walls.append(wall)
        span_totals.append(spans)
        wall, split, _ = bench.one_unit(profiled)
        traced_walls.append(wall)
        if splits:
            bench.same("per-layer calls between traced units",
                       {layer: c for layer, (_, c) in splits[0].items()},
                       {layer: c for layer, (_, c) in split.items()})
        splits.append(split)

    counts = bench.counts
    untraced = statistics.median(plain_walls)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = statistics.median(s[layer][0] for s in splits)
        m[f"{layer}.calls"] = splits[0][layer][1]
    m.update((name, v) for name, v in counts.items() if name in names)
    m["sim.events_per_s"] = counts["sim.events"] / untraced
    msgs = counts["machine.msgs"]
    m["faults.useful_ratio"] = (
        (msgs - counts["faults.retries"] - counts["faults.dup_suppressed"]) / msgs)
    m["trace.overhead_pct"] = (statistics.median(traced_walls) / untraced - 1) * 100
    for key, name in (("compiler.compile", "compiler.compile_ms"),
                      ("serve.controller", "serve.controller_ms")):
        if any(key in s for s in span_totals):
            m[name] = statistics.median(s.get(key, 0.0) for s in span_totals) * 1e3
    waits = bench.wl.sim_waits()
    if waits is not None:
        cycles, buckets = waits
        bench.attempted += bench.wl.ops_per_unit
        bench.same("with a trace buffer", {"sim_cycles": counts["sim_cycles"]},
                   {"sim_cycles": cycles})
        for b, v in buckets.items():
            m[f"wait.{b}"] = v

    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    notes = [f"units: {len(plain_walls)} untraced + {len(traced_walls)} traced; "
             f"untraced median {untraced * 1e3:.1f} ms, traced median "
             f"{statistics.median(traced_walls) * 1e3:.1f} ms", "layer split (traced units):"]
    for layer in sorted(LAYERS, key=lambda la: -m[f"{la}.self_s"]):
        notes.append(f"  {layer:<10} {m[f'{layer}.self_s']:9.4f} s "
                     f"{100 * m[f'{layer}.self_s'] / total:5.1f}%  {m[f'{layer}.calls']:>10} calls")
    return m, notes


def finish(wanted: list, workload: str, measured: dict) -> dict:
    """The metrics BENCHMARK.json names, each with its unit; errors on gaps."""
    out = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            value = measured[name]
        elif workload not in ONLY_ON.get(name, {workload}):
            value = 0
        else:
            raise RuntimeError(f"{workload}: metric {name} was not measured")
        out[name] = {"value": value, "unit": metric["unit"]}
    extra = set(measured) - {m["name"] for m in wanted}
    if extra:
        raise RuntimeError(f"{workload}: measured metrics missing from BENCHMARK.json: "
                           f"{sorted(extra)}")
    return out


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if set(WORKLOADS) != set(names):
        raise RuntimeError(f"BENCHMARK.json workloads {sorted(names)} != {sorted(WORKLOADS)}")
    bench = Bench(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": bench.setup_s, "counts": bench.counts}))
        return 0

    host = host_fingerprint()
    print(f"host: nproc={host['nproc']} python={host['python']} cpu={host['cpu']}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        measured, notes = measure_traced(bench, args, {m["name"] for m in wanted})
    else:
        measured, notes = measure_untraced(bench, args)
    metrics = finish(wanted, args.workload, measured)
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>16.6g} {m['unit']}")
    shown = ("serve.p99_cycles", "serve.max_rate", "fidelity.em3d_static_speedup",
             "fidelity.crl_over_ace")
    for name in shown:
        if name in bench.counts and args.trace == 0:
            print(f"{name:<32} {bench.counts[name]:>16.6g}")
    print(f"fail_frac {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.6g}")
    for d in bench.drift:
        print(f"DETERMINISM DRIFT: {d}")
    correct = bench.failed == 0 and not bench.drift
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
