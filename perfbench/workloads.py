"""The benchmark's four workloads.

Each workload is built from a seed (its inputs and sequential references
are made in ``__init__``, which is set-up time) and then runs *units*: a
fixed list of simulated runs, called through the repository's public entry
points only.  ``unit()`` is what gets timed; ``verify()`` checks the
outputs against the references and extracts the deterministic counts, and
runs outside the timed region.

A run that raises counts as one failed operation (a serve run as all of
its requests) and never aborts the benchmark.  Every run also yields a
``counts`` dict of simulated, deterministic quantities (cycles, kernel
events, stats counters); ``run.py`` requires those to repeat exactly
across units, processes and the traced pass.
"""

from __future__ import annotations

import sys
import time
import traceback
from typing import NamedTuple

import numpy as np

from repro.apps import acec_sources as K
from repro.apps import em3d
from repro.compiler import OPT_BASE, OPT_DIRECT, OPT_LI, OPT_LI_MC, compile_source, run_compiled
from repro.dsm import FaultPlan
from repro.facade import run_spmd
from repro.obs import TraceBuffer, attribute
from repro.serve import AdaptiveController, ServeWorkload, run_serve

#: Table 3's EM3D graph at the paper's 32 processors.  Every iteration is
#: the same exchange, so the run is truncated to a fixed iteration count.
EM3D_PROCS = 32
EM3D_ITERS = 2

#: serve-shift: 16,384 requests on 8 procs bracket the adaptive config's
#: knee (see README.md, "Serve load").  The middle rate is the knee.
SERVE_PROCS = 8
SERVE_REQUESTS = 16384
SERVE_RATES = (8.0, 10.0, 12.0)
#: a rate "keeps up" when the makespan is within this factor of the last
#: arrival (no growing backlog) and p99 latency is within the limit
SERVE_DRAIN_LIMIT = 1.05
SERVE_P99_LIMIT = 8191

ACEC_PROCS = 8
ACEC_LEVELS = (OPT_BASE, OPT_LI, OPT_LI_MC, OPT_DIRECT)

#: wait buckets of repro.obs.attribute reported as per-layer metrics
WAIT_BUCKETS = ("compute", "msg", "dir", "barrier", "lock", "retry")


class Spans:
    """Host time measured around calls into a layer, from outside it."""

    def __init__(self):
        self.totals: dict[str, float] = {}

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call's wall time adds up in ``name``."""

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals[name] = self.totals.get(name, 0.0) + time.perf_counter() - t0

        return wrapper


def _guarded(label: str, fn):
    """``fn()``, or the exception it raised (its traceback goes to stderr).

    The benchmark keeps running when a simulated run fails: a StallError
    or DeadlockError is a measured failure, not a crash."""
    try:
        return fn()
    except Exception as exc:
        print(f"run {label} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return exc


def em3d_close(got, ref) -> bool:
    """EM3D values against ``em3d.reference`` at rtol 1e-12, with an absolute
    floor of 1e-12 of the largest value.  The simulated programs sum edge
    terms one by one and the reference uses NumPy's dot, so values that
    cancel to near zero differ by ~1e-19 absolute, far above 1e-12 of
    themselves."""
    return np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def stats_counts(stats, sim) -> dict:
    """Deterministic per-run counters, named by the layer that does the work."""
    snap = stats.snapshot()

    def total(pred) -> int:
        return sum(v for k, v in snap.items() if pred(k))

    return {
        "sim.events": sim.events,
        "machine.msgs": snap.get("msg.total", 0),
        "machine.words": snap.get("msg.words", 0),
        "dsm.read_miss": snap.get("ace.sc.read_miss", 0),
        "dsm.recall": snap.get("ace.sc.recall", 0),
        "dsm.inval": snap.get("msg.ace.sc.inval", 0),
        "crl.read_miss": snap.get("crl.read_miss", 0),
        "crl.recall": snap.get("crl.recall", 0),
        "faults.drops": snap.get("fault.drop", 0),
        "faults.dups": snap.get("fault.dup", 0),
        "faults.retries": snap.get("rel.retry", 0),
        "faults.dup_suppressed": snap.get("fault.dup_reply_suppressed", 0),
        "protocols.handler_calls": total(lambda k: k.startswith("handler.")),
        "core.annotations": total(
            lambda k: k.startswith(("ace.start_", "ace.end_")) or k == "ace.map"
        ),
        "core.switches": snap.get("ace.change_protocol", 0),
    }


def add_counts(into: dict, counts: dict) -> None:
    for k, v in counts.items():
        into[k] = into.get(k, 0) + v


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    #: operations one unit attempts (runs, or requests for serve)
    ops_per_unit = 0

    def unit(self, spans: Spans) -> list:
        """The timed work: the unit's simulated runs, outputs kept."""
        raise NotImplementedError

    def verify(self, outputs: list) -> tuple[int, dict]:
        """(failed operations, deterministic counts) for one unit's outputs."""
        raise NotImplementedError

    def sim_waits(self) -> tuple[int, dict] | None:
        """(sim_cycles, wait buckets) of one unit run with a trace buffer,
        or None where the entry point takes no trace buffer."""
        return None


# ------------------------------------------------------------------ EM3D
class EM3DPaper(Workload):
    """Table 3 graph; Ace/SC, CRL/SC and Ace/StaticUpdate on a clean fabric."""

    name = "em3d-paper"
    RUNS = (("ace.SC", "ace", em3d.SC_PLAN), ("crl.SC", "crl", em3d.SC_PLAN),
            ("ace.StaticUpdate", "ace", em3d.STATIC_PLAN))

    def __init__(self, seed: int):
        self.seed = seed
        self.wl = em3d.EM3DWorkload(
            n_e=1000, n_h=1000, degree=10, pct_remote=0.20, n_iters=EM3D_ITERS, seed=seed
        )
        self.ref = em3d.reference(self.wl, EM3D_PROCS)
        self.ops_per_unit = len(self.RUNS)

    def fault_plan(self):
        return None

    def _run(self, backend, plan, tracer=None):
        return run_spmd(em3d.em3d_program(self.wl, plan), backend=backend, n_procs=EM3D_PROCS,
                        fault_plan=self.fault_plan(), tracer=tracer)

    def unit(self, spans):
        return [(label, _guarded(label, lambda b=b, p=p: self._run(b, p)))
                for label, b, p in self.RUNS]

    def verify(self, outputs):
        failed, counts, cycles = 0, {"sim_cycles": 0}, {}
        for label, res in outputs:
            if isinstance(res, Exception):
                failed += 1
                counts[f"failed.{label}"] = 1
                continue
            e, h = em3d.collect_results(res, self.wl)
            if not (em3d_close(e, self.ref[0]) and em3d_close(h, self.ref[1])):
                print(f"{self.name}: {label} does not match em3d.reference", file=sys.stderr)
                failed += 1
                counts[f"failed.{label}"] = 1
            counts["sim_cycles"] += res.time
            cycles[label] = res.time
            add_counts(counts, stats_counts(res.stats, res.machine.sim))
        if {"ace.SC", "crl.SC", "ace.StaticUpdate"} <= cycles.keys():
            counts["fidelity.em3d_static_speedup"] = cycles["ace.SC"] / cycles["ace.StaticUpdate"]
            counts["fidelity.crl_over_ace"] = cycles["crl.SC"] / cycles["ace.SC"]
        return failed, counts

    def sim_waits(self):
        cycles, waits = 0, dict.fromkeys(WAIT_BUCKETS, 0)
        for _, backend, plan in self.RUNS:
            buf = TraceBuffer(capacity=1 << 23)
            res = self._run(backend, plan, tracer=buf)
            if buf.dropped:
                raise RuntimeError(f"{self.name}: trace ring dropped {buf.dropped} events")
            cycles += res.time
            buckets = attribute(buf, res.time, EM3D_PROCS).buckets
            for b in WAIT_BUCKETS:
                waits[b] += buckets.get(b, 0)
        return cycles, waits


class EM3DLossy(EM3DPaper):
    """The same graph, Ace/StaticUpdate under the canonical lossy plan."""

    name = "em3d-lossy"
    RUNS = (("ace.StaticUpdate.lossy", "ace", em3d.STATIC_PLAN),)

    def fault_plan(self):
        # A fresh plan per run: the plan's RNG is consumed in send order.
        return FaultPlan.canonical(self.seed)


# ----------------------------------------------------------------- serve
class ServeShift(Workload):
    """Adaptive sharded KV service, read-heavy stream shifting to writes."""

    name = "serve-shift"

    def __init__(self, seed: int):
        self.wls = [
            ServeWorkload(n_keys=256, n_shards=8, n_requests=SERVE_REQUESTS, read_frac=0.95,
                          shift_at=0.5, shift_read_frac=0.1, rate=rate, seed=seed)
            for rate in SERVE_RATES
        ]
        self.ops_per_unit = SERVE_REQUESTS * len(SERVE_RATES)

    def _run(self, wl, spans):
        ctl = AdaptiveController({s: "DynamicUpdate" for s in range(wl.n_shards)})
        ctl.epoch = spans.timed("serve.controller", ctl.epoch)
        return run_serve(wl, controller=ctl, n_procs=SERVE_PROCS)

    def unit(self, spans):
        return [(wl, _guarded(f"rate {wl.rate}", lambda wl=wl: self._run(wl, spans)))
                for wl in self.wls]

    def verify(self, outputs):
        failed, counts = 0, {"sim_cycles": 0}
        meets = []
        for wl, out in outputs:
            tag = f"r{wl.rate:g}"
            if isinstance(out, Exception):
                failed += wl.n_requests
                counts[f"failed.{tag}"] = wl.n_requests
                continue
            res, rep = out
            mix = rep["shard_mix"].values()
            problems = []
            if rep["requests"] != wl.n_requests:
                problems.append(f"served {rep['requests']} of {wl.n_requests}")
            if rep["latency"]["count"] != wl.n_requests:
                problems.append(f"latency count {rep['latency']['count']}")
            if sum(m["reads"] + m["writes"] for m in mix) != rep["requests"]:
                problems.append("shard mix does not add up to the requests served")
            if sum(m["reads"] for m in mix) != rep["traffic"]["reads"]:
                problems.append("shard mix reads differ from the generated reads")
            if problems:
                print(f"{self.name} {tag}: " + "; ".join(problems), file=sys.stderr)
                failed += max(wl.n_requests - rep["requests"], 1)
            counts["sim_cycles"] += rep["cycles"]
            add_counts(counts, stats_counts(res.stats, res.machine.sim))
            drain = rep["cycles"] / rep["traffic"]["last_arrival"]
            p99 = rep["latency"]["p99"]
            counts[f"serve.drain_ratio.{tag}"] = drain
            if wl.rate == SERVE_RATES[1]:
                counts["serve.p99_cycles"] = p99
                counts["serve.stall_fraction"] = rep["metrics"]["stall_fraction"]
            if drain <= SERVE_DRAIN_LIMIT and p99 <= SERVE_P99_LIMIT:
                meets.append(wl.rate)
        counts["serve.max_rate"] = max(meets, default=0.0)
        return failed, counts


# ----------------------------------------------------------------- AceC
class _Kernel(NamedTuple):
    """One Table 4 kernel: its sources, host data, and ``(collect, reference,
    close_enough)`` checker."""

    name: str
    source: str
    hand: str
    host: dict
    check: tuple


def _acec_kernels(seed: int) -> list[_Kernel]:
    """The five Table 4 kernels at enlarged inputs, inputs seeded by ``seed``."""
    em = K.EM3DKernelWL(n=48, degree=4, iters=6, seed=seed)
    bsc = K.BSCKernelWL(nb=6, block=3, band=2, seed=seed + 1)
    water = K.WaterKernelWL(n=16, steps=2, seed=seed + 2)
    bh = K.BHKernelWL(n=24, steps=2, seed=seed + 3)
    tsp = K.TSPKernelWL(n_cities=7, seed=seed + 4)
    em_ref = np.concatenate(K.em3d_reference(em, ACEC_PROCS))
    bsc_ref = K.bsc_reference(bsc)
    water_ref = K.water_reference(water)
    bh_ref = K.bh_reference(bh)
    tsp_ref = K.tsp_reference(tsp)

    def em_vals(run):
        return np.array([run.bb[(side, i)] for side in ("e_out", "h_out") for i in range(em.n)])

    def close(rtol, atol):
        return lambda got, ref: np.allclose(got, ref, rtol=rtol, atol=atol)

    return [
        _Kernel("EM3D", K.em3d_source(em), K.em3d_hand_source(em), K.em3d_host_data(em, ACEC_PROCS),
                (em_vals, em_ref, em3d_close)),
        _Kernel("BSC", K.bsc_source(bsc), K.bsc_hand_source(bsc), K.bsc_host_data(bsc),
                (lambda run: K.bsc_collect(run, bsc), bsc_ref, close(1e-9, 1e-9))),
        _Kernel("Water", K.water_source(water), K.water_hand_source(water),
                K.water_host_data(water),
                (lambda run: K.water_collect(run, water), water_ref, close(1e-9, 1e-12))),
        _Kernel("Barnes-Hut", K.bh_source(bh), K.bh_hand_source(bh), K.bh_host_data(bh),
                (lambda run: K.bh_collect(run, bh), bh_ref, close(1e-9, 1e-12))),
        _Kernel("TSP", K.tsp_source(tsp), K.tsp_source(tsp, hand=True), K.tsp_host_data(tsp),
                (lambda run: np.array([run.bb[("result", 0)]]), np.array([tsp_ref]),
                 close(1e-6, 1e-12))),
    ]


class AcecLadder(Workload):
    """Table 4: each kernel at base, LI, LI+MC, LI+MC+DC, plus the hand version."""

    name = "acec-ladder"

    def __init__(self, seed: int):
        self.kernels = _acec_kernels(seed)
        self.ops_per_unit = len(self.kernels) * (len(ACEC_LEVELS) + 1)

    def _compile_run(self, src, level, host, spans):
        prog = spans.timed("compiler.compile", compile_source)(src, opt=level)
        return prog.pass_stats, run_compiled(prog, n_procs=ACEC_PROCS, host_data=host)

    def unit(self, spans):
        out = []
        for k in self.kernels:
            variants = [(lvl.name, k.source, lvl) for lvl in ACEC_LEVELS]
            variants.append(("hand", k.hand, OPT_BASE))
            for label, src, lvl in variants:
                out.append((k, label, _guarded(
                    f"{k.name} {label}",
                    lambda s=src, lv=lvl: self._compile_run(s, lv, k.host, spans))))
        return out

    def verify(self, outputs):
        failed, counts = 0, {"sim_cycles": 0}
        compiled_vals = {}
        for k, label, out in outputs:
            if isinstance(out, Exception):
                failed += 1
                counts[f"failed.{k.name}.{label}"] = 1
                continue
            pass_stats, run = out
            collect, ref, ok = k.check
            vals = collect(run)
            bad = not ok(vals, ref)
            if label == OPT_DIRECT.name:
                compiled_vals[k.name] = vals
            elif label == "hand" and k.name in compiled_vals:
                # Within the reference tolerance, not bit-equal: the hand
                # Water kernel sums forces in another order (about 1 ulp).
                bad = bad or not ok(vals, compiled_vals[k.name])
            if bad:
                print(f"{self.name}: {k.name} {label} does not match its reference",
                      file=sys.stderr)
                failed += 1
                counts[f"failed.{k.name}.{label}"] = 1
            counts["sim_cycles"] += run.time
            counts[f"cycles.{k.name}.{label}"] = run.time
            for p in ("hoisted", "merged", "devirtualized", "deleted"):
                counts[f"compiler.pass.{p}"] = counts.get(f"compiler.pass.{p}", 0) + pass_stats.get(p, 0)
            add_counts(counts, stats_counts(run.stats, run.run_result.machine.sim))
        return failed, counts


WORKLOADS = {w.name: w for w in (EM3DPaper, EM3DLossy, ServeShift, AcecLadder)}
