"""Serving harness: completion, determinism, reporting, fault composition."""

from __future__ import annotations

import pytest

from repro.dsm.faults import FaultPlan
from repro.obs import MetricsWindow, TraceBuffer
from repro.serve import AdaptiveController, ServeWorkload, run_serve

SMALL = ServeWorkload(
    n_keys=16, n_shards=2, n_requests=192, batch=16, rate=60.0,
    read_frac=0.9, shift_read_frac=None, think_cycles=5, seed=13,
)


def test_every_request_served_once():
    _, report = run_serve(SMALL, protocol="SC", n_procs=3)
    assert report["requests"] == SMALL.n_requests
    assert report["latency"]["count"] == SMALL.n_requests
    mix = report["shard_mix"]
    total = sum(m["reads"] + m["writes"] for m in mix.values())
    assert total == SMALL.n_requests


def test_same_seed_identical_cycles():
    _, a = run_serve(SMALL, protocol="SC", n_procs=3)
    _, b = run_serve(SMALL, protocol="SC", n_procs=3)
    assert a["cycles"] == b["cycles"]
    assert a["events"] == b["events"]
    assert a["msgs"] == b["msgs"]
    assert a["traffic"] == b["traffic"]


def test_per_shard_static_protocols():
    _, report = run_serve(SMALL, protocols={0: "DynamicUpdate", 1: "Migratory"}, n_procs=3)
    assert report["mode"] == "static"
    assert report["switches"] == 0
    assert report["protocols_initial"] == {0: "DynamicUpdate", 1: "Migratory"}
    assert report["protocols_final"] == report["protocols_initial"]
    assert report["requests"] == SMALL.n_requests


def test_protocol_choice_mechanisms_are_exclusive():
    with pytest.raises(ValueError):
        run_serve(SMALL, protocol="SC", protocols={0: "SC", 1: "SC"}, n_procs=2)
    with pytest.raises(ValueError):
        run_serve(
            SMALL,
            protocol="SC",
            controller=AdaptiveController({0: "SC", 1: "SC"}),
            n_procs=2,
        )
    with pytest.raises(ValueError):
        run_serve(SMALL, protocols={0: "SC"}, n_procs=2)  # shard 1 uncovered


def test_directory_sharding_preserves_results():
    _, one = run_serve(SMALL, protocol="SC", n_procs=3, n_dir_shards=1)
    _, four = run_serve(SMALL, protocol="SC", n_procs=3, n_dir_shards=4)
    assert four["requests"] == one["requests"]
    assert four["shard_mix"] == one["shard_mix"]


SHIFT = ServeWorkload(
    n_keys=16, n_shards=2, n_requests=384, batch=16, rate=60.0,
    read_frac=0.95, shift_at=0.5, shift_read_frac=0.05,
    think_cycles=5, seed=13,
)


def test_adaptive_switches_on_mix_shift():
    controller = AdaptiveController({s: "DynamicUpdate" for s in range(SHIFT.n_shards)})
    _, report = run_serve(SHIFT, controller=controller, n_procs=3)
    assert report["mode"] == "adaptive"
    assert report["requests"] == SHIFT.n_requests
    assert report["switches"] >= 1  # the write-heavy tail forces a switch
    assert "Migratory" in report["protocols_final"].values()
    switched = [d for d in report["decisions"] if d["switch_to"]]
    assert switched and all(d["write_frac"] is not None for d in switched)


COUNTER_METRICS = ("msgs", "words", "mix", "rpcs", "stall", "stall_fraction")


def _serve_modes(make_tracer=lambda: None):
    """(static run, adaptive run) of SHIFT on 3 procs, each traced into
    its own ``make_tracer()`` buffer."""
    adaptive = AdaptiveController({s: "DynamicUpdate" for s in range(SHIFT.n_shards)})
    return (run_serve(SHIFT, protocol="SC", n_procs=3, tracer=make_tracer()),
            run_serve(SHIFT, controller=adaptive, n_procs=3, tracer=make_tracer()))


#: SC on 3 procs under the canonical lossy plan: round trips go through
#: the fault transport and its retry kit instead of Machine.rpc.
LOSSY = ServeWorkload(
    n_keys=16, n_shards=2, n_requests=256, batch=16, rate=60.0,
    read_frac=0.9, shift_read_frac=None, think_cycles=5, seed=13,
)


def _lossy_run(tracer=None):
    return run_serve(
        LOSSY, protocol="SC", n_procs=3, fault_plan=FaultPlan.canonical(1), tracer=tracer
    )


def test_serving_is_untraced_by_default():
    for res, report in _serve_modes():
        assert res.machine.tracer is None
        metrics = report["metrics"]
        assert 0 < metrics["stall_fraction"] < 1
        assert metrics["msgs"] == report["msgs"] == sum(metrics["mix"].values())
        assert metrics["rpcs"] > 0 and "window" not in metrics


def _windowed_tracer():
    return TraceBuffer(capacity=1 << 10, metrics=MetricsWindow())


def test_counter_metrics_equal_window_metrics():
    plain = [*_serve_modes(), _lossy_run()]
    windowed = [*_serve_modes(_windowed_tracer), _lossy_run(_windowed_tracer())]
    for (res, traced), (_, untraced) in zip(windowed, plain):
        assert res.machine.tracer is not None
        window = traced["metrics"]["window"]
        for key in COUNTER_METRICS:
            assert traced["metrics"][key] == window[key], key
            assert untraced["metrics"][key] == window[key], key
        for key in ("cycles", "events", "latency", "switches"):
            assert traced[key] == untraced[key], key
        assert traced.get("decisions") == untraced.get("decisions")


def test_serve_composes_with_fault_plan():
    wl = ServeWorkload(
        n_keys=8, n_shards=2, n_requests=96, batch=16, rate=60.0,
        read_frac=0.9, think_cycles=5, seed=13,
    )
    plan = FaultPlan.drop_retry(seed=5, drop=0.15)
    _, report = run_serve(wl, protocol="SC", n_procs=2, fault_plan=plan)
    assert report["requests"] == wl.n_requests
    _, clean = run_serve(wl, protocol="SC", n_procs=2)
    assert report["cycles"] > clean["cycles"]  # retries cost cycles


def test_lossy_round_trips_are_counted():
    """Under a fault plan, RPCs go through the fault transport and its
    retry kit; each completed round trip still counts once on the
    machine, with its retries inside its stall."""
    _, clean = run_serve(LOSSY, protocol="SC", n_procs=3)
    _, lossy = _lossy_run()
    clean, lossy = clean["metrics"], lossy["metrics"]
    assert lossy["rpcs"] > 0 and lossy["stall_fraction"] > 0
    assert lossy["stall"] / lossy["rpcs"] > clean["stall"] / clean["rpcs"]
