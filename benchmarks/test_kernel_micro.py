"""Kernel micro-benchmarks (pytest-benchmark; not part of tier-1).

Isolates the primitives the fast path optimizes — task spawn/resume
throughput, delay-0 scheduling on the canonical and the fuzzed heap,
future resolution wake-ups — so a kernel regression shows up here
before it shows up as minutes in the paper experiments.  Every task
continuation is one heap entry, so each test's event count is exactly
its number of spawns plus resumes.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_micro.py
"""

from repro.sim import Delay, Future, Simulator

N_TASKS = 200
N_STEPS = 50


def _run_delays(step: int, jitter_seed=None) -> int:
    sim = Simulator(jitter_seed=jitter_seed)

    def task():
        for _ in range(N_STEPS):
            yield Delay(step)

    for i in range(N_TASKS):
        sim.spawn(task(), name=f"t{i}")
    sim.run()
    return sim.events


def test_spawn_resume_throughput(benchmark):
    """Nonzero delays: each resume is a heap entry one step later."""
    events = benchmark(_run_delays, 3)
    assert events == N_TASKS * (N_STEPS + 1)


def test_delay0_canonical(benchmark):
    """Delay-0 storm on the canonical schedule: each resume is a
    3-tuple heap entry at the current cycle, behind every task already
    pending there."""
    events = benchmark(_run_delays, 0)
    assert events == N_TASKS * (N_STEPS + 1)


def test_delay0_heap_under_jitter(benchmark):
    """Same storm with schedule fuzzing: 4-tuple heap entries plus one
    RNG draw per schedule — the gap to test_delay0_canonical is what
    fuzzing costs."""
    events = benchmark(_run_delays, 0, jitter_seed=1)
    assert events == N_TASKS * (N_STEPS + 1)


def test_future_wakeup_chain(benchmark):
    """Ping-pong through futures: resolution + pre-bound wake thunks."""

    def run() -> int:
        sim = Simulator()
        rounds = 500

        # Resolve-before-wait exercises the resolved-future resume path
        # (one heap entry at the current cycle);
        # pairing tasks through fresh futures exercises add_callback.
        def solo():
            for _ in range(rounds):
                fut = Future()
                fut.resolve(42)
                got = yield fut
                assert got == 42
                yield Delay(1)

        # Blocked waits: consumer parks on each future (add_callback)
        # and is woken by producer's resolve (the _on_resolved thunk).
        chain = [Future() for _ in range(rounds)]

        def producer():
            for fut in chain:
                yield Delay(1)
                fut.resolve(None)

        def consumer():
            for fut in chain:
                yield fut

        sim.spawn(solo(), name="solo")
        sim.spawn(producer(), name="producer")
        sim.spawn(consumer(), name="consumer")
        sim.run()
        return sim.events

    assert benchmark(run) > 0
