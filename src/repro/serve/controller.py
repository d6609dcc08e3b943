"""Online protocol controller for the sharded KV service.

The controller is the serving-side payoff of the paper's thesis: when
protocols are *named, first-class choices* (``Ace_ChangeProtocol``)
rather than baked into the system, the choice can be revisited while
the system runs.  :class:`AdaptiveController` closes that loop: at
every control epoch (a batch barrier in :mod:`repro.serve.service`) it
samples the live per-shard ``serve.shard<s>.reads`` / ``.writes``
:class:`~repro.machine.stats.Stats` counters, computes each shard's
recent read/write mix, and decides whether the shard's protocol still
fits its traffic.  It reads nothing from tracing, so a run decides
the same with observability on or off.

Everything here runs **host-side on node 0 between two barriers**: the
sampling and the decision charge zero simulated cycles, exactly like
the host-side graph partitioning in the app suite.  Only the
``change_protocol`` collectives the decision *requests* cost cycles —
that cost is the honest price of adaptivity and is what the
adaptive-vs-static experiment measures.

Decisions are deterministic functions of sampled counters, so a seeded
run replays the same switch schedule cycle-for-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ShardState:
    """Controller-side bookkeeping for one shard."""

    protocol: str
    reads: int = 0  # cumulative counter value at last sample
    writes: int = 0
    epochs_since_switch: int = 1_000_000  # "long ago" so epoch 0 may act


@dataclass
class Decision:
    """One epoch's audit record for one shard (JSON-friendly)."""

    epoch: int
    shard: int
    reads: int  # delta this epoch
    writes: int
    write_frac: float | None
    protocol: str
    switch_to: str | None


class StaticController:
    """Degenerate controller: per-shard protocols fixed at launch.

    The static baselines in the adaptive-vs-static experiment use this
    so both modes run the *identical* batch/barrier skeleton — the only
    difference measured is the decisions, not the harness.
    """

    adaptive = False

    def __init__(self, protocols: dict[int, str]):
        self.protocols = dict(protocols)
        self.decisions: list[Decision] = []
        self.switches = 0

    def epoch(self, epoch: int, stats) -> dict[int, str]:
        """Return ``{shard: new_protocol}`` — always empty for static."""
        return {}


class AdaptiveController:
    """Hysteresis controller over per-shard write fractions.

    Policy: a shard whose recent traffic is read-dominated wants an
    update-style protocol (``read_protocol``: writers push fresh data
    to the warm sharer set, reads never miss); a write-dominated shard
    wants an invalidation/migration protocol (``write_protocol``: no
    fan-out of updates nobody will read).  The two thresholds
    (``hi_write_frac`` to leave the read protocol, ``lo_write_frac`` to
    return) plus a ``cooldown`` in epochs give hysteresis, so a shard
    sitting near the boundary does not thrash — each switch is a real
    collective with real cycle cost.

    ``min_ops`` suppresses decisions on shards too cold this epoch to
    estimate a mix (their counters barely moved); cold shards keep
    whatever protocol they have.
    """

    adaptive = True

    def __init__(
        self,
        protocols: dict[int, str],
        read_protocol: str = "DynamicUpdate",
        write_protocol: str = "Migratory",
        hi_write_frac: float = 0.35,
        lo_write_frac: float = 0.15,
        cooldown: int = 2,
        min_ops: int = 8,
    ):
        if not (0.0 <= lo_write_frac <= hi_write_frac <= 1.0):
            raise ValueError(
                f"need 0 <= lo <= hi <= 1: lo={lo_write_frac} hi={hi_write_frac}"
            )
        self.protocols = dict(protocols)
        self.read_protocol = read_protocol
        self.write_protocol = write_protocol
        self.hi = hi_write_frac
        self.lo = lo_write_frac
        self.cooldown = cooldown
        self.min_ops = min_ops
        self._shards = {s: ShardState(protocol=p) for s, p in protocols.items()}
        self.decisions: list[Decision] = []
        self.switches = 0

    def epoch(self, epoch: int, stats) -> dict[int, str]:
        """Sample counters, return ``{shard: new_protocol}`` for switches.

        ``stats`` is the machine's :class:`~repro.machine.stats.Stats`;
        the service bumps ``serve.shard<s>.reads`` / ``.writes`` per
        completed request, so the delta since the previous epoch is the
        shard's recent mix.
        """
        changes: dict[int, str] = {}
        for shard in sorted(self._shards):
            st = self._shards[shard]
            st.epochs_since_switch += 1
            reads = stats.get(f"serve.shard{shard}.reads")
            writes = stats.get(f"serve.shard{shard}.writes")
            d_reads, d_writes = reads - st.reads, writes - st.writes
            st.reads, st.writes = reads, writes
            ops = d_reads + d_writes
            write_frac = d_writes / ops if ops else None
            switch_to = None
            if ops >= self.min_ops and st.epochs_since_switch >= self.cooldown:
                if st.protocol != self.write_protocol and write_frac >= self.hi:
                    switch_to = self.write_protocol
                elif st.protocol != self.read_protocol and write_frac <= self.lo:
                    switch_to = self.read_protocol
            self.decisions.append(Decision(
                epoch=epoch, shard=shard, reads=d_reads, writes=d_writes,
                write_frac=round(write_frac, 4) if write_frac is not None else None,
                protocol=st.protocol, switch_to=switch_to,
            ))
            if switch_to is not None:
                st.protocol = switch_to
                st.epochs_since_switch = 0
                self.protocols[shard] = switch_to
                self.switches += 1
                changes[shard] = switch_to
        return changes

    def audit(self) -> list[dict]:
        """The decision log as plain dicts (for JSON artifacts)."""
        return [vars(d).copy() for d in self.decisions]
