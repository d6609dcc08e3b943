"""The transport layer: what the coherence core needs from a fabric.

The directory protocol above this layer is pure policy — it decides
*what* messages to send and *when*, but performs every send, RPC,
reply, and deferred callback through the narrow interface defined
here.  Today's only implementation wraps the simulated active-message
:class:`~repro.machine.machine.Machine`; a real-parallel backend (or a
recording/fault-injecting shim) slots in by providing the same eight
operations.

Zero-cost boundary
------------------
:class:`SimTransport` binds the machine's methods directly as instance
attributes: ``transport.rpc`` *is* ``machine.rpc``, traced or not —
each machine operation is one method that branches once on whether a
tracer is attached.  A call through the transport therefore executes
the identical code object, with the identical ``(delay, seq)`` draws,
as a call on the machine — the layer boundary costs no simulated
cycles and no host-side indirection.  DESIGN.md §8 documents this
invariant; the golden-trace pins enforce it.
"""

from __future__ import annotations

from typing import Callable

from repro.machine import Machine


class Transport:
    """Abstract message fabric joining ``n_procs`` nodes.

    Implementations provide:

    ``request(src, dst, handler, *args, payload_words=, category=)``
        Generator: one-way send from *task* context (charges the
        caller's send overhead, then returns once injected).
    ``post(src, dst, handler, *args, payload_words=, category=)``
        One-way send from *handler* context (no task to charge).
    ``rpc(src, dst, handler, *args, payload_words=, category=)``
        Generator: request/reply round trip; the handler receives a
        ``Future`` first and must eventually :meth:`reply` to it.
    ``reply(fut, value=None, payload_words=, category=)``
        Resolve an RPC future after the reply latency.
    ``after(delay, fn)``
        Run ``fn()`` after ``delay`` simulated cycles (handler-side
        deferred work, e.g. invalidation-handler cost).
    ``defer_post(delay, src, dst, handler, *args, ...)``
        ``after(delay)`` followed by ``post`` as one operation, so a
        traced fabric can keep the causal chain across the deferral.
    ``hw_barrier(nid)``
        Generator: global rendezvous over all nodes.

    plus the attributes ``nodes``, ``n_procs``, ``sim``, ``stats``,
    ``tracer``, and ``machine`` (the underlying machine, or ``None``
    for fabrics not backed by one).

    ``reliable`` declares the fabric's delivery contract.  The default
    (``True``) promises exactly-once delivery, as the CM-5's CMAML
    does; the protocol layers then run their lean fast paths.  A fabric
    that may drop, duplicate, or reorder messages (e.g.
    :class:`~repro.dsm.faults.FaultTransport`) sets it ``False``, and
    the protocol layers swap in sequence-numbered retry/dedup variants
    at construction, so a reliable fabric pays nothing for the
    machinery.
    """

    machine: object | None = None
    reliable: bool = True
    #: Crash-recovery manager (:class:`repro.dsm.recovery.RecoveryManager`)
    #: or ``None``.  Only :class:`~repro.dsm.faults.FaultTransport`
    #: constructed with ``on_crash=`` ever sets it; every layer that can
    #: participate in recovery (directory, locks, protocols, collectors)
    #: checks this attribute at construction and registers itself when
    #: present — the same swap-at-construction idiom as ``reliable``.
    recovery = None

    def request(self, src: int, dst: int, handler: Callable, *args, **kw):
        raise NotImplementedError

    def post(self, src: int, dst: int, handler: Callable, *args, **kw) -> None:
        raise NotImplementedError

    def rpc(self, src: int, dst: int, handler: Callable, *args, **kw):
        raise NotImplementedError

    def reply(self, fut, value=None, **kw) -> None:
        raise NotImplementedError

    def after(self, delay: int, fn: Callable) -> None:
        raise NotImplementedError

    def defer_post(self, delay: int, src: int, dst: int, handler: Callable, *args, **kw) -> None:
        # Generic composition; SimTransport binds the machine's own
        # implementation instead.
        self.after(delay, lambda: self.post(src, dst, handler, *args, **kw))

    def hw_barrier(self, nid: int):
        raise NotImplementedError


class SimTransport(Transport):
    """The simulated active-message machine, behind the fabric interface.

    Every operation is the machine's own bound method — see the module
    docstring for why this boundary is free.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.sim = machine.sim
        self.stats = machine.stats
        self.tracer = machine.tracer
        self.nodes = machine.nodes
        self.n_procs = machine.n_procs
        # Direct bindings: the transport call site resolves one instance
        # attribute and lands in machine code.
        self.request = machine.am_request
        self.post = machine.post
        self.rpc = machine.rpc
        self.reply = machine.reply
        self.after = machine.sim.schedule
        self.defer_post = machine.defer_post
        self.hw_barrier = machine.hw_barrier


def as_transport(fabric) -> Transport:
    """Coerce a :class:`Machine` or :class:`Transport` to a transport.

    A machine gets one cached :class:`SimTransport` (stored on the
    machine), so every layer wrapping the same machine shares one
    transport object.
    """
    if isinstance(fabric, Transport):
        return fabric
    if isinstance(fabric, Machine):
        transport = getattr(fabric, "_transport", None)
        if transport is None:
            transport = fabric._transport = SimTransport(fabric)
        return transport
    raise TypeError(f"cannot build a transport from {fabric!r}")
