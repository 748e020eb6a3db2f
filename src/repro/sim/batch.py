"""Batched execution: K independent worlds on one shared calendar queue.

A sweep point is a few milliseconds of work, so the per-point fixed
costs — entering and leaving the event loop, per-world decode, pool
dispatch — are real money at campaign scale.  :class:`BatchSimulator`
runs K *independent* :class:`~repro.sim.engine.Simulator` worlds
interleaved on a single shared calendar queue, entering the event loop
once for all K and letting the analysis layer decode all K logs in one
fused pass (:func:`repro.core.logger.decode_batch`).  The batch has no
event loop of its own: it splices the queues (``attach``/``detach``)
and hands the K worlds to the engine's one drain loop
(:func:`repro.sim.engine._drain`), for which a lone simulator is the
one-world case.

Correctness argument (the per-world runs are **bit-identical** to their
serial counterparts, gated by ``tests/test_batched.py``):

* Worlds never interact: every event belongs to exactly one world (its
  ``Event._sim`` tag), callbacks only touch that world's state, and rng
  streams are per-world objects.
* Per-world virtual time is preserved: the shared queue pops in global
  ``(time, FIFO-within-timestamp)`` order and sets the owning world's
  clock to the event time before firing, so a world's clock takes
  exactly the same sequence of values as in its serial run.  A firing
  world only ever schedules at or after its own clock, which equals the
  global pop time, so the global queue never needs to travel backwards.
* Per-world event order is preserved: attaching gives world ``i`` the
  disjoint sequence-number range ``[i << 40, (i+1) << 40)``, so within a
  world the shared queue's ``(time, seq)`` order is exactly the serial
  ``(time, seq)`` order (a monotone relabeling), and bucket FIFO order
  restricted to one world is that world's scheduling order.  Worlds
  interleave *between* each other at equal timestamps, which no world
  can observe.

The queue structures (bucket dict, bucket-time heap, overflow heap) are
literally shared between the attached simulators — ``Simulator.at``
needs no batch-awareness; it just appends into whatever structures its
instance holds.  ``attach()`` requires idle, empty-queue (freshly
reset) worlds; ``detach()`` hands each world its still-queued events
back as a private overflow heap so post-run steps (``mark_log_end``,
further serial running) behave exactly as after a serial run.
"""

from __future__ import annotations

from heapq import heapify
from typing import Optional, Sequence

from repro.errors import SimulationError
from repro.sim.engine import NEAR_WINDOW_NS, Simulator, _drain

#: Width of one world's private sequence-number range.  A 48-second run
#: schedules a few hundred thousand events; 2^40 leaves six orders of
#: magnitude of headroom while keeping K * 2^40 far below 2^63.
WORLD_SEQ_STRIDE = 1 << 40


class BatchSimulator:
    """Drive K attached worlds to a common horizon on one shared queue."""

    def __init__(self, sims: Sequence[Simulator]) -> None:
        if not sims:
            raise SimulationError("a batch needs at least one world")
        if len(set(map(id, sims))) != len(sims):
            raise SimulationError("duplicate world in batch")
        self._sims: tuple[Simulator, ...] = tuple(sims)
        self._attached = False

    # -- attach / detach -------------------------------------------------

    def attach(self) -> None:
        """Splice the worlds onto one shared queue.

        Every world must be idle with an empty queue (i.e. freshly
        ``reset()``) — attach happens *before* boot, so all scheduling,
        from the boot task on, lands in the shared structures.
        """
        if self._attached:
            raise SimulationError("batch already attached")
        for sim in self._sims:
            if sim._running:
                raise SimulationError("cannot attach a running simulator")
            if sim._batch is not None:
                raise SimulationError("simulator already in a batch")
            if sim._live or sim._buckets or sim._overflow:
                raise SimulationError(
                    "cannot attach a simulator with queued events; "
                    "reset it first")
        buckets: dict = {}
        times: list = []
        overflow: list = []
        for index, sim in enumerate(self._sims):
            sim._buckets = buckets
            sim._times = times
            sim._overflow = overflow
            sim._seq = index * WORLD_SEQ_STRIDE
            sim._horizon = NEAR_WINDOW_NS
            sim._batch = self
        self._attached = True

    def detach(self) -> None:
        """Give each world its queued events back as private structures.

        Remaining events keep their ``(time, seq)`` order per world (the
        global seq is monotone in each world's scheduling order), so a
        detached world continues exactly as if it had run serially: its
        leftovers sit in its own overflow heap and migrate into fresh
        buckets on the next run.
        """
        if not self._attached:
            raise SimulationError("batch is not attached")
        queue = self._sims[0]
        per_world: dict[int, list] = {id(sim): [] for sim in self._sims}
        for bucket in queue._buckets.values():
            for event in bucket:
                if event.alive:
                    per_world[id(event._sim)].append(
                        (event.time, event.seq, event))
        for time_ns, seq, event in queue._overflow:
            if event.alive:
                per_world[id(event._sim)].append((time_ns, seq, event))
        for sim in self._sims:
            leftovers = per_world[id(sim)]
            heapify(leftovers)
            sim._buckets = {}
            sim._times = []
            sim._overflow = leftovers
            sim._horizon = NEAR_WINDOW_NS
            sim._batch = None
        self._attached = False

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        """Run all worlds' events in global ``(time, FIFO)`` order, then
        advance every world's clock to ``until``, exactly as its own
        ``run(until=...)`` would have done."""
        if not self._attached:
            raise SimulationError("batch is not attached")
        for sim in self._sims:
            if sim._running:
                raise SimulationError(
                    "simulator is already running (reentrant run)")
        for sim in self._sims:
            sim._running = True
        try:
            _drain(self._sims, until, None)
        finally:
            for sim in self._sims:
                sim._running = False
        if until is not None:
            for sim in self._sims:
                if until > sim._now:
                    sim._now = until
