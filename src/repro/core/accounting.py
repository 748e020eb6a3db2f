"""The energy map: where the joules have gone (paper Table 3).

Accounting merges the three offline products:

* power intervals (who was in which power state, when, and the metered
  aggregate energy),
* the regression (what each (sink, state) draws),
* activity segments (on whose behalf each device was working),

into per-(component, activity) time and energy totals.  Policies:

* ``fold_proxies`` — charge a proxy segment's usage to the activity it was
  later bound to (the paper folds these when accounting, but keeps them
  separate in figures for clarity; both views are supported).
* multi-activity devices split an interval's energy **equally** among the
  activities present (the paper's stated default policy; a proportional
  hook exists for experimentation).

The accounting core is :class:`EnergyAccumulator`, a streaming consumer:
it owns a :class:`~repro.core.timeline.TimelineStream`, folds every power
interval into the :class:`EnergyMap` the moment the interval closes, and
consumes activity segments as the intervals sweep past them — so the
whole log → timeline → accounting pipeline runs in one pass with state
bounded by the number of *open* spans, not the log length.

One policy is inherently retrospective: with ``fold_proxies=True`` a
proxy segment's attribution can change arbitrarily late (a bind reaches
back over every unresolved segment of its label), so the fold path
records compact per-interval cover ops and resolves activity names only
at :meth:`EnergyAccumulator.finish` — replayed in interval order, which
keeps the result byte-identical to the batch computation.  The
``fold_proxies=False`` path needs no deferral and runs fully bounded.

:func:`columnar_energy_map` is the offline engine: the same accounting
on the column arrays of a :class:`~repro.core.timeline.ColumnarTimeline`,
bit-identical to the accumulator by contract.  :func:`build_energy_map`
prices a whole timeline on either engine.

The map also carries the metered total so callers can verify that the
reconstruction matches the measurement (the paper reports 0.004 % for
Blink).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.labels import ActivityLabel, ActivityRegistry
from repro.core.logger import LogColumns, decode_columns
from repro.core.regression import RegressionResult, SinkColumn
from repro.core.timeline import (
    ActivitySegment,
    ColumnarTimeline,
    MultiActivitySegment,
    PowerInterval,
    TimelineStream,
)
from repro.errors import AnalysisBackendError, RegressionError, WindowingError

#: Pseudo-activity for the constant (baseline) draw, as in Table 3.
CONST_KEY = "Const."
#: Pseudo-activity for devices with no activity instrumentation.
UNTRACKED_KEY = "(untracked)"

#: The (component, activity) pair the constant draw is charged to.
_CONST_PAIR = (CONST_KEY, CONST_KEY)

#: The log→energy analysis implementations.  Both produce bit-identical
#: :class:`EnergyMap`s (float bits and dict order) on any log — the
#: golden-digest suite cross-checks them on every experiment.
ANALYSIS_BACKENDS = ("streaming", "columnar")

#: The engine used when a caller does not name one.  Columnar: ~3x the
#: reconstruction throughput of the streaming reference on the
#: 554-entry benchmark log (``benchmarks/bench_engine.py``, 2-vCPU KVM
#: host; the gap grows with log size as the vectorized decode/cover
#: amortizes) at bit-identical output — real money at sweep scale, where
#: every grid point pays one full reconstruction.  The streaming
#: implementation remains the reference and the live (``repro serve``)
#: engine.
DEFAULT_ANALYSIS_BACKEND = "columnar"


def resolve_analysis_backend(backend: Optional[str] = None) -> str:
    """Validate an explicit ``backend=`` argument of
    :func:`build_energy_map` / :func:`stream_energy_map`; ``None``
    means the columnar default."""
    if backend is None:
        backend = DEFAULT_ANALYSIS_BACKEND
    if backend not in ANALYSIS_BACKENDS:
        known = ", ".join(ANALYSIS_BACKENDS)
        raise AnalysisBackendError(
            f"unknown analysis backend {backend!r}; known backends: {known}"
        )
    return backend


def _overlapping(spans, t0: int, t1: int):
    """Yield ``(span, overlap_ns)`` for time-ordered spans intersecting
    the window [t0, t1) — the one clamp loop every cover path shares.
    Stops at the first span starting past the window."""
    for span in spans:
        s0 = span.t0_ns
        if s0 >= t1:
            break
        s1 = span.t1_ns
        lo = s0 if s0 > t0 else t0
        hi = s1 if s1 < t1 else t1
        if hi > lo:
            yield span, hi - lo


def _multi_shares(pairs, window: int, idle_name: str, name_of) -> dict[str, float]:
    """Equal-split name fractions of a ``window``-ns span from
    ``(labels, overlap)`` pairs (labels: a frozenset, possibly empty);
    the uncovered remainder is idle.  Multi labels never rebind, so
    names resolve immediately.  Shared by the streaming and columnar
    backends — one implementation, identical float arithmetic."""
    shares: dict[str, float] = {}
    covered = 0
    for labels, overlap in pairs:
        covered += overlap
        if not labels:
            shares[idle_name] = (
                shares.get(idle_name, 0.0) + overlap / window
            )
        else:
            split = overlap / window / len(labels)
            for label in labels:
                name = name_of(label)
                shares[name] = shares.get(name, 0.0) + split
    remainder = window - covered
    if remainder > 0:
        shares[idle_name] = (
            shares.get(idle_name, 0.0) + remainder / window
        )
    return shares


def _charge_named(
    energy_map: "EnergyMap",
    component: str,
    joules: float,
    named: dict[str, int],
    total_share: int,
    idle_ns: int,
    idle_name: str,
) -> None:
    """Charge one interval×device cover, grouped by activity name, into
    the map — the single place single-device joules are attributed (the
    streaming path calls it per cover, the columnar fold per row), so
    both backends produce identical arithmetic in identical order."""
    if idle_ns > 0:
        named[idle_name] = named.get(idle_name, 0) + idle_ns
        total_share += idle_ns
    if not total_share:
        total_share = 1
    # Inlined EnergyMap.add_energy: one dict probe per activity on
    # the hottest attribution loop, same accumulation order.
    energy_j = energy_map.energy_j
    for activity, share_ns in named.items():
        key = (component, activity)
        joule_share = joules * (share_ns / total_share)
        energy_j[key] = energy_j.get(key, 0.0) + joule_share
        energy_map.reconstructed_energy_j += joule_share


def _scan_cover(
    segments: Sequence,
    start: int,
    t0: int,
    t1: int,
) -> tuple[list[tuple], int, int]:
    """How [t0,t1) divides among a finished, time-ordered span list
    (single- or multi-activity segments alike).

    Successive calls pass non-decreasing windows, so the scan starts at
    ``start`` (the cursor returned by the previous call) and stops at
    the first segment past the window — amortised O(segments) over a
    run.  Returns ``(shares, covered_ns, cursor)``.
    """
    n = len(segments)
    i = start
    while i < n and segments[i].t1_ns <= t0:
        i += 1
    cursor = i
    shares = list(_overlapping(
        (segments[j] for j in range(cursor, n)), t0, t1))
    covered = sum(overlap for _, overlap in shares)
    return shares, covered, cursor


@dataclass
class EnergyMap:
    """Time and energy by (component name, activity name)."""

    time_ns: dict[tuple[str, str], int] = field(default_factory=dict)
    energy_j: dict[tuple[str, str], float] = field(default_factory=dict)
    metered_energy_j: float = 0.0
    reconstructed_energy_j: float = 0.0
    span_ns: int = 0

    def add_time(self, component: str, activity: str, dt_ns: int) -> None:
        key = (component, activity)
        self.time_ns[key] = self.time_ns.get(key, 0) + dt_ns

    def add_energy(self, component: str, activity: str, joules: float) -> None:
        key = (component, activity)
        self.energy_j[key] = self.energy_j.get(key, 0.0) + joules
        self.reconstructed_energy_j += joules

    # -- views -------------------------------------------------------------

    def components(self) -> list[str]:
        names = {component for component, _ in self.energy_j}
        names.update(component for component, _ in self.time_ns)
        return sorted(names)

    def activities(self) -> list[str]:
        names = {activity for _, activity in self.energy_j}
        names.update(activity for _, activity in self.time_ns)
        return sorted(names)

    def energy_by_component(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (component, _), joules in self.energy_j.items():
            totals[component] = totals.get(component, 0.0) + joules
        return totals

    def energy_by_activity(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (_, activity), joules in self.energy_j.items():
            totals[activity] = totals.get(activity, 0.0) + joules
        return totals

    def time_by_activity(self, component: str) -> dict[str, int]:
        return {
            activity: dt
            for (comp, activity), dt in self.time_ns.items()
            if comp == component
        }

    def total_energy_j(self) -> float:
        return sum(self.energy_j.values())

    @property
    def accounting_error(self) -> float:
        """Relative gap between metered and reconstructed total energy."""
        if self.metered_energy_j == 0.0:
            return 0.0
        return abs(self.reconstructed_energy_j - self.metered_energy_j) \
            / self.metered_energy_j


class EnergyAccumulator:
    """Streaming accounting: fold a log's entries straight into an
    :class:`EnergyMap`.

    Feed decoded entries in log order (:meth:`feed`), then call
    :meth:`finish` with the analysis end time.  Internally a
    :class:`TimelineStream` closes intervals and segments; each closed
    interval is covered against the segments that overlap it — buffered
    closed segments plus each device's still-open span — and the
    interval's joules are charged immediately (``fold_proxies=False``)
    or recorded as a compact cover op for name resolution at finish
    (``fold_proxies=True``; see the module docstring for why folding is
    inherently retrospective).

    Declare the instrumented devices up front (``single_res_ids`` /
    ``multi_res_ids``) when streaming a raw log: inference from entry
    types works, but a device whose first activity record appears
    mid-log would be charged ``(untracked)`` for earlier intervals,
    where the batch path (which infers over the whole log) charges Idle.
    Node logs declare their devices (`QuantoNode.timeline` does), so the
    two paths agree byte-for-byte on every experiment.

    ``end_time_ns`` (the analysis window end) is taken at construction
    because it matters *during* the feed: a cover computed when an
    interval closes is complete only while the interval ends inside the
    window.  Records can legitimately overshoot the window end — the
    logger stamps cycle-advanced virtual time, so a run's last CPU job
    writes records slightly past ``sim.now`` — and segments in that
    overshoot close early (at the window end) or never open at all.
    Intervals past the window end therefore defer their covers and
    re-cover from the retained segment tail at :meth:`finish`, exactly
    as the batch path sees them.  With ``end_time_ns=None`` the window
    is the last record, which no interval can outrun.
    """

    def __init__(
        self,
        regression: RegressionResult,
        registry: ActivityRegistry,
        component_names: dict[int, str],
        energy_per_pulse_j: float,
        fold_proxies: bool = False,
        idle_name: str = "Idle",
        single_res_ids: Optional[Iterable[int]] = None,
        multi_res_ids: Optional[Iterable[int]] = None,
        end_time_ns: Optional[int] = None,
    ) -> None:
        self.registry = registry
        self.component_names = component_names
        self.energy_per_pulse_j = energy_per_pulse_j
        self.fold_proxies = fold_proxies
        self.idle_name = idle_name
        self.end_time_ns = end_time_ns
        self.regression = regression
        # Column lookup: which (res_id, value) pairs carry estimated power.
        # (A missing regression only errors if an interval actually needs
        # it — an empty log fails first with "no power intervals".)
        self._column_power: dict[tuple[int, int], tuple[str, float]] = {}
        for column in (regression.columns if regression is not None else ()):
            self._column_power[(column.res_id, column.value)] = (
                column.name,
                regression.power_w[column.name],
            )
        # Per-vector cover plan: state vectors are interned by the
        # timeline tracker, so the (res_id, component, power) triples an
        # interval needs are resolved once per distinct vector instead of
        # probing every (res_id, value) pair of every interval.  Only the
        # column lookup is cached — tracker kinds stay dynamic (a device
        # can appear mid-stream on the inference path).
        self._vector_plan: dict[tuple[tuple[int, int], ...],
                                tuple[tuple[int, str, float], ...]] = {}
        self._const_power_w = (
            regression.const_power_w if regression is not None else 0.0
        )
        # Bind tracking is only needed when proxy usage is folded onto
        # the bound activity; without it the stream stays strictly
        # bounded (no unresolved-segment retention).
        self.stream = TimelineStream(
            single_res_ids=single_res_ids,
            multi_res_ids=multi_res_ids,
            track_binds=fold_proxies,
            on_interval=self._on_interval,
            on_segment=self._on_segment,
            on_multi_segment=self._on_multi_segment,
        )
        self.map = EnergyMap()
        # Closed-but-unconsumed segments per device; intervals sweep
        # forward in time, so each deque is drained from the front as
        # the intervals pass (the streaming form of the batch cursors).
        self._pending_single: dict[int, deque[ActivitySegment]] = {}
        self._pending_multi: dict[int, deque[MultiActivitySegment]] = {}
        # Deferred cover ops (fold mode only), replayed at finish in
        # interval order.
        self._ops: list[tuple] = []
        # Time breakdown accumulators: per-device name->ns in
        # first-occurrence order (non-fold), or retained segments whose
        # effective label is resolved at finish (fold).
        self._time_single: dict[int, dict[str, int]] = {}
        self._time_single_segments: dict[int, list[ActivitySegment]] = {}
        self._time_multi: dict[int, dict[str, int]] = {}
        self._intervals_seen = 0
        self._pulses_total = 0
        self._span_t0_ns = 0
        self._last_interval_t1_ns = 0
        # Flips once the intervals outrun the analysis window (see the
        # class docstring); from then on covers defer to finish and the
        # segment deques are retained instead of consumed.
        self._tail_mode = False
        self._pending_count = 0
        self._finished = False
        self.peak_pending_segments = 0

    # -- stream plumbing ---------------------------------------------------

    def feed(self, entry) -> None:
        self.stream.feed(entry)

    def feed_all(self, entries: Iterable) -> EnergyMap:
        feed = self.stream.feed
        for entry in entries:
            feed(entry)
        return self.finish()

    def _on_segment(self, segment: ActivitySegment) -> None:
        res_id = segment.res_id
        queue = self._pending_single.get(res_id)
        if queue is None:
            queue = self._pending_single[res_id] = deque()
        queue.append(segment)
        self._note_pending(1)
        # Time breakdown (Table 3a): with fixed labels the per-name sums
        # accumulate as segments close; folded labels resolve at finish.
        if self.fold_proxies:
            self._time_single_segments.setdefault(res_id, []).append(segment)
        else:
            per_name = self._time_single.get(res_id)
            if per_name is None:
                per_name = self._time_single[res_id] = {}
            name = self.registry.name_of(segment.label)
            per_name[name] = per_name.get(name, 0) + segment.dt_ns

    def _on_multi_segment(self, segment: MultiActivitySegment) -> None:
        res_id = segment.res_id
        queue = self._pending_multi.get(res_id)
        if queue is None:
            queue = self._pending_multi[res_id] = deque()
        queue.append(segment)
        self._note_pending(1)
        per_name = self._time_multi.get(res_id)
        if per_name is None:
            per_name = self._time_multi[res_id] = {}
        if not segment.labels:
            per_name[self.idle_name] = (
                per_name.get(self.idle_name, 0) + segment.dt_ns
            )
            return
        split = segment.dt_ns // len(segment.labels)
        for label in segment.labels:
            name = self.registry.name_of(label)
            per_name[name] = per_name.get(name, 0) + split

    def _note_pending(self, delta: int) -> None:
        """O(1) running count of buffered segments (peak is the
        bounded-memory diagnostic the tests pin)."""
        self._pending_count += delta
        if self._pending_count > self.peak_pending_segments:
            self.peak_pending_segments = self._pending_count

    # -- interval covers ----------------------------------------------------

    def _single_cover(
        self, res_id: int, t0: int, t1: int,
    ) -> tuple[list[tuple[ActivitySegment, int]], int]:
        """Which segments of one device cover [t0, t1), with overlaps.

        Consumes buffered closed segments that the window has fully
        passed, scans the rest, and truncates the device's open span at
        the window end (it stays open at least that long — entries
        arrive in time order).  Returns ``(shares, idle_remainder_ns)``.
        """
        queue = self._pending_single.get(res_id)
        shares: list[tuple[ActivitySegment, int]] = []
        covered = 0
        if queue:
            while queue and queue[0].t1_ns <= t0:
                queue.popleft()
                self._note_pending(-1)
            # Inlined _overlapping: this cover runs per (interval x
            # device column), and the fused loop also accumulates the
            # covered sum instead of re-walking the share list.
            append = shares.append
            for span in queue:
                s0 = span.t0_ns
                if s0 >= t1:
                    break
                s1 = span.t1_ns
                lo = s0 if s0 > t0 else t0
                hi = s1 if s1 < t1 else t1
                if hi > lo:
                    append((span, hi - lo))
                    covered += hi - lo
        # The open span has a provisional t1; it reaches at least the
        # window end, so clamp it by hand.
        tracker = self.stream._singles.get(res_id)
        open_segment = tracker.open_segment if tracker is not None else None
        if open_segment is not None and open_segment.t0_ns < t1:
            lo = open_segment.t0_ns if open_segment.t0_ns > t0 else t0
            if t1 > lo:
                shares.append((open_segment, t1 - lo))
                covered += t1 - lo
        return shares, (t1 - t0) - covered

    def _multi_cover(self, res_id: int, t0: int, t1: int) -> dict[str, float]:
        """Streaming multi-device cover: buffered closed segments plus
        the open span (snapshotted and clamped at the window end)."""
        queue = self._pending_multi.get(res_id)
        spans: list[MultiActivitySegment] = []
        if queue:
            while queue and queue[0].t1_ns <= t0:
                queue.popleft()
                self._note_pending(-1)
            spans.extend(queue)
        tracker = self.stream.multi_tracker(res_id)
        if tracker is not None and tracker.started \
                and tracker.open_start_ns < t1:
            spans.append(MultiActivitySegment(
                res_id=res_id, t0_ns=tracker.open_start_ns, t1_ns=t1,
                labels=tracker.current_labels()))
        return _multi_shares(
            ((span.labels, overlap)
             for span, overlap in _overlapping(spans, t0, t1)),
            t1 - t0, self.idle_name, self.registry.name_of)

    def _multi_cover_list(
        self,
        segments: Sequence[MultiActivitySegment],
        start: int,
        t0: int,
        t1: int,
    ) -> tuple[dict[str, float], int]:
        """Batch-style multi cover over a finished segment list (tail
        replay): same cursor contract as :func:`_scan_cover`."""
        pairs, _covered, cursor = _scan_cover(segments, start, t0, t1)
        shares = _multi_shares(
            ((span.labels, overlap) for span, overlap in pairs),
            t1 - t0, self.idle_name, self.registry.name_of)
        return shares, cursor

    def _apply_single(
        self,
        component: str,
        joules: float,
        shares: Sequence[tuple[ActivitySegment, int]],
        idle_ns: int,
    ) -> None:
        """Group per-segment overlaps by activity name and charge them —
        the one place single-device joules are attributed, eagerly or on
        replay (so both orders produce identical arithmetic)."""
        named: dict[str, int] = {}
        fold = self.fold_proxies
        name_of = self.registry.name_of
        total_share = 0
        for segment, overlap in shares:
            if fold:
                bound = segment.bound_to
                label = bound if bound is not None else segment.label
            else:
                label = segment.label
            name = name_of(label)
            named[name] = named.get(name, 0) + overlap
            total_share += overlap
        _charge_named(self.map, component, joules, named, total_share,
                      idle_ns, self.idle_name)

    def _on_interval(self, interval: PowerInterval) -> None:
        if self._intervals_seen == 0:
            self._span_t0_ns = interval.t0_ns
        self._intervals_seen += 1
        self._pulses_total += interval.pulses
        self._last_interval_t1_ns = interval.t1_ns
        dt_ns = interval.dt_ns
        if dt_ns <= 0:
            return
        if self.regression is None:
            raise RegressionError(
                "accounting needs a regression once power intervals exist"
            )
        if not self._tail_mode and self.end_time_ns is not None \
                and interval.t1_ns > self.end_time_ns:
            # The intervals have outrun the analysis window: covers are
            # no longer complete at close time (a segment open now may
            # close early, at the window end; successors may still open
            # inside this interval).  Interval ends are monotone, so
            # every remaining interval defers to finish.
            self._tail_mode = True
        tail = self._tail_mode
        dt_s = dt_ns * 1e-9
        fold = self.fold_proxies
        # Constant draw: the baseline floor, charged to Const.
        const_j = self._const_power_w * dt_s
        if fold or tail:
            self._ops.append(("const", const_j))
        else:
            energy_j = self.map.energy_j
            energy_j[_CONST_PAIR] = energy_j.get(_CONST_PAIR, 0.0) + const_j
            self.map.reconstructed_energy_j += const_j
        states = interval.states
        plan = self._vector_plan.get(states)
        if plan is None:
            resolved = []
            for res_id, value in states:
                entry = self._column_power.get((res_id, value))
                if entry is None:
                    continue  # baseline state of the sink: no marginal draw
                column_name, power_w = entry
                resolved.append((
                    res_id,
                    self.component_names.get(res_id, column_name),
                    power_w,
                ))
            plan = self._vector_plan[states] = tuple(resolved)
        singles = self.stream._singles
        multis = self.stream._multis
        for res_id, component, power_w in plan:
            joules = power_w * dt_s
            if singles.get(res_id) is not None:
                if tail:
                    self._ops.append(("single_tail", component, joules,
                                      res_id, interval.t0_ns,
                                      interval.t1_ns))
                    continue
                shares, idle_ns = self._single_cover(
                    res_id, interval.t0_ns, interval.t1_ns)
                if fold:
                    self._ops.append(
                        ("single", component, joules, shares, idle_ns))
                else:
                    self._apply_single(component, joules, shares, idle_ns)
            elif multis.get(res_id) is not None:
                if tail:
                    self._ops.append(("multi_tail", component, joules,
                                      res_id, interval.t0_ns,
                                      interval.t1_ns))
                    continue
                shares_f = self._multi_cover(
                    res_id, interval.t0_ns, interval.t1_ns)
                if fold:
                    self._ops.append(("multi", component, joules, shares_f))
                else:
                    for activity, fraction in shares_f.items():
                        self.map.add_energy(component, activity,
                                            joules * fraction)
            else:
                if fold or tail:
                    self._ops.append(("untracked", component, joules))
                else:
                    self.map.add_energy(component, UNTRACKED_KEY, joules)
        if not tail:
            # No later window can start before this interval's end, so
            # segments wholly behind it are spent — including those of
            # devices the covers above never touched (no power column).
            # This is what keeps pending state flat as the log grows; in
            # tail mode the deques are retained for the finish re-cover.
            boundary = interval.t1_ns
            for queue in self._pending_single.values():
                while queue and queue[0].t1_ns <= boundary:
                    queue.popleft()
                    self._note_pending(-1)
            for queue in self._pending_multi.values():
                while queue and queue[0].t1_ns <= boundary:
                    queue.popleft()
                    self._note_pending(-1)

    # -- completion ---------------------------------------------------------

    def finish(self) -> EnergyMap:
        """Close the stream and return the completed map.  Idempotent:
        a second call returns the same map without re-charging."""
        if self._finished:
            return self.map
        self.stream.finish(self.end_time_ns)
        if not self._intervals_seen:
            raise RegressionError("no power intervals to account")
        self._finished = True
        # Replay deferred cover ops now that every bind has been seen
        # (fold mode) and every tail segment has closed (tail windows).
        # Replay order is interval order — the same order the batch path
        # charges them; tail windows re-cover from the retained segment
        # deques with batch-style cursors.
        tail_single: dict[int, list[ActivitySegment]] = {}
        tail_multi: dict[int, list[MultiActivitySegment]] = {}
        single_cursor: dict[int, int] = {}
        multi_cursor: dict[int, int] = {}
        for op in self._ops:
            kind = op[0]
            if kind == "const":
                self.map.add_energy(CONST_KEY, CONST_KEY, op[1])
            elif kind == "single":
                _, component, joules, shares, idle_ns = op
                self._apply_single(component, joules, shares, idle_ns)
            elif kind == "single_tail":
                _, component, joules, res_id, t0, t1 = op
                segments = tail_single.get(res_id)
                if segments is None:
                    segments = tail_single[res_id] = list(
                        self._pending_single.get(res_id, ()))
                    single_cursor[res_id] = 0
                shares, covered, single_cursor[res_id] = _scan_cover(
                    segments, single_cursor[res_id], t0, t1)
                self._apply_single(component, joules, shares,
                                   (t1 - t0) - covered)
            elif kind == "multi":
                _, component, joules, shares_f = op
                for activity, fraction in shares_f.items():
                    self.map.add_energy(component, activity,
                                        joules * fraction)
            elif kind == "multi_tail":
                _, component, joules, res_id, t0, t1 = op
                msegments = tail_multi.get(res_id)
                if msegments is None:
                    msegments = tail_multi[res_id] = list(
                        self._pending_multi.get(res_id, ()))
                    multi_cursor[res_id] = 0
                shares_f, multi_cursor[res_id] = self._multi_cover_list(
                    msegments, multi_cursor[res_id], t0, t1)
                for activity, fraction in shares_f.items():
                    self.map.add_energy(component, activity,
                                        joules * fraction)
            else:  # untracked
                _, component, joules = op
                self.map.add_energy(component, UNTRACKED_KEY, joules)
        self._ops.clear()
        # Time breakdown per device (Table 3a): how long each component
        # worked on behalf of each activity, independent of power states.
        if self.fold_proxies:
            for res_id in sorted(self._time_single_segments):
                component = self.component_names.get(res_id, f"res{res_id}")
                for segment in self._time_single_segments[res_id]:
                    self.map.add_time(
                        component,
                        self.registry.name_of(segment.effective_label),
                        segment.dt_ns)
        else:
            for res_id in sorted(self._time_single):
                component = self.component_names.get(res_id, f"res{res_id}")
                for name, dt_ns in self._time_single[res_id].items():
                    self.map.add_time(component, name, dt_ns)
        for res_id in sorted(self._time_multi):
            component = self.component_names.get(res_id, f"res{res_id}")
            for name, dt_ns in self._time_multi[res_id].items():
                self.map.add_time(component, name, dt_ns)
        self.map.span_ns = self._last_interval_t1_ns - self._span_t0_ns
        self.map.metered_energy_j = (
            self._pulses_total * self.energy_per_pulse_j
        )
        return self.map


# -- windowed (online) accounting -------------------------------------------


@dataclass
class WindowSnapshot:
    """One closed accounting window: the stride's *delta* breakdown for
    display, plus the exact cumulative running sums up to the window's
    close.

    The deltas (``energy_j`` / ``time_ns``) are what a live dashboard
    renders: "energy this window, by (component, activity)".  They are
    computed by subtracting successive cumulative values, which is exact
    for the integer time sums but — like any float subtraction — not
    information-preserving for energy.  The cumulative dicts are
    therefore carried verbatim: they are the accumulator's own running
    sums (the identical IEEE-754 add sequence the batch path performs),
    which is what makes :func:`fold_windows` byte-identical to
    :func:`build_energy_map` instead of merely close.
    """

    #: Stride index relative to the window origin (0-based).
    index: int
    #: Window bounds; ``t1_ns`` of the final window is the analysis end,
    #: not the stride boundary.
    t0_ns: int
    t1_ns: int
    #: Power intervals charged during this stride.
    intervals: int
    #: This stride's per-(component, activity) energy / busy-time deltas
    #: (zero-valued keys omitted; display-quality floats).
    energy_j: dict[tuple[str, str], float]
    time_ns: dict[tuple[str, str], int]
    #: Exact running sums at window close — same float bits and dict
    #: insertion order as the batch map built from the same prefix.
    cumulative_energy_j: dict[tuple[str, str], float]
    cumulative_time_ns: dict[tuple[str, str], int]
    #: Cumulative totals at window close.
    reconstructed_energy_j: float
    metered_energy_j: float
    span_ns: int
    #: True for the snapshot emitted by :meth:`WindowedAccumulator.finish`
    #: (it absorbs the tail re-cover and the final time fold).
    final: bool = False


def fold_windows(snapshots: Sequence[WindowSnapshot]) -> EnergyMap:
    """Collapse an emitted window sequence back into one
    :class:`EnergyMap`.

    Because every snapshot carries the accumulator's exact cumulative
    sums, the fold is simply the last window's cumulative state — no
    re-adding of per-window deltas (which would change the float-add
    order).  Folding the full sequence emitted by a finished
    :class:`WindowedAccumulator` therefore reproduces
    :func:`build_energy_map` bit-for-bit: same float bits, same dict
    insertion order.
    """
    if not snapshots:
        raise WindowingError("cannot fold an empty window sequence")
    last = snapshots[-1]
    return EnergyMap(
        time_ns=dict(last.cumulative_time_ns),
        energy_j=dict(last.cumulative_energy_j),
        metered_energy_j=last.metered_energy_j,
        reconstructed_energy_j=last.reconstructed_energy_j,
        span_ns=last.span_ns,
    )


class WindowedAccumulator(EnergyAccumulator):
    """Online accounting: the streaming accumulator, sliced into
    tumbling windows as entries arrive.

    Time is divided into ``stride_ns``-wide strides anchored at
    ``origin_ns`` (default: the first power interval's start).  The
    accounting quantum is the power interval — an interval is charged to
    the stride containing its start, so strides partition the intervals
    without splitting any (splitting would change the float-add order
    and break the fold contract).  When the interval starts cross a
    stride boundary the open window closes: a :class:`WindowSnapshot` is
    appended to :attr:`windows` (a deque bounded by ``retain``) and
    passed to ``on_window`` if given.  :meth:`finish` closes the last,
    partial window; its snapshot absorbs the deferred tail re-cover and
    carries the finished map's exact state.

    Memory stays bounded by the stream's open spans plus ``retain``
    snapshots of the (component, activity) key set — independent of log
    length, like the parent.

    Windowing requires eager charging, so proxy folding (inherently
    retrospective — a bind can reattribute arbitrarily old segments) is
    not supported; the parent is always constructed with
    ``fold_proxies=False``.

    Sliding windows are views, not extra state: :meth:`sliding` merges
    the last ``width/stride`` retained snapshots.
    """

    def __init__(
        self,
        regression: RegressionResult,
        registry: ActivityRegistry,
        component_names: dict[int, str],
        energy_per_pulse_j: float,
        *,
        stride_ns: int,
        idle_name: str = "Idle",
        single_res_ids: Optional[Iterable[int]] = None,
        multi_res_ids: Optional[Iterable[int]] = None,
        end_time_ns: Optional[int] = None,
        origin_ns: Optional[int] = None,
        retain: Optional[int] = 64,
        on_window=None,
    ) -> None:
        if stride_ns <= 0:
            raise WindowingError(
                f"window stride must be positive, got {stride_ns}"
            )
        super().__init__(
            regression, registry, component_names, energy_per_pulse_j,
            fold_proxies=False, idle_name=idle_name,
            single_res_ids=single_res_ids, multi_res_ids=multi_res_ids,
            end_time_ns=end_time_ns,
        )
        self.stride_ns = int(stride_ns)
        self.on_window = on_window
        #: Closed windows, oldest first, bounded by ``retain`` (None
        #: retains everything — batch-replay use only).
        self.windows: deque[WindowSnapshot] = deque(maxlen=retain)
        #: Total windows closed (unlike ``len(windows)``, unaffected by
        #: the retention bound).
        self.windows_emitted = 0
        self._window_origin = origin_ns
        self._window_index: Optional[int] = None
        self._prev_energy: dict[tuple[str, str], float] = {}
        self._prev_time: dict[tuple[str, str], int] = {}
        self._prev_intervals = 0

    # -- the stride clock ---------------------------------------------------

    def _on_interval(self, interval: PowerInterval) -> None:
        t0 = interval.t0_ns
        if self._window_index is None:
            if self._window_origin is None:
                self._window_origin = t0
            self._window_index = (t0 - self._window_origin) // self.stride_ns
        else:
            index = (t0 - self._window_origin) // self.stride_ns
            # Interval starts are monotone (intervals tile), so strides
            # close in order; a long interval can leave empty strides
            # behind it, which still emit (zero-delta) snapshots so the
            # window sequence is gap-free.
            while self._window_index < index:
                self._close_window(final=False)
        super()._on_interval(interval)

    def _fold_time(self) -> dict[tuple[str, str], int]:
        """The cumulative busy-time breakdown from the live per-device
        name→ns sums — the same device/name order the parent's finish
        folds, so the final snapshot's dict matches it exactly.  Only
        closed segments are included (an open span's label is charged
        when it closes)."""
        cumulative: dict[tuple[str, str], int] = {}
        for res_id in sorted(self._time_single):
            component = self.component_names.get(res_id, f"res{res_id}")
            for name, dt_ns in self._time_single[res_id].items():
                key = (component, name)
                cumulative[key] = cumulative.get(key, 0) + dt_ns
        for res_id in sorted(self._time_multi):
            component = self.component_names.get(res_id, f"res{res_id}")
            for name, dt_ns in self._time_multi[res_id].items():
                key = (component, name)
                cumulative[key] = cumulative.get(key, 0) + dt_ns
        return cumulative

    def _close_window(self, final: bool) -> None:
        index = self._window_index
        cumulative_energy = dict(self.map.energy_j)
        # The finished map's own time fold is authoritative for the
        # final window (it includes spans the stream just closed).
        cumulative_time = (
            dict(self.map.time_ns) if final else self._fold_time()
        )
        delta_energy: dict[tuple[str, str], float] = {}
        previous = self._prev_energy
        for key, value in cumulative_energy.items():
            delta = value - previous.get(key, 0.0)
            if delta != 0.0:
                delta_energy[key] = delta
        delta_time: dict[tuple[str, str], int] = {}
        previous_t = self._prev_time
        for key, value in cumulative_time.items():
            delta = value - previous_t.get(key, 0)
            if delta:
                delta_time[key] = delta
        t0_ns = self._window_origin + index * self.stride_ns
        t1_ns = (self._last_interval_t1_ns if final
                 else t0_ns + self.stride_ns)
        snapshot = WindowSnapshot(
            index=index,
            t0_ns=t0_ns,
            t1_ns=t1_ns,
            intervals=self._intervals_seen - self._prev_intervals,
            energy_j=delta_energy,
            time_ns=delta_time,
            cumulative_energy_j=cumulative_energy,
            cumulative_time_ns=cumulative_time,
            reconstructed_energy_j=self.map.reconstructed_energy_j,
            metered_energy_j=self._pulses_total * self.energy_per_pulse_j,
            span_ns=self._last_interval_t1_ns - self._span_t0_ns,
            final=final,
        )
        self._prev_energy = cumulative_energy
        self._prev_time = cumulative_time
        self._prev_intervals = self._intervals_seen
        self._window_index = index + 1
        self.windows.append(snapshot)
        self.windows_emitted += 1
        if self.on_window is not None:
            self.on_window(snapshot)

    def finish(self) -> EnergyMap:
        if self._finished:
            return self.map
        super().finish()
        if self._window_index is not None:
            self._close_window(final=True)
        return self.map

    # -- durability ---------------------------------------------------------

    def snapshot(self) -> bytes:
        """The accumulator's complete mid-stream state as one opaque
        blob (pickle).  Everything the fold contract depends on rides
        along — open spans, interned state-vector sums, cumulative
        per-key float sums, window origin/index, the retained snapshot
        deque — so :meth:`restore` of this blob, fed the remaining
        entries, produces windows and a final map **bit-identical** to
        an uninterrupted accumulator (the crash-safety contract the
        ingest server's checkpoints lean on).

        ``on_window`` is deliberately not captured (server callbacks
        close over sockets); reattach one via :meth:`restore`.
        """
        import pickle

        on_window = self.on_window
        self.on_window = None
        try:
            return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            self.on_window = on_window

    @classmethod
    def restore(cls, blob: bytes, on_window=None) -> "WindowedAccumulator":
        """Rebuild an accumulator from a :meth:`snapshot` blob."""
        import pickle

        try:
            accumulator = pickle.loads(blob)
        except Exception as exc:
            raise WindowingError(
                f"bad WindowedAccumulator snapshot: {exc}") from exc
        if not isinstance(accumulator, cls):
            raise WindowingError(
                f"bad WindowedAccumulator snapshot: unpickled "
                f"{type(accumulator).__name__}")
        accumulator.on_window = on_window
        return accumulator

    # -- live views ---------------------------------------------------------

    def live_breakdown(self) -> dict:
        """The cumulative breakdown *right now*, without closing the
        stream: what a dashboard polls between window closes.  Energy
        values are the exact running sums; time covers closed segments."""
        return {
            "energy_j": dict(self.map.energy_j),
            "time_ns": self._fold_time(),
            "reconstructed_energy_j": self.map.reconstructed_energy_j,
            "metered_energy_j": (
                self._pulses_total * self.energy_per_pulse_j
            ),
            "span_ns": self._last_interval_t1_ns - self._span_t0_ns,
            "intervals": self._intervals_seen,
            "windows_emitted": self.windows_emitted,
        }

    def sliding(self, width_ns: int) -> dict:
        """A sliding-window view: the merged deltas of the last
        ``width_ns / stride_ns`` closed windows (display-quality floats;
        the exactness contract lives in the cumulative sums).  Raises if
        the width is not a stride multiple or outruns retention."""
        if width_ns <= 0 or width_ns % self.stride_ns:
            raise WindowingError(
                f"sliding width {width_ns} is not a positive multiple "
                f"of the stride {self.stride_ns}"
            )
        count = width_ns // self.stride_ns
        if count > len(self.windows) and self.windows_emitted \
                > len(self.windows):
            raise WindowingError(
                f"sliding window of {count} strides outruns retention "
                f"({len(self.windows)} snapshots kept)"
            )
        recent = list(self.windows)[-count:]
        energy_j: dict[tuple[str, str], float] = {}
        time_ns: dict[tuple[str, str], int] = {}
        intervals = 0
        for snapshot in recent:
            intervals += snapshot.intervals
            for key, value in snapshot.energy_j.items():
                energy_j[key] = energy_j.get(key, 0.0) + value
            for key, value in snapshot.time_ns.items():
                time_ns[key] = time_ns.get(key, 0) + value
        return {
            "t0_ns": recent[0].t0_ns if recent else 0,
            "t1_ns": recent[-1].t1_ns if recent else 0,
            "windows": len(recent),
            "intervals": intervals,
            "energy_j": energy_j,
            "time_ns": time_ns,
        }


# -- columnar backend -------------------------------------------------------


def _ragged_cover(window_t0, window_t1, seg_t0, seg_t1):
    """``searchsorted``-based interval cover: how a batch of windows
    divides among one device's sorted, non-overlapping segments.

    Returns ``(offsets, seg_rows, overlaps)``: window ``i`` is covered
    by segment rows ``seg_rows[offsets[i]:offsets[i+1]]`` with the
    matching per-row overlaps (all positive, in time order) — exactly
    the spans the cursor-based streaming cover yields, computed for
    every window at once.
    """
    # A segment overlaps [a, b) iff its t1 > a and its t0 < b; with both
    # boundaries arrays sorted, those are two vectorized bisections.
    lo = np.searchsorted(seg_t1, window_t0, side="right")
    hi = np.searchsorted(seg_t0, window_t1, side="left")
    counts = hi - lo
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    window_rows = np.repeat(np.arange(len(counts)), counts)
    seg_rows = (np.arange(total, dtype=np.int64)
                - np.repeat(offsets[:-1], counts)
                + np.repeat(lo, counts))
    overlaps = (np.minimum(seg_t1[seg_rows], window_t1[window_rows])
                - np.maximum(seg_t0[seg_rows], window_t0[window_rows]))
    return offsets, seg_rows, overlaps


def _fold_stream(emap, timeline, plan_raw, dt_ns, dt_s, const_arr,
                 label_name, name_of_value, fold_proxies, idle_name,
                 name_of):
    """The ordered fold, vectorized and fused: every charged device's
    per-interval work is flattened into ONE cover query and ONE
    grouping sort (charges separated by a per-charge time offset larger
    than any timestamp), producing a single
    ``(interval, plan-position, within-charge-rank)``-keyed contribution
    stream whose final scalar adds are replayed in reference order.

    Bit-identity with the streaming accumulator's per-interval charges
    (:func:`_charge_named`, :func:`_multi_shares`) rests on these facts,
    each pinned by the backend-equivalence fuzz tests:

    * with every interval strictly positive (the guard the caller
      enforces), a single-device cover's share denominator is always
      exactly the interval duration — the named overlaps plus the idle
      remainder sum to ``dt_ns`` — so ``share/total`` is an
      ``int64/int64`` divide, which numpy evaluates to the same float64
      Python's ``int/int`` does for magnitudes below 2**53;
    * ``joules * fraction`` is the same elementwise IEEE-754 multiply
      either way;
    * per-key accumulation replays with ``np.cumsum`` — a strict
      left-to-right accumulation, unlike ``np.sum``'s pairwise tree —
      over each key's contributions gathered in stream order, and keys
      are inserted in first-occurrence stream order, preserving dict
      order.  The lone divergence from a fold that starts at literal
      ``0.0`` is an all-negative-zero stream, which the reference
      rounds to ``+0.0``; the ``== 0.0`` normalization below restores
      exactly that.

    Requires ``emap`` fresh (empty ``energy_j``, zero reconstructed
    total), which :func:`columnar_energy_map` guarantees.
    """
    vectors = timeline.vectors
    n_vec = len(vectors)
    interval_vec = timeline.interval_vec
    n_intervals = len(dt_ns)
    names: list = [None]          # id 0: the regression constant
    name_ids: dict[str, int] = {}

    def intern_name(name: str) -> int:
        nid = name_ids.get(name)
        if nid is None:
            nid = name_ids[name] = len(names)
            names.append(name)
        return nid

    comps: list = [None]
    comp_ids: dict[str, int] = {}

    def intern_comp(component: str) -> int:
        cid = comp_ids.get(component)
        if cid is None:
            cid = comp_ids[component] = len(comps)
            comps.append(component)
        return cid

    value_nid: dict[int, int] = {}

    def nid_of_value(value: int) -> int:
        nid = value_nid.get(value)
        if nid is None:
            nid = value_nid[value] = intern_name(name_of_value(value))
        return nid

    idle_id = intern_name(idle_name)
    untracked_id = intern_name(UNTRACKED_KEY)
    charged_ids = sorted({r for plan in plan_raw for r, _, _ in plan})
    charge_index = {rid: c for c, rid in enumerate(charged_ids)}
    n_charges = len(charged_ids)
    KIND_SINGLE, KIND_MULTI, KIND_UNTRACKED = 0, 1, 2
    kind_arr = np.empty(n_charges, dtype=np.int64)
    charge_cols: list = [None] * n_charges
    for c, rid in enumerate(charged_ids):
        single = timeline.single_columns(rid)
        if single is not None:
            kind_arr[c] = KIND_SINGLE
            charge_cols[c] = single
            continue
        multi = timeline.multi_columns(rid)
        if multi is not None:
            kind_arr[c] = KIND_MULTI
            charge_cols[c] = multi
        else:
            kind_arr[c] = KIND_UNTRACKED
    # Per-(charge, vector) tables off the plans: a charge's power draw,
    # display component, and position within each vector's plan.
    has_mat = np.zeros((n_charges, n_vec), dtype=bool)
    power_mat = np.zeros((n_charges, n_vec), dtype=np.float64)
    comp_mat = np.zeros((n_charges, n_vec), dtype=np.int64)
    pos_mat = np.zeros((n_charges, n_vec), dtype=np.int64)
    for vec_id, plan in enumerate(plan_raw):
        for pos, (rid, component, power_w) in enumerate(plan):
            c = charge_index[rid]
            has_mat[c, vec_id] = True
            power_mat[c, vec_id] = power_w
            comp_mat[c, vec_id] = intern_comp(component)
            pos_mat[c, vec_id] = pos
    # Flatten to one (charge, interval) row list, charge-major: every
    # interval in which each charge carries a power column.
    c_idx, i_idx = np.nonzero(has_mat[:, interval_vec])
    vecs_f = interval_vec[i_idx]
    joules_f = power_mat[c_idx, vecs_f] * dt_s[i_idx]
    comp_f = comp_mat[c_idx, vecs_f]
    pos_f = pos_mat[c_idx, vecs_f]
    dt_f = dt_ns[i_idx]
    kind_f = kind_arr[c_idx]
    # Stream columns: interval row, plan position (-1: const), rank
    # within the charge, component id, name id, joules.
    stream_i = [np.arange(n_intervals, dtype=np.int64)]
    stream_p = [np.full(n_intervals, -1, dtype=np.int64)]
    stream_q = [np.zeros(n_intervals, dtype=np.int64)]
    stream_c = [np.zeros(n_intervals, dtype=np.int64)]
    stream_n = [np.zeros(n_intervals, dtype=np.int64)]
    stream_v = [const_arr]
    # -- single-tracked charges: ONE fused cover + grouping ----------------
    single_rows = np.nonzero(kind_f == KIND_SINGLE)[0]
    if len(single_rows):
        # Shift each charge into its own disjoint time band so one
        # sorted segment array (and one bisection pair) covers them
        # all; overlaps are time differences, unaffected by the shift.
        span_ns = int(timeline.end_time_ns) + 1
        if n_intervals:
            span_ns = max(span_ns, int(timeline.interval_t1[-1]) + 1)
        seg_t0_parts = []
        seg_t1_parts = []
        seg_val_parts: list = []
        for c in range(n_charges):
            if kind_arr[c] != KIND_SINGLE:
                continue
            single = charge_cols[c]
            shift = c * span_ns
            seg_t0_parts.append(single.t0 + shift)
            seg_t1_parts.append(single.t1 + shift)
            if fold_proxies:
                seg_val_parts.extend(
                    b if b is not None else label
                    for label, b in zip(single.labels, single.bound))
            else:
                seg_val_parts.extend(single.labels)
        seg_t0_all = np.concatenate(seg_t0_parts)
        seg_t1_all = np.concatenate(seg_t1_parts)
        # A handful of distinct labels name hundreds of segments:
        # resolve the uniques, then translate by table lookup.
        uvals, uinv = np.unique(
            np.asarray(seg_val_parts, dtype=np.int64),
            return_inverse=True)
        nid_lut = np.fromiter(
            (nid_of_value(value) for value in uvals.tolist()),
            dtype=np.int64, count=len(uvals))
        seg_name_ids = nid_lut[uinv]
        shift_f = c_idx[single_rows] * span_ns
        offsets, seg_rows, overlaps = _ragged_cover(
            timeline.interval_t0[i_idx[single_rows]] + shift_f,
            timeline.interval_t1[i_idx[single_rows]] + shift_f,
            seg_t0_all, seg_t1_all)
        n_srows = len(single_rows)
        pair_row = np.repeat(
            np.arange(n_srows, dtype=np.int64), np.diff(offsets))
        if len(pair_row):
            # Group cover rows by (flat row, name): a stable sort on a
            # composite key; first-occurrence positions give the dict
            # insertion rank, int sums the per-name shares (exact).
            pair_name = seg_name_ids[seg_rows]
            group_key = pair_row * (len(names) + 1) + pair_name
            order = np.argsort(group_key, kind="stable")
            sorted_key = group_key[order]
            first = np.empty(len(sorted_key), dtype=bool)
            first[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
            group_starts = np.nonzero(first)[0]
            group_first = order[group_starts]
            group_share = np.add.reduceat(overlaps[order], group_starts)
            group_row = pair_row[group_first]
            group_name = pair_name[group_first]
            covered = np.bincount(
                pair_row, weights=overlaps,
                minlength=n_srows).astype(np.int64)
        else:
            group_first = np.empty(0, dtype=np.int64)
            group_share = np.empty(0, dtype=np.int64)
            group_row = np.empty(0, dtype=np.int64)
            group_name = np.empty(0, dtype=np.int64)
            covered = np.zeros(n_srows, dtype=np.int64)
        dt_s_rows = dt_f[single_rows]
        idle_ns = dt_s_rows - covered
        has_idle = idle_ns > 0
        if has_idle.any():
            # The remainder merges into an existing idle-named group
            # (keeping its rank) or appends last.
            idle_gidx = np.full(n_srows, -1, dtype=np.int64)
            idle_groups = np.nonzero(group_name == idle_id)[0]
            idle_gidx[group_row[idle_groups]] = idle_groups
            merge_rows = np.nonzero(has_idle & (idle_gidx >= 0))[0]
            if len(merge_rows):
                group_share[idle_gidx[merge_rows]] += idle_ns[merge_rows]
            new_rows = np.nonzero(has_idle & (idle_gidx < 0))[0]
            if len(new_rows):
                group_row = np.concatenate((group_row, new_rows))
                group_name = np.concatenate((
                    group_name,
                    np.full(len(new_rows), idle_id, dtype=np.int64)))
                group_share = np.concatenate((
                    group_share, idle_ns[new_rows]))
                # Rank the appended remainder after every named cover
                # group of its interval: group_first holds pair-array
                # indices, all strictly below len(pair_row).
                group_first = np.concatenate((
                    group_first,
                    np.full(len(new_rows), len(pair_row),
                            dtype=np.int64)))
        if len(group_row):
            flat = single_rows[group_row]
            stream_i.append(i_idx[flat])
            stream_p.append(pos_f[flat])
            stream_q.append(group_first)
            stream_c.append(comp_f[flat])
            stream_n.append(group_name)
            stream_v.append(
                joules_f[flat] * (group_share / dt_f[flat]))
    # -- untracked charges: one contribution per row -----------------------
    untracked_rows = np.nonzero(kind_f == KIND_UNTRACKED)[0]
    if len(untracked_rows):
        stream_i.append(i_idx[untracked_rows])
        stream_p.append(pos_f[untracked_rows])
        stream_q.append(np.zeros(len(untracked_rows), dtype=np.int64))
        stream_c.append(comp_f[untracked_rows])
        stream_n.append(np.full(len(untracked_rows), untracked_id,
                                dtype=np.int64))
        stream_v.append(joules_f[untracked_rows])
    # -- multi charges: the scalar share helper, per charge (rare) ---------
    if (kind_f == KIND_MULTI).any():
        sets = timeline.label_sets
        for c in range(n_charges):
            if kind_arr[c] != KIND_MULTI:
                continue
            rows = np.nonzero(c_idx == c)[0]
            if not len(rows):
                continue
            multi = charge_cols[c]
            offsets, seg_rows, overlaps = _ragged_cover(
                timeline.interval_t0[i_idx[rows]],
                timeline.interval_t1[i_idx[rows]],
                multi.t0, multi.t1)
            seg_sets = [sets[s] for s in multi.set_ids]
            offs = offsets.tolist()
            srows = seg_rows.tolist()
            over = overlaps.tolist()
            dt_list = dt_f[rows].tolist()
            joules_list = joules_f[rows].tolist()
            i_list = i_idx[rows].tolist()
            p_list = pos_f[rows].tolist()
            c_list = comp_f[rows].tolist()
            mi: list[int] = []
            mp: list[int] = []
            mq: list[int] = []
            mc: list[int] = []
            mn: list[int] = []
            mv: list[float] = []
            for r in range(len(rows)):
                start, stop = offs[r], offs[r + 1]
                shares = _multi_shares(
                    ((seg_sets[srows[k]], over[k])
                     for k in range(start, stop)),
                    dt_list[r], idle_name, name_of)
                for rank, (activity, fraction) in \
                        enumerate(shares.items()):
                    mi.append(i_list[r])
                    mp.append(p_list[r])
                    mq.append(rank)
                    mc.append(c_list[r])
                    mn.append(intern_name(activity))
                    mv.append(joules_list[r] * fraction)
            if mi:
                stream_i.append(np.array(mi, dtype=np.int64))
                stream_p.append(np.array(mp, dtype=np.int64))
                stream_q.append(np.array(mq, dtype=np.int64))
                stream_c.append(np.array(mc, dtype=np.int64))
                stream_n.append(np.array(mn, dtype=np.int64))
                stream_v.append(np.array(mv, dtype=np.float64))
    # -- assemble and replay ----------------------------------------------
    i_all = np.concatenate(stream_i)
    p_all = np.concatenate(stream_p)
    q_all = np.concatenate(stream_q)
    # One composite key replaces the three-key lexsort: i primary, then
    # p, then q, with bases one past each key's maximum; the stable
    # argsort keeps lexsort's tie order (both stable on the original
    # positions).  p is shifted by one so the const sentinel (-1) maps
    # into [0, p_base) — an affine encoding is order-preserving only
    # over non-negative digits.
    p_base = int(p_all.max()) + 2 if len(p_all) else 2
    q_base = int(q_all.max()) + 1 if len(q_all) else 1
    order = np.argsort(
        (i_all * p_base + (p_all + 1)) * q_base + q_all, kind="stable")
    span = len(names) + 1
    code = (np.concatenate(stream_c) * span
            + np.concatenate(stream_n))[order]
    values = np.concatenate(stream_v)[order]
    # Codes live in a small dense range (components x names), so the
    # per-key totals come straight from one weighted bincount over the
    # codes themselves (same in-order per-bin accumulation as the dict
    # fold) and first-occurrence order from a reversed fancy assignment
    # (last write wins == first occurrence) — no sort needed.
    n_rows = len(code)
    n_codes = len(comps) * span
    first_row = np.full(n_codes, -1, dtype=np.int64)
    first_row[code[::-1]] = np.arange(n_rows - 1, -1, -1, dtype=np.int64)
    totals = np.bincount(code, weights=values, minlength=n_codes)
    present = np.nonzero(first_row >= 0)[0]
    energy_j = emap.energy_j
    for c in present[np.argsort(first_row[present],
                                kind="stable")].tolist():
        cid, nid = divmod(c, span)
        key = _CONST_PAIR if cid == 0 else (comps[cid], names[nid])
        energy_j[key] = float(totals[c])
    emap.reconstructed_energy_j = float(np.bincount(
        np.zeros(n_rows, dtype=np.intp), weights=values,
        minlength=1)[0])


ColumnarSource = Union[bytes, bytearray, memoryview, LogColumns,
                       ColumnarTimeline, Iterable]


def columnar_energy_map(
    source: ColumnarSource,
    regression: RegressionResult,
    registry: ActivityRegistry,
    component_names: dict[int, str],
    energy_per_pulse_j: float,
    *,
    fold_proxies: bool = False,
    idle_name: str = "Idle",
    end_time_ns: Optional[int] = None,
    single_res_ids: Optional[Iterable[int]] = None,
    multi_res_ids: Optional[Iterable[int]] = None,
) -> EnergyMap:
    """The columnar backend: the whole log → energy pipeline on column
    arrays.

    ``source`` may be packed log bytes (decoded in one
    ``np.frombuffer`` shot), :class:`~repro.core.logger.LogColumns`, a
    prebuilt :class:`~repro.core.timeline.ColumnarTimeline` (whose own
    ``end_time_ns``/device sets then apply), or an iterable of decoded
    entries (the compat path).

    The expensive per-entry and per-interval work is vectorized —
    decode, interval/segment reconstruction as columns, the
    ``searchsorted`` cover, and the duration × draw energy products —
    while the final fold into the :class:`EnergyMap` walks the
    precomputed columns in exactly the order the streaming accumulator
    charges them: interval order, then state-vector column order, then
    activity-name first-occurrence order.  Same operations on the same
    operands in the same order ⇒ the map is bit-identical to the
    streaming backend's (float bits *and* dict insertion order) — the
    contract the golden tests cross-check on every experiment.  Entries
    out of log order raise :class:`~repro.errors.RegressionError`.
    """
    if isinstance(source, ColumnarTimeline):
        timeline = source
    else:
        if isinstance(source, (bytes, bytearray, memoryview)):
            columns = decode_columns(bytes(source))
        elif isinstance(source, LogColumns):
            columns = source
        else:
            columns = LogColumns.from_entries(source)
        timeline = ColumnarTimeline(
            columns, end_time_ns=end_time_ns,
            single_res_ids=single_res_ids, multi_res_ids=multi_res_ids,
        )
    emap = EnergyMap()
    n_intervals = len(timeline.interval_t0)
    if not n_intervals:
        raise RegressionError("no power intervals to account")
    if regression is None:
        raise RegressionError(
            "accounting needs a regression once power intervals exist"
        )
    column_power: dict[tuple[int, int], tuple[str, float]] = {}
    for column in regression.columns:
        column_power[(column.res_id, column.value)] = (
            column.name, regression.power_w[column.name])
    # Per-vector charge plans, exactly as the accumulator resolves them:
    # the sorted (res_id, value) pairs that carry a power column, with
    # the display component name.
    vectors = timeline.vectors
    plan_raw: list[list[tuple[int, str, float]]] = []
    for vector in vectors:
        resolved = []
        for res_id, value in vector:
            entry = column_power.get((res_id, value))
            if entry is None:
                continue  # baseline state of the sink: no marginal draw
            column_name, power_w = entry
            resolved.append((
                res_id,
                component_names.get(res_id, column_name),
                power_w,
            ))
        plan_raw.append(resolved)
    interval_vec = timeline.interval_vec
    dt_ns = timeline.interval_t1 - timeline.interval_t0
    # Vectorized energy products: duration and draw as elementwise
    # multiplies — the identical IEEE-754 operations the streaming path
    # performs one interval at a time.
    dt_s = dt_ns * 1e-9
    const_arr = regression.const_power_w * dt_s
    label_name: dict[int, str] = {}

    def _name_of_value(value: int) -> str:
        name = label_name.get(value)
        if name is None:
            name = label_name[value] = registry.name_of(
                ActivityLabel.decode(value))
        return name

    name_of = registry.name_of
    # Boundaries only emit at strictly increasing times, so on entries
    # in log order every interval is strictly positive — the guarantee
    # the fold's share arithmetic rests on.
    if bool((np.diff(timeline.columns.time_ns) < 0).any()):
        raise RegressionError(
            "log entries are not in log order: time runs backwards")
    _fold_stream(emap, timeline, plan_raw, dt_ns, dt_s, const_arr,
                 label_name, _name_of_value, fold_proxies, idle_name,
                 name_of)
    # Time breakdown (Table 3a), in the accumulator's finish order:
    # sorted devices, then per-name totals in first-closed order — the
    # same per-device name→ns accumulation the streaming trackers keep,
    # computed here from the segment columns (int sums, exact).
    # Single devices, fused: one grouping sort over every device's
    # segments (device-major), int span sums (exact, order-free), and
    # a replay in global first-occurrence order — which is exactly
    # device order then per-device name first-occurrence order, the
    # accumulator's finish order.
    dev_comp: list[str] = []
    dev_vals: list[int] = []
    dev_spans: list[np.ndarray] = []
    dev_rows: list[np.ndarray] = []
    for res_id in timeline.single_device_ids():
        single = timeline.single_columns(res_id)
        if single is None or not len(single):
            continue
        d = len(dev_comp)
        dev_comp.append(component_names.get(res_id, f"res{res_id}"))
        if fold_proxies:
            dev_vals.extend(
                b if b is not None else label
                for label, b in zip(single.labels, single.bound))
        else:
            dev_vals.extend(single.labels)
        dev_spans.append(single.t1 - single.t0)
        dev_rows.append(np.full(len(single.labels), d, dtype=np.int64))
    if dev_comp:
        vals_arr = np.asarray(dev_vals, dtype=np.int64)
        spans_arr = np.concatenate(dev_spans)
        rows_arr = np.concatenate(dev_rows)
        uvals, uinv = np.unique(vals_arr, return_inverse=True)
        unames = [_name_of_value(value) for value in uvals.tolist()]
        group_key = rows_arr * len(uvals) + uinv
        order = np.argsort(group_key, kind="stable")
        sorted_key = group_key[order]
        first = np.empty(len(sorted_key), dtype=bool)
        first[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
        group_starts = np.nonzero(first)[0]
        group_first = order[group_starts]
        group_total = np.add.reduceat(spans_arr[order], group_starts)
        group_dev = rows_arr[group_first].tolist()
        group_val = uinv[group_first].tolist()
        totals = group_total.tolist()
        time_ns = emap.time_ns
        for g in np.argsort(group_first, kind="stable").tolist():
            key = (dev_comp[group_dev[g]], unames[group_val[g]])
            time_ns[key] = time_ns.get(key, 0) + totals[g]
    for res_id in timeline.multi_device_ids():
        multi = timeline.multi_columns(res_id)
        if multi is None or not len(multi):
            continue
        component = component_names.get(res_id, f"res{res_id}")
        sets = timeline.label_sets
        spans = (multi.t1 - multi.t0).tolist()
        per_name = {}
        for set_id, span in zip(multi.set_ids, spans):
            labels = sets[set_id]
            if not labels:
                per_name[idle_name] = per_name.get(idle_name, 0) + span
                continue
            split = span // len(labels)
            for label in labels:
                name = name_of(label)
                per_name[name] = per_name.get(name, 0) + split
        for name, total_ns in per_name.items():
            emap.add_time(component, name, total_ns)
    emap.span_ns = int(timeline.interval_t1[n_intervals - 1]) \
        - int(timeline.interval_t0[0])
    emap.metered_energy_j = (
        int(timeline.interval_pulses.sum()) * energy_per_pulse_j
    )
    return emap


def stream_energy_map(
    entries: Iterable,
    regression: RegressionResult,
    registry: ActivityRegistry,
    component_names: dict[int, str],
    energy_per_pulse_j: float,
    *,
    fold_proxies: bool = False,
    idle_name: str = "Idle",
    end_time_ns: Optional[int] = None,
    single_res_ids: Optional[Iterable[int]] = None,
    multi_res_ids: Optional[Iterable[int]] = None,
    backend: Optional[str] = None,
) -> EnergyMap:
    """One-pass log → timeline → accounting: feed decoded entries (any
    iterable, e.g. :func:`repro.core.logger.iter_entries`) straight into
    an :class:`EnergyAccumulator` and return the finished map.

    ``backend`` selects the analysis implementation (default:
    columnar); ``"columnar"`` routes the same inputs through
    :func:`columnar_energy_map`, bit-identical by contract.
    """
    if resolve_analysis_backend(backend) == "columnar":
        return columnar_energy_map(
            entries, regression, registry, component_names,
            energy_per_pulse_j,
            fold_proxies=fold_proxies, idle_name=idle_name,
            end_time_ns=end_time_ns,
            single_res_ids=single_res_ids, multi_res_ids=multi_res_ids,
        )
    accumulator = EnergyAccumulator(
        regression, registry, component_names, energy_per_pulse_j,
        fold_proxies=fold_proxies, idle_name=idle_name,
        single_res_ids=single_res_ids, multi_res_ids=multi_res_ids,
        end_time_ns=end_time_ns,
    )
    return accumulator.feed_all(entries)


def build_energy_map(
    timeline: ColumnarTimeline,
    regression: RegressionResult,
    registry: ActivityRegistry,
    component_names: dict[int, str],
    energy_per_pulse_j: float,
    fold_proxies: bool = False,
    idle_name: str = "Idle",
    backend: Optional[str] = None,
) -> EnergyMap:
    """Merge power intervals, regression, and activity segments for a
    whole reconstructed timeline, on the selected engine (default:
    columnar).  The streaming engine re-feeds the timeline's entries
    with its device sets, so both engines price exactly the same log.

    ``component_names`` maps res_id to the display name of each device.
    Devices present in the power layout but absent from the activity log
    are charged to ``(untracked)``.
    """
    if resolve_analysis_backend(backend) == "columnar":
        return columnar_energy_map(
            timeline, regression, registry, component_names,
            energy_per_pulse_j,
            fold_proxies=fold_proxies, idle_name=idle_name,
        )
    return stream_energy_map(
        timeline.entries(),
        regression,
        registry,
        component_names,
        energy_per_pulse_j,
        fold_proxies=fold_proxies,
        idle_name=idle_name,
        end_time_ns=timeline.end_time_ns,
        single_res_ids=timeline.single_device_ids(),
        multi_res_ids=timeline.multi_device_ids(),
        backend="streaming",
    )
