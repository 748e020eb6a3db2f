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

The reference accounting is :class:`EnergyAccumulator`, a streaming
consumer: it owns a :class:`~repro.core.timeline.TimelineStream`, folds
every power interval into the :class:`EnergyMap` the moment the interval
closes, and consumes activity segments as the intervals sweep past
them — so the whole log → timeline → accounting pipeline runs in one
pass, entry by entry, with state bounded by the number of *open* spans,
not the log length.  Every other engine is held to it bit for bit.

One policy is inherently retrospective: with ``fold_proxies=True`` a
proxy segment's attribution can change arbitrarily late (a bind reaches
back over every unresolved segment of its label), so the fold path
records compact per-interval cover ops and resolves activity names only
at :meth:`EnergyAccumulator.finish` — replayed in interval order, which
keeps the result byte-identical to the batch computation.  The
``fold_proxies=False`` path needs no deferral and runs fully bounded.

:func:`columnar_energy_map` is the engine analysis runs: the same
accounting on the column arrays of a
:class:`~repro.core.timeline.ColumnarTimeline`, bit-identical to the
accumulator by contract.  :func:`build_energy_map` prices a whole
timeline on either engine.  :class:`WindowedAccumulator` is the live
engine (``repro serve``): the columnar kernels again, fed one chunk of
a stream at a time and sliced into windows.

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
    _MultiColumns,
    _SingleColumns,
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
#: implementation remains the reference.
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


class WindowedAccumulator:
    """Online accounting: a node's log priced chunk by chunk on the
    columnar engine, sliced into tumbling windows as the rows arrive.

    :meth:`feed` takes the stream's next chunk of decoded rows (a
    :class:`~repro.core.logger.LogColumns`, e.g. one
    :meth:`~repro.core.logger.WireDecoder.feed`).  The chunk is rebuilt
    by :class:`~repro.core.timeline.ColumnarTimeline` behind the rows
    that reopen what the previous chunk left open, and the power
    intervals it closes are priced by the offline engine's kernel
    (:func:`_fold_contributions`), covered by the closed segments that
    overlap them plus each device's open span (its final extent reaches
    past every interval closed so far).  Between chunks only this is
    carried: the open interval and every device's open span (as rows),
    the closed segments that still overlap an unpriced interval, the
    deferred tail, and the cumulative per-key sums — O(devices),
    independent of how much has streamed through.

    Time is divided into ``stride_ns``-wide strides anchored at
    ``origin_ns`` (default: the first power interval's start).  The
    accounting quantum is the power interval — an interval is charged to
    the stride containing its start, so strides partition the intervals
    without splitting any.  A window closes when the first interval of
    a later stride closes: a :class:`WindowSnapshot` is appended to
    :attr:`windows` (a deque bounded by ``retain``) and passed to
    ``on_window`` if given; a long interval can leave empty strides
    behind it, which still emit (zero-delta) snapshots so the sequence
    is gap-free.  A snapshot's cumulative energy is the ordered
    contribution stream's per-key ``np.cumsum`` at the closing interval
    — the very running sums the per-entry streaming accumulator holds at
    that moment — and its busy time counts the segments closed by rows
    before that interval's closing row.  :meth:`finish` closes the last,
    partial window; its snapshot absorbs the deferred tail and carries
    the finished map's exact state, bit-identical to
    :func:`build_energy_map`.

    Intervals that end past ``end_time_ns`` are priced at
    :meth:`finish`, once the segments they overlap have closed at the
    window end (see :class:`EnergyAccumulator` for why), so the windows
    they close do not include them.  Devices not declared up front are
    inferred as their first records arrive, and charged
    ``(untracked)`` for the intervals closed before that.

    Windowing charges eagerly, so proxy folding (inherently
    retrospective — a bind can reattribute arbitrarily old segments) is
    not supported: labels are the painted ones.  Sliding windows are
    views, not extra state: :meth:`sliding` merges the last
    ``width/stride`` retained snapshots.
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
        self.regression = regression
        self.registry = registry
        self.component_names = component_names
        self.energy_per_pulse_j = energy_per_pulse_j
        self.idle_name = idle_name
        self.end_time_ns = end_time_ns
        self.stride_ns = int(stride_ns)
        self.on_window = on_window
        self.map = EnergyMap()
        #: Closed windows, oldest first, bounded by ``retain`` (None
        #: retains everything — batch-replay use only).
        self.windows: deque[WindowSnapshot] = deque(maxlen=retain)
        #: Total windows closed (unlike ``len(windows)``, unaffected by
        #: the retention bound).
        self.windows_emitted = 0
        self._single_ids = sorted(single_res_ids or ())
        self._multi_ids = sorted(multi_res_ids or ())
        # Devices with a power column: the only ones whose segments are
        # kept for covers.
        self._charged_ids = frozenset(
            column.res_id
            for column in (regression.columns if regression else ()))
        self._plans: dict[tuple, list] = {}
        self._label_names: dict[int, str] = {}
        # The reconstruction's open state, as the rows that reopen it.
        self._open_rows: Optional[LogColumns] = None
        self._open_spans = 0
        self._rows_seen = 0
        # Inferred devices: the stream row at which each first appeared.
        self._tracked_from: dict[int, int] = {}
        # Closed segments of charged devices that may still cover an
        # unpriced interval: res_id -> (t0, t1, labels) arrays, and
        # res_id -> [(t0, t1, label set)] for multi devices.
        self._retained: dict[int, tuple] = {}
        self._retained_multi: dict[int, list] = {}
        # Intervals past the window end, priced at finish:
        # (t0, t1, closing row, state vector).
        self._tail: list[tuple[int, int, int, tuple]] = []
        self._tail_mode = False
        # Busy time of closed segments: device key (res_id, +256 for a
        # multi device) -> name -> ns, names in first-closed order.
        self._time: dict[int, dict[str, int]] = {}
        self._intervals_seen = 0
        self._pulses_total = 0
        self._span_t0_ns = 0
        self._last_interval_t1_ns = 0
        self._window_origin = origin_ns
        self._window_index: Optional[int] = None
        self._prev_energy: dict[tuple[str, str], float] = {}
        self._prev_time: dict[tuple[str, str], int] = {}
        self._prev_intervals = 0
        self._finished = False

    # -- feeding ------------------------------------------------------------

    def feed(self, columns: LogColumns) -> None:
        """Account the stream's next rows (in log order)."""
        if self._finished:
            raise WindowingError("cannot feed a finished accumulator")
        if not len(columns):
            return
        prefix = self._open_rows
        rows = (columns if prefix is None
                else LogColumns.concat((prefix, columns)))
        timeline = ColumnarTimeline(
            rows, single_res_ids=self._single_ids,
            multi_res_ids=self._multi_ids, close=False)
        self._account(timeline, len(rows) - len(columns), final=False)
        self._open_rows = timeline.open_rows()
        self._open_spans = (
            (timeline.open_interval_t0_ns is not None)
            + len(timeline.open_single_segments())
            + len(timeline.open_multi_segments()))
        self._rows_seen += len(columns)

    def finish(self) -> EnergyMap:
        """Close every open span at the window end, price what is left,
        and return the completed map.  Idempotent: a second call returns
        the same map without re-charging."""
        if self._finished:
            return self.map
        rows = self._open_rows
        if rows is None:
            rows = decode_columns(b"")
        timeline = ColumnarTimeline(
            rows, end_time_ns=self.end_time_ns,
            single_res_ids=self._single_ids, multi_res_ids=self._multi_ids)
        if not self._intervals_seen and not len(timeline.interval_t0):
            raise RegressionError("no power intervals to account")
        self._account(timeline, len(rows), final=True)
        self._finished = True
        self._open_rows = None
        self._open_spans = 0
        self._retained.clear()
        self._retained_multi.clear()
        self._tail.clear()
        self.map.time_ns = self._time_dict()
        self.map.span_ns = self._last_interval_t1_ns - self._span_t0_ns
        self.map.metered_energy_j = (
            self._pulses_total * self.energy_per_pulse_j)
        if self._window_index is not None:
            self._close_final()
        return self.map

    def carried_items(self) -> int:
        """Open spans, retained segments and deferred tail intervals:
        the reconstruction state carried between chunks."""
        return (self._open_spans
                + sum(len(t0) for t0, _t1, _labels in self._retained.values())
                + sum(len(spans) for spans in self._retained_multi.values())
                + len(self._tail))

    # -- one chunk ------------------------------------------------------------

    def _plan(self, vector: tuple) -> list:
        plan = self._plans.get(vector)
        if plan is None:
            plan = self._plans[vector] = _resolve_plans(
                (vector,), self.regression, self.component_names)[0]
        return plan

    def _account(self, timeline: ColumnarTimeline, prefix: int,
                 final: bool) -> None:
        """Price the intervals ``timeline`` closed, emit the windows
        they close, and fold the chunk into the carried state."""
        t0 = timeline.interval_t0
        t1 = timeline.interval_t1
        count = len(t0)
        base = self._rows_seen - prefix  # stream row of timeline row 0
        for rid, row in timeline.inferred_from.items():
            self._tracked_from.setdefault(rid, base + row)
        if count and self.regression is None:
            raise RegressionError(
                "accounting needs a regression once power intervals exist"
            )
        rows = timeline.interval_rows + base
        # Which intervals are priced now: all of them at finish (behind
        # the deferred tail); otherwise those before the first one past
        # the window end, from which on every interval defers.
        priced = count
        if not final and self._tail_mode:
            priced = 0
        elif not final and self.end_time_ns is not None:
            late = np.flatnonzero(t1 > self.end_time_ns)
            if len(late):
                priced = int(late[0])
                self._tail_mode = True
        vectors = list(timeline.vectors)
        vec_ids = timeline.interval_vec
        if not final:
            for j in range(priced, count):
                self._tail.append((int(t0[j]), int(t1[j]), int(rows[j]),
                                   vectors[vec_ids[j]]))
            tail = []
        else:
            tail = self._tail
        if tail:
            known = {vector: index for index, vector in enumerate(vectors)}
            for *_times, vector in tail:
                if vector not in known:
                    known[vector] = len(vectors)
                    vectors.append(vector)
            tail_vec = [known[vector] for *_times, vector in tail]
            p_t0 = np.concatenate(([s[0] for s in tail], t0))
            p_t1 = np.concatenate(([s[1] for s in tail], t1))
            p_rows = np.concatenate(([s[2] for s in tail], rows))
            p_vec = np.concatenate((np.array(tail_vec, dtype=np.intp),
                                    vec_ids))
        else:
            p_t0, p_t1 = t0[:priced], t1[:priced]
            p_rows, p_vec = rows[:priced], vec_ids[:priced]
        closed_single, closed_multi = self._closed_segments(timeline)
        stream = None
        if len(p_t0):
            singles, multis, sets = self._cover_sources(
                timeline, closed_single, closed_multi, int(p_t1.max()),
                final)
            stream = _fold_contributions(
                p_t0, p_t1, p_vec, [self._plan(v) for v in vectors],
                self.regression.const_power_w, singles, multis, sets,
                _label_namer(self.registry, self._label_names),
                fold_proxies=False, idle_name=self.idle_name,
                name_of=self.registry.name_of,
                interval_rows=p_rows, tracked_from=self._tracked_from)
        # Windows closed by this call's intervals: (window index, the
        # closing interval's position in the call).
        closes: list[tuple[int, int]] = []
        if count:
            if self._window_index is None:
                self._span_t0_ns = int(t0[0])
                if self._window_origin is None:
                    self._window_origin = int(t0[0])
                self._window_index = \
                    (int(t0[0]) - self._window_origin) // self.stride_ns
            index = (t0 - self._window_origin) // self.stride_ns
            previous = np.concatenate(([self._window_index], index[:-1]))
            for j in np.flatnonzero(index > previous).tolist():
                closes.extend(
                    (k, j) for k in range(int(previous[j]), int(index[j])))
        # A window closed by interval j includes the contributions of
        # the priced intervals before j — none in a finish call, which
        # prices only the deferred tail and the trailing interval.
        closing = [j for _k, j in closes]
        if final or stream is None:
            cut_at = [0] * len(closes)
        else:
            cut_at = np.searchsorted(stream.interval, closing).tolist()
        keys, energy_at, present_at, recon_at = self._replay(stream, cut_at)
        time_at = self._advance_time(
            _busy_time(timeline, self.idle_name,
                       _label_namer(self.registry, self._label_names),
                       self.registry.name_of),
            timeline.interval_rows[closing])
        if closes:
            pulses = np.cumsum(timeline.interval_pulses).tolist()
            t1_list = t1.tolist()
            for w, (k, j) in enumerate(closes):
                self._emit(
                    k, self._intervals_seen + j,
                    dict(zip(keys[:present_at[w]], energy_at[w])),
                    time_at[w], recon_at[w],
                    self._pulses_total + (pulses[j - 1] if j else 0),
                    t1_list[j - 1] if j else self._last_interval_t1_ns,
                    final=False)
        # Fold the whole call into the carried state.
        energy = self.map.energy_j
        for key, value in zip(keys, energy_at[-1]):
            energy[key] = value
        self.map.reconstructed_energy_j = recon_at[-1]
        if count:
            self._intervals_seen += count
            self._pulses_total += int(timeline.interval_pulses.sum())
            self._last_interval_t1_ns = int(t1[-1])
        if not final:
            # Keep the closed segments that overlap an interval not
            # priced yet: the deferred tail, or the open one.
            keep_from = (self._tail[0][0] if self._tail
                         else timeline.open_interval_t0_ns)
            if keep_from is None:
                keep_from = -1
            for rid, (seg_t0, seg_t1, labels) in closed_single.items():
                live = seg_t1 > keep_from
                self._retained[rid] = (seg_t0[live], seg_t1[live],
                                       labels[live])
            for rid, spans in closed_multi.items():
                self._retained_multi[rid] = [
                    span for span in spans if span[1] > keep_from]

    def _closed_segments(self, timeline: ColumnarTimeline):
        """Per charged device, its retained closed segments followed by
        the ones ``timeline`` closed: ``(t0, t1, labels)`` arrays for a
        single-activity device, ``[(t0, t1, label set)]`` for a multi
        one."""
        singles: dict[int, tuple] = {}
        for rid in timeline.single_device_ids():
            if rid not in self._charged_ids:
                continue
            cols = timeline.single_columns(rid)
            parts = (cols.t0, cols.t1,
                     np.asarray(cols.labels, dtype=np.int64))
            kept = self._retained.get(rid)
            if kept is not None:
                parts = tuple(np.concatenate(pair)
                              for pair in zip(kept, parts))
            singles[rid] = parts
        multis: dict[int, list] = {}
        sets = timeline.label_sets
        for rid in timeline.multi_device_ids():
            if rid not in self._charged_ids:
                continue
            cols = timeline.multi_columns(rid)
            spans = list(self._retained_multi.get(rid, ()))
            spans.extend(zip(cols.t0.tolist(), cols.t1.tolist(),
                             (sets[s] for s in cols.set_ids)))
            multis[rid] = spans
        return singles, multis

    def _cover_sources(self, timeline: ColumnarTimeline, closed_single,
                       closed_multi, horizon: int, final: bool):
        """The kernel's segment inputs: per charged device, every segment
        that may cover an interval priced now — the closed ones and
        (mid-stream) the open span, provisionally extended to
        ``horizon``: its final extent reaches at least that far."""
        singles: dict[int, _SingleColumns] = {}
        open_single = {} if final else timeline.open_single_segments()
        for rid, (t0, t1, labels) in closed_single.items():
            opened = open_single.get(rid)
            if opened is not None and opened[0] < horizon:
                t0 = np.append(t0, opened[0])
                t1 = np.append(t1, horizon)
                labels = np.append(labels, opened[1])
            singles[rid] = _SingleColumns(t0=t0, t1=t1, labels=labels,
                                          bound=None, rows=None)
        sets: list[frozenset] = []
        multis: dict[int, _MultiColumns] = {}
        open_multi = {} if final else timeline.open_multi_segments()
        for rid, spans in closed_multi.items():
            if rid in singles:
                continue  # charged as the single device it first was
            opened = open_multi.get(rid)
            if opened is not None and opened[0] < horizon:
                spans = spans + [(opened[0], horizon, opened[1])]
            multis[rid] = _MultiColumns(
                t0=np.array([span[0] for span in spans], dtype=np.int64),
                t1=np.array([span[1] for span in spans], dtype=np.int64),
                set_ids=list(range(len(sets), len(sets) + len(spans))),
                rows=None)
            sets.extend(span[2] for span in spans)
        return singles, multis, sets

    def _replay(self, stream, cuts: list[int]):
        """Replay the priced contributions onto the carried sums.

        Returns the key order (carried keys, then new ones in
        first-occurrence order), each key's running sum at every cut
        and at the end (one list per cut, plus the final one last), how
        many keys exist at each cut (new keys appear in order, so the
        keys present are always a prefix), and the reconstructed total
        at each cut and at the end.  Each key's sums are one
        ``np.cumsum`` over its contributions in stream order behind its
        carried value (``0.0`` for a new key) — the left-to-right adds
        the streaming accumulator performs.
        """
        energy = self.map.energy_j
        keys = list(energy)
        carried = len(keys)
        total = self.map.reconstructed_energy_j
        if stream is None or not len(stream.code):
            values = list(energy.values())
            return (keys, [values] * (len(cuts) + 1),
                    [carried] * len(cuts), [total] * (len(cuts) + 1))
        code = stream.code
        contributions = stream.value
        n = len(code)
        order = np.argsort(code, kind="stable")
        sorted_code = code[order]
        first = np.concatenate(([True], sorted_code[1:] != sorted_code[:-1]))
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        group_keys = [stream.key(c) for c in sorted_code[starts].tolist()]
        firsts = order[starts].tolist()
        new = sorted((first_at, g) for g, (key, first_at) in
                     enumerate(zip(group_keys, firsts)) if key not in energy)
        keys.extend(group_keys[g] for _first, g in new)
        row_of = {key: r for r, key in enumerate(keys)}
        points = np.array(cuts + [n], dtype=np.int64)
        # One row per key: its carried value, then its contributions in
        # stream order; the row-wise cumsum is each key's running sum.
        rank = np.arange(n) - starts[group]
        padded = np.zeros((len(starts), int(rank.max()) + 2))
        padded[:, 0] = [energy.get(key, 0.0) for key in group_keys]
        padded[group, rank + 1] = contributions[order]
        running = np.cumsum(padded, axis=1)
        # How many of each key's contributions precede each point.
        sorted_at = group * (n + 1) + order
        before = np.searchsorted(
            sorted_at, (np.arange(len(starts)) * (n + 1))[:, None]
            + points[None, :]) - starts[:, None]
        sums = np.empty((len(keys), len(points)))
        sums[:carried] = np.array(list(energy.values()))[:, None]
        sums[[row_of[key] for key in group_keys]] = np.take_along_axis(
            running, before, axis=1)
        new_firsts = [first_at for first_at, _g in new]
        present = [carried + count for count in np.searchsorted(
            new_firsts, cuts).tolist()] if cuts else []
        recon = np.cumsum(np.concatenate(([total], contributions)))
        return (keys, sums.T.tolist(), present, recon[points].tolist())

    # -- windows ------------------------------------------------------------

    def _advance_time(self, closed: "_ClosedTime", cut_rows) -> list[dict]:
        """Carry the chunk's closed segments into the busy-time sums and
        return the cumulative breakdown each cut row saw: the sums
        carried in, plus the chunk's segments closed by earlier rows —
        each folded in the finish order (devices sorted, single before
        multi, names in first-closed order)."""
        groups, totals, present = closed.cut(cut_rows)
        group_of = {(dev, name): g for g, (dev, name) in enumerate(groups)}
        slot_keys = []
        slot_base = []
        slot_group = []
        slot_carried = []
        for dev in sorted(set(self._time) | {dev for dev, _ in groups}):
            res_id = dev & 0xFF
            component = self.component_names.get(res_id, f"res{res_id}")
            carried = self._time.get(dev, {})
            names = list(carried)
            names.extend(name for group_dev, name in groups
                         if group_dev == dev and name not in carried)
            for name in names:
                slot_keys.append((component, name))
                slot_base.append(carried.get(name, 0))
                slot_group.append(group_of.get((dev, name), -1))
                slot_carried.append(name in carried)
        n_points = totals.shape[1]
        base = np.array(slot_base, dtype=np.int64)[:, None]
        group = np.array(slot_group, dtype=np.intp)
        values = np.broadcast_to(base, (len(base), n_points)).copy()
        shown = np.broadcast_to(np.array(slot_carried, dtype=bool)[:, None],
                                (len(base), n_points)).copy()
        tracked = group >= 0
        values[tracked] += totals[group[tracked]]
        shown[tracked] |= present[group[tracked]]
        unique = len(set(slot_keys)) == len(slot_keys)
        dicts = []
        for column, mask in zip(values.T[:-1].tolist(),
                                shown.T[:-1].tolist()):
            if unique:
                dicts.append({key: ns for key, ns, on in
                              zip(slot_keys, column, mask) if on})
                continue
            merged: dict[tuple[str, str], int] = {}
            for key, ns, on in zip(slot_keys, column, mask):
                if on:
                    merged[key] = merged.get(key, 0) + ns
            dicts.append(merged)
        # Carry the chunk's closed segments forward.
        for (dev, name), total, on in zip(groups, totals[:, -1].tolist(),
                                          present[:, -1].tolist()):
            if on:
                per_name = self._time.setdefault(dev, {})
                per_name[name] = per_name.get(name, 0) + total
        return dicts

    def _time_dict(self) -> dict[tuple[str, str], int]:
        """The cumulative busy-time breakdown of every segment closed
        so far, in the finish order."""
        cumulative: dict[tuple[str, str], int] = {}
        for dev in sorted(self._time):
            res_id = dev & 0xFF
            component = self.component_names.get(res_id, f"res{res_id}")
            for name, ns in self._time[dev].items():
                key = (component, name)
                cumulative[key] = cumulative.get(key, 0) + ns
        return cumulative

    def _emit(self, index: int, intervals_before: int,
              cumulative_energy: dict, cumulative_time: dict,
              reconstructed: float, pulses: int, last_t1_ns: int,
              final: bool) -> None:
        previous = self._prev_energy
        delta_energy = {key: delta for key, delta in (
            (key, value - previous.get(key, 0.0))
            for key, value in cumulative_energy.items()) if delta != 0.0}
        previous_t = self._prev_time
        delta_time = {key: delta for key, delta in (
            (key, value - previous_t.get(key, 0))
            for key, value in cumulative_time.items()) if delta}
        t0_ns = self._window_origin + index * self.stride_ns
        snapshot = WindowSnapshot(
            index=index,
            t0_ns=t0_ns,
            t1_ns=last_t1_ns if final else t0_ns + self.stride_ns,
            intervals=intervals_before - self._prev_intervals,
            energy_j=delta_energy,
            time_ns=delta_time,
            cumulative_energy_j=cumulative_energy,
            cumulative_time_ns=cumulative_time,
            reconstructed_energy_j=reconstructed,
            metered_energy_j=pulses * self.energy_per_pulse_j,
            span_ns=last_t1_ns - self._span_t0_ns,
            final=final,
        )
        self._prev_energy = cumulative_energy
        self._prev_time = cumulative_time
        self._prev_intervals = intervals_before
        self._window_index = index + 1
        self.windows.append(snapshot)
        self.windows_emitted += 1
        if self.on_window is not None:
            self.on_window(snapshot)

    def _close_final(self) -> None:
        self._emit(self._window_index, self._intervals_seen,
                   dict(self.map.energy_j), dict(self.map.time_ns),
                   self.map.reconstructed_energy_j, self._pulses_total,
                   self._last_interval_t1_ns, final=True)

    # -- durability ---------------------------------------------------------

    def snapshot(self) -> bytes:
        """The accumulator's complete mid-stream state as one opaque
        blob (pickle).  Everything the fold contract depends on rides
        along — the open rows, retained segments, deferred tail,
        cumulative per-key float sums, window origin/index, the retained
        snapshot deque — so :meth:`restore` of this blob, fed the
        remaining rows, produces windows and a final map
        **bit-identical** to an uninterrupted accumulator (the
        crash-safety contract the ingest server's checkpoints lean on).

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
            "time_ns": self._time_dict(),
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


def _busy_time(timeline: ColumnarTimeline, idle_name: str, name_of_value,
               name_of, fold_proxies: bool = False) -> "_ClosedTime":
    """The busy time of every segment ``timeline`` closed (Table 3a):
    per device and activity name, as the streaming trackers accumulate
    it — a single-activity segment's span to its label (the bind target
    when folding proxies), a multi-activity segment's span split equally
    among its labels (idle when it has none)."""
    names: list[str] = []
    name_ids: dict[str, int] = {}

    def intern(name: str) -> int:
        nid = name_ids.get(name)
        if nid is None:
            nid = name_ids[name] = len(names)
            names.append(name)
        return nid

    rids, t0, t1, labels, rows = timeline.single_segments()
    if fold_proxies:
        devices = [timeline.single_columns(rid)
                   for rid in timeline.single_device_ids()]
        labels = np.array([
            label if bound is None else bound
            for cols in devices
            for label, bound in zip(cols.labels, cols.bound)],
            dtype=np.int64)
    uvals, uinv = np.unique(labels, return_inverse=True)
    lut = np.array([intern(name_of_value(value)) for value in uvals.tolist()],
                   dtype=np.int64)
    devs = [rids]
    nids = [lut[uinv]]
    amounts = [t1 - t0]
    closing = [rows]
    for rid in timeline.multi_device_ids():
        cols = timeline.multi_columns(rid)
        m_nids, m_amounts, m_rows = [], [], []
        for seg_t0, seg_t1, set_id, row in zip(
                cols.t0.tolist(), cols.t1.tolist(), cols.set_ids,
                cols.rows.tolist()):
            labels = timeline.label_sets[set_id]
            dt = seg_t1 - seg_t0
            shares = ([(idle_name, dt)] if not labels else
                      [(name_of(label), dt // len(labels))
                       for label in labels])
            for name, ns in shares:
                m_nids.append(intern(name))
                m_amounts.append(ns)
                m_rows.append(row)
        if m_nids:
            devs.append(np.full(len(m_nids), 256 + rid, dtype=np.int64))
            nids.append(np.array(m_nids, dtype=np.int64))
            amounts.append(np.array(m_amounts, dtype=np.int64))
            closing.append(np.array(m_rows, dtype=np.int64))
    return _ClosedTime(np.concatenate(devs), np.concatenate(nids),
                       np.concatenate(amounts), np.concatenate(closing),
                       names)


class _ClosedTime:
    """One chunk's closed-segment busy time as flat rows — device key,
    name id, ns, closing row — grouped per (device, name), the groups in
    fold order (device, then first closed), cut at any row."""

    def __init__(self, dev, nid, amount, rows, names) -> None:
        key = dev * (len(names) + 1) + nid
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = sorted_key[1:] != sorted_key[:-1]
        starts = np.flatnonzero(first)
        firsts = order[starts]
        rank = np.lexsort((firsts, dev[firsts]))
        self.groups = [(group_dev, names[group_nid])
                       for group_dev, group_nid in zip(
                           dev[firsts][rank].tolist(),
                           nid[firsts][rank].tolist())]
        # Rows sorted by (group, closing row): one bisection per (group,
        # cut) counts the group's segments closed before the cut, and
        # integer running sums (exact) give their total.
        self._span = int(rows.max()) + 2 if len(rows) else 1
        self._sorted = (np.cumsum(first) - 1) * self._span + rows[order]
        self._starts = starts[rank]
        self._bases = rank * self._span
        self._running = np.concatenate(([0], np.cumsum(amount[order])))

    def cut(self, cut_rows):
        """``(groups, totals, present)``: per group (rows) and cut row
        (columns, then one more for all rows), the busy time of the
        segments closed before the cut, and whether there are any."""
        last = self._span - 1
        points = np.minimum(np.append(np.asarray(cut_rows, dtype=np.int64),
                                      last), last)
        ends = np.searchsorted(self._sorted,
                               self._bases[:, None] + points[None, :])
        starts = self._starts[:, None]
        totals = self._running[ends] - self._running[starts]
        return self.groups, totals, ends > starts


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


class _Contributions:
    """The ordered contribution stream of :func:`_fold_contributions`:
    row ``k`` adds ``value[k]`` joules to key ``code[k]`` on behalf of
    (caller-relative) interval ``interval[k]``, rows in exactly the order
    the streaming accumulator performs its scalar adds."""

    __slots__ = ("interval", "code", "value", "comps", "names")

    def __init__(self, interval, code, value, comps, names) -> None:
        self.interval = interval
        self.code = code
        self.value = value
        self.comps = comps
        self.names = names

    @property
    def span(self) -> int:
        """Codes are ``component_id * span + name_id``."""
        return len(self.names) + 1

    def key(self, code: int) -> tuple[str, str]:
        """The ``(component, activity)`` key of one code."""
        cid, nid = divmod(code, self.span)
        return _CONST_PAIR if cid == 0 else (self.comps[cid], self.names[nid])


def _fold_contributions(interval_t0, interval_t1, interval_vec, plan_raw,
                        const_power_w, singles, multis, label_sets,
                        name_of_value, fold_proxies, idle_name, name_of,
                        interval_rows=None, tracked_from=None):
    """The ordered fold, vectorized and fused: every charged device's
    per-interval work is flattened into ONE cover query and ONE
    grouping sort (charges separated by a per-charge time offset larger
    than any timestamp), producing a single
    ``(interval, plan-position, within-charge-rank)``-ordered
    contribution stream — the reference's scalar adds, in reference
    order, ready for an ordered replay.

    Inputs are explicit so one kernel serves the whole-log fold and the
    chunked one: the intervals to charge (their state-vector ids index
    ``plan_raw``), and per device the segments that may cover them —
    ``singles``/``multis`` map ``res_id`` to
    :class:`~repro.core.timeline.ColumnarTimeline` segment columns
    (``multis`` set ids index ``label_sets``).  A charged device in
    neither map is untracked.  ``tracked_from`` (``res_id`` → row, with
    each interval's closing row in ``interval_rows``) charges a device
    untracked for the intervals closed before it first appeared — the
    streaming accumulator's view of a device it infers mid-log.

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
    * the replay (:func:`_fold_totals`, or the windowed accumulator's
      per-key ``np.cumsum``) accumulates each key's contributions
      strictly left to right in stream order.
    """
    n_vec = len(plan_raw)
    n_intervals = len(interval_t0)
    # Vectorized energy products: duration and draw as elementwise
    # multiplies — the identical IEEE-754 operations the streaming path
    # performs one interval at a time.
    dt_ns = interval_t1 - interval_t0
    dt_s = dt_ns * 1e-9
    const_arr = const_power_w * dt_s
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
        single = singles.get(rid)
        if single is not None:
            kind_arr[c] = KIND_SINGLE
            charge_cols[c] = single
            continue
        multi = multis.get(rid)
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
    if tracked_from:
        for rid, first_row in tracked_from.items():
            c = charge_index.get(rid)
            if c is not None:
                kind_f[(c_idx == c)
                       & (interval_rows[i_idx] < first_row)] = KIND_UNTRACKED
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
        span_ns = int(interval_t1.max()) + 1
        for c in range(n_charges):
            if kind_arr[c] == KIND_SINGLE and len(charge_cols[c]):
                span_ns = max(span_ns, int(charge_cols[c].t1[-1]) + 1)
        seg_t0_parts = []
        seg_t1_parts = []
        seg_val_parts = []
        for c in range(n_charges):
            if kind_arr[c] != KIND_SINGLE:
                continue
            single = charge_cols[c]
            shift = c * span_ns
            seg_t0_parts.append(single.t0 + shift)
            seg_t1_parts.append(single.t1 + shift)
            if fold_proxies:
                seg_val_parts.append([
                    b if b is not None else label
                    for label, b in zip(single.labels, single.bound)])
            else:
                seg_val_parts.append(single.labels)
        seg_t0_all = np.concatenate(seg_t0_parts)
        seg_t1_all = np.concatenate(seg_t1_parts)
        # A handful of distinct labels name hundreds of segments:
        # resolve the uniques, then translate by table lookup.
        uvals, uinv = np.unique(
            np.concatenate([np.asarray(part, dtype=np.int64)
                            for part in seg_val_parts]),
            return_inverse=True)
        nid_lut = np.fromiter(
            (nid_of_value(value) for value in uvals.tolist()),
            dtype=np.int64, count=len(uvals))
        seg_name_ids = nid_lut[uinv]
        shift_f = c_idx[single_rows] * span_ns
        offsets, seg_rows, overlaps = _ragged_cover(
            interval_t0[i_idx[single_rows]] + shift_f,
            interval_t1[i_idx[single_rows]] + shift_f,
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
        for c in range(n_charges):
            if kind_arr[c] != KIND_MULTI:
                continue
            rows = np.nonzero((c_idx == c) & (kind_f == KIND_MULTI))[0]
            if not len(rows):
                continue
            multi = charge_cols[c]
            offsets, seg_rows, overlaps = _ragged_cover(
                interval_t0[i_idx[rows]],
                interval_t1[i_idx[rows]],
                multi.t0, multi.t1)
            seg_sets = [label_sets[s] for s in multi.set_ids]
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
    # -- assemble in reference order ---------------------------------------
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
    return _Contributions(i_all[order], code,
                          np.concatenate(stream_v)[order], comps, names)


def _fold_totals(emap: EnergyMap, stream: _Contributions) -> None:
    """Replay a contribution stream into a fresh map: per-key totals in
    first-occurrence key order, and the running reconstructed total.

    Codes live in a small dense range (components x names), so the
    per-key totals come straight from one weighted bincount over the
    codes themselves — ``np.bincount`` accumulates each bin's weights
    sequentially in array order starting from ``0.0``, exactly the
    ``dict.get(key, 0.0) + x`` fold of the streaming accumulator — and
    first-occurrence order from a reversed fancy assignment (last write
    wins == first occurrence), no sort needed."""
    code = stream.code
    values = stream.value
    n_rows = len(code)
    n_codes = len(stream.comps) * stream.span
    first_row = np.full(n_codes, -1, dtype=np.int64)
    first_row[code[::-1]] = np.arange(n_rows - 1, -1, -1, dtype=np.int64)
    totals = np.bincount(code, weights=values, minlength=n_codes)
    present = np.nonzero(first_row >= 0)[0]
    energy_j = emap.energy_j
    for c in present[np.argsort(first_row[present],
                                kind="stable")].tolist():
        energy_j[stream.key(c)] = float(totals[c])
    emap.reconstructed_energy_j = float(np.bincount(
        np.zeros(n_rows, dtype=np.intp), weights=values,
        minlength=1)[0])


def _resolve_plans(vectors, regression, component_names):
    """Per-vector charge plans, exactly as the streaming accumulator
    resolves them: the sorted ``(res_id, component, power_w)`` triples
    of the ``(res_id, value)`` pairs that carry a power column, with
    the display component name."""
    column_power: dict[tuple[int, int], tuple[str, float]] = {}
    for column in regression.columns:
        column_power[(column.res_id, column.value)] = (
            column.name, regression.power_w[column.name])
    plans: list[list[tuple[int, str, float]]] = []
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
        plans.append(resolved)
    return plans


def _label_namer(registry: ActivityRegistry, cache: dict[int, str]):
    """``value -> activity name`` for 16-bit label encodings, memoized
    in ``cache``."""
    def name_of_value(value: int) -> str:
        name = cache.get(value)
        if name is None:
            name = cache[value] = registry.name_of(
                ActivityLabel.decode(value))
        return name
    return name_of_value


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
    plan_raw = _resolve_plans(timeline.vectors, regression, component_names)
    _name_of_value = _label_namer(registry, {})
    name_of = registry.name_of
    # Boundaries only emit at strictly increasing times, so on entries
    # in log order every interval is strictly positive — the guarantee
    # the fold's share arithmetic rests on.
    if bool((np.diff(timeline.columns.time_ns) < 0).any()):
        raise RegressionError(
            "log entries are not in log order: time runs backwards")
    singles = {rid: timeline.single_columns(rid)
               for rid in timeline.single_device_ids()}
    multis = {rid: timeline.multi_columns(rid)
              for rid in timeline.multi_device_ids()}
    _fold_totals(emap, _fold_contributions(
        timeline.interval_t0, timeline.interval_t1, timeline.interval_vec,
        plan_raw, regression.const_power_w, singles, multis,
        timeline.label_sets, _name_of_value, fold_proxies, idle_name,
        name_of))
    # Time breakdown (Table 3a), in the accumulator's finish order:
    # sorted devices, single before multi, then per-name totals in
    # first-closed order (int sums, exact).
    groups, totals, _present = _busy_time(
        timeline, idle_name, _name_of_value, name_of, fold_proxies).cut([])
    time_ns = emap.time_ns
    for (dev, name), total in zip(groups, totals[:, 0].tolist()):
        res_id = dev & 0xFF
        key = (component_names.get(res_id, f"res{res_id}"), name)
        time_ns[key] = time_ns.get(key, 0) + total
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
