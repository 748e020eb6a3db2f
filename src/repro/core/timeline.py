"""Offline reconstruction of power-state intervals and activity segments.

The decoded log is a single interleaved stream of power-state changes and
activity changes across all devices.  This module rebuilds:

* **Power intervals** — maximal spans during which *every* sink's power
  state is constant, each annotated with the iCount pulse delta (the
  ``(dE, dt, alpha-vector)`` tuples that feed the Section 2.5 regression);
* **Activity segments** — per-device spans painted with one activity
  (single-activity devices) or a set (multi-activity devices), with proxy
  ``bind`` events resolved so a proxy segment knows which real activity
  absorbed it.

Two reconstructions share one set of semantics:

* :class:`TimelineStream` — the streaming visitor.  Feed it decoded
  entries in log order and it emits each :class:`PowerInterval`,
  :class:`ActivitySegment`, and :class:`MultiActivitySegment` through a
  callback *the moment it closes*.  Its working state is the set of
  currently-open spans (one per device plus one power interval), so a
  log of any length can be folded into an energy map without the entry
  list, interval list, or segment lists ever being materialized.
* :class:`ColumnarTimeline` — the whole-log view offline analysis
  uses: intervals and segments rebuilt as column arrays straight from
  :class:`~repro.core.logger.LogColumns`, with the trackers' semantics
  (the equivalence tests pin the two entry-for-entry).  With
  ``close=False`` it rebuilds one chunk of a stream instead, handing
  what it leaves open to the next chunk as rows — the live windowed
  accounting's reconstruction.

One semantic caveat is inherent to the paper's bind model: a proxy
segment's ``bound_to`` may be assigned *after* the segment closed (a
bind reaches back over every unresolved segment of the label it binds).
The stream therefore emits segments whose ``bound_to`` can still mutate
until the stream finishes; consumers that fold proxies must defer label
resolution (see :class:`repro.core.accounting.EnergyAccumulator`), and
consumers that do not (``fold_proxies=False``) can run with
``track_binds=False`` for strictly bounded memory.

Everything here consumes only the log plus instrumentation metadata (which
res_ids exist, what their state values are named) — never ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.core.labels import ActivityLabel
from repro.core.logger import (
    LogColumns,
    LogEntry,
    TYPE_ACT_ADD,
    TYPE_ACT_BIND,
    TYPE_ACT_CHANGE,
    TYPE_ACT_REMOVE,
    TYPE_BOOT,
    TYPE_POWERSTATE,
)
from repro.errors import RegressionError


@dataclass(slots=True)
class PowerInterval:
    """A span of constant power states across all sinks.

    Not frozen (cheap construction on the per-interval hot path); treat
    as immutable once emitted.
    """

    t0_ns: int
    t1_ns: int
    pulses: int  # iCount pulses accumulated over the interval
    states: tuple[tuple[int, int], ...]  # sorted (res_id, value) pairs

    @property
    def dt_ns(self) -> int:
        return self.t1_ns - self.t0_ns

    def energy_j(self, energy_per_pulse_j: float) -> float:
        return self.pulses * energy_per_pulse_j

    def state_of(self, res_id: int) -> Optional[int]:
        for rid, value in self.states:
            if rid == res_id:
                return value
        return None


@dataclass(slots=True)
class ActivitySegment:
    """A span during which one device was painted with one activity."""

    res_id: int
    t0_ns: int
    t1_ns: int
    label: ActivityLabel
    bound_to: Optional[ActivityLabel] = None

    @property
    def dt_ns(self) -> int:
        return self.t1_ns - self.t0_ns

    @property
    def effective_label(self) -> ActivityLabel:
        """The activity this segment's usage is charged to (the bind
        target when a proxy was resolved, else the painted label)."""
        return self.bound_to if self.bound_to is not None else self.label


@dataclass(slots=True)
class MultiActivitySegment:
    """A span during which a multi-activity device served a label set."""

    res_id: int
    t0_ns: int
    t1_ns: int
    labels: frozenset[ActivityLabel]

    @property
    def dt_ns(self) -> int:
        return self.t1_ns - self.t0_ns


# -- streaming trackers ----------------------------------------------------
#
# Each tracker owns one kind of open span and pushes closed spans to an
# ``emit`` callback.  They are the single source of truth for the
# reconstruction semantics; TimelineStream is wiring around them and
# ColumnarTimeline reproduces them on column arrays.


class _IntervalTracker:
    """Folds BOOT/POWERSTATE entries into closed :class:`PowerInterval`s.

    State: the current power-state vector (interned), the open span's
    start time and pulse count, and the last entry seen — O(sinks),
    independent of log length.
    """

    __slots__ = ("emit", "bump", "_states", "_interned", "_vector",
                 "_dirty", "_span_start_ns", "_span_start_pulses",
                 "_last_time_ns", "_last_icount", "_saw_any",
                 "last_emitted_t1_ns")

    def __init__(self, emit: Callable[[PowerInterval], None],
                 bump: Optional[Callable[[int], None]] = None) -> None:
        self.emit = emit
        self.bump = bump
        self._states: dict[int, int] = {}
        self._interned: dict[tuple[tuple[int, int], ...],
                             tuple[tuple[int, int], ...]] = {}
        self._vector: tuple[tuple[int, int], ...] = ()
        self._dirty = False
        self._span_start_ns: Optional[int] = None
        self._span_start_pulses = 0
        self._last_time_ns = 0
        self._last_icount = 0
        self._saw_any = False
        self.last_emitted_t1_ns: Optional[int] = None

    def _current_vector(self) -> tuple[tuple[int, int], ...]:
        # The state vector is rebuilt only when a transition actually
        # changed it, and equal vectors are interned to one tuple — the
        # regression groups intervals by vector, so identical objects make
        # that grouping (and this loop) allocation-light.
        if self._dirty:
            built = tuple(sorted(self._states.items()))
            self._vector = self._interned.setdefault(built, built)
            self._dirty = False
        return self._vector

    def _set_state(self, res_id: int, value: int) -> None:
        if self._states.get(res_id) != value:
            self._states[res_id] = value
            self._dirty = True

    def note_record(self, time_ns: int, icount: int) -> None:
        """Advance the "last record" watermark without an interval
        boundary — for entries of other types: the trailing interval
        ends at the last *record*, whatever it was (energy past it is
        unobservable)."""
        self._saw_any = True
        self._last_time_ns = time_ns
        self._last_icount = icount

    def feed(self, entry: LogEntry) -> None:
        # Every entry type updates the "last record" watermark (see
        # note_record).
        self._saw_any = True
        self._last_time_ns = entry.time_ns
        self._last_icount = entry.icount
        entry_type = entry.type
        if entry_type == TYPE_BOOT:
            # Boot entries establish the initial vector without opening
            # an interval boundary.
            self._set_state(entry.res_id, entry.value)
            if self._span_start_ns is None:
                self._span_start_ns = entry.time_ns
                self._span_start_pulses = entry.icount
                if self.bump is not None:
                    self.bump(1)
            return
        if entry_type != TYPE_POWERSTATE:
            return
        if self._span_start_ns is None:
            self._span_start_ns = entry.time_ns
            self._span_start_pulses = entry.icount
            self._set_state(entry.res_id, entry.value)
            if self.bump is not None:
                self.bump(1)
            return
        time_ns = entry.time_ns
        if time_ns > self._span_start_ns:
            interval = PowerInterval(
                t0_ns=self._span_start_ns,
                t1_ns=time_ns,
                pulses=entry.icount - self._span_start_pulses,
                states=self._current_vector(),
            )
            self._span_start_ns = time_ns
            self._span_start_pulses = entry.icount
            self.last_emitted_t1_ns = time_ns
            self.emit(interval)
        self._set_state(entry.res_id, entry.value)

    def finish(self) -> None:
        """Close the trailing span at the last record.  Time past the
        last record is unobservable, exactly as when a real node dumps
        its log.  Idempotent: the span is consumed, so a second finish
        emits nothing."""
        if self._span_start_ns is None or not self._saw_any:
            return
        if self._last_time_ns > self._span_start_ns:
            interval = PowerInterval(
                t0_ns=self._span_start_ns,
                t1_ns=self._last_time_ns,
                pulses=max(self._last_icount - self._span_start_pulses, 0),
                states=self._current_vector(),
            )
            self.last_emitted_t1_ns = self._last_time_ns
            self.emit(interval)
        self._span_start_ns = None

    def open_count(self) -> int:
        return 1 if self._span_start_ns is not None else 0


class _SingleTracker:
    """Rebuilds one single-activity device's painted history.

    Bind semantics follow the paper: "the resources used by a proxy
    activity are accounted for separately, and then assigned to the
    real activity as soon as the system can determine what this
    activity is."  Concretely, a bind of label ``N`` while the device
    carries label ``L`` resolves *every not-yet-resolved segment of
    L* (one reception episode spans many proxy fragments interleaved
    with sleep), and resolution chains transitively — a UART proxy
    bound to the RX proxy bound to a remote activity ends up charged
    to the remote activity.

    ``track_binds=False`` drops the unresolved-segment bookkeeping
    entirely: closed segments are emitted and forgotten, so memory is
    bounded by the one open segment.  ``bound_to`` is then never set —
    only valid for consumers that read ``label``, not
    ``effective_label`` (i.e. ``fold_proxies=False`` accounting).
    """

    __slots__ = ("res_id", "emit", "bump", "track_binds",
                 "_unresolved", "_open")

    def __init__(
        self,
        res_id: int,
        emit: Callable[[ActivitySegment], None],
        track_binds: bool = True,
        bump: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.res_id = res_id
        self.emit = emit
        self.bump = bump
        self.track_binds = track_binds
        # Segments awaiting resolution, keyed by the label they are
        # currently attributed to (their own label, or a proxy they were
        # already bound to).
        self._unresolved: dict[ActivityLabel, list[ActivitySegment]] = {}
        # The currently-open segment (t1_ns finalized at close), or None.
        self._open: Optional[ActivitySegment] = None

    @property
    def open_segment(self) -> Optional[ActivitySegment]:
        return self._open

    def _close(self, t1_ns: int) -> None:
        segment = self._open
        if segment is None:
            return
        self._open = None
        if self.bump is not None:
            self.bump(-1)
        if t1_ns <= segment.t0_ns:
            return  # zero-length: never existed
        segment.t1_ns = t1_ns
        if self.track_binds:
            self._unresolved.setdefault(segment.label, []).append(segment)
            if self.bump is not None:
                self.bump(1)
        self.emit(segment)

    def feed(self, entry: LogEntry) -> None:
        if entry.type not in (TYPE_ACT_CHANGE, TYPE_ACT_BIND):
            return
        new_label = entry.label
        previous = self._open
        self._close(entry.time_ns)
        if (entry.type == TYPE_ACT_BIND and previous is not None
                and self.track_binds):
            pending = self._unresolved.pop(previous.label, [])
            for segment in pending:
                segment.bound_to = new_label
            # Transitivity: these now follow the new label's fate.
            if pending:
                self._unresolved.setdefault(new_label, []).extend(pending)
        self._open = ActivitySegment(
            res_id=self.res_id, t0_ns=entry.time_ns, t1_ns=entry.time_ns,
            label=new_label,
        )
        if self.bump is not None:
            self.bump(1)

    def finish(self, end_time_ns: int) -> None:
        self._close(end_time_ns)

    def open_count(self) -> int:
        count = 1 if self._open is not None else 0
        if self.track_binds:
            count += sum(len(v) for v in self._unresolved.values())
        return count


class _MultiTracker:
    """Rebuilds one multi-activity device's label-set history."""

    __slots__ = ("res_id", "emit", "bump", "_current", "_start_ns",
                 "_started")

    def __init__(self, res_id: int,
                 emit: Callable[[MultiActivitySegment], None],
                 bump: Optional[Callable[[int], None]] = None) -> None:
        self.res_id = res_id
        self.emit = emit
        self.bump = bump
        self._current: set[ActivityLabel] = set()
        self._start_ns = 0
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    @property
    def open_start_ns(self) -> int:
        return self._start_ns

    def current_labels(self) -> frozenset[ActivityLabel]:
        """Snapshot of the open span's label set (it mutates in place)."""
        return frozenset(self._current)

    def feed(self, entry: LogEntry) -> None:
        if entry.type not in (TYPE_ACT_ADD, TYPE_ACT_REMOVE):
            return
        if self._started and entry.time_ns > self._start_ns:
            self.emit(
                MultiActivitySegment(
                    res_id=self.res_id,
                    t0_ns=self._start_ns,
                    t1_ns=entry.time_ns,
                    labels=frozenset(self._current),
                )
            )
        if entry.type == TYPE_ACT_ADD:
            self._current.add(entry.label)
        else:
            self._current.discard(entry.label)
        self._start_ns = entry.time_ns
        if not self._started:
            self._started = True
            if self.bump is not None:
                self.bump(1)

    def finish(self, end_time_ns: int) -> None:
        if self._started and end_time_ns > self._start_ns:
            self.emit(
                MultiActivitySegment(
                    res_id=self.res_id,
                    t0_ns=self._start_ns,
                    t1_ns=end_time_ns,
                    labels=frozenset(self._current),
                )
            )
        if self._started:
            self._started = False
            if self.bump is not None:
                self.bump(-1)

    def open_count(self) -> int:
        return 1 if self._started else 0


def _ignore(_obj) -> None:
    pass


class TimelineStream:
    """The streaming visitor: feed entries in log order, receive each
    interval and segment through a callback the moment it closes.

    Entries must arrive sorted by ``(time_us, seq)`` — the order the
    logger writes them (``iter_entries`` yields them that way; the
    timestamps a node records are monotone).

    Devices may be declared up front (``single_res_ids`` /
    ``multi_res_ids``) or inferred from entry types as they arrive.
    ``peak_open_items`` tracks the high-water mark of open state (open
    interval + open segments + unresolved bind candidates), maintained
    by O(1) deltas at each span open/close so
    the instrumentation costs nothing on the per-entry path: with
    ``track_binds=False`` it is O(devices), independent of log length —
    the bounded-memory contract the tests pin down.
    """

    def __init__(
        self,
        *,
        single_res_ids: Optional[Iterable[int]] = None,
        multi_res_ids: Optional[Iterable[int]] = None,
        track_binds: bool = True,
        on_interval: Optional[Callable[[PowerInterval], None]] = None,
        on_segment: Optional[Callable[[ActivitySegment], None]] = None,
        on_multi_segment: Optional[
            Callable[[MultiActivitySegment], None]] = None,
    ) -> None:
        self.track_binds = track_binds
        self.on_segment = on_segment or _ignore
        self.on_multi_segment = on_multi_segment or _ignore
        self._open_items = 0
        self.peak_open_items = 0
        self.intervals = _IntervalTracker(on_interval or _ignore,
                                          bump=self._bump)
        self._single_ids: set[int] = set(single_res_ids or [])
        self._multi_ids: set[int] = set(multi_res_ids or [])
        self._singles: dict[int, _SingleTracker] = {
            res_id: self._make_single(res_id) for res_id in self._single_ids
        }
        self._multis: dict[int, _MultiTracker] = {
            res_id: _MultiTracker(res_id, self.on_multi_segment,
                                  bump=self._bump)
            for res_id in self._multi_ids
        }
        self._last_entry_time_ns = 0
        self._saw_any = False

    def _bump(self, delta: int) -> None:
        self._open_items += delta
        if self._open_items > self.peak_open_items:
            self.peak_open_items = self._open_items

    def _make_single(self, res_id: int) -> _SingleTracker:
        return _SingleTracker(
            res_id, self.on_segment,
            track_binds=self.track_binds,
            bump=self._bump,
        )

    # -- feeding -----------------------------------------------------------

    def feed(self, entry: LogEntry) -> None:
        self._saw_any = True
        time_ns = entry.time_ns
        self._last_entry_time_ns = time_ns
        entry_type = entry.type
        if entry_type == TYPE_POWERSTATE or entry_type == TYPE_BOOT:
            # Only power entries can open or close an interval; the
            # activity types below just advance the watermark.
            self.intervals.feed(entry)
            return
        self.intervals.note_record(time_ns, entry.icount)
        if entry_type == TYPE_ACT_CHANGE or entry_type == TYPE_ACT_BIND:
            res_id = entry.res_id
            # Device inference as the log unfolds: a change/bind marks a
            # single-activity device unless the id is already multi.
            if res_id not in self._multi_ids:
                tracker = self._singles.get(res_id)
                if tracker is None:
                    tracker = self._singles[res_id] = \
                        self._make_single(res_id)
                    self._single_ids.add(res_id)
                tracker.feed(entry)
        elif entry_type == TYPE_ACT_ADD or entry_type == TYPE_ACT_REMOVE:
            res_id = entry.res_id
            tracker = self._multis.get(res_id)
            if tracker is None:
                tracker = self._multis[res_id] = \
                    _MultiTracker(res_id, self.on_multi_segment,
                                  bump=self._bump)
                self._multi_ids.add(res_id)
            tracker.feed(entry)

    def feed_all(self, entries: Iterable[LogEntry],
                 end_time_ns: Optional[int] = None) -> None:
        """Feed a whole entry iterable, then :meth:`finish`."""
        for entry in entries:
            self.feed(entry)
        self.finish(end_time_ns)

    def finish(self, end_time_ns: Optional[int] = None) -> None:
        """Close every open span.  ``end_time_ns`` defaults to the last
        entry's time."""
        if end_time_ns is None:
            end_time_ns = self._last_entry_time_ns if self._saw_any else 0
        self.intervals.finish()
        for tracker in self._singles.values():
            tracker.finish(end_time_ns)
        for tracker in self._multis.values():
            tracker.finish(end_time_ns)

    # -- introspection ------------------------------------------------------

    def open_items(self) -> int:
        """Open spans plus retained bind candidates — the stream's live
        state, the quantity that must stay flat as the log grows."""
        return (
            self.intervals.open_count()
            + sum(t.open_count() for t in self._singles.values())
            + sum(t.open_count() for t in self._multis.values())
        )

    def multi_tracker(self, res_id: int) -> Optional[_MultiTracker]:
        return self._multis.get(res_id)

    def single_device_ids(self) -> list[int]:
        return sorted(self._single_ids)

    def multi_device_ids(self) -> list[int]:
        return sorted(self._multi_ids)


# -- columnar reconstruction ------------------------------------------------


class _SingleColumns:
    """One single-activity device's segments as parallel columns.

    ``t0``/``t1`` are sorted, non-overlapping int64 arrays (zero-length
    segments were never emitted); ``labels`` holds the painted 16-bit
    encodings and ``bound`` the bind-resolved encoding (or ``None``) per
    segment — the columnar form of :class:`ActivitySegment`.  ``rows``
    is the row that closed each segment (the next change or bind; the
    row count for a span closed at the window end).
    """

    __slots__ = ("t0", "t1", "labels", "bound", "rows")

    def __init__(self, t0, t1, labels, bound, rows) -> None:
        self.t0 = t0
        self.t1 = t1
        self.labels = labels
        self.bound = bound
        self.rows = rows

    def __len__(self) -> int:
        return len(self.labels)


class _MultiColumns:
    """One multi-activity device's segments as parallel columns;
    ``set_ids`` indexes :attr:`ColumnarTimeline.label_sets` and ``rows``
    is each segment's closing row, as in :class:`_SingleColumns`."""

    __slots__ = ("t0", "t1", "set_ids", "rows")

    def __init__(self, t0, t1, set_ids, rows) -> None:
        self.t0 = t0
        self.t1 = t1
        self.set_ids = set_ids
        self.rows = rows

    def __len__(self) -> int:
        return len(self.set_ids)


#: The entry type of the row :meth:`ColumnarTimeline.open_rows` uses to
#: mark the last record: no tracker reads it, but the trailing interval
#: closes at the last row of any type.
_TYPE_LAST_RECORD = 0


def _first_rows(res_ids: np.ndarray, pos: np.ndarray) -> list[tuple[int, int]]:
    """``(res_id, first row)`` of every device among rows ``pos``
    (ascending), in ``res_id`` order: a reversed fancy assignment, so
    the last write — the first row — wins."""
    if not len(pos):
        return []
    first = np.full(256, -1, dtype=np.int64)
    first[res_ids[pos[::-1]]] = pos[::-1]
    rids = np.flatnonzero(first >= 0)
    return list(zip(rids.tolist(), first[rids].tolist()))


def _bind_targets(opens: np.ndarray, rids: np.ndarray, values: np.ndarray,
                  is_bind: np.ndarray) -> Optional[np.ndarray]:
    """Each segment's bind target label (``-1``: unbound), or ``None``
    when no row binds: the :class:`_SingleTracker` semantics on columns.

    Rows are every device's change/bind rows, grouped by device (in
    ``rids``), in log order within a device; segment ``j`` carries the
    label of its opening row ``opens[j]``.  A bind rebinds everything
    filed under the previous row's label (a device's first row binds
    nothing) and refiles it under its own, so a segment is resolved by
    the first bind after its opening row replacing its label, and a
    bind's successor is the first later bind replacing *its* label.
    One ``searchsorted`` over binds keyed by (device, replaced label,
    row) finds both; pointer doubling follows each chain to its end.
    """
    stride = len(rids) + 1
    code = (rids << 16) | values  # (device, label) of every row
    binds = np.flatnonzero(is_bind[1:] & (rids[1:] == rids[:-1])) + 1
    if not len(binds):
        return None
    keys = code[binds - 1] * stride + binds
    order = np.argsort(keys)
    keys, binds = keys[order], binds[order]
    none = len(binds)

    def first_bind(codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Index into ``binds`` of the first bind at or after ``rows``
        replacing (device, label) ``codes``; ``none`` if there is none."""
        at = np.searchsorted(keys, codes * stride + rows)
        hit = at < none
        hit[hit] = keys[at[hit]] // stride == codes[hit]
        return np.where(hit, at, none)

    # last[b]: the last bind on b's chain (a chain's end, and ``none``,
    # point at themselves), by doubling the successor pointers.
    successor = first_bind(code[binds], binds + 1)
    last = np.append(
        np.where(successor < none, successor, np.arange(none)), none)
    while not np.array_equal(last[last], last):
        last = last[last]
    final_label = np.append(values[binds], -1)
    return final_label[last[first_bind(code[opens], opens + 1)]]


class ColumnarTimeline:
    """The whole reconstruction as column arrays: power intervals and
    activity segments rebuilt from :class:`~repro.core.logger.LogColumns`
    without materializing a single :class:`LogEntry`,
    :class:`PowerInterval`, or segment object.

    Semantics mirror the streaming trackers entry-for-entry (the
    backend-equivalence tests pin the outputs bit-for-bit):

    * intervals close at each power-state boundary and finally at the
      last record of *any* type; state vectors are interned tuples in
      sorted-``res_id`` order, exactly like :class:`_IntervalTracker`;
    * single-device segments span consecutive change/bind records, with
      zero-length spans dropped and the trailing span closed at
      ``end_time_ns``; bind events resolve every unresolved segment of
      the label they rebind, transitively, like :class:`_SingleTracker`
      (by array arithmetic over all devices, :func:`_bind_targets`);
    * multi-device spans carry interned ``frozenset`` label sets — the
      *same* interned objects per distinct set, so downstream iteration
      order matches the streaming path's.

    Entries must be in log order.  Devices may be declared up front
    (always the case on node paths); otherwise they are inferred over
    the whole log as :class:`TimelineStream` infers them, and
    :attr:`inferred_from` records the row at which each inferred device
    first appeared (the stream tracks it only from there on).

    ``close=False`` reconstructs one chunk of a longer stream: the
    trailing interval and every device's last span stay open instead of
    closing at the window end, :meth:`open_rows` hands them over as rows
    to prefix to the next chunk, and the chunk's intervals and segments
    are exactly those the whole stream's reconstruction closes at these
    rows.  Binds cannot reach back across chunks, so an open timeline
    resolves none: its segments carry painted labels only (``bound`` is
    ``None``, as on a ``track_binds=False`` stream).
    """

    def __init__(
        self,
        columns: LogColumns,
        end_time_ns: Optional[int] = None,
        single_res_ids: Optional[Iterable[int]] = None,
        multi_res_ids: Optional[Iterable[int]] = None,
        close: bool = True,
    ) -> None:
        self.columns = columns
        self.close = close
        n = len(columns)
        if end_time_ns is None:
            end_time_ns = int(columns.time_ns[-1]) if n else 0
        self.end_time_ns = end_time_ns
        types = columns.type
        res = columns.res_id
        is_single_entry = (types == TYPE_ACT_CHANGE) \
            | (types == TYPE_ACT_BIND)
        is_multi_entry = (types == TYPE_ACT_ADD) | (types == TYPE_ACT_REMOVE)
        self._single_ids = set(single_res_ids or [])
        self._multi_ids = set(multi_res_ids or [])
        declared = self._single_ids | self._multi_ids
        self.inferred_from: dict[int, int] = {}
        # Whole-log device inference, replicating the stream's in-order
        # rule: add/remove marks a device multi; change/bind marks it
        # single only if it was not yet multi at that point — i.e. its
        # first change precedes its first add/remove.
        single_pos = np.nonzero(is_single_entry)[0]
        multi_pos = np.nonzero(is_multi_entry)[0]
        first_multi: dict[int, int] = {rid: -1 for rid in self._multi_ids}
        for rid, pos in _first_rows(res, multi_pos):
            if rid not in first_multi:
                first_multi[rid] = pos
            self._multi_ids.add(rid)
            if rid not in declared:
                self.inferred_from[rid] = pos
        for rid, pos in _first_rows(res, single_pos):
            bound = first_multi.get(rid)
            if bound is None or pos < bound:
                self._single_ids.add(rid)
                if rid not in declared:
                    self.inferred_from[rid] = pos
        self._build_intervals()
        self._open_single: dict[int, tuple[int, int]] = {}
        self._build_singles(single_pos, first_multi)
        self.label_sets: list[frozenset[ActivityLabel]] = []
        self._set_intern: dict[tuple[int, ...], int] = {}
        self._open_multi: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._multis: dict[int, _MultiColumns] = {}
        for rid in sorted(self._multi_ids):
            mask = is_multi_entry & (res == rid)
            self._multis[rid] = self._build_multi(rid, np.nonzero(mask)[0])

    # -- construction -------------------------------------------------------

    def _build_intervals(self) -> None:
        """Power entries → interval columns, fully vectorized.

        Equivalent to replaying :class:`_IntervalTracker` entry by
        entry:

        * the span opens at the first power/boot entry; every *non-boot*
          power entry at a time strictly later than the open span emits
          a boundary (same-time entries merge, boots never emit) —
          computed as a first-of-each-distinct-time mask;
        * pulses are the iCount deltas between consecutive boundaries;
        * the state vector at each boundary is the last value every sink
          set *before* the emitting entry — a per-sink ``searchsorted``
          forward fill — with equal rows interned via ``np.unique``;
        * the trailing span closes at the last record of any type, with
          the post-log state vector and non-negative clamped pulses
          (unless the timeline is open: then it is :meth:`open_rows`'
          business).

        ``interval_rows`` is the row whose arrival closed each interval
        (the row count for the trailing one).
        """
        columns = self.columns
        types = columns.type
        p_pos = np.nonzero(
            (types == TYPE_POWERSTATE) | (types == TYPE_BOOT))[0]
        self.vectors: list[tuple[tuple[int, int], ...]] = []
        self._open_interval: Optional[
            tuple[int, int, tuple[tuple[int, int], ...]]] = None
        n_power = len(p_pos)
        n = len(columns)
        self._last_record = (
            (int(columns.time_ns[n - 1]), int(columns.icount[n - 1]))
            if n else None)
        if not n_power or not n:
            self.interval_t0 = np.empty(0, dtype=np.int64)
            self.interval_t1 = np.empty(0, dtype=np.int64)
            self.interval_pulses = np.empty(0, dtype=np.int64)
            self.interval_vec = np.empty(0, dtype=np.intp)
            self.interval_rows = np.empty(0, dtype=np.int64)
            return
        p_types = types[p_pos]
        p_res = columns.res_id[p_pos]
        p_time = columns.time_ns[p_pos]
        p_ic = columns.icount[p_pos]
        p_val = columns.value[p_pos]
        open_time = int(p_time[0])
        open_ic = int(p_ic[0])
        # Emitting entries: non-boot rows whose time exceeds the running
        # span start.  Times are non-decreasing, so the running start is
        # simply the previous candidate's time (or the open time).
        candidates = np.nonzero(p_types != TYPE_BOOT)[0]
        cand_times = p_time[candidates]
        previous = np.concatenate((
            np.array([open_time], dtype=np.int64), cand_times[:-1]))
        emit = candidates[cand_times > previous]
        boundary_times = p_time[emit]
        boundary_ic = p_ic[emit]
        if len(emit):
            t0s = np.concatenate((
                np.array([open_time], dtype=np.int64), boundary_times[:-1]))
            pulse_base = np.concatenate((
                np.array([open_ic], dtype=np.int64), boundary_ic[:-1]))
            t1s = boundary_times
            pulses = boundary_ic - pulse_base
        else:
            t0s = np.empty(0, dtype=np.int64)
            t1s = np.empty(0, dtype=np.int64)
            pulses = np.empty(0, dtype=np.int64)
        rows = p_pos[emit]
        # Trailing span: closes at the last record of *any* type (time
        # past it is unobservable), clamped to non-negative pulses.
        last_t, last_ic = self._last_record
        tail_start = int(t1s[-1]) if len(t1s) else open_time
        tail_ic = int(boundary_ic[-1]) if len(t1s) else open_ic
        has_tail = self.close and last_t > tail_start
        if has_tail:
            t0s = np.concatenate((t0s, [tail_start]))
            t1s = np.concatenate((t1s, [last_t]))
            pulses = np.concatenate((pulses, [max(last_ic - tail_ic, 0)]))
            rows = np.concatenate((rows, [n]))
        # State vectors: one query per boundary (the state *before* the
        # emitting entry) plus the post-log state (the trailing
        # interval's, or the open span's).  Per sink, the value at query
        # q is the sink's last write before row q — a forward fill by
        # bisection over its write positions.
        queries = np.concatenate((emit, [n_power]))
        # All sinks at once: writes sorted by (sink, position), so one
        # bisection per (query, sink) finds the sink's last write before
        # the query — valid only if it is that sink's write at all.
        by_sink = np.argsort(p_res, kind="stable")
        sorted_res = p_res[by_sink].astype(np.int64)
        sink_first = np.flatnonzero(np.concatenate(
            ([True], sorted_res[1:] != sorted_res[:-1])))
        sink_res = sorted_res[sink_first]
        sink_ids = sink_res.tolist()
        stride = n_power + 1
        last = np.searchsorted(
            sorted_res * stride + by_sink,
            (sink_res * stride)[None, :] + queries[:, None]) - 1
        value_matrix = np.where(last >= sink_first[None, :],
                                p_val[by_sink][last], -1)
        if not self.close:
            self._open_interval = (tail_start, tail_ic, tuple(
                pair for pair in zip(sink_ids, value_matrix[-1].tolist())
                if pair[1] != -1))
        # Intern equal rows, numbered in first-occurrence order (the
        # order the streaming tracker would have produced): byte-view
        # unique + a first-index renumbering, no per-row python.
        matrix = np.ascontiguousarray(value_matrix[:len(t0s)])
        if matrix.shape[1]:
            # Each row as one opaque byte string: equal rows, equal
            # bytes (the order np.unique sorts them in is irrelevant).
            row_view = matrix.view(np.dtype(
                (np.void, matrix.dtype.itemsize * matrix.shape[1]))).ravel()
            _, first_idx, inverse = np.unique(
                row_view, return_index=True, return_inverse=True)
        else:
            first_idx = np.zeros(min(len(matrix), 1), dtype=np.intp)
            inverse = np.zeros(len(matrix), dtype=np.intp)
        rank = np.argsort(first_idx, kind="stable")
        remap = np.empty(len(first_idx), dtype=np.intp)
        remap[rank] = np.arange(len(first_idx), dtype=np.intp)
        vectors = self.vectors
        for row in matrix[first_idx[rank]].tolist():
            if -1 in row:  # a sink not yet set
                vectors.append(tuple(
                    pair for pair in zip(sink_ids, row) if pair[1] != -1))
            else:
                vectors.append(tuple(zip(sink_ids, row)))
        self.interval_t0 = t0s
        self.interval_t1 = t1s
        self.interval_pulses = pulses
        self.interval_vec = remap[inverse]
        self.interval_rows = rows

    def _build_singles(self, single_pos: np.ndarray,
                       first_multi: dict[int, int]) -> None:
        """Change/bind rows → every single-activity device's segment
        columns at once, vectorized over all devices: a device's
        segments are the spans between its consecutive change/bind rows
        (plus the trailing span to the window end, or left open),
        zero-length spans dropped; on a closed timeline
        :func:`_bind_targets` resolves their binds."""
        columns = self.columns
        n = len(columns)
        res = columns.res_id
        # The streaming feed drops a change/bind the moment its res_id
        # is known to be multi, so rows at or past the device's first
        # add/remove (or all rows, when it was declared multi up front:
        # limit -1) never reach the single tracker.
        limit = np.full(256, n, dtype=np.int64)
        for rid, first in first_multi.items():
            limit[rid] = first
        pos = single_pos[single_pos < limit[res[single_pos]]]
        pos = pos[np.argsort(res[pos], kind="stable")]  # by device
        rids = res[pos].astype(np.int64)
        self._singles: dict[int, _SingleColumns] = {}
        times = columns.time_ns[pos]
        values = columns.value[pos]
        last = np.ones(len(pos), dtype=bool)  # each device's last row
        last[:-1] = rids[1:] != rids[:-1]
        t1 = np.empty_like(times)
        t1[:-1] = times[1:]
        closing = np.empty_like(pos)
        closing[:-1] = pos[1:]
        if self.close:
            t1[last] = self.end_time_ns
            closing[last] = n
            keep = t1 > times
        else:
            keep = (t1 > times) & ~last
            self._open_single = dict(zip(
                rids[last].tolist(),
                zip(times[last].tolist(), values[last].tolist())))
        kept = np.flatnonzero(keep)
        targets = (_bind_targets(kept, rids, values,
                                 columns.type[pos] == TYPE_ACT_BIND)
                   if self.close else None)
        kept_rids = rids[kept]
        t0 = times[kept]
        t1 = t1[kept]
        closing = closing[kept]
        values = values[kept]
        # Every device's columns below are views of these flat ones; with
        # binds single_segments() gathers instead, so caches hold less.
        self._single_flat = (None if targets is not None
                             else (kept_rids, t0, t1, values, closing))
        labels = values.tolist()
        # One int object per distinct target: cached timelines hold these.
        shared: dict[int, int] = {}
        bound = ([None] * len(labels) if targets is None
                 else [shared.setdefault(target, target) if target >= 0
                       else None for target in targets.tolist()])
        device_ids = sorted(self._single_ids)
        lo = np.searchsorted(kept_rids, device_ids, side="left").tolist()
        hi = np.searchsorted(kept_rids, device_ids, side="right").tolist()
        for rid, a, b in zip(device_ids, lo, hi):
            self._singles[rid] = _SingleColumns(
                t0=t0[a:b], t1=t1[a:b], labels=labels[a:b],
                bound=bound[a:b], rows=closing[a:b])

    def _intern_set(self, values: set[int]) -> int:
        key = tuple(sorted(values))
        set_id = self._set_intern.get(key)
        if set_id is None:
            set_id = len(self.label_sets)
            self._set_intern[key] = set_id
            self.label_sets.append(
                frozenset(ActivityLabel.decode(v) for v in key))
        return set_id

    def _build_multi(self, rid: int, pos: np.ndarray) -> _MultiColumns:
        """One device's add/remove rows → label-set spans, mirroring
        :class:`_MultiTracker` (snapshot emitted before each change)."""
        columns = self.columns
        times = columns.time_ns[pos].tolist()
        labels = columns.value[pos].tolist()
        adds = (columns.type[pos] == TYPE_ACT_ADD).tolist()
        closing = pos.tolist()
        t0s: list[int] = []
        t1s: list[int] = []
        set_ids: list[int] = []
        seg_rows: list[int] = []
        current: set[int] = set()
        start = 0
        started = False
        for k in range(len(times)):
            t = times[k]
            if started and t > start:
                t0s.append(start)
                t1s.append(t)
                set_ids.append(self._intern_set(current))
                seg_rows.append(closing[k])
            if adds[k]:
                current.add(labels[k])
            else:
                current.discard(labels[k])
            start = t
            started = True
        if started and not self.close:
            self._open_multi[rid] = (start, tuple(sorted(current)))
        elif started and self.end_time_ns > start:
            t0s.append(start)
            t1s.append(self.end_time_ns)
            set_ids.append(self._intern_set(current))
            seg_rows.append(len(columns))
        return _MultiColumns(
            t0=np.array(t0s, dtype=np.int64),
            t1=np.array(t1s, dtype=np.int64),
            set_ids=set_ids,
            rows=np.array(seg_rows, dtype=np.int64),
        )

    # -- chunked reconstruction ----------------------------------------------

    @property
    def open_interval_t0_ns(self) -> Optional[int]:
        """Start of the interval an open timeline left open (None before
        the first power record)."""
        opened = self._open_interval
        return opened[0] if opened is not None else None

    def open_single_segments(self) -> dict[int, tuple[int, int]]:
        """``res_id -> (t0_ns, label)`` of each single-activity device's
        span an open timeline left open."""
        return dict(self._open_single)

    def open_multi_segments(self) -> dict[int, tuple[int, frozenset]]:
        """``res_id -> (t0_ns, labels)`` of each multi-activity device's
        span an open timeline left open."""
        return {
            rid: (start, frozenset(ActivityLabel.decode(v) for v in key))
            for rid, (start, key) in self._open_multi.items()
        }

    def open_rows(self) -> LogColumns:
        """What an open (``close=False``) timeline left open, as the log
        rows that reopen it: prefixed to the next chunk's rows, they
        make that chunk's reconstruction continue exactly where this one
        stopped — the offline reconstruction is the case with no prefix.

        The open interval comes back as boot rows (its start time and
        pulse count, its state vector), each device's open span as the
        change — or the adds, or one no-op remove for an empty label set
        — that opened it, and the last record as a row of no entry type
        (the trailing interval closes there, and so do the spans when no
        window end is given).
        """
        rows: list[tuple[int, int, int, int, int]] = []
        if self._open_interval is not None:
            t0, icount, state = self._open_interval
            rows.extend((TYPE_BOOT, rid, t0, icount, value)
                        for rid, value in state)
        for rid, (t0, label) in sorted(self._open_single.items()):
            rows.append((TYPE_ACT_CHANGE, rid, t0, 0, label))
        for rid, (t0, labels) in sorted(self._open_multi.items()):
            if labels:
                rows.extend((TYPE_ACT_ADD, rid, t0, 0, label)
                            for label in labels)
            else:
                rows.append((TYPE_ACT_REMOVE, rid, t0, 0, 0))
        if self._last_record is not None:
            rows.append((_TYPE_LAST_RECORD, 0, *self._last_record, 0))
        rows.sort(key=lambda row: row[2])  # stable: log order per kind
        types, res_ids, times, icounts, values = (
            zip(*rows) if rows else ((),) * 5)
        return LogColumns(
            type=np.array(types, dtype=np.uint8),
            res_id=np.array(res_ids, dtype=np.uint8),
            time_ns=np.array(times, dtype=np.int64),
            icount=np.array(icounts, dtype=np.int64),
            value=np.array(values, dtype=np.int64),
        )

    # -- views --------------------------------------------------------------

    def single_device_ids(self) -> list[int]:
        return sorted(self._single_ids)

    def multi_device_ids(self) -> list[int]:
        return sorted(self._multi_ids)

    def single_segments(self) -> tuple[np.ndarray, ...]:
        """Every single-activity device's segments as flat columns,
        device after device: ``(res_ids, t0, t1, labels, rows)``."""
        if self._single_flat is not None:
            return self._single_flat
        parts = [(rid, self._singles[rid]) for rid in sorted(self._singles)]
        return (
            np.concatenate([np.full(len(cols), rid, dtype=np.int64)
                            for rid, cols in parts]),
            np.concatenate([cols.t0 for _rid, cols in parts]),
            np.concatenate([cols.t1 for _rid, cols in parts]),
            np.concatenate([np.asarray(cols.labels, dtype=np.int64)
                            for _rid, cols in parts]),
            np.concatenate([cols.rows for _rid, cols in parts]),
        )

    def single_columns(self, res_id: int) -> Optional[_SingleColumns]:
        return self._singles.get(res_id)

    def multi_columns(self, res_id: int) -> Optional[_MultiColumns]:
        return self._multis.get(res_id)

    def power_intervals(self) -> list[PowerInterval]:
        """Materialize the interval columns as objects (tests, tools)."""
        vectors = self.vectors
        return [
            PowerInterval(t0_ns=t0, t1_ns=t1, pulses=p, states=vectors[v])
            for t0, t1, p, v in zip(
                self.interval_t0.tolist(), self.interval_t1.tolist(),
                self.interval_pulses.tolist(), self.interval_vec.tolist())
        ]

    def activity_segments(self, res_id: int) -> list[ActivitySegment]:
        """Materialize one device's segment columns as objects."""
        device = self._singles.get(res_id)
        if device is None:
            return []
        segments = []
        for t0, t1, label, bound in zip(
                device.t0.tolist(), device.t1.tolist(),
                device.labels, device.bound):
            segments.append(ActivitySegment(
                res_id=res_id, t0_ns=t0, t1_ns=t1,
                label=ActivityLabel.decode(label),
                bound_to=(ActivityLabel.decode(bound)
                          if bound is not None else None),
            ))
        return segments

    def entries(self) -> Iterator[LogEntry]:
        """The columns as decoded entries, in log order — the input the
        streaming reference consumes for the same log."""
        return self.columns.entries()

    def grouped_inputs(
        self,
        energy_per_pulse_j: float,
        min_interval_ns: int = 0,
    ) -> tuple[list[tuple[tuple[int, int], ...]], list[int], list[float]]:
        """Group intervals by state vector straight off the columns —
        the regression's ``(E_j, t_j)`` inputs, bit-identical to
        :func:`repro.core.regression.group_intervals` over the usable
        materialized intervals (same first-occurrence group order, same
        int time sums, same float energy fold).

        ``np.bincount(idx, weights=w)`` accumulates each bin's weights
        sequentially in array order starting from ``0.0`` — exactly the
        ``dict.get(key, 0.0) + x`` fold the scalar loop performs, so the
        per-group energy sums here are bit-identical to it (time sums
        are exact int64 arithmetic regardless)."""
        dt = self.interval_t1 - self.interval_t0
        keep = dt >= min_interval_ns
        if not bool(keep.any()):
            raise RegressionError("no usable power intervals")
        vec = self.interval_vec[keep]
        # interval_vec is already a dense code (an index into
        # self.vectors), so grouping needs no sort: a reversed fancy
        # assignment yields each code's first-occurrence row (last
        # write wins), an argsort over the handful of present codes
        # gives first-occurrence order, and a remap renumbers rows.
        n_vecs = len(self.vectors)
        n_rows = len(vec)
        first_row = np.full(n_vecs, -1, dtype=np.int64)
        first_row[vec[::-1]] = np.arange(
            n_rows - 1, -1, -1, dtype=np.int64)
        present = np.nonzero(first_row >= 0)[0]
        ordered = present[np.argsort(first_row[present], kind="stable")]
        remap = np.full(n_vecs, -1, dtype=np.intp)
        remap[ordered] = np.arange(len(ordered), dtype=np.intp)
        groups = remap[vec]
        times = np.bincount(
            groups, weights=dt[keep], minlength=len(ordered))
        energies = np.bincount(
            groups,
            weights=self.interval_pulses[keep] * energy_per_pulse_j,
            minlength=len(ordered))
        vectors = self.vectors
        grouped = [vectors[v] for v in ordered.tolist()]
        return (
            grouped,
            [int(t) for t in times.tolist()],
            energies.tolist(),
        )
