"""Bind resolution in :class:`ColumnarTimeline` against the per-row
oracle.

The columnar timeline resolves proxy binds with array arithmetic (one
``searchsorted`` per query set, pointer doubling along bind chains).
:func:`scalar_single_binds` is the per-row reference: it replays
:class:`repro.core.timeline._SingleTracker` on one device's change/bind
rows, and every device's segment columns must match it exactly.
"""

import time

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.logger import (
    LogColumns,
    TYPE_ACT_BIND,
    TYPE_ACT_CHANGE,
    TYPE_POWERSTATE,
)
from repro.core.timeline import ColumnarTimeline


def scalar_single_binds(columns, pos, end_time_ns):
    """One device's change/bind rows ``pos`` → ``(t0, t1, labels, bound,
    rows)`` lists: a bind pops every unresolved segment of the label it
    replaces, binds it to its own label and refiles it there
    (transitive chains), zero-length spans are dropped and the trailing
    span closes at ``end_time_ns`` (closing row: the row count)."""
    n = len(columns)
    times = columns.time_ns[pos].tolist()
    labels = columns.value[pos].tolist()
    binds = (columns.type[pos] == TYPE_ACT_BIND).tolist()
    closing = pos.tolist()
    t0s, t1s, seg_labels, bound, seg_rows = [], [], [], [], []
    unresolved = {}
    open_label = None
    open_t0 = 0
    for k in range(len(times)):
        t = times[k]
        new_label = labels[k]
        previous_label = open_label
        if open_label is not None and t > open_t0:
            index = len(seg_labels)
            t0s.append(open_t0)
            t1s.append(t)
            seg_labels.append(open_label)
            bound.append(None)
            seg_rows.append(closing[k])
            unresolved.setdefault(open_label, []).append(index)
        if binds[k] and previous_label is not None:
            pending = unresolved.pop(previous_label, [])
            if pending:
                for index in pending:
                    bound[index] = new_label
                unresolved.setdefault(new_label, []).extend(pending)
        open_label = new_label
        open_t0 = t
    if open_label is not None and end_time_ns > open_t0:
        t0s.append(open_t0)
        t1s.append(end_time_ns)
        seg_labels.append(open_label)
        bound.append(None)
        seg_rows.append(n)
    return t0s, t1s, seg_labels, bound, seg_rows


def _columns(rows):
    """``(type, res_id, time_ns, value)`` rows → :class:`LogColumns`."""
    types, res_ids, times, values = (zip(*rows) if rows else ((),) * 4)
    return LogColumns(
        type=np.array(types, dtype=np.uint8),
        res_id=np.array(res_ids, dtype=np.uint8),
        time_ns=np.array(times, dtype=np.int64),
        icount=np.arange(len(rows), dtype=np.int64),
        value=np.array(values, dtype=np.int64),
    )


def _columnar(timeline, rid):
    cols = timeline.single_columns(rid)
    return (cols.t0.tolist(), cols.t1.tolist(), list(cols.labels),
            list(cols.bound), cols.rows.tolist())


def assert_matches_oracle(rows, single_ids, end_time_ns=None):
    columns = _columns(rows)
    timeline = ColumnarTimeline(columns, end_time_ns=end_time_ns,
                                single_res_ids=single_ids)
    end = timeline.end_time_ns
    is_single = (columns.type == TYPE_ACT_CHANGE) \
        | (columns.type == TYPE_ACT_BIND)
    for rid in timeline.single_device_ids():
        pos = np.flatnonzero(is_single & (columns.res_id == rid))
        assert _columnar(timeline, rid) == \
            scalar_single_binds(columns, pos, end), rid
    # The flat view is the per-device columns, device after device.
    rids, t0, t1, labels, closing = timeline.single_segments()
    per_device = [_columnar(timeline, rid)
                  for rid in timeline.single_device_ids()]
    assert t0.tolist() == [x for dev in per_device for x in dev[0]]
    assert labels.tolist() == [x for dev in per_device for x in dev[2]]
    assert closing.tolist() == [x for dev in per_device for x in dev[4]]
    return timeline


A, B, C, P, S = 0x0101, 0x0102, 0x0103, 0x01C8, 0x0000


def test_chain_resolves_transitively():
    rows = [
        (TYPE_ACT_CHANGE, 0, 0, P),
        (TYPE_ACT_CHANGE, 0, 10, S),
        (TYPE_ACT_CHANGE, 0, 20, P),
        (TYPE_ACT_BIND, 0, 30, A),   # both P spans -> A
        (TYPE_ACT_BIND, 0, 40, B),   # ... and everything on A -> B
        (TYPE_ACT_BIND, 0, 50, C),   # ... and everything on B -> C
    ]
    timeline = assert_matches_oracle(rows, [0], end_time_ns=60)
    t0, t1, labels, bound, closing = _columnar(timeline, 0)
    assert t0 == [0, 10, 20, 30, 40, 50]
    assert labels == [P, S, P, A, B, C]
    assert bound == [C, None, C, C, C, None]
    assert closing == [1, 2, 3, 4, 5, 6]


def test_bind_as_first_row_binds_nothing():
    rows = [
        (TYPE_ACT_BIND, 0, 0, A),
        (TYPE_ACT_CHANGE, 0, 10, P),
        (TYPE_ACT_BIND, 0, 20, B),
    ]
    timeline = assert_matches_oracle(rows, [0], end_time_ns=30)
    assert _columnar(timeline, 0)[3] == [None, B, None]


def test_self_bind_refiles_under_the_same_label():
    rows = [
        (TYPE_ACT_CHANGE, 0, 0, P),
        (TYPE_ACT_BIND, 0, 10, P),   # P -> P
        (TYPE_ACT_BIND, 0, 20, A),   # the refiled span and the new one -> A
    ]
    timeline = assert_matches_oracle(rows, [0], end_time_ns=25)
    assert _columnar(timeline, 0)[3] == [A, A, None]


def test_zero_length_spans_still_bind():
    rows = [
        (TYPE_ACT_CHANGE, 0, 0, P),
        (TYPE_ACT_CHANGE, 0, 5, S),
        (TYPE_ACT_CHANGE, 0, 5, P),   # S never existed
        (TYPE_ACT_BIND, 0, 5, A),     # zero-length P, but binds [0, 5)
    ]
    timeline = assert_matches_oracle(rows, [0], end_time_ns=9)
    t0, _t1, labels, bound, _rows = _columnar(timeline, 0)
    assert (t0, labels, bound) == ([0, 5], [P, A], [A, None])


def test_bind_does_not_cross_devices():
    rows = [
        (TYPE_ACT_CHANGE, 0, 0, P),
        (TYPE_ACT_CHANGE, 1, 1, P),
        (TYPE_ACT_BIND, 1, 2, A),
        (TYPE_ACT_CHANGE, 0, 3, S),
    ]
    timeline = assert_matches_oracle(rows, [0, 1], end_time_ns=4)
    assert _columnar(timeline, 0)[3] == [None, None]
    assert _columnar(timeline, 1)[3] == [A, None]


def test_long_bind_chain_resolves_in_bounded_time():
    """10,000 binds, each replacing the previous bind's label: every
    span resolves to the last label.  Pointer doubling needs ≈14 array
    passes here, where the per-row oracle's refiling is quadratic."""
    links = 10_000
    rows = [(TYPE_ACT_CHANGE, 0, 0, 1)]
    rows += [(TYPE_ACT_BIND, 0, k, k + 1) for k in range(1, links + 1)]
    columns = _columns(rows)
    start = time.perf_counter()
    timeline = ColumnarTimeline(columns, end_time_ns=links + 5,
                                single_res_ids=[0])
    elapsed = time.perf_counter() - start
    bound = timeline.single_columns(0).bound
    assert bound == [links + 1] * links + [None]
    assert elapsed < 2.0


_LABELS = st.sampled_from((A, B, C, P, S))
_ROW = st.tuples(
    st.sampled_from((0, 1, 2)),                  # device (2: no binds)
    st.sampled_from((TYPE_ACT_CHANGE, TYPE_ACT_BIND, TYPE_POWERSTATE)),
    st.sampled_from((0, 0, 1, 7)),               # time step (0: same time)
    _LABELS,
)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_ROW, max_size=60),
       tail=st.sampled_from((None, 0, 3)))
def test_columnar_binds_match_the_oracle(steps, tail):
    rows = []
    now = 0
    for device, kind, step, label in steps:
        now += step
        if kind == TYPE_POWERSTATE:
            rows.append((kind, 9, now, label & 0x3))
        else:
            if device == 2:
                kind = TYPE_ACT_CHANGE
            rows.append((kind, device, now, label))
    end = None if tail is None else now + tail
    # Device 3 is declared but never logs.
    assert_matches_oracle(rows, [0, 1, 2, 3], end_time_ns=end)
