"""Windowed (online) energy accounting.

The contract that makes live windows trustworthy: the window sequence
*folds* back to the batch :func:`build_energy_map` result bit-for-bit —
same float bits, same dict insertion order — on every workload, under
both analysis backends, for any stride.  Each snapshot carries the
accumulator's exact cumulative sums (the same IEEE-754 add sequence the
batch path performs), so :func:`fold_windows` is reconstruction, not
re-summation.  Also pinned: bounded memory via the retention deque,
gap-free window indices, the sliding view, and misuse errors.  The
chunk-split equivalence with the per-entry reference lives in
``test_windowed_chunks.py``.
"""

import pytest

from repro.core.accounting import (
    ANALYSIS_BACKENDS as BACKENDS,
    WindowedAccumulator,
    build_energy_map,
    fold_windows,
)
from repro.core.logger import LogColumns, WireDecoder, decode_columns
from repro.errors import WindowingError
from repro.experiments.common import run_blink
from repro.tos.node import COMPONENT_NAMES, RES_TIMERB
from repro.units import ms, seconds


def rows_slice(rows, lo, hi):
    return LogColumns(*(getattr(rows, name)[lo:hi] for name in (
        "type", "res_id", "time_ns", "icount", "value")))


def windowed_for(node, timeline, regression, stride_ns, **kwargs):
    return WindowedAccumulator(
        regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        stride_ns=stride_ns,
        idle_name=node.registry.name_of(node.idle),
        single_res_ids=[d.res_id for d in node._single_devices()],
        multi_res_ids=[RES_TIMERB],
        end_time_ns=timeline.end_time_ns,
        **kwargs,
    )


def feed_log(accumulator, raw, chunk_bytes=None):
    """Stream a packed log through a wire decoder into ``accumulator``
    (whole, or in ``chunk_bytes`` pieces), then finish it."""
    decoder = WireDecoder()
    step = chunk_bytes or max(len(raw), 1)
    for start in range(0, len(raw), step):
        accumulator.feed(decoder.feed(raw[start:start + step]))
    return accumulator.finish()


def assert_folds_to_batch(node, stride_ns, backend):
    timeline = node.timeline()
    regression = node.regression(timeline)
    batch = build_energy_map(
        timeline, regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        fold_proxies=False,
        idle_name=node.registry.name_of(node.idle),
        backend=backend,
    )
    accumulator = windowed_for(node, timeline, regression, stride_ns,
                               retain=None)
    feed_log(accumulator, node.logger.raw_bytes(), chunk_bytes=1021)
    folded = fold_windows(list(accumulator.windows))
    assert list(folded.energy_j) == list(batch.energy_j)  # insertion order
    assert folded.energy_j == batch.energy_j  # float bits
    assert list(folded.time_ns) == list(batch.time_ns)
    assert folded.time_ns == batch.time_ns
    assert folded.metered_energy_j == batch.metered_energy_j
    assert folded.reconstructed_energy_j == batch.reconstructed_energy_j
    assert folded.span_ns == batch.span_ns
    return accumulator


# -- the fold contract -------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("stride_s", [0.25, 1, 3, 100])
def test_blink_windows_fold_to_batch(backend, stride_s):
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    accumulator = assert_folds_to_batch(node, int(seconds(stride_s)),
                                        backend)
    if stride_s == 100:  # one giant window: everything is in the final
        assert accumulator.windows_emitted == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_network_windows_fold_to_batch(backend):
    from repro.apps.bounce import BounceApp
    from repro.tos.network import Network
    from repro.tos.node import NodeConfig

    network = Network(seed=1)
    network.add_node(NodeConfig(node_id=1, mac="csma"))
    network.add_node(NodeConfig(node_id=4, mac="csma"))
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
    network.boot_all({1: app1.start, 4: app4.start})
    network.run(seconds(3))
    for node_id in (1, 4):
        assert_folds_to_batch(network.node(node_id), int(ms(400)), backend)


def test_windows_are_gap_free_and_deltas_cover_the_run():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression,
                               int(seconds(1)), retain=None)
    feed_log(accumulator, node.logger.raw_bytes())
    snapshots = list(accumulator.windows)
    assert [s.index for s in snapshots] == list(range(len(snapshots)))
    assert snapshots[-1].final and not any(s.final for s in snapshots[:-1])
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert earlier.t1_ns == later.t0_ns or later.final
    # Interval counts partition the run.
    assert sum(s.intervals for s in snapshots) == \
        accumulator._intervals_seen
    # Delta energies are display-quality: they sum to ~the total.
    total = sum(value for s in snapshots for value in s.energy_j.values())
    assert total == pytest.approx(
        accumulator.map.reconstructed_energy_j, rel=1e-9)


def test_retention_bounds_snapshot_memory():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression, int(ms(100)),
                               retain=4)
    feed_log(accumulator, node.logger.raw_bytes(), chunk_bytes=100)
    assert len(accumulator.windows) == 4  # deque bound
    assert accumulator.windows_emitted > 4  # ...but all were emitted
    # The last retained window still carries the exact final state.
    folded = fold_windows(list(accumulator.windows))
    assert folded.energy_j == accumulator.map.energy_j


def test_on_window_callback_sees_every_close():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    seen = []
    accumulator = windowed_for(node, timeline, regression,
                               int(seconds(1)), on_window=seen.append)
    feed_log(accumulator, node.logger.raw_bytes(), chunk_bytes=37)
    assert len(seen) == accumulator.windows_emitted
    assert seen[-1].final


def test_live_breakdown_tracks_the_stream():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression, int(seconds(1)))
    rows = decode_columns(node.logger.raw_bytes())
    half = len(rows) // 2
    accumulator.feed(rows_slice(rows, 0, half))
    mid = accumulator.live_breakdown()
    assert 0 < mid["reconstructed_energy_j"]
    accumulator.feed(rows_slice(rows, half, len(rows)))
    accumulator.finish()
    done = accumulator.live_breakdown()
    assert done["reconstructed_energy_j"] \
        >= mid["reconstructed_energy_j"]
    assert done["energy_j"] == accumulator.map.energy_j


def test_sliding_view_merges_recent_strides():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression,
                               int(seconds(1)), retain=None)
    feed_log(accumulator, node.logger.raw_bytes())
    view = accumulator.sliding(int(seconds(3)))
    assert view["windows"] == 3
    recent = list(accumulator.windows)[-3:]
    assert view["t0_ns"] == recent[0].t0_ns
    assert view["intervals"] == sum(s.intervals for s in recent)
    merged = {}
    for snapshot in recent:
        for key, value in snapshot.energy_j.items():
            merged[key] = merged.get(key, 0.0) + value
    assert view["energy_j"] == merged


# -- misuse ------------------------------------------------------------------


def test_bad_stride_rejected():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(2))
    timeline = node.timeline()
    regression = node.regression(timeline)
    with pytest.raises(WindowingError, match="stride"):
        windowed_for(node, timeline, regression, 0)


def test_fold_of_nothing_rejected():
    with pytest.raises(WindowingError, match="empty"):
        fold_windows([])


def test_sliding_misuse_rejected():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression,
                               int(seconds(1)), retain=2)
    feed_log(accumulator, node.logger.raw_bytes())
    with pytest.raises(WindowingError, match="multiple"):
        accumulator.sliding(int(seconds(1)) + 1)
    with pytest.raises(WindowingError, match="retention"):
        accumulator.sliding(int(seconds(5)))


def test_feed_after_finish_rejected():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(2))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression, int(seconds(1)))
    rows = decode_columns(node.logger.raw_bytes())
    accumulator.feed(rows)
    done = accumulator.finish()
    assert accumulator.finish() is done  # idempotent
    with pytest.raises(WindowingError, match="finished"):
        accumulator.feed(rows)
