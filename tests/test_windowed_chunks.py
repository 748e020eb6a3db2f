"""Chunked windowed accounting equals the per-entry reference.

:class:`repro.core.accounting.WindowedAccumulator` prices a stream one
chunk of columns at a time.  Its contract, fuzzed here over chunk
splits (one byte at a time, random cuts mid-entry, the whole log in one
piece): every :class:`WindowSnapshot` field and the final map equal
those of :class:`windowed_oracle.EntryWindowedAccumulator` — the
streaming accumulator fed one entry at a time — down to float bits and
dict order, whatever the split and the stride.  The same holds when
the accumulator (and the wire decoder) is snapshotted and restored at
every chunk boundary.  The logs cover a short Blink run, a Blink run
whose u32 time field wraps, both nodes of the bounce network
(multi-activity TimerB, proxy binds), a log whose records run far past
the window end (tail deferral), undeclared devices (inference), and a
synthetic log in which a multi-activity device draws power.
"""

import functools
import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.accounting import WindowedAccumulator
from repro.core.logger import (
    ENTRY_DTYPE,
    ENTRY_SIZE,
    WireDecoder,
    iter_entries,
)
from repro.experiments.common import run_blink
from repro.tos.node import COMPONENT_NAMES, RES_TIMERB
from repro.units import ms, seconds
from windowed_oracle import EntryWindowedAccumulator

STRIDES = {"quarter-second": int(seconds(0.25)), "4s": int(seconds(4)),
           "giant": int(seconds(10 ** 6))}


class Case:
    """One node log with the accounting inputs a hello would carry."""

    def __init__(self, node, end_time_ns=None, declared=True):
        timeline = node.timeline()
        self.raw = bytes(node.logger.raw_bytes())
        self.kwargs = dict(
            regression=node.regression(timeline),
            registry=node.registry,
            component_names=COMPONENT_NAMES,
            energy_per_pulse_j=(
                node.platform.icount.nominal_energy_per_pulse_j),
            idle_name=node.registry.name_of(node.idle),
            single_res_ids=(
                [d.res_id for d in node._single_devices()]
                if declared else None),
            multi_res_ids=[RES_TIMERB] if declared else None,
            end_time_ns=(timeline.end_time_ns if end_time_ns is None
                         else end_time_ns),
        )


@functools.lru_cache(maxsize=None)
def bounce_network():
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
    return network


@functools.lru_cache(maxsize=None)
def case(name):
    if name == "blink":
        node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
        return Case(node)
    if name == "blink-u32-wrap":
        node, _app, _sim = run_blink(seed=4, duration_ns=seconds(4300))
        return Case(node)
    if name.startswith("bounce-node"):
        return Case(bounce_network().node(int(name[-1])))
    if name == "bounce-undeclared":
        return Case(bounce_network().node(4), declared=False)
    if name == "blink-tail":
        # Records run 1.5 s past the window end: every interval from
        # there on defers to finish, while windows keep closing.
        node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
        return Case(node, end_time_ns=node.timeline().end_time_ns
                    - int(seconds(1.5)))
    if name.startswith("synthetic"):
        return synthetic_case(declared=name == "synthetic-multi")
    raise KeyError(name)


SYNTHETIC_SINGLE = 0
SYNTHETIC_MULTI = 9


def synthetic_case(declared):
    """A random log in which a multi-activity device draws power: power
    toggles (only, at first), then activity changes and binds on a
    single device, adds and removes on the multi one, equal timestamps,
    records past the end."""
    from repro.core.labels import ActivityRegistry
    from repro.core.logger import ENTRY_STRUCT
    from repro.core.regression import RegressionResult, SinkColumn

    rng = random.Random(20081208)
    rows = [(6, SYNTHETIC_SINGLE, 0, 0, 0), (6, SYNTHETIC_MULTI, 0, 0, 0)]
    time_us, pulses = 0, 0
    for step in range(900):
        time_us += rng.choice((0, 1, 7, 40, 300))
        pulses += rng.randint(0, 9)
        kind = rng.random() if step > 40 else 0.0
        if kind < 0.35:
            rows.append((1, rng.choice((SYNTHETIC_SINGLE, SYNTHETIC_MULTI)),
                         time_us, pulses, rng.randint(0, 2)))
        elif kind < 0.7:
            rows.append((rng.choice((2, 2, 3)), SYNTHETIC_SINGLE, time_us,
                         pulses, rng.choice((0x0101, 0x0102, 0x0103))))
        else:
            rows.append((rng.choice((4, 5)), SYNTHETIC_MULTI, time_us,
                         pulses, rng.choice((0x0101, 0x0102, 0x0104))))
    raw = b"".join(ENTRY_STRUCT.pack(*row) for row in rows)
    regression = RegressionResult(
        columns=[SinkColumn(SYNTHETIC_SINGLE, 1, "CPU"),
                 SinkColumn(SYNTHETIC_MULTI, 1, "Timer"),
                 SinkColumn(SYNTHETIC_MULTI, 2, "Timer.fast")],
        power_w={"CPU": 0.003, "Timer": 0.0011, "Timer.fast": 0.0017},
        const_power_w=0.0004, voltage=3.0,
        y=np.zeros(1), y_hat=np.zeros(1), weights=np.ones(1),
        group_states=[], group_time_ns=[], group_energy_j=[])
    synthetic = Case.__new__(Case)
    synthetic.raw = raw
    synthetic.kwargs = dict(
        regression=regression, registry=ActivityRegistry(),
        component_names={SYNTHETIC_SINGLE: "CPU", SYNTHETIC_MULTI: "Timer"},
        energy_per_pulse_j=1e-6, idle_name="Idle",
        single_res_ids=[SYNTHETIC_SINGLE] if declared else None,
        multi_res_ids=[SYNTHETIC_MULTI] if declared else None,
        end_time_ns=(time_us - 900) * 1000)
    return synthetic


CASES = ["blink", "blink-u32-wrap", "bounce-node1", "bounce-node4",
         "bounce-undeclared", "blink-tail", "synthetic-multi",
         "synthetic-undeclared"]


@functools.lru_cache(maxsize=None)
def reference(name, stride):
    """The per-entry oracle's windows and final map."""
    oracle = EntryWindowedAccumulator(
        stride_ns=STRIDES[stride], retain=None, **case(name).kwargs)
    oracle.feed_all(iter_entries(case(name).raw))
    return ([snapshot_fields(s) for s in oracle.windows],
            map_fields(oracle.map))


def exact(value):
    """Floats by their bits; everything else as is."""
    return value.hex() if isinstance(value, float) else value


def ordered(mapping):
    return [(key, exact(value)) for key, value in mapping.items()]


def snapshot_fields(snapshot):
    return (snapshot.index, snapshot.t0_ns, snapshot.t1_ns,
            snapshot.intervals, ordered(snapshot.energy_j),
            ordered(snapshot.time_ns),
            ordered(snapshot.cumulative_energy_j),
            ordered(snapshot.cumulative_time_ns),
            exact(snapshot.reconstructed_energy_j),
            exact(snapshot.metered_energy_j), snapshot.span_ns,
            snapshot.final)


def map_fields(emap):
    return (ordered(emap.energy_j), ordered(emap.time_ns),
            exact(emap.metered_energy_j),
            exact(emap.reconstructed_energy_j), emap.span_ns)


def wrap_offset(raw):
    """Byte offset of the first entry whose u32 time field wrapped, or
    None."""
    times = np.frombuffer(raw, dtype=ENTRY_DTYPE)["time"]
    wrapped = np.flatnonzero(np.diff(times.astype(np.int64)) < 0)
    return int(wrapped[0] + 1) * ENTRY_SIZE if len(wrapped) else None


def chunks_of(raw, split, rng):
    """Cut ``raw`` into chunks: ``whole``, ``random`` (cuts anywhere,
    mostly mid-entry), or ``one-byte`` (a stretch of single bytes —
    the whole log when it is short, else a 600-byte stretch between two
    big chunks, across the u32 wrap if the log has one)."""
    if split == "whole":
        return [raw]
    if split == "one-byte":
        lo, hi = 0, len(raw)
        if len(raw) > 6000:
            wrap = wrap_offset(raw)
            lo = (rng.randrange(len(raw) - 600) if wrap is None
                  else wrap - rng.randrange(12, 588))
            hi = lo + 600
        return ([raw[:lo]] if lo else []) + [
            raw[i:i + 1] for i in range(lo, hi)] + (
            [raw[hi:]] if hi < len(raw) else [])
    largest = rng.choice((13, 1021, 65536) if len(raw) < 60000
                         else (4099, 65536))
    cuts = []
    offset = 0
    while offset < len(raw):
        step = rng.randint(1, largest)
        cuts.append(raw[offset:offset + step])
        offset += step
    return cuts


def run_chunked(name, stride, chunks, restore_every_chunk):
    seen = []
    accumulator = WindowedAccumulator(
        stride_ns=STRIDES[stride], retain=4, on_window=seen.append,
        **case(name).kwargs)
    decoder = WireDecoder()
    for chunk in chunks:
        accumulator.feed(decoder.feed(chunk))
        if restore_every_chunk:
            accumulator = WindowedAccumulator.restore(
                accumulator.snapshot(), on_window=seen.append)
            decoder = WireDecoder.from_snapshot(
                json.loads(json.dumps(decoder.snapshot())))
    decoder.finish()
    final = accumulator.finish()
    assert list(accumulator.windows) == seen[-len(accumulator.windows):]
    return [snapshot_fields(s) for s in seen], map_fields(final)


@pytest.mark.parametrize("stride", sorted(STRIDES))
@pytest.mark.parametrize("name", CASES)
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(split=st.sampled_from(("one-byte", "random", "whole")),
       seed=st.integers(0, 2 ** 32 - 1),
       restore=st.booleans())
def test_chunk_splits_match_the_per_entry_reference(
        name, stride, split, seed, restore):
    windows, final = reference(name, stride)
    chunks = chunks_of(case(name).raw, split, random.Random(seed))
    got_windows, got_final = run_chunked(name, stride, chunks, restore)
    assert len(got_windows) == len(windows)
    for got, want in zip(got_windows, windows):
        assert got == want, f"window {want[0]} differs"
    assert got_final == final


def test_the_cases_exercise_what_they_claim():
    """The wrap log wraps, the tail log defers intervals while windows
    still close, the undeclared log infers a charged device mid-log,
    and the synthetic log charges a multi-activity device."""
    times = [entry.time_us for entry in iter_entries(
        case("blink-u32-wrap").raw)]
    assert times[0] < 1 << 32 <= times[-1]
    end = case("blink-tail").kwargs["end_time_ns"]
    windows, _final = reference("blink-tail", "quarter-second")
    assert any(w[1] > end and not w[-1] for w in windows)
    _windows, final = reference("synthetic-undeclared", "4s")
    assert ("Timer", "(untracked)") in dict(final[0])
    synthetic = case("synthetic-multi")
    charged = {c.res_id for c in synthetic.kwargs["regression"].columns}
    assert SYNTHETIC_MULTI in charged
    assert SYNTHETIC_MULTI in synthetic.kwargs["multi_res_ids"]
    giant, _final = reference("blink", "giant")
    assert len(giant) == 1


def test_carried_state_stays_flat_as_the_log_grows():
    """After every 64 KB chunk, the reconstruction state carried to the
    next chunk (open spans, retained segments, deferred intervals) is
    O(devices): its peak on the 4500 s log equals the peak on a log a
    quarter as long."""
    def peak(duration_s):
        node, _app, _sim = run_blink(seed=1, duration_ns=seconds(duration_s))
        accumulator = WindowedAccumulator(
            stride_ns=STRIDES["4s"], **Case(node).kwargs)
        raw = bytes(node.logger.raw_bytes())
        decoder = WireDecoder()
        carried = []
        for start in range(0, len(raw), 1 << 16):
            accumulator.feed(decoder.feed(raw[start:start + (1 << 16)]))
            carried.append(accumulator.carried_items())
        accumulator.finish()
        assert accumulator.carried_items() == 0
        return len(raw), max(carried)

    short_bytes, short_peak = peak(1125)
    long_bytes, long_peak = peak(4500)
    assert long_bytes > 3 * short_bytes
    assert long_peak == short_peak
    assert long_peak < 32
