"""Streaming vs batch accounting: peak memory and wall time.

The same 48-second Blink log is priced twice with the same regression:

* **batch** — decode the whole log into columns, materialize the
  ColumnarTimeline (interval and segment arrays), and build the map
  with the columnar engine (the offline node path);
* **streaming** — a single pass: ``iter_entries`` feeding
  ``stream_energy_map``, nothing materialized but open spans.

A second table tracks the live path (what ``repro serve`` runs per
node) on a 1200-second Blink log: **windowed (64 KB chunks)** — the
packed log through a ``WireDecoder`` into a ``WindowedAccumulator`` at
a 4 s stride, 64 KB at a time — beside the per-entry **streaming**
pass over the same log, so the gap between the two stays visible.

Every pair of maps is asserted identical (the engines' contract), the
speed/space numbers go to ``results/``.  Peak memory is tracemalloc's
peak of allocations made inside each measured region.

Runnable standalone (``PYTHONPATH=src python benchmarks/bench_streaming.py``)
or via pytest.
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

from repro.core.accounting import (
    WindowedAccumulator,
    build_energy_map,
    stream_energy_map,
)
from repro.core.logger import (
    ENTRY_SIZE,
    WireDecoder,
    decode_columns,
    iter_entries,
)
from repro.core.timeline import ColumnarTimeline
from repro.core.report import format_table
from repro.experiments.common import run_blink
from repro.tos.node import COMPONENT_NAMES, RES_TIMERB
from repro.units import seconds

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

DURATION_S = 48
#: The live-path log: long enough for many 64 KB chunks.
LIVE_DURATION_S = 1200
LIVE_CHUNK_BYTES = 1 << 16
LIVE_STRIDE_S = 4


def _measure(fn):
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    wall_s = time.perf_counter() - start
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, wall_s, peak


def bench_streaming() -> str:
    node, _app, _sim = run_blink(seed=0, duration_ns=seconds(DURATION_S))
    node.mark_log_end()
    raw = node.logger.raw_bytes()
    end_time_ns = node.sim.now
    single_ids = [device.res_id for device in node._single_devices()]
    idle_name = node.registry.name_of(node.idle)
    energy_per_pulse = node.platform.icount.nominal_energy_per_pulse_j
    regression = node.regression()  # shared input, outside both regions

    def batch():
        timeline = ColumnarTimeline(
            decode_columns(raw), end_time_ns=end_time_ns,
            single_res_ids=single_ids, multi_res_ids=[RES_TIMERB])
        return build_energy_map(
            timeline, regression, node.registry, COMPONENT_NAMES,
            energy_per_pulse, idle_name=idle_name)

    def streaming():
        return stream_energy_map(
            iter_entries(raw), regression, node.registry, COMPONENT_NAMES,
            energy_per_pulse, idle_name=idle_name,
            end_time_ns=end_time_ns,
            single_res_ids=single_ids, multi_res_ids=[RES_TIMERB],
            backend="streaming")

    batch_map, batch_wall, batch_peak = _measure(batch)
    stream_map, stream_wall, stream_peak = _measure(streaming)
    assert batch_map.energy_j == stream_map.energy_j, \
        "streaming accounting diverged from batch"
    assert batch_map.time_ns == stream_map.time_ns

    rows = [
        ("batch", f"{batch_wall:.3f}", f"{batch_peak / 1024:.0f}", "1.00"),
        ("streaming", f"{stream_wall:.3f}", f"{stream_peak / 1024:.0f}",
         f"{batch_peak / stream_peak:.2f}" if stream_peak else "-"),
    ]
    live_entries, live_rows = bench_live()
    report = "\n\n".join([
        f"== streaming bench: Blink {DURATION_S} s, "
        f"{len(raw) // ENTRY_SIZE} log entries ==\n"
        f"-- maps identical: "
        f"{sum(batch_map.energy_j.values()) * 1e3:.3f} mJ attributed",
        format_table(
            ("path", "wall (s)", "peak alloc (KiB)", "space ratio"), rows,
            title="batch vs streaming accounting"),
        format_table(
            ("path", "wall (s)", "entries/s", "peak alloc (KiB)"),
            live_rows,
            title=f"live path: Blink {LIVE_DURATION_S} s, "
                  f"{live_entries} log entries, maps identical"),
    ])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_streaming.txt").write_text(report + "\n")
    return report


def bench_live() -> tuple[int, list[tuple[str, ...]]]:
    """The live path against the per-entry streaming pass, on one long
    log: ``(entries, table rows)``."""
    node, _app, _sim = run_blink(seed=0,
                                 duration_ns=seconds(LIVE_DURATION_S))
    node.mark_log_end()
    raw = bytes(node.logger.raw_bytes())
    entries = len(raw) // ENTRY_SIZE
    kwargs = dict(
        idle_name=node.registry.name_of(node.idle),
        end_time_ns=node.sim.now,
        single_res_ids=[device.res_id for device in node._single_devices()],
        multi_res_ids=[RES_TIMERB],
    )
    args = (node.regression(), node.registry, COMPONENT_NAMES,
            node.platform.icount.nominal_energy_per_pulse_j)

    def streaming():
        return stream_energy_map(iter_entries(raw), *args,
                                 backend="streaming", **kwargs)

    def windowed():
        accumulator = WindowedAccumulator(
            *args, stride_ns=int(seconds(LIVE_STRIDE_S)), **kwargs)
        decoder = WireDecoder()
        for start in range(0, len(raw), LIVE_CHUNK_BYTES):
            accumulator.feed(
                decoder.feed(raw[start:start + LIVE_CHUNK_BYTES]))
        decoder.finish()
        return accumulator.finish()

    rows = []
    maps = []
    for path, fn in (("streaming", streaming),
                     ("windowed (64 KB chunks)", windowed)):
        # Peak memory from one traced run; wall time (median of 3) from
        # untraced ones — tracemalloc taxes every allocation.
        emap, _wall, peak = _measure(fn)
        maps.append(emap)
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - start)
        wall = sorted(walls)[1]
        rows.append((path, f"{wall:.3f}", f"{entries / wall:.0f}",
                     f"{peak / 1024:.0f}"))
    assert list(maps[0].energy_j.items()) == list(maps[1].energy_j.items())
    assert list(maps[0].time_ns.items()) == list(maps[1].time_ns.items())
    return entries, rows


def test_streaming_vs_batch(capsys):
    report = bench_streaming()
    with capsys.disabled():
        print()
        print(report)


if __name__ == "__main__":
    print(bench_streaming())
