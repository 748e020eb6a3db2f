"""Both offline reconstructions of one packed log, side by side.

Timeline semantics live in two places: the :class:`TimelineStream`
trackers (the streaming engine and ``repro serve``) and
:class:`ColumnarTimeline` (offline node analysis).  Hand-written cases
loop over :func:`reconstructions` so each one checks both against the
same expectations.
"""

from repro.core.logger import decode_columns, iter_entries
from repro.core.timeline import (
    ColumnarTimeline,
    MultiActivitySegment,
    TimelineStream,
)


class StreamView:
    """The stream's emissions, collected per device."""

    name = "stream"

    def __init__(self, raw, end_time_ns=None, single_res_ids=None,
                 multi_res_ids=None):
        self._intervals = []
        self._segments = {}
        self._multis = {}
        stream = TimelineStream(
            single_res_ids=single_res_ids, multi_res_ids=multi_res_ids,
            on_interval=self._intervals.append,
            on_segment=lambda seg: self._segments.setdefault(
                seg.res_id, []).append(seg),
            on_multi_segment=lambda seg: self._multis.setdefault(
                seg.res_id, []).append(seg),
        )
        stream.feed_all(iter_entries(raw), end_time_ns)
        self._single_ids = stream.single_device_ids()
        self._multi_ids = stream.multi_device_ids()

    def power_intervals(self):
        return list(self._intervals)

    def activity_segments(self, res_id):
        return list(self._segments.get(res_id, ()))

    def multi_activity_segments(self, res_id):
        return list(self._multis.get(res_id, ()))

    def single_device_ids(self):
        return self._single_ids

    def multi_device_ids(self):
        return self._multi_ids


class ColumnarView(ColumnarTimeline):
    """A :class:`ColumnarTimeline` that also materializes multi-device
    segments, so it answers everything :class:`StreamView` does."""

    name = "columnar"

    def multi_activity_segments(self, res_id):
        device = self.multi_columns(res_id)
        if device is None:
            return []
        return [
            MultiActivitySegment(res_id=res_id, t0_ns=t0, t1_ns=t1,
                                 labels=self.label_sets[set_id])
            for t0, t1, set_id in zip(device.t0.tolist(),
                                      device.t1.tolist(), device.set_ids)
        ]


def reconstructions(raw, end_time_ns=None, single_res_ids=None,
                    multi_res_ids=None):
    """The stream trackers' and the columnar reconstruction of ``raw``
    (packed log bytes), with the same window and device declarations."""
    return [
        StreamView(raw, end_time_ns, single_res_ids, multi_res_ids),
        ColumnarView(decode_columns(raw), end_time_ns=end_time_ns,
                     single_res_ids=single_res_ids,
                     multi_res_ids=multi_res_ids),
    ]


def assert_maps_identical(reference, candidate):
    """Exact equality, field by field: float bits, and the dict
    insertion order the renderers see when they iterate the maps."""
    assert list(reference.energy_j) == list(candidate.energy_j)
    assert reference.energy_j == candidate.energy_j
    assert list(reference.time_ns) == list(candidate.time_ns)
    assert reference.time_ns == candidate.time_ns
    assert reference.metered_energy_j == candidate.metered_energy_j
    assert reference.reconstructed_energy_j \
        == candidate.reconstructed_energy_j
    assert reference.span_ns == candidate.span_ns
