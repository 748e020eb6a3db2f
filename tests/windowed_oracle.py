"""The per-entry windowed accountant: the reference the chunked
:class:`repro.core.accounting.WindowedAccumulator` is held to.

:class:`EntryWindowedAccumulator` is the streaming
:class:`~repro.core.accounting.EnergyAccumulator` fed one decoded entry
at a time, closing a :class:`~repro.core.accounting.WindowSnapshot`
whenever an interval start crosses a stride boundary — each window's
cumulative sums are then literally the accumulator's running sums at
that moment.  It shares no code with the columnar chunk path beyond the
snapshot type, so the equivalence tests compare two independent
implementations: every snapshot field and the final map, float bits and
dict order.
"""

from collections import deque

from repro.core.accounting import EnergyAccumulator, WindowSnapshot
from repro.errors import WindowingError


class EntryWindowedAccumulator(EnergyAccumulator):
    """Windowed accounting, one entry at a time.

    Time is divided into ``stride_ns``-wide strides anchored at
    ``origin_ns`` (default: the first power interval's start).  An
    interval is charged to the stride containing its start; when the
    interval starts cross a stride boundary the open window closes
    (empty strides still emit, so the sequence is gap-free).
    :meth:`finish` closes the last, partial window, which absorbs the
    deferred tail re-cover and carries the finished map's exact state.
    """

    def __init__(self, regression, registry, component_names,
                 energy_per_pulse_j, *, stride_ns, idle_name="Idle",
                 single_res_ids=None, multi_res_ids=None, end_time_ns=None,
                 origin_ns=None, retain=64):
        if stride_ns <= 0:
            raise WindowingError(
                f"window stride must be positive, got {stride_ns}")
        super().__init__(
            regression, registry, component_names, energy_per_pulse_j,
            fold_proxies=False, idle_name=idle_name,
            single_res_ids=single_res_ids, multi_res_ids=multi_res_ids,
            end_time_ns=end_time_ns,
        )
        self.stride_ns = int(stride_ns)
        self.windows = deque(maxlen=retain)
        self.windows_emitted = 0
        self._window_origin = origin_ns
        self._window_index = None
        self._prev_energy = {}
        self._prev_time = {}
        self._prev_intervals = 0

    def _on_interval(self, interval):
        t0 = interval.t0_ns
        if self._window_index is None:
            if self._window_origin is None:
                self._window_origin = t0
            self._window_index = (t0 - self._window_origin) // self.stride_ns
        else:
            index = (t0 - self._window_origin) // self.stride_ns
            while self._window_index < index:
                self._close_window(final=False)
        super()._on_interval(interval)

    def _fold_time(self):
        """Busy time of the segments closed so far, in the finish
        fold's device/name order."""
        cumulative = {}
        for per_device in (self._time_single, self._time_multi):
            for res_id in sorted(per_device):
                component = self.component_names.get(res_id,
                                                      f"res{res_id}")
                for name, dt_ns in per_device[res_id].items():
                    key = (component, name)
                    cumulative[key] = cumulative.get(key, 0) + dt_ns
        return cumulative

    def _close_window(self, final):
        index = self._window_index
        cumulative_energy = dict(self.map.energy_j)
        cumulative_time = (
            dict(self.map.time_ns) if final else self._fold_time())
        delta_energy = {}
        for key, value in cumulative_energy.items():
            delta = value - self._prev_energy.get(key, 0.0)
            if delta != 0.0:
                delta_energy[key] = delta
        delta_time = {}
        for key, value in cumulative_time.items():
            delta = value - self._prev_time.get(key, 0)
            if delta:
                delta_time[key] = delta
        t0_ns = self._window_origin + index * self.stride_ns
        self.windows.append(WindowSnapshot(
            index=index,
            t0_ns=t0_ns,
            t1_ns=(self._last_interval_t1_ns if final
                   else t0_ns + self.stride_ns),
            intervals=self._intervals_seen - self._prev_intervals,
            energy_j=delta_energy,
            time_ns=delta_time,
            cumulative_energy_j=cumulative_energy,
            cumulative_time_ns=cumulative_time,
            reconstructed_energy_j=self.map.reconstructed_energy_j,
            metered_energy_j=self._pulses_total * self.energy_per_pulse_j,
            span_ns=self._last_interval_t1_ns - self._span_t0_ns,
            final=final,
        ))
        self.windows_emitted += 1
        self._prev_energy = cumulative_energy
        self._prev_time = cumulative_time
        self._prev_intervals = self._intervals_seen
        self._window_index = index + 1

    def finish(self):
        if self._finished:
            return self.map
        super().finish()
        if self._window_index is not None:
            self._close_window(final=True)
        return self.map

    def live_breakdown(self):
        return {
            "energy_j": dict(self.map.energy_j),
            "time_ns": self._fold_time(),
            "reconstructed_energy_j": self.map.reconstructed_energy_j,
            "metered_energy_j": (
                self._pulses_total * self.energy_per_pulse_j),
            "span_ns": self._last_interval_t1_ns - self._span_t0_ns,
            "intervals": self._intervals_seen,
            "windows_emitted": self.windows_emitted,
        }
