"""Spans and counts around calls into the program's layers, installed
from outside the program.

A :class:`Tracer` replaces a function or method *where its caller looks
the name up* (a class attribute, or a module global bound by
``from x import y``) with a wrapper that records one span per call:
``(name, start_ns, end_ns, parent, n)``.  ``parent`` is the index of the
innermost enclosing span, so a span's *self* time is its duration minus
its direct children's durations.  ``n`` is a per-call count (entries
decoded, events executed, bytes journaled ...) so that cost = a + b*n
can later be fitted per layer.  Spans stay in memory until the run ends;
:meth:`Tracer.dump` writes them out.

Only synchronous functions are wrapped: a span never crosses an
``await``, so one stack per process is enough even inside the asyncio
server.

:func:`install_offline` and :func:`install_server` hold the
layer -> public call table of ``README.md``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count=None, before=None):
        """A wrapper around ``fn`` that records a span named ``name``.

        ``count(args, result, state)`` gives the span's ``n``; ``state``
        is ``before(args)`` evaluated just before the call."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            state = before(args) if before is not None else None
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                n = count(args, result, state) if count is not None else 0
                spans[index] = (name, start, end, parent, n)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str, count=None, before=None):
        """Replace ``owner.attr`` (class or module) by a traced wrapper;
        :meth:`unpatch` restores it."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, count,
                                            before))
        else:
            wrapped = self.wrap(name, raw, count, before)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self time (ms), summed n."""
        return summarize(self.spans)

    def dump(self, path: str, header: dict) -> None:
        """Write the header and every span as JSON lines (atomically)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(header, run_id=self.run_id)) + "\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue  # still open (a dump taken mid-call)
                name, start, end, parent, n = span
                handle.write(json.dumps(
                    {"i": index, "name": name, "start_ns": start,
                     "end_ns": end, "parent": parent, "n": n,
                     "run": self.run_id}) + "\n")
        os.replace(tmp, path)


def summarize(spans) -> dict:
    """Aggregate spans (tuples or dump dicts) by name."""
    rows = []
    for index, span in enumerate(spans):
        if span is None:
            continue
        if isinstance(span, dict):
            rows.append((span["i"], span["name"], span["start_ns"],
                         span["end_ns"], span["parent"], span["n"]))
        else:
            rows.append((index, *span))
    child_ns: dict[int, int] = defaultdict(int)
    for _index, _name, start, end, parent, _n in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for index, name, start, end, _parent, n in rows:
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0,
                               "n": 0}
        dur = end - start
        agg["calls"] += 1
        agg["total_ms"] += dur / 1e6
        agg["self_ms"] += (dur - child_ns.get(index, 0)) / 1e6
        agg["n"] += n
    return out


def merge_summaries(*summaries: dict) -> dict:
    out: dict = {}
    for summary in summaries:
        for name, agg in summary.items():
            into = out.setdefault(
                name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "n": 0})
            for key in into:
                into[key] += agg[key]
    return out


def read_dump(path: str) -> list[dict]:
    """The spans of a :meth:`Tracer.dump` file (its header skipped)."""
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        return [json.loads(line) for line in handle if line.strip()]


# -- the layer table --------------------------------------------------------


def _len_result(_args, result, _state):
    return len(result) if result is not None else 0


def _len_arg1(args, _result, _state):
    return len(args[1])


def install_offline(tracer: Tracer) -> None:
    """Wrap the calls the two sweep workloads make into every offline
    layer (engine, experiments, logger, timeline, regression,
    accounting, netmerge, sweep, shard store)."""
    import repro.core.logger as logger
    import repro.experiments.common as common
    import repro.experiments.table3 as table3
    import repro.sim.batch as batch
    import repro.sim.engine as engine
    import repro.sim.shardstore as shardstore
    import repro.sim.sweep as sweep
    import repro.tos.network as network
    import repro.tos.node as node
    from repro.core.netmerge import NetworkMerger

    def events_before(args):
        return args[0]._events_executed

    def events_after(args, _result, before):
        return args[0]._events_executed - before

    def batch_events_before(args):
        return sum(sim._events_executed for sim in args[0]._sims)

    def batch_events_after(args, _result, before):
        return sum(sim._events_executed for sim in args[0]._sims) - before

    def shard_size(args):
        try:
            return os.stat(args[0].shard_path).st_size
        except OSError:
            return 0

    def shard_growth(args, _result, before):
        return shard_size(args) - before

    def probe_hit(_args, result, _state):
        return 1 if result else 0

    t = tracer
    t.patch(engine.Simulator, "run", "sim.engine.run",
            count=events_after, before=events_before)
    t.patch(batch.BatchSimulator, "run", "sim.engine.run",
            count=batch_events_after, before=batch_events_before)
    t.patch(table3, "run_blink", "experiments.run_blink")
    t.patch(network.Network, "__init__", "experiments.network_init")
    t.patch(network.Network, "add_node", "experiments.add_node")
    t.patch(network.Network, "boot_all", "experiments.boot_all")
    t.patch(sweep, "run_experiment", "experiments.run")
    t.patch(common.ExperimentResult, "render", "experiments.render")
    t.patch(logger.QuantoLogger, "columns", "core.logger.columns",
            count=_len_result)
    t.patch(logger, "decode_batch", "core.logger.decode_batch",
            count=lambda a, r, s: sum(len(c) for c in r or ()))
    t.patch(node.QuantoNode, "columnar_timeline",
            "core.timeline.columnar_timeline")
    t.patch(node, "solve_grouped", "core.regression.solve_grouped")
    t.patch(node, "columnar_energy_map", "core.accounting.energy_map")
    t.patch(NetworkMerger, "add", "core.netmerge.add")
    t.patch(NetworkMerger, "report", "core.netmerge.report")
    t.patch(sweep.SweepAggregator, "fold", "sim.sweep.fold")
    t.patch(shardstore.ShardStore, "store", "sim.shardstore.store",
            count=shard_growth, before=shard_size)
    t.patch(shardstore.ShardStore, "load", "sim.shardstore.load",
            count=lambda a, r, s: len(r) if r is not None else 0)
    t.patch(shardstore.ShardStore, "has", "sim.shardstore.has",
            count=probe_hit)


def install_server(tracer: Tracer) -> None:
    """Wrap the server-side calls of ``repro serve``: wire decode,
    windowed accounting, journal, restore, queries and JSON framing."""
    import repro.core.logger as logger
    import repro.serve.journal as journal
    import repro.serve.server as server

    def feed_windows_before(args):
        return args[0].accumulator.windows_emitted

    def feed_windows_after(args, _result, before):
        return args[0].accumulator.windows_emitted - before

    t = tracer
    t.patch(logger.WireDecoder, "feed", "core.logger.wire_feed",
            count=_len_result)
    # n = windows emitted by this chunk; the chunk's bytes are on the
    # journal and decode spans.
    t.patch(server.NodeSession, "ingest", "serve.session.ingest",
            count=feed_windows_after, before=feed_windows_before)
    t.patch(server.NodeSession, "restore", "serve.session.restore")
    t.patch(server.NodeSession, "breakdown", "serve.session.breakdown")
    t.patch(server.NodeSession, "describe", "serve.session.describe")
    t.patch(journal.NodeJournal, "append_chunk", "serve.journal.append",
            count=_len_arg1)
    t.patch(journal.NodeJournal, "write_checkpoint",
            "serve.journal.checkpoint")
    t.patch(journal.NodeJournal, "load", "serve.journal.load",
            count=lambda a, r, s: r.payload_bytes if r is not None else 0)
    t.patch(journal.JournalContents, "replay", "serve.journal.replay",
            count=lambda a, r, s: a[0].payload_bytes - (
                a[1] if len(a) > 1 else 0))
    install_protocol(tracer, server)


def install_protocol(tracer: Tracer, module) -> None:
    """Wrap the JSON-line framing as ``module`` (server or client) sees
    it; n = bytes framed."""
    tracer.patch(module, "encode_json_line", "serve.protocol.encode",
                 count=lambda a, r, s: len(r) if r is not None else 0)
    tracer.patch(module, "decode_json_line", "serve.protocol.decode",
                 count=lambda a, r, s: len(a[0]))
