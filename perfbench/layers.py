"""Per-layer metrics of a traced run, computed from span summaries.

Every ``*_ms`` value is the total over the traced part of the run (its
base is ``run.wall_ms`` and the work counts ``run.points``,
``run.refold_points``, ``run.entries``); a layer that does not run in a
workload reports 0.  "self" means the span minus its child spans.
"""

from __future__ import annotations

import math

from benchutil import percentile

#: (name, unit, better) -- the per_layer section of BENCHMARK.json.
PER_LAYER = [
    ("sim.engine.run_ms", "ms", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.ns_per_event", "ns", "lower"),
    ("experiments.world_ms", "ms", "lower"),
    ("experiments.body_ms", "ms", "lower"),
    ("experiments.render_ms", "ms", "lower"),
    ("core.logger.entries", "count", "lower"),
    ("core.logger.decode_calls", "count", "lower"),
    ("core.logger.decode_ms", "ms", "lower"),
    ("core.logger.wire_decode_ms", "ms", "lower"),
    ("core.timeline.reconstruct_ms", "ms", "lower"),
    ("core.regression.solve_ms", "ms", "lower"),
    ("core.accounting.fold_ms", "ms", "lower"),
    ("core.accounting.windowed_ms", "ms", "lower"),
    ("core.accounting.windows", "count", "lower"),
    ("core.netmerge.merge_ms", "ms", "lower"),
    ("sim.sweep.fold_ms", "ms", "lower"),
    ("sim.sweep.self_ms", "ms", "lower"),
    ("sim.shardstore.store_ms", "ms", "lower"),
    ("sim.shardstore.load_ms", "ms", "lower"),
    ("sim.shardstore.probe_ms", "ms", "lower"),
    ("sim.shardstore.bytes_written", "bytes", "lower"),
    ("sim.shardstore.probes", "count", "lower"),
    ("sim.shardstore.hits", "count", "higher"),
    ("sim.shardstore.hit_ratio", "ratio", "higher"),
    ("serve.journal.append_ms", "ms", "lower"),
    ("serve.journal.bytes", "bytes", "lower"),
    ("serve.journal.checkpoint_ms", "ms", "lower"),
    ("serve.journal.checkpoints", "count", "lower"),
    ("serve.journal.restore_ms", "ms", "lower"),
    ("serve.journal.replay_bytes", "bytes", "lower"),
    ("serve.server.query_ms", "ms", "lower"),
    ("serve.protocol.encode_ms", "ms", "lower"),
    ("serve.client.blocked_ms", "ms", "lower"),
    ("serve.client.reconnects", "count", "lower"),
    ("serve.probe.late_ms", "ms", "lower"),
    ("run.wall_ms", "ms", "lower"),
    ("run.points", "count", "higher"),
    ("run.refold_points", "count", "higher"),
    ("run.entries", "count", "higher"),
    ("run.queries", "count", "higher"),
    ("run.speed_factor", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead.rate_per_s", "ratio", "higher"),
    ("trace.overhead.p50_ms", "ratio", "lower"),
    ("trace.overhead.p90_ms", "ratio", "lower"),
    ("trace.overhead.resume_s", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _get(summary: dict, name: str, key: str) -> float:
    agg = summary.get(name)
    return agg[key] if agg is not None else 0


def layer_metrics(summary: dict, base: dict, overhead: dict) -> dict:
    """Map span aggregates (see :func:`tracing.summarize`) plus the
    workload's bases and overhead ratios onto :data:`PER_LAYER`."""
    def total(name):
        return _get(summary, name, "total_ms")

    def own(name):
        return _get(summary, name, "self_ms")

    def n(name):
        return _get(summary, name, "n")

    def calls(name):
        return _get(summary, name, "calls")

    events = n("sim.engine.run")
    probes = calls("sim.shardstore.has")
    hits = n("sim.shardstore.has")
    values = {
        "sim.engine.run_ms": total("sim.engine.run"),
        "sim.engine.events": events,
        "sim.engine.ns_per_event":
            total("sim.engine.run") * 1e6 / events if events else 0.0,
        "experiments.world_ms": own("experiments.run_blink")
            + total("experiments.network_init")
            + total("experiments.add_node")
            + total("experiments.boot_all"),
        "experiments.body_ms": own("experiments.run"),
        "experiments.render_ms": total("experiments.render"),
        "core.logger.entries": n("core.logger.columns"),
        "core.logger.decode_calls": calls("core.logger.columns")
            + calls("core.logger.decode_batch"),
        "core.logger.decode_ms": own("core.logger.columns")
            + total("core.logger.decode_batch"),
        "core.logger.wire_decode_ms": total("core.logger.wire_feed"),
        "core.timeline.reconstruct_ms":
            own("core.timeline.columnar_timeline"),
        "core.regression.solve_ms": total("core.regression.solve_grouped"),
        "core.accounting.fold_ms": own("core.accounting.energy_map"),
        "core.accounting.windowed_ms": own("serve.session.ingest"),
        "core.accounting.windows": n("serve.session.ingest"),
        "core.netmerge.merge_ms": total("core.netmerge.add")
            + total("core.netmerge.report"),
        "sim.sweep.fold_ms": total("sim.sweep.fold"),
        "sim.sweep.self_ms": own("sim.sweep.run_sweep"),
        "sim.shardstore.store_ms": total("sim.shardstore.store"),
        "sim.shardstore.load_ms": total("sim.shardstore.load"),
        "sim.shardstore.probe_ms": total("sim.shardstore.has"),
        "sim.shardstore.bytes_written": n("sim.shardstore.store"),
        "sim.shardstore.probes": probes,
        "sim.shardstore.hits": hits,
        "sim.shardstore.hit_ratio": hits / probes if probes else 0.0,
        "serve.journal.append_ms": total("serve.journal.append"),
        "serve.journal.bytes": n("serve.journal.append"),
        "serve.journal.checkpoint_ms": total("serve.journal.checkpoint"),
        "serve.journal.checkpoints": calls("serve.journal.checkpoint"),
        "serve.journal.restore_ms": total("serve.session.restore"),
        "serve.journal.replay_bytes": n("serve.journal.replay"),
        "serve.server.query_ms": total("serve.session.breakdown")
            + total("serve.session.describe"),
        "serve.protocol.encode_ms": total("serve.protocol.encode")
            + total("serve.protocol.decode"),
        "trace.spans": sum(agg["calls"] for agg in summary.values()),
    }
    values.update(base)
    for metric in ("rate_per_s", "p50_ms", "p90_ms", "resume_s"):
        values[f"trace.overhead.{metric}"] = overhead.get(metric, 0.0)
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: float(values[name]) for name, _, _ in PER_LAYER}


def client_base(scenario) -> dict:
    """The live workload's client-side and base numbers."""
    return {
        "serve.client.blocked_ms": sum(scenario.blocked_ms),
        "serve.client.reconnects": scenario.reconnects,
        "serve.probe.late_ms": percentile(
            [q[2] for q in scenario.queries], 90),
        "run.wall_ms": scenario.ingest_s * 1e3,
        "run.points": 0,
        "run.refold_points": 0,
        "run.entries": scenario.entries,
        "run.queries": len(scenario.queries),
        "run.speed_factor": scenario.factor(-math.inf, math.inf),
    }


def sweep_base(tally) -> dict:
    return {
        "serve.client.blocked_ms": 0.0,
        "serve.client.reconnects": 0,
        "serve.probe.late_ms": 0.0,
        "run.wall_ms": (tally.fresh_s + sum(tally.refold_walls)) * 1e3,
        "run.points": tally.fresh_points,
        "run.refold_points": tally.refold_points,
        "run.entries": 0,
        "run.queries": 0,
        "run.speed_factor": sum(p.factor for p in tally.passes)
            / len(tally.passes),
    }
