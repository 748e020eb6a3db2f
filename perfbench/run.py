"""The repo benchmark: one command, three workloads, every check.

Usage (from the repository root)::

    python3 perfbench/run.py \
        --workload table3-sweep|collection-sweep|live-ingest \
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` installs the per-layer span wrappers (``tracing.py``) and
reports the per-layer metrics plus the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A failed correctness
check makes the run exit 1.  Full results, provenance and (traced)
spans are written under ``.perfbench/out/``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchutil import (  # noqa: E402
    SRC, WORK, BenchFailure, calibrate, log, print_metric, provenance,
    result_line, scrub_repro_env, speed_factor, write_result_file,
)

WORKLOADS = ("table3-sweep", "collection-sweep", "live-ingest")

#: (name, unit) of the end-to-end metrics, reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("rate_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="print the digests pinned.json should hold")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(SRC.parent)
    scrubbed = scrub_repro_env()

    before = calibrate()
    start = time.perf_counter()
    import numpy  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.server  # noqa: F401
    import repro.sim.sweep
    import_s = time.perf_counter() - start
    start = time.perf_counter()
    repro.sim.sweep.code_fingerprint()
    fingerprint_s = time.perf_counter() - start
    factor = speed_factor(before, calibrate())
    import_s *= factor
    fingerprint_s *= factor

    if args.pin:
        import json

        import workload_sweeps
        print(json.dumps(workload_sweeps.pin_digests(), indent=1))
        return 0

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        if args.workload == "live-ingest":
            import workload_live
            out = workload_live.run(args.seed, args.seconds,
                                    bool(args.trace), run_id)
        else:
            import workload_sweeps
            out = workload_sweeps.run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), run_id)
    except BenchFailure as exc:
        print(f"FAIL: {exc}", flush=True)
        shutil.rmtree(WORK / "records", ignore_errors=True)
        return 1
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)

    prov = provenance(args.workload, args.seed, args.seconds,
                      bool(args.trace), scrubbed)
    log(f"== perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    for key in ("git_revision", "source_fingerprint", "nproc",
                "usable_cpus", "python", "numpy", "defaults"):
        log(f"  {key}: {prov[key]}")

    setup_s = import_s + fingerprint_s + median(out["setup_times"])
    e2e = dict(out["e2e"], setup_s=setup_s, peak_rss_mb=out["peak_rss_mb"])
    error_rate = out["failed"] / out["attempted"]
    log("end-to-end (the workload's own names):")
    print_metric("setup_s", setup_s, "s",
                 f"imports {import_s:.3f} + fingerprint {fingerprint_s:.3f}"
                 f" + median of {len(out['setup_times'])} set-ups "
                 + ", ".join(f"{t:.3f}" for t in out["setup_times"]))
    for name, (value, unit) in out["own_metrics"].items():
        print_metric(name, value, unit)
    print_metric("peak_rss_mb", out["peak_rss_mb"], "MB")
    print_metric("error_rate", error_rate, "ratio",
                 f"{out['failed']} failed / {out['attempted']} attempted")
    for note in out["notes"]:
        log(f"  {note}")
    for failure in out["failures"]:
        log(f"FAIL: {failure}")

    document = {"provenance": prov, "end_to_end": e2e,
                "own_metrics": out["own_metrics"],
                "error_rate": error_rate, "attempted": out["attempted"],
                "failed": out["failed"], "failures": out["failures"],
                "notes": out["notes"], "series": out.get("series")}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = traced_metrics(args.workload, out, e2e, document, stem,
                                 prov)
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
    shutil.rmtree(WORK / "records", ignore_errors=True)
    path = write_result_file(f"{stem}.json", document)
    log(f"results: {path.relative_to(SRC.parent)}")
    correct = not out["failures"]
    print(result_line(correct, out["attempted"], out["failed"], metrics),
          flush=True)
    return 0 if correct else 1


def traced_metrics(workload: str, out: dict, e2e: dict, document: dict,
                   stem: str, prov: dict) -> dict:
    """Per-layer metrics of a traced run, the tracing overhead, and the
    span dump."""
    from layers import (
        PER_LAYER, UNITS, client_base, layer_metrics, sweep_base,
    )
    from tracing import merge_summaries, read_dump, summarize

    tracer = out["tracer"]
    summaries = [tracer.summary()]
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"{stem}.spans.jsonl"
    tracer.dump(str(spans_path), {"role": "benchmark", "provenance": prov})
    if workload == "live-ingest":
        base = client_base(out["main"])
        with open(spans_path, "a", encoding="utf-8") as sink:
            for path in out["server_spans"]:
                summaries.append(summarize(read_dump(path)))
                with open(path, encoding="utf-8") as source:
                    sink.write(source.read())
    else:
        base = sweep_base(out["tally"])
    summary = merge_summaries(*summaries)
    ref = out["ref_e2e"]
    overhead = {name: e2e[name] / ref[name] for name in ref}
    values = layer_metrics(summary, base, overhead)
    log("tracing overhead (traced / untraced, same run):")
    for name in ref:
        print_metric(f"{name}", overhead[name], "ratio",
                     f"traced {e2e[name]:.6g} vs untraced {ref[name]:.6g}")
    log("per-layer (totals over the traced part; share of run.wall_ms):")
    wall = values["run.wall_ms"]
    for name, unit, _ in PER_LAYER:
        note = ""
        if unit == "ms" and wall and not name.startswith("run."):
            note = f"{100 * values[name] / wall:.1f}% of run.wall_ms"
        print_metric(name, values[name], unit, note)
    document["per_layer"] = values
    document["span_summary"] = summary
    document["untraced_e2e"] = ref
    document["spans_file"] = spans_path.name
    return {name: (values[name], UNITS[name]) for name, _, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
