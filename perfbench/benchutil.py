"""Shared plumbing for the workloads: statistics, provenance, output."""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root (this file lives in ``<root>/perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes: scratch state and its result files.
WORK = ROOT / ".perfbench"


class BenchFailure(Exception):
    """A correctness check failed: the run must exit non-zero."""


def scrub_repro_env() -> list[str]:
    """Drop every ``REPRO_*`` variable so the program's defaults are
    what gets measured; returns the names removed."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    return removed


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Iterations of the calibration loop (about 2-3 ms).
CAL_ITERATIONS = 30_000
#: The calibration loop's wall time on the reference host (a 2-CPU KVM
#: guest on a Xeon "Sapphire Rapids") in its fast phase.
CAL_REF_S = 0.002


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now (best of 3).

    The 2-CPU host alternates every few seconds between a fast phase
    and one up to 1.7x slower, whatever else runs (this loop shows it
    alone), and drifts over minutes as well; raw wall times of the same
    work spread by 15-30 % from run to run.  So timed slices are
    bracketed by this loop, and a slice's normalized time is its wall
    time times ``CAL_REF_S / calibration``: what it would have taken on
    the reference host.  The program cannot change the loop, so a change
    to the program moves normalized times in the same proportion as wall
    times."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(CAL_ITERATIONS):
            x += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def speed_factor(*calibrations: float) -> float:
    """Scale from wall time to reference-host time."""
    return CAL_REF_S / (sum(calibrations) / len(calibrations))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any waited-for child process (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def git_revision() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work
    tree (git is then not run at all)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: bool,
               scrubbed: list[str]) -> dict:
    """Who/what/where of one run, with the program's resolved defaults
    (read after ``REPRO_*`` was scrubbed)."""
    import numpy

    from repro.cli import build_parser
    from repro.core.accounting import resolve_analysis_backend
    from repro.experiments.common import warm_start_enabled
    from repro.sim.sweep import code_fingerprint, resolve_batch

    serve = build_parser().parse_args(["serve"])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(),
        "source_fingerprint": code_fingerprint(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scrubbed_env": scrubbed,
        "defaults": {
            "analysis_backend": resolve_analysis_backend(None),
            "sweep_batch_k": resolve_batch(None),
            "warm_start": warm_start_enabled(),
            "serve_queue_depth": serve.queue_depth,
            "serve_checkpoint_bytes": serve.checkpoint_bytes,
            "serve_retain": serve.retain,
        },
    }


def write_result_file(name: str, document: dict) -> Path:
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    suffix = f"  ({note})" if note else ""
    print(f"  {name:<34} {value:>14.6g} {unit}{suffix}", flush=True)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def log(message: str) -> None:
    print(message, file=sys.stdout, flush=True)
