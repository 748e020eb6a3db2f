"""The two sweep workloads: ``table3-sweep`` and ``collection-sweep``.

Both run ``run_sweep(..., jobs=1)`` in this process, pass after pass
until ``--seconds`` is used up, each pass a fresh grid whose seeds come
from the workload seed.  ``table3-sweep`` stores every pass into a fresh
shard store and then refolds the same grid from that warm store several
times; ``collection-sweep`` runs without a cache.  See ``README.md`` for
why.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchutil import (
    WORK, calibrate, percentile, self_peak_rss_mb, speed_factor,
)


@dataclass(frozen=True)
class SweepSpec:
    name: str
    exp_id: str
    overrides: dict
    seeds_per_pass: int
    refolds: int  # warm-store refolds per pass; 0 = no cache at all
    sample_points: int  # points re-run unbatched for the batch=1 check


TABLE3 = SweepSpec(
    name="table3-sweep",
    exp_id="table3",
    # The paper's noise sources on, so every seed's point differs.
    overrides={"device_variation": ["0.02"], "icount_jitter_pulses": ["1.0"]},
    seeds_per_pass=32,
    refolds=8,
    sample_points=4,
)

COLLECTION = SweepSpec(
    name="collection-sweep",
    exp_id="ext_collection",
    overrides={"nodes": ["5"], "topology": ["line", "star"]},
    seeds_per_pass=1,
    refolds=0,
    sample_points=2,
)

SPECS = {spec.name: spec for spec in (TABLE3, COLLECTION)}

#: The seed whose first pass has its sweep digest pinned in
#: ``pinned.json``; that pass is re-run and checked in every run.
DEFAULT_SEED = 1
PINNED = Path(__file__).resolve().parent / "pinned.json"


def pass_seeds(spec: SweepSpec, seed: int, index: int) -> list[int]:
    """Grid seeds of pass ``index``: disjoint across passes and seeds."""
    base = 1_000 + seed * 1_000_000 + index * spec.seeds_per_pass
    return list(range(base, base + spec.seeds_per_pass))


def warmup_seeds(spec: SweepSpec, seed: int, count: int) -> list[int]:
    """Seeds outside every grid of this workload seed."""
    base = 1_000 + seed * 1_000_000
    return list(range(base - count, base))


@dataclass
class PassRecord:
    """One fresh grid pass, bracketed by calibrations."""

    points: int
    wall_s: float
    seed_ms: list  # latency of each seed's results in this pass
    refold_walls: list  # wall of each refold of this pass's grid
    factor: float = 1.0  # wall -> reference-host time (benchutil.calibrate)

    @property
    def norm_s(self) -> float:
        return self.wall_s * self.factor


@dataclass
class Tally:
    """What the measured passes produced."""

    passes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # (point, digest)
    retries: int = 0

    @property
    def fresh_points(self) -> int:
        return sum(p.points for p in self.passes)

    @property
    def fresh_s(self) -> float:
        return sum(p.wall_s for p in self.passes)

    @property
    def refold_walls(self) -> list:
        return [w for p in self.passes for w in p.refold_walls]

    @property
    def refold_points(self) -> int:
        return sum(p.points * len(p.refold_walls) for p in self.passes)


def run_pass(spec: SweepSpec, seeds: list[int], work: Path, tally: Tally,
             run_sweep, rng: random.Random) -> None:
    """One fresh grid (+ its refolds): timed, then checked."""
    cal_before = calibrate()
    cache_dir = None
    if spec.refolds:
        cache_dir = work / "store"
        shutil.rmtree(cache_dir, ignore_errors=True)
    start = time.perf_counter()
    fresh = run_sweep(spec.exp_id, seeds, spec.overrides, jobs=1,
                      cache_dir=cache_dir)
    wall = time.perf_counter() - start
    per_seed: dict[int, float] = {}
    for summary in fresh.points:
        if summary.from_cache:
            tally.failures.append(
                f"fresh pass served {summary.point.describe()} from cache")
        per_seed[summary.seed] = per_seed.get(summary.seed, 0.0) \
            + summary.wall_s * 1e3
    record = PassRecord(len(fresh.points), wall, list(per_seed.values()), [])
    tally.passes.append(record)
    for summary in rng.sample(fresh.points, 1):
        tally.samples.append((summary.point, summary.digest))
    digest = fresh.digest()
    for _ in range(spec.refolds):
        start = time.perf_counter()
        warm = run_sweep(spec.exp_id, seeds, spec.overrides, jobs=1,
                         cache_dir=cache_dir)
        record.refold_walls.append(time.perf_counter() - start)
        if warm.cache_hits != len(warm.points):
            tally.failures.append(
                f"refold hit {warm.cache_hits}/{len(warm.points)} points")
        if warm.digest() != digest:
            tally.failures.append(
                f"refold digest {warm.digest()} != fresh {digest}")
    if cache_dir is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)
    record.factor = speed_factor(cal_before, calibrate())


def setup(spec: SweepSpec, seed: int, repeats: int) -> list[float]:
    """Warm-up outside the grid, ``repeats`` times from cold world
    caches: one batch of seeds for table3 (so the batched executor's
    worlds exist), one seed's override combos for collection.  Returns
    each repeat's time in reference-host seconds."""
    from repro.experiments.common import clear_batch_worlds, clear_warm_worlds
    from repro.sim.sweep import resolve_batch, run_sweep

    count = resolve_batch(None) if spec.refolds else 1
    times = []
    for _ in range(repeats):
        clear_warm_worlds()
        clear_batch_worlds()
        before = calibrate()
        start = time.perf_counter()
        run_sweep(spec.exp_id, warmup_seeds(spec, seed, count),
                  spec.overrides, jobs=1)
        wall = time.perf_counter() - start
        times.append(wall * speed_factor(before, calibrate()))
    return times


def check_unbatched(samples, failures: list) -> int:
    """Re-run sampled points one at a time (no batch plan: the
    ``batch=1`` path) and compare digests with the batched sweep."""
    from repro.sim.sweep import run_point

    for point, digest in samples:
        again = run_point(point).digest
        if again != digest:
            failures.append(
                f"[{point.describe()}] batch=1 digest {again} != {digest}")
    return len(samples)


def check_pinned(spec: SweepSpec, failures: list) -> None:
    """The default seed's first pass must reproduce its pinned digest."""
    from repro.sim.sweep import run_sweep

    pinned = json.loads(PINNED.read_text())[spec.name]
    result = run_sweep(spec.exp_id, pass_seeds(spec, DEFAULT_SEED, 0),
                       spec.overrides, jobs=1)
    if result.digest() != pinned:
        failures.append(f"pinned digest: got {result.digest()}, "
                        f"pinned {pinned}")


def pin_digests() -> dict:
    """The digests ``pinned.json`` holds: each workload's default-seed
    first pass, run unbatched (``$REPRO_SWEEP_BATCH=1``)."""
    from repro.sim.sweep import BATCH_ENV_VAR, run_sweep

    os.environ[BATCH_ENV_VAR] = "1"
    try:
        return {spec.name: run_sweep(
            spec.exp_id, pass_seeds(spec, DEFAULT_SEED, 0), spec.overrides,
            jobs=1).digest() for spec in SPECS.values()}
    finally:
        del os.environ[BATCH_ENV_VAR]


def count_retries(tally: Tally):
    """Count in-process point retries (a point that raised); the sweep
    module calls this hook only when a point fails."""
    import repro.sim.sweep as sweep

    original = sweep._retry_failed_point

    def counted(*args, **kwargs):
        tally.retries += 1
        return original(*args, **kwargs)

    sweep._retry_failed_point = counted
    return lambda: setattr(sweep, "_retry_failed_point", original)


def passes_for(spec: SweepSpec, seconds: float) -> int:
    """Fixed pass count of a traced run (about ``seconds`` of work on a
    2-CPU host for each of the traced and untraced halves)."""
    per_s = {"table3-sweep": 3.0, "collection-sweep": 2.5}[spec.name]
    return max(2, round(seconds * per_s / 2))


def end_to_end(spec: SweepSpec, tally: Tally) -> dict[str, float]:
    """End-to-end metrics in reference-host time (``benchutil.calibrate``):
    the rate over every pass, per-seed latency percentiles, and the
    median refold (table3) or pass (collection: nothing to refold)."""
    latencies = [ms * p.factor for p in tally.passes for ms in p.seed_ms]
    if spec.refolds:
        walls = [w * p.factor for p in tally.passes for w in p.refold_walls]
    else:
        walls = [p.norm_s for p in tally.passes]
    return {
        "rate_per_s": tally.fresh_points
            / sum(p.norm_s for p in tally.passes),
        "p50_ms": percentile(latencies, 50),
        "p90_ms": percentile(latencies, 90),
        "resume_s": percentile(walls, 50),
    }


def run(name: str, seed: int, seconds: int, trace: bool, run_id: str) -> dict:
    from repro.sim.sweep import run_sweep

    spec = SPECS[name]
    work = WORK / "tmp" / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(seed)
    setup_times = setup(spec, seed, repeats=3)

    main, ref = Tally(), Tally()
    restore = count_retries(main)
    tracer = None
    try:
        if trace:
            from tracing import Tracer, install_offline
            tracer = Tracer(run_id)
            traced_sweep = tracer.wrap("sim.sweep.run_sweep", run_sweep)
            for index in range(passes_for(spec, seconds)):
                # Interleave untraced and traced passes on the same grid
                # sizes: the overhead ratio is immune to slow drift.
                run_pass(spec, pass_seeds(spec, seed, 2 * index), work, ref,
                         run_sweep, rng)
                install_offline(tracer)
                try:
                    run_pass(spec, pass_seeds(spec, seed, 2 * index + 1),
                             work, main, traced_sweep, rng)
                finally:
                    tracer.unpatch()
        else:
            deadline = time.perf_counter() + seconds
            index = 0
            while index == 0 or time.perf_counter() < deadline:
                run_pass(spec, pass_seeds(spec, seed, index), work, main,
                         run_sweep, rng)
                index += 1
    finally:
        restore()
    failures = main.failures + ref.failures
    checked = check_unbatched(rng.sample(main.samples, min(
        spec.sample_points, len(main.samples))), failures)
    check_pinned(spec, failures)
    shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(spec, main)
    points = sum(t.fresh_points + spec.refolds * t.fresh_points
                 for t in (main, ref))
    own = {"points_per_s": (e2e["rate_per_s"], "points/s")}
    notes = [
        f"{main.fresh_points} fresh points in {len(main.passes)} passes, "
        f"{main.fresh_s:.3f} s wall "
        f"(raw {main.fresh_points / main.fresh_s:.1f} points/s)",
    ]
    if spec.refolds:
        own["cached_points_per_s"] = (
            spec.seeds_per_pass / e2e["resume_s"], "points/s")
        refolds = main.refold_walls
        notes.append(f"{len(refolds)} refolds of {spec.seeds_per_pass} "
                     f"points, {sum(refolds):.3f} s")
    notes.append(f"{checked} points re-run unbatched; pinned digest "
                 f"of seed {DEFAULT_SEED} pass 0 re-checked")
    return {
        "setup_times": setup_times,
        "e2e": e2e,
        "ref_e2e": end_to_end(spec, ref) if trace else None,
        "peak_rss_mb": self_peak_rss_mb(),
        "attempted": points + checked + 1,
        "failed": len(failures) + main.retries,
        "failures": failures,
        "tracer": tracer,
        "tally": main,
        "own_metrics": own,
        "notes": notes,
        "series": {"passes": [
            [p.points, p.wall_s, p.factor, p.seed_ms, p.refold_walls]
            for p in main.passes]},
    }
