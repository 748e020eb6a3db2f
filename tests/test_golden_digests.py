"""Golden digests: every experiment's rendered output, pinned by hash.

The perf work in this repo (calendar-queue scheduler, deferred log
packing, power-state lookup tables, streaming micro-optimizations) is
only admissible if it is *byte-identical* to the reference behaviour:
same event orderings, same log bytes, same float arithmetic, same
rendered tables.  This test pins the sha256 of ``render()`` for all 20
experiments at seed 0, captured on the pre-optimization tree (the plain
binary-heap scheduler and eager per-record packing) — so an old-heap vs
calendar-queue divergence anywhere in the stack shows up as a digest
mismatch naming the experiment.

The digests depend on IEEE-754 double arithmetic and CPython's ``random``
module, both of which are deterministic, plus libm (``log``/``sqrt`` in
``random.gauss``), which is deterministic per platform but may differ in
the last ulp across C libraries.  If this test fails on every experiment
on an exotic platform while ``tests/test_determinism.py`` passes, the
platform's libm disagrees with the reference values; regenerate with
``PYTHONPATH=src python tools/regen_golden_digests.py``.

One experiment is self-referential: ``table5`` counts source lines of
the instrumentation modules themselves.  Its digest is therefore taken
on a pinned input, the synthetic module tree ``tests/table5_tree``
(``test_table5.py`` checks its exact counts and the live tree's row
shape), so editing a counted module never moves it.  Any digest
changing — table5's included — is a real behavioural divergence.

Each experiment runs twice: first on worlds constructed cold (every
world cache cleared), then again on the warm, reset worlds the first
run left behind — reset ≡ rebuild, checked against the same golden.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.tos.node as node_module
from repro.core.accounting import ANALYSIS_BACKENDS, build_energy_map
from repro.core.regression import group_intervals
from repro.core.timeline import ColumnarTimeline
from repro.experiments import table5
from repro.experiments.common import (
    EXPERIMENT_IDS,
    clear_batch_worlds,
    clear_warm_worlds,
    run_experiment,
)
from timeline_views import assert_maps_identical

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text("utf-8"))
TABLE5_TREE = Path(__file__).parent / "table5_tree"


def cross_check_engines(monkeypatch) -> dict:
    """Re-price every analysis a node runs on the streaming reference.

    Each map the node's columnar entry point builds is rebuilt by the
    streaming engine from the same timeline, and each grouped regression
    input is regrouped from materialized intervals; both must agree bit
    for bit.  Returns live call counts."""
    calls = {"maps": 0, "regressions": 0}
    columnar_map = node_module.columnar_energy_map
    grouped_inputs = ColumnarTimeline.grouped_inputs

    def checked_map(timeline, regression, registry, component_names,
                    energy_per_pulse_j, **kwargs):
        emap = columnar_map(timeline, regression, registry,
                            component_names, energy_per_pulse_j, **kwargs)
        assert_maps_identical(build_energy_map(
            timeline, regression, registry, component_names,
            energy_per_pulse_j, backend="streaming", **kwargs), emap)
        calls["maps"] += 1
        return emap

    def checked_grouped(self, energy_per_pulse_j, min_interval_ns=0):
        grouped = grouped_inputs(self, energy_per_pulse_j, min_interval_ns)
        usable = [iv for iv in self.power_intervals()
                  if iv.dt_ns >= min_interval_ns]
        assert group_intervals(usable, energy_per_pulse_j) == grouped
        calls["regressions"] += 1
        return grouped

    monkeypatch.setattr(node_module, "columnar_energy_map", checked_map)
    monkeypatch.setattr(ColumnarTimeline, "grouped_inputs", checked_grouped)
    return calls


def test_golden_file_covers_every_experiment():
    assert sorted(GOLDEN) == sorted(EXPERIMENT_IDS)


@pytest.mark.parametrize("backend", ANALYSIS_BACKENDS)
@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_experiment_digest_matches_golden(exp_id, backend, monkeypatch):
    """Every experiment must reproduce the pre-optimization digest, both
    from cold world caches and on the warm (reset) worlds.  The
    ``streaming`` leg additionally re-prices every map and regression
    the experiment computes on the streaming reference — columnar ≡
    streaming, float bits and dict order, on every experiment."""
    if backend == "streaming":
        cross_check_engines(monkeypatch)
    monkeypatch.setattr(table5, "_package_root", lambda: TABLE5_TREE)
    clear_warm_worlds()
    clear_batch_worlds()
    for start in ("cold", "warm"):
        rendered = run_experiment(exp_id, seed=0).render()
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        assert digest == GOLDEN[exp_id], (
            f"{exp_id} [{backend}, {start}]: rendered output diverged "
            f"from the pre-optimization reference "
            f"(got {digest[:16]}, want {GOLDEN[exp_id][:16]})"
        )


def test_cross_check_sees_node_analysis(monkeypatch):
    """The cross-check hooks the path experiments take: one Blink
    breakdown is re-priced once per map and once per regression."""
    from repro.experiments.common import run_blink
    from repro.units import seconds

    calls = cross_check_engines(monkeypatch)
    node, _app, _sim = run_blink(seed=0, duration_ns=seconds(2))
    node.breakdown(fold_proxies=True)
    assert calls == {"maps": 1, "regressions": 1}
