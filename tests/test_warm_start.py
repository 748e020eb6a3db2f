"""The warm-start protocol: reset ≡ rebuild, digest for digest.

A sweep worker constructs one experiment world per configuration and
``QuantoNode.reset(seed)``s it per grid point instead of rebuilding.  The
contract gated here is *bit-identity*: a warm (reset) run must render the
same bytes as a cold (freshly constructed) run at every seed, in any
interleaving — otherwise warm sweeps would silently diverge from the
determinism digests the whole pipeline is keyed on.
"""

import hashlib

import pytest

import repro.experiments.common as common
from repro.experiments.common import (
    clear_warm_worlds,
    run_blink,
    run_experiment,
)
from repro.units import seconds

SHORT_NS = str(seconds(4))

#: Experiments exercising the warm path with meaningfully different
#: worlds: noise knobs (seed-dependent construction), defaults, and the
#: three-configuration logging ablation (ram / drain / counters).
WARM_EXPERIMENTS = [
    ("table3", {"duration_ns": SHORT_NS, "device_variation": "0.03",
                "icount_jitter_pulses": "1.5"}),
    ("table3", {"duration_ns": SHORT_NS}),
    ("ablation_weighting", {}),
]


def _digest(exp_id, seed, overrides):
    rendered = run_experiment(exp_id, seed=seed, overrides=overrides).render()
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _cold_digest(exp_id, seed, overrides):
    """The reference: a run on freshly constructed worlds."""
    clear_warm_worlds()
    return _digest(exp_id, seed, overrides)


@pytest.mark.parametrize("exp_id,overrides", WARM_EXPERIMENTS)
def test_warm_reset_equals_cold_rebuild(exp_id, overrides):
    """The tentpole equivalence: for several seeds, a warm world reset
    per seed renders byte-identically to a cold rebuild per seed."""
    seeds = (0, 3, 11)
    cold_digests = [_cold_digest(exp_id, s, overrides) for s in seeds]
    clear_warm_worlds()
    warm_digests = [_digest(exp_id, s, overrides) for s in seeds]
    assert warm_digests == cold_digests
    # Re-running a seed on the (now well-used) warm world still matches.
    assert _digest(exp_id, seeds[0], overrides) == cold_digests[0]


def test_warm_reset_survives_config_interleaving():
    """Alternating configurations must not leak state between worlds
    (each configuration has its own cached world; both keep resetting)."""
    noisy = {"duration_ns": SHORT_NS, "device_variation": "0.05"}
    clean = {"duration_ns": SHORT_NS}
    want = {
        ("noisy", seed): _cold_digest("table3", seed, noisy)
        for seed in (0, 1)
    } | {
        ("clean", seed): _cold_digest("table3", seed, clean)
        for seed in (0, 1)
    }
    clear_warm_worlds()
    for seed in (0, 1, 0, 1):
        assert _digest("table3", seed, noisy) == want[("noisy", seed)]
        assert _digest("table3", seed, clean) == want[("clean", seed)]


def test_warm_hit_reuses_the_world_object():
    """A same-configuration rerun hands back the same (reset) objects —
    the documented aliasing contract, and the proof construction was
    actually skipped; clearing the cache constructs a new world."""
    clear_warm_worlds()
    node_a, _, sim_a = run_blink(0, duration_ns=seconds(2))
    node_b, _, sim_b = run_blink(1, duration_ns=seconds(2))
    assert node_a is node_b and sim_a is sim_b
    clear_warm_worlds()
    node_c, _, _ = run_blink(0, duration_ns=seconds(2))
    assert node_c is not node_a


def test_world_stock_stays_within_its_bounds():
    """Serial runs over many configurations plus batches on two of them:
    at most eight configurations stay stocked, and only the two most
    recent keep more than one world — never more than 8 + 2 × K worlds."""
    k = 4
    duration = seconds(1)
    clear_warm_worlds()
    common.clear_batch_worlds()
    for node_id in range(1, 11):
        run_blink(0, duration_ns=duration, node_id=node_id)
    for node_id in (1, 2):
        with common.blink_batch_plan(range(k)):
            for seed in range(k):
                run_blink(seed, duration_ns=duration, node_id=node_id)
    stock = common._WORLD_STOCK
    sizes = [len(worlds) for worlds in stock.values()]
    assert len(stock) == 8
    assert sizes[-2:] == [k, k]
    assert all(size <= 1 for size in sizes[:-2])
    assert sum(sizes) <= 8 + 2 * k
    # The two batched configurations' worlds are reused, not rebuilt.
    stocked = {id(node) for worlds in stock.values() for _, node in worlds}
    with common.blink_batch_plan(range(k)):
        for seed in range(k):
            node, _, _ = run_blink(seed, duration_ns=duration, node_id=2)
            assert id(node) in stocked


def test_uncacheable_configs_run_cold():
    """A custom draw profile cannot be value-compared, so those runs
    never enter the warm cache."""
    from repro.hw.catalog import default_actual_profile
    from repro.hw.platform import PlatformConfig

    clear_warm_worlds()
    profile = default_actual_profile()
    config = PlatformConfig(profile=profile)
    node_a, _, _ = run_blink(0, duration_ns=seconds(2), platform=config)
    node_b, _, _ = run_blink(0, duration_ns=seconds(2), platform=config)
    assert node_a is not node_b


def test_networked_node_refuses_reset():
    from repro.net.channel import RadioChannel
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngFactory
    from repro.tos.node import NodeConfig, QuantoNode

    sim = Simulator()
    channel = RadioChannel(sim)
    node = QuantoNode(sim, NodeConfig(node_id=1), channel=channel,
                      rng_factory=RngFactory(0))
    with pytest.raises(RuntimeError):
        node.reset(1)


def test_reset_drops_run_registered_activities():
    """Application activities registered during a run are gone after the
    reset, so the next run re-registers them into the same id space."""
    clear_warm_worlds()
    node, _, _ = run_blink(0, duration_ns=seconds(2))
    known_after_run = dict(node.registry.known_ids())
    assert "Red" in known_after_run.values()
    node.reset(0)
    known_after_reset = node.registry.known_ids()
    assert "Red" not in known_after_reset.values()
    # And a rerun brings them back under the same ids.
    node.boot(lambda n: None)
    rerun_ids = node.registry.known_ids()
    assert set(rerun_ids) <= set(known_after_run)
