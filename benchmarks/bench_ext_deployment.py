"""Extension: the dying-node deployment case study."""

from conftest import run_once

from repro.experiments import ext_deployment


def test_ext_deployment(benchmark, archive):
    result = run_once(benchmark, ext_deployment.run)
    archive(result)
    stats = result.data["stats"]
    # The node near the AP burns measurably more than its siblings ...
    assert result.data["power_ratio"] > 1.3
    # ... its waste sits on the unbound receive proxy ...
    assert stats["13"]["pxy_waste_mj"] > 5 * max(
        stats["11"]["pxy_waste_mj"], stats["12"]["pxy_waste_mj"], 0.001)
    # ... and the healthy nodes saw no false wake-ups at all.
    assert stats["11"]["detections"] == 0
    assert stats["12"]["detections"] == 0
    # The network still worked: samples reached the root.
    assert result.data["delivered"] > 0
