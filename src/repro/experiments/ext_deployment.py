"""Extension: diagnosing a dying node in a deployment.

The paper opens with the redwood-microclimate deployment where 15 % of
the nodes died within a week while the rest lasted months, and "a lack
of data makes the exact cause unknown" — the problem Quanto exists to
solve.  This case study recreates the situation in miniature: three
identical duty-cycled sensing nodes report to an always-on root, but one
of them happens to sit near an 802.11 access point whose traffic its
channel checks read as activity.  Its radio stays up for the 100 ms
detect-hold again and again, and its battery projection collapses.

With Quanto the diagnosis is direct: the sick node's energy map shows
the waste sitting on the unbound ``pxy_RX`` proxy — false wake-ups — not
on its application activities, which look identical to its siblings'.
"""

from __future__ import annotations

from repro.core.report import format_table
from repro.experiments.common import ExperimentResult
from repro.hw.catalog import default_actual_profile
from repro.hw.platform import PlatformConfig
from repro.tos.network import Network
from repro.tos.node import NodeConfig, RES_RADIO
from repro.units import ma, seconds, to_mj, to_s

ROOT_ID = 10
HEALTHY_IDS = (11, 12)
SICK_ID = 13

#: Two AA cells at 3 V: ~2000 mAh ~= 21.6 kJ.
BATTERY_J = 21_600.0

DURATION_NS = seconds(60)


def _sensing_profile():
    profile = default_actual_profile()
    profile.baseline_amps = ma(0.05)  # a well-built low-power node
    return profile


def run(seed: int = 0) -> ExperimentResult:
    from repro.apps.sense_send import SenseAndSendApp

    network = Network(seed=seed)
    network.add_node(NodeConfig(node_id=ROOT_ID, mac="csma",
                                radio_channel_number=17))
    apps = {}
    for node_id in (*HEALTHY_IDS, SICK_ID):
        network.add_node(NodeConfig(
            node_id=node_id, mac="lpl", radio_channel_number=17,
            platform=PlatformConfig(profile=_sensing_profile()),
        ))
        apps[node_id] = SenseAndSendApp(sink_id=ROOT_ID,
                                        period_ns=seconds(15))
    # The office AP is audible only to the sick node.
    network.add_wifi_interferer(audible_to={SICK_ID})

    received = []

    def root_app(node) -> None:
        node.am.register_receiver(0x53, received.append)
        node.mac.start()

    boot = {ROOT_ID: root_app}
    boot.update({nid: app.start for nid, app in apps.items()})
    network.boot_all(boot)
    network.run(DURATION_NS)

    rows = []
    stats = {}
    for node_id in (*HEALTHY_IDS, SICK_ID):
        node = network.node(node_id)
        timeline = node.timeline()
        intervals = timeline.power_intervals()
        quantum = node.platform.icount.nominal_energy_per_pulse_j
        energy = sum(iv.pulses for iv in intervals) * quantum
        span_s = to_s(intervals[-1].t1_ns - intervals[0].t0_ns)
        power_w = energy / span_s if span_s else 0.0
        lifetime_days = (BATTERY_J / power_w / 86_400.0
                         if power_w else float("inf"))
        radio_on_ns = sum(iv.dt_ns for iv in intervals
                          if iv.state_of(RES_RADIO) not in (0, None))
        emap = node.energy_map(timeline)
        proxy_name = node.registry.name_of(node.proxies.label("pxy_RX"))
        waste = emap.energy_by_activity().get(proxy_name, 0.0)
        stats[node_id] = {
            "power_mw": power_w * 1e3,
            "lifetime_days": lifetime_days,
            "radio_duty_pct": 100.0 * radio_on_ns / span_s / 1e9,
            "pxy_waste_mj": to_mj(waste),
            "detections": node.mac.detections,
        }
        rows.append((
            f"node {node_id}" + (" (near AP)" if node_id == SICK_ID else ""),
            f"{power_w * 1e3:.2f}",
            f"{stats[node_id]['radio_duty_pct']:.2f} %",
            str(node.mac.detections),
            f"{to_mj(waste):.2f}",
            f"{lifetime_days:.0f}",
        ))
    table = format_table(
        ("node", "avg power (mW)", "radio duty", "false wakes",
         "pxy_RX waste (mJ)", "battery (days)"),
        rows,
        title="three identical sensing nodes, 60 s window, 2xAA budget")

    healthy_power = sum(stats[n]["power_mw"] for n in HEALTHY_IDS) / 2
    sick_power = stats[SICK_ID]["power_mw"]
    ratio = sick_power / healthy_power if healthy_power else 0.0
    healthy_life = sum(stats[n]["lifetime_days"] for n in HEALTHY_IDS) / 2
    diagnosis = (
        f"node {SICK_ID} draws {ratio:.2f}x its siblings' power; its "
        f"projected lifetime is {stats[SICK_ID]['lifetime_days']:.0f} days "
        f"vs their {healthy_life:.0f} — and the energy map pins the "
        f"difference on the never-bound receive proxy (false wake-ups), "
        f"not on the application."
    )

    return ExperimentResult(
        exp_id="ext_deployment",
        title="Deployment case study: why is one node dying early?",
        text="\n\n".join([table, diagnosis,
                          f"samples delivered to root: {len(received)}"]),
        data={
            # String node ids keep the payload JSON-native, so the sweep
            # cache can store it.
            "stats": {str(node_id): row for node_id, row in stats.items()},
            "power_ratio": ratio,
            "delivered": len(received),
        },
        comparisons=[
            ("sick/healthy power ratio (>1.3)", 1.3, ratio),
            ("healthy-node false wakes", 0.0,
             float(sum(stats[n]["detections"] for n in HEALTHY_IDS))),
        ],
    )
