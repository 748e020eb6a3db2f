#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every experiment.

Each experiment module contributes its paper-vs-measured comparison rows;
this script runs them all (a few minutes of simulation) and writes the
consolidated record the repo ships as EXPERIMENTS.md.  Full rendered
tables/figures land in results/ when the benchmark suite runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments import (  # noqa: F401  (import order = document order)
    ablation_logging,
    ablation_model_vs_meter,
    ablation_noise,
    ablation_proxies,
    ablation_weighting,
    ext_collection,
    ext_deployment,
    ext_txpower,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    table1,
    table2,
    table3,
    table4,
    table5,
)

ORDER = [
    (table1, "Table 1", "Platform energy sinks and nominal draws"),
    (table2, "Table 2", "Oscilloscope calibration of Blink's states"),
    (fig10, "Figure 10", "Scope traces with the iCount ripple"),
    (fig11, "Figure 11", "Blink activity/power profile"),
    (table3, "Table 3", "Where the joules have gone in Blink"),
    (fig12, "Figure 12", "Cross-node tracking (Bounce)"),
    (fig13, "Figure 13", "802.11 interference on LPL"),
    (fig14, "Figure 14", "Wake-up vs false-positive detail"),
    (fig15, "Figure 15", "The DCO-calibration timer leak"),
    (fig16, "Figure 16", "Interrupt-driven vs DMA SPI"),
    (table4, "Table 4", "Costs of logging"),
    (table5, "Table 5", "Instrumentation burden"),
    (ablation_weighting, "Ablation", "Regression weighting schemes"),
    (ablation_logging, "Ablation", "Logging vs counting"),
    (ablation_noise, "Ablation", "Meter-error sensitivity"),
    (ablation_proxies, "Ablation", "Proxy folding in the accounting"),
    (ablation_model_vs_meter, "Ablation",
     "Model-based (PowerTOSSIM-style) vs Quanto"),
    (ext_collection, "Extension", "Multihop collection priced network-wide"),
    (ext_txpower, "Extension", "TX power sweep"),
    (ext_deployment, "Extension", "Deployment case study: the dying node"),
]

HEADER = """\
# EXPERIMENTS — paper vs measured

Generated by `python tools/generate_experiments_md.py`.  Every table and
figure of the paper's evaluation is regenerated by a benchmark under
`benchmarks/` (full rendered output lands in `results/` when
`pytest benchmarks/ --benchmark-only` runs); this file records the
headline paper-vs-measured numbers from one deterministic run (seed 0).

Reading the ratios: we reproduce on a simulated substrate, so the claim
is *shape fidelity* — who wins, by what factor, where the structure lies
— not absolute-number identity.  Ratios near 1.0 mean the measured value
lands on the paper's; a few metrics are structural (counts, booleans).

Known deltas (see DESIGN.md §5 for the full list):

* Figure 13's average-power column: the paper's 1.43 / 0.919 mW are not
  mutually consistent with its own 61.8 mW listen power and 5.58 / 2.22 %
  duty cycles (5.58 % x 61.8 mW alone is 3.4 mW).  We match the duty
  cycles and false-positive rate; our powers are self-consistent with
  those, so the power *ratio* is the comparable number.
* Event counts (log messages, interrupt counts) depend on exact
  instrumentation placement and land in the same regime rather than
  exactly on the paper's integers.
* The channel-17 false-positive rate has +/-3.5 pp of run-to-run noise
  at the paper's sample size (~140 wake-ups); the interferer process is
  tuned so seed-averaged rates straddle 17.8 %.
"""


def main() -> None:
    sections = [HEADER]
    for module, exp_id, title in ORDER:
        print(f"running {module.__name__} ...", file=sys.stderr)
        result = module.run()
        sections.append(f"\n## {exp_id}: {title}\n")
        if result.comparisons:
            sections.append("| metric | paper | measured | ratio |")
            sections.append("|---|---|---|---|")
            for name, paper, measured in result.comparisons:
                ratio = f"{measured / paper:.3f}" if paper else "—"
                sections.append(
                    f"| {name} | {paper:g} | {measured:.4g} | {ratio} |")
        else:
            sections.append(
                "_Comparative ablation (no single paper number); see "
                f"`results/{result.exp_id}.txt` for the full table._")
        notable = _notable(result)
        if notable:
            sections.append("")
            sections.append(notable)
    out = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    out.write_text("\n".join(sections) + "\n")
    print(f"wrote {out}", file=sys.stderr)


def _notable(result) -> str:
    """One-line context per experiment, from its data payload."""
    data = result.data
    if result.exp_id == "table3":
        return (f"Accounting closes on the meter within "
                f"{data['accounting_error'] * 100:.4f} % "
                f"(paper: 0.004 %).")
    if result.exp_id == "fig12":
        return (f"Node 1 charged {data['remote_activity_mj_on_node1']:.2f} "
                f"mJ to node 4's activity; reception proxy bound: "
                f"{data['rx_bind_found']}.")
    if result.exp_id == "fig16":
        return (f"DMA FIFO-load speedup {data['speedup']:.1f}x; the "
                f"paper's claim is 'at least twice as fast'.")
    if result.exp_id == "ablation_weighting":
        best = data.get("best")
        errors = data.get("errors", {})
        listing = ", ".join(f"{k}: {v:.2f} %" for k, v in errors.items())
        return (f"Mean |error| vs ground truth by weighting — {listing}. "
                f"Best: {best}; the paper's sqrt(Et) beats unweighted.")
    if result.exp_id == "ablation_noise":
        return (f"+15 % meter gain error rescales all estimates uniformly "
                f"(spread {data['spread']:.4f}): the breakdown's shape "
                f"survives miscalibration.")
    if result.exp_id == "ablation_proxies":
        return (f"Folding moves {data['remote_folded_mj'] - data['remote_unfolded_mj']:.3f} mJ "
                f"of proxy usage onto the remote activity; totals conserved: "
                f"{data['totals_match']}.")
    if result.exp_id == "ablation_model_vs_meter":
        return (f"Mean |error| on LED energy: Quanto "
                f"{data['mean_abs_err_quanto_pct']:.2f} % vs datasheet "
                f"model {data['mean_abs_err_model_pct']:.1f} % — the "
                f"paper's case for metering over modelling.")
    if result.exp_id == "ext_collection":
        return (f"Root received {data['delivered']} packets from origins "
                f"{data['origins_at_root']}; the leaf's activity spent "
                f"{100 * data['leaf_remote_fraction']:.0f} % of its energy "
                f"on relay nodes.")
    if result.exp_id == "ext_txpower":
        return (f"Recovered draws monotone across "
                f"{data['monotone_pairs']}/7 adjacent PA settings; mean "
                f"|error| {data['mean_err_pct']:.1f} %.")
    if result.exp_id == "ext_deployment":
        sick = data["stats"]["13"]
        return (f"The node near the AP draws {data['power_ratio']:.2f}x "
                f"its siblings' power with {sick['pxy_waste_mj']:.0f} mJ "
                f"on the unbound receive proxy — the redwood-deployment "
                f"mystery, diagnosed.")
    return ""


if __name__ == "__main__":
    main()
