"""Regenerate tests/golden_digests.json from the current tree.

Only legitimate when the reproduction's *behaviour* intentionally changed
(new experiment output, changed cost model) or when porting the suite to
a platform whose libm disagrees with the reference in the last ulp.  A
perf-only change must never need this script — that is the whole point
of the golden file.  table5, which counts source lines, is digested on
the pinned module tree ``tests/table5_tree`` exactly as the golden test
runs it, so editing the package's own modules never calls for this
script either.

Usage: PYTHONPATH=src python tools/regen_golden_digests.py
"""

import hashlib
import json
from pathlib import Path

from repro.experiments import table5
from repro.experiments.common import EXPERIMENT_IDS, run_experiment

TESTS = Path(__file__).resolve().parent.parent / "tests"
GOLDEN_PATH = TESTS / "golden_digests.json"
TABLE5_TREE = TESTS / "table5_tree"


def main() -> None:
    table5._package_root = lambda: TABLE5_TREE
    digests = {}
    for exp_id in EXPERIMENT_IDS:
        rendered = run_experiment(exp_id, seed=0).render()
        digests[exp_id] = hashlib.sha256(
            rendered.encode("utf-8")).hexdigest()
        print(f"{exp_id:28s} {digests[exp_id][:16]}")
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n", "utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
