"""Table 5 counts source lines, so it is checked in two halves.

* On a pinned input — the synthetic module tree under ``table5_tree/``
  — the counts are exact, hand-counted below.  The table5 golden digest
  is taken on the same tree (``test_golden_digests.py``), so editing
  the package's own modules never moves it.
* On the live package tree, every row must be well formed: positive
  integer counts, rows in ``MAPPING`` order, and the paper column as
  published.
"""

import re
from pathlib import Path

from repro.experiments import table5

PINNED_TREE = Path(__file__).parent / "table5_tree"

#: Hand-counted (code lines, call-site lines) per synthetic module.
#: Between them the modules cover multi-line, one-line and
#: single-quoted docstrings, comments, blank lines, and a code line on
#: which each instrumentation pattern is the only match.
EXPECTED = {
    "tos/scheduler.py": (4, 3),  # cpu_activity, saved_activity
    "tos/vtimer.py": (4, 1),  # '''-docstrings, _activity.
    "tos/arbiter.py": (7, 4),  # activity.set, powerstate.set(_bits), bind(
    "tos/interrupts.py": (3, 1),  # proxies.label; a matching comment
    "tos/context.py": (4, 2),  # proxy, activity.bind
    "tos/am.py": (4, 0),  # no call sites
    "tos/drivers/leds.py": (5, 2),  # powerstate.set
    "tos/drivers/radio.py": (7, 2),  # activity.add, activity.remove
    "tos/drivers/sensor.py": (3, 1),  # .record(
    "core/labels.py": (1, 0),
    "core/activity.py": (3, 0),
    "core/powerstate.py": (1, 0),  # comment-only header
    "core/logger.py": (3, 0),
}

#: The paper's Table 5 "diff LOC" column, in row order.
PAPER_DIFF_LOC = ["25", "16", "34", "88", "8", "33", "105", "10"]


def _rows(text: str) -> list[tuple[str, ...]]:
    """The burden table's body rows: (abstraction, paper, sites, code)."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("abstraction")) + 2
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(tuple(re.split(r"\s{2,}", line.strip())))
    return rows


def test_pinned_tree_holds_exactly_the_counted_modules():
    counted = [module for _, _, modules in table5.MAPPING
               for module in modules] + table5.NEW_CODE
    assert sorted(counted) == sorted(EXPECTED)
    on_disk = [path.relative_to(PINNED_TREE).as_posix()
               for path in PINNED_TREE.rglob("*.py")]
    assert sorted(on_disk) == sorted(EXPECTED)


def test_pinned_tree_counts_exactly():
    counted = {module: table5._count_lines(PINNED_TREE / module)
               for module in EXPECTED}
    assert counted == EXPECTED


def test_pinned_tree_rows(monkeypatch):
    monkeypatch.setattr(table5, "_package_root", lambda: PINNED_TREE)
    result = table5.run()
    assert _rows(result.text) == [
        ("Tasks", "25", "3", "4"),
        ("Timers", "16", "1", "4"),
        ("Arbiter", "34", "4", "7"),
        ("Interrupts", "88", "3", "7"),
        ("Active Msg.", "8", "0", "4"),
        ("LEDs", "33", "2", "5"),
        ("CC2420 Radio", "105", "2", "7"),
        ("SHT11", "10", "1", "3"),
        ("New code (infrastructure)", "1275", "-", "8"),
    ]
    assert result.data == {"total_call_sites": 16, "new_code_loc": 8}


def test_live_tree_rows_are_well_formed():
    rows = _rows(table5.run().text)
    *abstractions, new_code = rows
    assert [row[0] for row in abstractions] == \
        [name for name, _, _ in table5.MAPPING]
    assert [row[1] for row in abstractions] == PAPER_DIFF_LOC
    for _name, _paper, sites, code in abstractions:
        assert sites.isdigit() and int(sites) > 0
        assert code.isdigit() and int(code) > 0
    assert new_code[:3] == ("New code (infrastructure)", "1275", "-")
    assert new_code[3].isdigit() and int(new_code[3]) > 0
