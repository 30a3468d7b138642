"""``tools/ab.py`` summarizes each tree's cold-process times by their median
and quartiles."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def test_summary_on_fixed_numbers():
    # inclusive quartiles: the median and the middles of each half, ends kept
    assert ab.summary([5, 1, 4, 2, 3]) == (3, 2, 4)
    assert ab.summary([10, 11, 12, 13]) == (11.5, 10.75, 12.25)
    text = ab.report(("A old", "B new"), ([0.010, 0.011, 0.012], [0.009, 0.010, 0.011]), 3, True)
    assert text.splitlines() == [
        "A old: median 11.00 ms  q1 10.50  q3 11.50  (3 runs)",
        "B new: median 10.00 ms  q1 9.50  q3 10.50  (3 runs)",
        "B faster in 3 of 3 pairs; outputs identical",
    ]
