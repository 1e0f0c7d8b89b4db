"""The 3-nilpotent slice above MAX_ORDER, against the closed form.

Usage: python tests/three_nilpotent_slice.py [ORDER ...]   (default: 7)

For each order this raises zdg.enumeration.MAX_ORDER in this process,
runs the up-to-iso stream, and adds up the orbit sizes (n-1)!/|Aut| of
the classes with S³ = 0 ≠ S². That sum must equal
oracles.three_nilpotent_count(n), which counts the labelled tables in
closed form and shares no code with zdg. The class count is printed
but not checked: no count of the classes is pinned at these orders.
Exits 1 at the first order whose sum differs.

The tier-1 test test_three_nilpotent_orbits_match_the_closed_form does
the same at orders 3-6. Order 7 streams 13,006 classes in a few
seconds; order 8 streams 185,228 and takes a few minutes.
"""

import math
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src")]

from zdg import enumeration  # noqa: E402
from oracles import three_nilpotent_count  # noqa: E402


def slice_counts(n):
    """(classes, labelled tables) with S³ = 0 ≠ S² among the order-n classes."""
    enumeration.MAX_ORDER = max(enumeration.MAX_ORDER, n)
    classes = tables = 0
    for s, aut in enumeration._semigroups(enumeration.EnumerationOptions(n, up_to_iso=True)):
        rows = s.table.entries
        products = {p for row in rows for p in row}
        # S³ = 0: every product annihilates S; S² ≠ 0: some product is nonzero
        if products != {0} and not any(any(rows[p]) for p in products):
            classes += 1
            tables += math.factorial(n - 1) // aut
    return classes, tables


def main(argv):
    for n in map(int, argv or ["7"]):
        start = time.process_time()
        classes, tables = slice_counts(n)
        expected = three_nilpotent_count(n)
        print(
            "order %d: %d classes, %d labelled tables, closed form %d, %.1f s CPU"
            % (n, classes, tables, expected, time.process_time() - start)
        )
        if tables != expected:
            print("order %d: the orbit sum differs from the closed form" % n)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
