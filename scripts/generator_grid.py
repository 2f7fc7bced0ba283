"""Validate every cospan of the generator's full grid of seeds and bounds.

Usage:  python scripts/generator_grid.py

`random_cospan` does not validate what it returns: its leg patterns preserve
the measure class by construction. This script checks that on seeds 0-999 at
bounds (4, 24), (2, 8), (1, 4), (3, 12) and (1, 1), and on seeds 0-199 at
(6, 40), each with and without a null base: 10,400 cospans. Tier-1 runs a
smaller grid (`tests/test_generate.py`).

Prints the first violation of each rejected cospan, then one line per bound:
the cospans validated and rejected, and how many of their groupoids (left,
base and right, three per cospan) have more units or more elements than the
bound, since the bounds steer the draw but do not cap it. Then the total.
Exits 1 if any cospan was rejected.
"""

from __future__ import annotations

import time

from measured_groupoids import random_cospan, validate_cospan

GRID = (((4, 24), 1000), ((2, 8), 1000), ((1, 4), 1000), ((3, 12), 1000), ((1, 1), 1000), ((6, 40), 200))


def main() -> int:
    start = time.perf_counter()
    validated = rejected = 0
    for (max_units, max_elements), seeds in GRID:
        bad = over = 0
        for seed in range(seeds):
            for null in (False, True):
                c = random_cospan(seed, (max_units, max_elements), with_null_base=null)
                report = validate_cospan(c)
                if not report.ok:
                    bad += 1
                    print(f"bounds ({max_units}, {max_elements}) seed {seed} null {null}: {report.summary().splitlines()[0]}")
                for h in (c.left, c.base, c.right):
                    over += len(h.groupoid.units) > max_units or len(h.groupoid.elements) > max_elements
        count = 2 * seeds
        validated += count
        rejected += bad
        print(
            f"bounds ({max_units}, {max_elements}): {count} cospans validated, {bad} rejected; "
            f"{over} of {3 * count} groupoids exceed the bounds"
        )
    print(f"{validated} cospans validated, {rejected} rejected in {time.perf_counter() - start:.1f}s")
    return 1 if rejected else 0


if __name__ == "__main__":
    raise SystemExit(main())
