"""Run the full structure-check sweep over seeded random cospans.

Usage:  python scripts/run_property_suite.py [N_SEEDS]

Every fifth cospan gets an engineered null orbit in the base unit measure.
Each cospan's pullback goes through every claim of `mgpd check`. Prints one
line per failing seed with its failing claim ids (none expected) and a
summary with timing.
"""

from __future__ import annotations

import argparse
import time

from measured_groupoids import build_weak_pullback, random_cospan
from measured_groupoids.cli import run_claims


def run_seed(seed: int) -> list[str]:
    """The ids of the claims that fail on the seed's cospan."""
    c = random_cospan(seed, with_null_base=seed % 5 == 4)
    w = build_weak_pullback(c, validate=False)
    return [claim for claim, (ok, _) in run_claims(c, w).items() if not ok]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seeds", nargs="?", type=int, default=200)
    args = parser.parse_args()

    start = time.perf_counter()
    bad = 0
    for seed in range(args.seeds):
        failures = run_seed(seed)
        if failures:
            bad += 1
            print(f"seed {seed}: FAIL {', '.join(failures)}")
    elapsed = time.perf_counter() - start
    print(f"{args.seeds - bad}/{args.seeds} cospans passed every check in {elapsed:.1f}s")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
