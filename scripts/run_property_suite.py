"""Run the full structure-check sweep over seeded random cospans.

Usage:  python scripts/run_property_suite.py [N_SEEDS]

Every fifth cospan gets an engineered null orbit in the base unit measure.
Each cospan's pullback goes through every claim of `mgpd check`. Prints one
line per failing claim (none expected): the seed, the claim id and the first
line of its report, which names a witness. Then a summary with the total
time and the summed time of each stage (generate, build, run_claims).
"""

from __future__ import annotations

import argparse
import time

from measured_groupoids import build_weak_pullback, random_cospan
from measured_groupoids.cli import run_claims


STAGES = ("generate", "build", "run_claims")


def run_seed(seed: int, seconds: dict[str, float]) -> dict[str, str]:
    """The claims that fail on the seed's cospan, each with the first line of
    its report. Adds each stage's time to `seconds`."""
    t0 = time.perf_counter()
    c = random_cospan(seed, with_null_base=seed % 5 == 4)
    t1 = time.perf_counter()
    w = build_weak_pullback(c, validate=False)
    t2 = time.perf_counter()
    results = run_claims(c, w)
    t3 = time.perf_counter()
    for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
        seconds[stage] += dt
    return {claim: detail.splitlines()[0] for claim, (ok, detail) in results.items() if not ok}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seeds", nargs="?", type=int, default=200)
    args = parser.parse_args()

    start = time.perf_counter()
    seconds = dict.fromkeys(STAGES, 0.0)
    bad = 0
    for seed in range(args.seeds):
        failures = run_seed(seed, seconds)
        if failures:
            bad += 1
        for claim, detail in failures.items():
            print(f"seed {seed}: FAIL {claim} — {detail}")
    elapsed = time.perf_counter() - start
    stages = ", ".join(f"{stage} {seconds[stage]:.1f}s" for stage in STAGES)
    print(f"{args.seeds - bad}/{args.seeds} cospans passed every check in {elapsed:.1f}s ({stages})")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
