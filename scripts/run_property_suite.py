"""Run the full structure-check sweep over seeded random cospans.

Usage:  python scripts/run_property_suite.py [N_SEEDS]

Every fifth cospan gets an engineered null orbit in the base unit measure.
Each cospan is validated as `mgpd check` validates it, since the generator
does not, and its pullback goes through every claim of `mgpd check`. Prints
one line per failing claim (none expected): the seed, the claim id and the
first line of its report, which names a witness. A cospan that fails
validation prints as `seed N: FAIL cospan — <first violation>` and is not
built. Then the work counts of each claim of the registry, each summed over
the seeds, as `work counts over N seeds: <claim> <name> <n>, ...; ...`
(claims that count nothing are left out). Last, a summary with the total
time and the summed time of each stage, to the millisecond: generate,
validate, build, and each entry of the claim registry, keyed by its claim
ids joined with "+".
"""

from __future__ import annotations

import argparse
import time

from measured_groupoids import build_weak_pullback, random_cospan, validate_cospan
from measured_groupoids.cli import REGISTRY, claim_reports


STAGES = ("generate", "validate", "build", *("+".join(ids) for ids, _ in REGISTRY))


def run_seed(seed: int, seconds: dict[str, float], counts: dict[str, dict[str, int]] | None = None) -> dict[str, str]:
    """The claims that fail on the seed's cospan, each with the first line of
    its report. Adds each stage's time to `seconds`, and each claim's work
    counts to `counts[claim]` when `counts` is given."""
    t0 = time.perf_counter()
    c = random_cospan(seed, with_null_base=seed % 5 == 4)
    t1 = time.perf_counter()
    report = validate_cospan(c)
    t2 = time.perf_counter()
    seconds["generate"] += t1 - t0
    seconds["validate"] += t2 - t1
    if not report.ok:
        return {"cospan": report.summary().splitlines()[0]}
    w = build_weak_pullback(c, validate=False)
    seconds["build"] += time.perf_counter() - t2
    failures = {}
    for ids, reports, secs in claim_reports(c, w):
        seconds["+".join(ids)] += secs
        failures.update((claim, r.summary().splitlines()[0]) for claim, r in zip(ids, reports, strict=True) if not r.ok)
        if counts is not None:
            for claim, r in zip(ids, reports):
                tally = counts.setdefault(claim, {})
                for name, n in r.counts:
                    tally[name] = tally.get(name, 0) + n
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seeds", nargs="?", type=int, default=200)
    args = parser.parse_args()

    start = time.perf_counter()
    seconds = dict.fromkeys(STAGES, 0.0)
    counts: dict[str, dict[str, int]] = {}
    bad = 0
    for seed in range(args.seeds):
        failures = run_seed(seed, seconds, counts)
        if failures:
            bad += 1
        for claim, detail in failures.items():
            print(f"seed {seed}: FAIL {claim} — {detail}")
    elapsed = time.perf_counter() - start
    ledger = "; ".join(
        f"{claim} " + ", ".join(f"{name} {n}" for name, n in tally.items()) for claim, tally in counts.items() if tally
    )
    print(f"work counts over {args.seeds} seeds: {ledger}")
    stages = ", ".join(f"{stage} {seconds[stage]:.3f}s" for stage in STAGES)
    print(f"{args.seeds - bad}/{args.seeds} cospans passed every check in {elapsed:.3f}s ({stages})")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
