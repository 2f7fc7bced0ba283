"""Benchmark this checkout against a baseline checkout into one JSON file.

Usage:
    python scripts/bench.py --out BENCH.json --baseline DIR

Runs, in each checkout, the existing harness unchanged:
`perfbench/run.py --workload sweep|cli --seed 0 --seconds S --trace 0` once
per pair, S being `run_seconds` of BENCHMARK.json, and keeps each run's
context line and result line. The first pair also runs each workload at
`--trace 1` for the per-layer metrics, the sweep script
`scripts/run_property_suite.py 200` for its stage times, and the tier-1
suite for its wall time and five slowest tests. The two checkouts are
measured in ten alternating pairs on this machine, the order swapped every
other pair, and the file ends with each checkout's median and quartiles of
every end-to-end metric, their ratio, and the pairs the change wins. A
baseline without its own copy of this script is measured the same way,
since only the harness, the sweep script and the suite are run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "cli")
SWEEP_LINE = re.compile(r"in ([\d.]+)s \((.*)\)$")
PAIRS = 10
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(checkout: Path, args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("MGPD_VERBOSE", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True)
    return proc, time.perf_counter() - start


def _commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip()


def harness(checkout: Path, workload: str, trace: int, seconds: float) -> dict:
    proc, _ = _run(checkout, ["perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: perfbench/run.py --workload {workload} --trace {trace} failed:\n{proc.stderr}")
    return {"context": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def sweep_script(checkout: Path) -> dict:
    proc, wall = _run(checkout, ["scripts/run_property_suite.py", "200"])
    line = proc.stdout.strip().splitlines()[-1]
    m = SWEEP_LINE.search(line)
    stages = {}
    if m:
        for part in m.group(2).split(", "):
            stage, secs = part.rsplit(" ", 1)
            stages[stage] = float(secs.rstrip("s"))
    return {"exit": proc.returncode, "line": line, "wall_s": round(wall, 3), "stages_s": stages}


def tier1(checkout: Path) -> dict:
    proc, wall = _run(
        checkout, ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--durations=5"]
    )
    lines = proc.stdout.strip().splitlines()
    slowest = [ln.strip() for ln in lines if re.match(r"^\d+\.\d+s (call|setup|teardown) ", ln.strip())]
    return {"exit": proc.returncode, "summary": lines[-1] if lines else "", "wall_s": round(wall, 3), "slowest": slowest[:5]}


def measure(checkout: Path, seconds: float, first: bool) -> dict:
    sample = {"harness": {f"{w}.trace0": harness(checkout, w, 0, seconds) for w in WORKLOADS}}
    if first:
        sample["harness"].update({f"{w}.trace1": harness(checkout, w, 1, seconds) for w in WORKLOADS})
        sample["sweep_script"] = sweep_script(checkout)
        sample["tier1"] = tier1(checkout)
    return sample


def _metrics(samples: list[dict], workload: str) -> dict[str, list[float]]:
    """Each untraced end-to-end metric of the workload, one value per sample."""
    values: dict[str, list[float]] = {}
    for s in samples:
        for name, m in s["harness"][f"{workload}.trace0"]["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def spread(samples: list[dict]) -> dict:
    """Median and quartiles of each untraced end-to-end metric per workload."""
    out = {}
    for w in WORKLOADS:
        out[w] = {}
        for name, v in _metrics(samples, w).items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            out[w][name] = {"median": statistics.median(v), "q1": q1, "q3": q3}
    return out


def wins(baseline: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric, the pairs in which the change reads better
    (ties count for neither side), out of the pairs run."""
    out = {}
    for w in WORKLOADS:
        base, new = _metrics(baseline, w), _metrics(change, w)
        out[w] = {}
        for name in base:
            sign = 1 if better.get(name) == "higher" else -1
            won = sum(1 for b, c in zip(base[name], new[name]) if sign * (c - b) > 0)
            out[w][name] = f"{won}/{len(base[name])}"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--baseline", required=True, type=Path, help="a second checkout, measured in alternating pairs with this one")
    args = parser.parse_args()

    seconds = BENCHMARK["run_seconds"]
    checkouts = {"baseline": args.baseline.resolve(), "change": ROOT}
    samples: dict[str, list[dict]] = {label: [] for label in checkouts}
    for pair in range(PAIRS):
        order = list(checkouts) if pair % 2 == 0 else list(reversed(checkouts))
        for label in order:
            print(f"pair {pair}: {label}", file=sys.stderr, flush=True)
            samples[label].append({"pair": pair, "first": label == order[0], **measure(checkouts[label], seconds, pair == 0)})

    spreads = {label: spread(s) for label, s in samples.items()}
    base, change = spreads["baseline"], spreads["change"]
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    report = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(), "platform": platform.platform()},
        "settings": {"pairs": PAIRS, "seconds": seconds, "workloads": list(WORKLOADS), "harness_seed": 0},
        "checkouts": {label: {"commit": _commit(path)} for label, path in checkouts.items()},
        "samples": samples,
        "spread": spreads,
        "median_ratio_change_to_baseline": {
            w: {name: round(change[w][name]["median"] / v["median"], 4) for name, v in base[w].items() if v["median"]}
            for w in WORKLOADS
        },
        "pairs_won_by_change": wins(samples["baseline"], samples["change"], better),
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
