"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload sweep --seeds 0-9

Runs the benchmark's command once per seed, one run at a time, with the
run length from BENCHMARK.json and tracing off, and prints for each
metric its median over the runs, the first and third quartiles
(`statistics.quantiles(values, n=4)`), and the spread: the distance between
the quartiles as a share of the median. A metric whose spread exceeds a
third of its bound in BENCHMARK.json is marked. Also prints the Python
version, CPU count and load average each run recorded at its start.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"), help="inclusive range, e.g. 0-9")
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = [*config["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(config["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              f"python={info['python']} nproc={info['nproc']} loadavg={info['loadavg_at_start'][0]:.2f} "
              f"passes={info['passes']} " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':42} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], None, vs[0])
        spread = (q3 - q1) / median
        flag = "  > bound/3" if spread > bounds[name] / 3 else ""
        print(f"{name:42} {units[name]:6} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
