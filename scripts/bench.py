"""Benchmark this checkout against a baseline checkout into one JSON file.

Usage:
    python scripts/bench.py --out BENCH.json --baseline DIR [--ladder]

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
since only the harness, the sweep script and the suite are run. Each
checkout is named by its HEAD, whether its tree is dirty, and the sha256
of `git diff HEAD`, so a file measured on an uncommitted tree still names
the code it measured.

With --ladder the file also holds size ladders of each checkout, each point
the identity cospan of one groupoid with counting measures, run in a fresh
process on that checkout's `src`. There are three families:

* `cyclic`: `cyclic_group(n)` for n = 4..12, whose pullback has n^3
  elements, n units and n^5 compose entries (up to 248,832);
* `pair`: the pair groupoid on n points for n = 3..7, whose pullback has
  n^4 elements, n^2 units and n^6 compose entries (up to 117,649), so the
  same range of compose entries with many units;
* `transformation`: the transformation groupoid of Z_n acting on m = n + 1
  points, rotating n of them and fixing the last, for n = 3..7. Its
  pullback has n^3 (n + 1) elements, n (n + 1) units and n^5 (n + 1)
  compose entries (up to 134,456): many units, and one of them with the
  whole of Z_n as its isotropy group. The action is built directly as
  `GroupAction(cyclic_group(n), points, act)`.

A point records the pullback's elements, units and compose entries, and the
seconds of each stage, the least of three runs on a freshly built cospan.
The stages are `validate_cospan`, `build_weak_pullback`, each entry of the
claim registry, run by `cli.claim_reports` and keyed by its claim ids
joined with "+" (`prop.quasi_invariance+remark.modular_formula` is one
entry), and the pullback's document: `serialize` of its
`PullbackDocument`, `parse_document` of that text, and `validate`, an
in-process `cli.main(["validate", FILE])` of the text written to a file.
Both checkouts must therefore have `cli.claim_reports`. A fourth pass, on
another fresh cospan and under `tracemalloc`, records each stage's
`bytes_above_kept`: the peak of its traced allocations above what it still
holds when it ends, its transient memory. The timed passes are not traced.
Each stage also gets its growth exponent per family, the least-squares
slope of log seconds against log compose entries, and its bytes per
compose entry at the family's largest point; both are printed to stderr,
and a check-path stage (not one of the three document stages) above
`CHECK_BYTES_PER_ENTRY` there is flagged.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "cli")
SWEEP_LINE = re.compile(r"in ([\d.]+)s \((.*)\)$")
PAIRS = 10
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LADDERS = {"cyclic": range(4, 13), "pair": range(3, 8), "transformation": range(3, 8)}
LADDER_RUNS = 3
# the transient bytes per compose entry above which `--ladder` flags a
# check-path stage at a family's largest point; a transient copy of the
# product table, one tuple per row, costs about 6 to 8
CHECK_BYTES_PER_ENTRY = 2
DOCUMENT_STAGES = ("serialize", "parse_document", "validate")


def _run(checkout: Path, args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("MGPD_VERBOSE", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True)
    return proc, time.perf_counter() - start


def _commit(checkout: Path) -> dict:
    """The code a checkout holds: its HEAD, whether its tree differs from
    HEAD (untracked files count), and the sha256 of `git diff HEAD`, which
    names an uncommitted change to tracked files. All three are None
    outside a git repository."""

    def git(*args: str) -> bytes | None:
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True)
        return proc.stdout if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return {"commit": None, "dirty": None, "diff_sha256": None}
    return {
        "commit": head.decode().strip(),
        "dirty": bool(git("status", "--porcelain")),
        "diff_sha256": hashlib.sha256(git("diff", "HEAD") or b"").hexdigest(),
    }


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


def ladder_cospan(family: str, n: int):
    """The identity cospan, with counting measures, of ladder point n of the
    family, built by the `measured_groupoids` that the path gives."""
    from measured_groupoids import Cospan, GroupAction, cyclic_group, identity_hom, pair_groupoid, transformation_groupoid
    from measured_groupoids import with_counting_haar

    if family == "cyclic":
        g = cyclic_group(n)
    elif family == "pair":
        g = pair_groupoid([f"p{i}" for i in range(n)])
    else:
        # Z_n on y0..yn: g_j sends y_i to y_{i+j mod n} for i < n and fixes yn
        points = [f"y{i}" for i in range(n + 1)]
        act = {y: {f"g{j}": points[(i + j) % n] if i < n else y for j in range(n)} for i, y in enumerate(points)}
        g = transformation_groupoid(GroupAction(cyclic_group(n), points, act))
    h = with_counting_haar(g)
    return Cospan(h, h, h, identity_hom(g), identity_hom(g))


class Clock:
    """Reads a stage's seconds by `time.perf_counter`."""

    def begin(self) -> None:
        self.start = time.perf_counter()

    def end(self) -> float:
        return time.perf_counter() - self.start


class Traced:
    """Reads the bytes a stage's traced allocations peak at above what the
    stage still holds when it ends; `tracemalloc` must be tracing."""

    def begin(self) -> None:
        tracemalloc.reset_peak()

    def end(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        return peak - current


def stages(family: str, n: int, meter) -> tuple[dict, object]:
    """Run each stage of ladder point n of the family once, on a freshly
    built cospan, on the `measured_groupoids` that PYTHONPATH gives, with
    `meter` reading each stage. Returns the readings by stage and the
    pullback."""
    from measured_groupoids import build_weak_pullback, validate_cospan
    from measured_groupoids.cli import REGISTRY, claim_reports, main
    from measured_groupoids.documents import PullbackDocument, parse_document, serialize

    readings = {}

    def read(stage, call):
        meter.begin()
        result = call()
        readings[stage] = meter.end()
        return result

    c = ladder_cospan(family, n)
    if not read("validate_cospan", lambda: validate_cospan(c)).ok:
        raise SystemExit(f"ladder {family} n={n}: the cospan fails validation")
    w = read("build_weak_pullback", lambda: build_weak_pullback(c, validate=False))
    claims = claim_reports(c, w)
    for ids, _ in REGISTRY:
        if not all(r.ok for r in read("+".join(ids), lambda: next(claims)[1])):
            raise SystemExit(f"ladder {family} n={n}: a claim fails")
    text = read("serialize", lambda: serialize(PullbackDocument.of(w)))
    read("parse_document", lambda: parse_document(text))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "pullback.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = read("validate", lambda: main(["validate", str(path)]))
    if code != 0:
        raise SystemExit(f"ladder {family} n={n}: validate of the written pullback exits {code}")
    return readings, w


def ladder_point(family: str, n: int) -> dict:
    """One ladder point: the seconds of each stage, the least of
    `LADDER_RUNS` untraced passes, then each stage's bytes above what it
    keeps, from one more pass under tracemalloc."""
    best: dict[str, float] = {}
    for _ in range(LADDER_RUNS):
        seconds, w = stages(family, n, Clock())
        best = {k: min(v, best.get(k, v)) for k, v in seconds.items()}
    tracemalloc.start()
    try:
        above, _ = stages(family, n, Traced())
    finally:
        tracemalloc.stop()
    g = w.groupoid
    return {
        "n": n,
        "elements": len(g.elements),
        "units": len(g.units),
        "compose_entries": len(g.compose_map),
        "seconds": {k: float(f"{v:.4g}") for k, v in best.items()},
        "bytes_above_kept": above,
    }


def ladder(checkout: Path, family: str) -> dict:
    """The points of one ladder family on one checkout, and each stage's
    growth exponent."""
    points = []
    for n in LADDERS[family]:
        proc, _ = _run(checkout, [str(Path(__file__).resolve()), "--ladder-point", family, str(n)])
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: ladder point {family} n={n} failed:\n{proc.stderr}")
        points.append(json.loads(proc.stdout))
    xs = [math.log(p["compose_entries"]) for p in points]
    mean_x = statistics.fmean(xs)
    exponents = {}
    for stage in points[0]["seconds"]:
        ys = [math.log(p["seconds"][stage]) for p in points]
        mean_y = statistics.fmean(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum((x - mean_x) ** 2 for x in xs)
        exponents[stage] = round(slope, 3)
    print(f"{checkout} {family}: {json.dumps(exponents)}", file=sys.stderr, flush=True)
    top = points[-1]
    per_entry = {stage: round(b / top["compose_entries"], 2) for stage, b in top["bytes_above_kept"].items()}
    flagged = [stage for stage, b in per_entry.items() if b > CHECK_BYTES_PER_ENTRY and stage not in DOCUMENT_STAGES]
    print(f"{checkout} {family} n={top['n']} bytes per compose entry: {json.dumps(per_entry)}", file=sys.stderr, flush=True)
    if flagged:
        above = f"above {CHECK_BYTES_PER_ENTRY} B per entry: {', '.join(flagged)}"
        print(f"{checkout} {family} n={top['n']}: {above}", file=sys.stderr, flush=True)
    return {
        "points": points,
        "exponent_vs_compose_entries": exponents,
        "bytes_per_compose_entry": per_entry,
        "flagged_bytes_per_compose_entry": flagged,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--baseline", type=Path, help="a second checkout, measured in alternating pairs with this one")
    parser.add_argument("--ladder", action="store_true", help="also record each checkout's size ladder")
    # the process that `ladder` starts for one point, on a checkout's src
    parser.add_argument("--ladder-point", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.ladder_point is not None:
        family, n = args.ladder_point
        print(json.dumps(ladder_point(family, int(n))))
        return 0
    if args.out is None or args.baseline is None:
        parser.error("--out and --baseline are required")

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
        "checkouts": {label: _commit(path) for label, path in checkouts.items()},
        "samples": samples,
        "spread": spreads,
        "median_ratio_change_to_baseline": {
            w: {name: round(change[w][name]["median"] / v["median"], 4) for name, v in base[w].items() if v["median"]}
            for w in WORKLOADS
        },
        "pairs_won_by_change": wins(samples["baseline"], samples["change"], better),
    }
    if args.ladder:
        report["ladder"] = {label: {family: ladder(path, family) for family in LADDERS} for label, path in checkouts.items()}
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
