"""Benchmark of the measured-groupoids verifier, timed from outside the program.

    python3 perfbench/run.py --workload {sweep,cli,small} --seed N --seconds S --trace {0|1}

Run from the root of a source checkout; the program is imported from its
`src/` directory. One process, one client, closed loop: each verdict starts
after the previous one ends. A run makes the workload's inputs from the seed
(set-up, repeated SETUP_REPEATS times, each time with a fresh import of the
program), then makes verdicts in pass order over the inputs until S seconds
have passed and every input has had at least one, checking every verdict
against its known answer. Each input's time is the mean of its verdicts, so
that a partly done last pass weighs no input more than another.

The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The line before it holds the run's context: Python
version, CPU count, load average at start, the tail percentile and its
sample count, and per-pass values that show the spread inside the run.

A traced run makes one untraced pass, then set-up and one pass again with a
span recorded around each of the program's public calls (see spans.py). It
writes the spans to .perfbench_run/ and reports busy seconds and work counts
per layer, and the traced pass's wall time minus the untraced pass's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
PROGRAM_ENV = dict(os.environ, PYTHONPATH=str(SRC))
SETUP_REPEATS = 5
PROBE_REPEATS = 5
MAX_REPORTED_ERRORS = 10


def rank(p: float, n: int) -> int:
    """Nearest rank of percentile p among n samples: ceil(p/100 * n)."""
    return -(-round(p * 10) * n // 1000)


def tail_percentile(per_pass: int) -> float:
    """Highest percentile of the ladder with at least ten samples of one pass
    beyond it; fixed by the workload's pass size, so the same on every run."""
    for p in (99.9, 99.5, 99, 98, 95, 90, 80, 75):
        if per_pass - rank(p, per_pass) >= 10:
            return p
    return 50.0


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class Runner:
    """Runs verdicts, times each one, and counts every wrong answer."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            print(f"verdict error: {message}", file=sys.stderr)

    def verdict(self, item) -> float:
        """One checked verdict; returns the seconds spent inside the program."""
        self.wl.before(item)
        if self.wl.tracer is not None:
            self.wl.tracer.trace_id = item.trace_id
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.wl.run(item)
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(f"{item.trace_id} raised\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start
        error = self.wl.check(item, out)
        if error is not None:
            self._fail(error)
        return elapsed

    def one_pass(self) -> list[float]:
        return [self.verdict(item) for item in self.wl.items]

    def timed_phase(self, seconds: float) -> list[list[float]]:
        """Verdicts in pass order until `seconds` have passed and every item
        has had one; returns each item's verdict times."""
        items = self.wl.items
        times: list[list[float]] = [[] for _ in items]
        start = time.perf_counter()
        done = 0
        while done < len(items) or time.perf_counter() - start < seconds:
            k = done % len(items)
            times[k].append(self.verdict(items[k]))
            done += 1
        return times


def probe(code: str) -> float:
    """Median wall time of a fresh interpreter running `code`."""
    cmd = [sys.executable, "-c", code]
    return statistics.median(
        timed(lambda: subprocess.run(cmd, env=PROGRAM_ENV, check=True, timeout=60)) for _ in range(PROBE_REPEATS)
    )


def import_time() -> float:
    """Wall time of `import measured_groupoids.cli` in a fresh interpreter,
    interpreter start excluded."""
    code = "import time; t = time.perf_counter(); import measured_groupoids.cli; print(time.perf_counter() - t)"
    cmd = [sys.executable, "-c", code]
    return float(subprocess.run(cmd, env=PROGRAM_ENV, check=True, timeout=60, capture_output=True, text=True).stdout)


def measure(wl, seconds: float, trace: int, spans_path: Path | None = None) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (context, result)."""
    import spans

    info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }
    runner = Runner(wl)
    try:
        import_reps = [import_time() for _ in range(SETUP_REPEATS)]
        setup_reps = [timed(wl.setup) for _ in range(SETUP_REPEATS)]
        gate_errors = wl.prepare()
        n = len(wl.items)
        info.update(verdicts_per_pass=n, import_repeats_s=import_reps, setup_repeats_s=setup_reps)
        if trace:
            untraced_wall = timed(runner.one_pass)
            tracer = spans.Tracer()
            wl.tracer = tracer
            with tracer:
                tracer.phase = "setup"
                wl.setup()
                gate_errors += wl.prepare()
                tracer.phase = "pass"
                mismatches_before = wl.exit_mismatches
                traced_wall = timed(runner.one_pass)
                tracer.phase = "gate"
                gate_errors += wl.gate()
            wl.tracer = None
            if spans_path is not None:
                tracer.write(spans_path)
            metrics = spans.layer_metrics(tracer.spans)
            interpreter = probe("pass")
            metrics["cli.interpreter_start_s"] = (interpreter, "s")
            metrics["cli.import_s"] = (probe("import measured_groupoids.cli") - interpreter, "s")
            metrics["cli.invocations"] = (n if wl.spawns_processes else 0, "count")
            metrics["cli.exit_mismatches"] = (wl.exit_mismatches - mismatches_before, "count")
            metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
            info.update(untraced_pass_wall_s=untraced_wall, traced_pass_wall_s=traced_wall)
        else:
            times = runner.timed_phase(seconds)
            gate_errors += wl.gate()
            pct = tail_percentile(n)
            item_s = sorted(statistics.fmean(t) for t in times)
            whole_passes = range(min(len(t) for t in times))
            who = resource.RUSAGE_CHILDREN if wl.spawns_processes else resource.RUSAGE_SELF
            metrics = {
                "verdicts_per_s": (n / sum(item_s), "1/s"),
                "verdict_p50_ms": (statistics.median(item_s) * 1e3, "ms"),
                "verdict_tail_ms": (item_s[rank(pct, n) - 1] * 1e3, "ms"),
                "setup_s": (statistics.median(map(sum, zip(import_reps, setup_reps))), "s"),
                "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
            }
            info.update(
                passes=sum(map(len, times)) / n,
                tail_percentile=pct,
                tail_samples_beyond=n - rank(pct, n),
                pass_verdicts_per_s=[n / sum(t[j] for t in times) for j in whole_passes],
                pass_p50_ms=[statistics.median(t[j] for t in times) * 1e3 for j in whole_passes],
                pass_tail_ms=[sorted(t[j] for t in times)[rank(pct, n) - 1] * 1e3 for j in whole_passes],
            )
    finally:
        wl.close()
    for error in gate_errors:
        print(f"gate error: {error}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not gate_errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sweep", "cli", "small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "measured_groupoids" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measured_groupoids

    if Path(measured_groupoids.__file__).resolve().parent != SRC / "measured_groupoids":
        print(f"error: imported {measured_groupoids.__file__}, not the checkout's program", file=sys.stderr)
        return 2
    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}")
    spans_path = RUN_DIR / f"spans-{args.workload}-{args.seed}.json"
    info, result = measure(wl, args.seconds, args.trace, spans_path)
    print(json.dumps({"info": {"workload": args.workload, "seed": args.seed, **info}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
