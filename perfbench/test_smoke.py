"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import pytest  # noqa: E402

from measured_groupoids import cli, generate, pullback  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from counts import pullback_counts  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"] for m in CONFIG["per_layer"]}


def test_counts_match_the_built_pullback():
    for seed in range(12):
        c = generate.random_cospan(seed, with_null_base=workloads.with_null(seed))
        g = pullback.build_weak_pullback(c, validate=False).groupoid
        n = pullback_counts(c)
        assert n["elements"] == len(g.elements)
        assert n["units"] == len(g.units)
        assert n["compose_entries"] == len(g.compose_map)
        assert n["composable_triples"] == sum(len(g.fiber(g.d(y))) for _, y in g.compose_map)


def test_sweep_inputs_reproduce_the_baseline_counts():
    wl = workloads.sweep(0)
    wl.setup()
    wl.prepare()
    assert wl.gate() == []


@pytest.mark.parametrize("trace", [0, 1])
def test_small_reports_every_metric(trace):
    info, result = run.measure(workloads.small(3, pool=12), seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    assert info["verdicts_per_pass"] == 12


def test_cli_reports_every_metric(tmp_path):
    wl = workloads.CliWorkload(0, tmp_path / "corpus", ordinary=1, large=1)
    info, result = run.measure(wl, seconds=0, trace=1)
    assert result["correct"], result
    assert set(result["metrics"]) == PER_LAYER
    m = result["metrics"]
    assert m["cli.invocations"]["value"] == 3 + 2 * 4 and m["cli.exit_mismatches"]["value"] == 0
    assert m["pullback.elements"]["value"] >= workloads.LARGE_ELEMENTS
    assert m["documents.bytes_written"]["value"] > 0


def test_a_wrong_verdict_is_counted(monkeypatch):
    def one_claim_fails(cospan, w, strict=False):
        return {claim: (claim != "thm.haar_system", "") for claim in cli.CLAIMS}

    monkeypatch.setattr(cli, "run_claims", one_claim_fails)
    _, result = run.measure(workloads.small(0, pool=5), seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 5


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *CONFIG["command"][1:], "--workload", "small", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
