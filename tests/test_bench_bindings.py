"""What the benchmark relies on in the program. Its traced mode wraps module
attributes by name (`perfbench/spans.py`, PATCHES) and fails on a missing
one, so every binding it names must stay, and the claim registry must call
its checks through those bindings. `scripts/bench.py --ladder-point` times
the stages of one ladder point from the registry."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from helpers import z2_cospan
from measured_groupoids import build_weak_pullback, cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


def test_every_traced_binding_resolves():
    patches = _patches()
    assert patches
    for _, module_name, attr, _ in patches:
        module = importlib.import_module(f"measured_groupoids.{module_name}")
        assert callable(getattr(module, attr, None)), f"measured_groupoids.{module_name}.{attr}"


def test_run_claims_calls_each_check_once_through_its_binding(monkeypatch):
    c = z2_cospan()
    w = build_weak_pullback(c)
    calls = Counter()
    for _, module_name, attr, _ in _patches():
        if module_name == "cli":

            def counted(*args, _attr=attr, _fn=getattr(cli, attr), **kwargs):
                calls[_attr] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, attr, counted)
    assert all(ok for ok, _ in cli.run_claims(c, w).values())
    checks = (
        "validate_groupoid",
        "check_fiber_product_lemma",
        "check_haar_theorem",
        "check_quasi_invariance_and_modular",
        "check_projection_homs",
        "check_disintegration_independence",
        "check_commuting_diamond",
        "check_triple_integral_lemma",
        "check_expanding_lemma",
    )
    assert calls == Counter(dict.fromkeys(checks, 1), alternate_disintegration=2)


@pytest.mark.parametrize("family, n, compose_entries", [("cyclic", 4, 1024), ("pair", 3, 729), ("transformation", 3, 972)])
def test_ladder_point_times_every_stage(family, n, compose_entries):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--ladder-point", family, str(n)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    point = json.loads(proc.stdout)
    assert point["compose_entries"] == compose_entries
    stages = {"validate_cospan", "build_weak_pullback", *("+".join(ids) for ids, _ in cli.REGISTRY)}
    stages |= {"serialize", "parse_document", "validate"}
    assert point["seconds"].keys() == stages
    assert all(s > 0 for s in point["seconds"].values())
    # the traced pass reads the same stages, and the build lets go of
    # some of what it allocates
    assert point["bytes_above_kept"].keys() == stages
    assert all(isinstance(b, int) and b >= 0 for b in point["bytes_above_kept"].values())
    assert point["bytes_above_kept"]["build_weak_pullback"] > 0
