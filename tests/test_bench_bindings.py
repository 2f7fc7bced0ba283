"""The benchmark's traced mode wraps module attributes of the program by
name (`perfbench/spans.py`, PATCHES) and fails on a missing one, so every
binding it names must stay."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for _, module_name, attr, _ in spans.PATCHES:
        module = importlib.import_module(f"measured_groupoids.{module_name}")
        assert callable(getattr(module, attr, None)), f"measured_groupoids.{module_name}.{attr}"
