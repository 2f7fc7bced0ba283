"""Spans around the program's public calls, recorded from outside the program.

A traced run replaces chosen module attributes with wrappers that record one
span per call: the defining module and function as the name, start and end
from `time.perf_counter`, the current trace id (a cospan or document id), the
benchmark phase, and work counts read from the call's arguments or result.
Only the bindings listed in PATCHES are wrapped, so a call the program makes
through another binding (for example `validate_groupoid` on the legs, inside
`validate_cospan`) counts toward its caller's span and not twice.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


# annotators: extra span fields read from a call's arguments and result


def _cospan_id(args, result) -> dict:
    return {"trace_id": f"cospan:{args[0]}"}


def _build_counts(args, result) -> dict:
    g = result.groupoid
    return {"counts": {"elements": len(g.elements), "units": len(g.units), "compose_entries": len(g.compose_map)}}


def _validate_counts(args, result) -> dict:
    g = args[0]
    triples = sum(len(g.fiber(g.d(y))) for _, y in g.compose_map)
    return {"counts": {"element_pairs": len(g.elements) ** 2, "composable_triples": triples}}


def _parse_counts(args, result) -> dict:
    return {"counts": {"bytes_read": len(args[0].encode("utf-8"))}}


def _serialize_counts(args, result) -> dict:
    return {"counts": {"bytes_written": len(result.encode("utf-8"))}}


# (span name, module holding the binding, attribute, annotator)
PATCHES = (
    ("generate.random_cospan", "generate", "random_cospan", _cospan_id),
    ("pullback.validate_cospan", "pullback", "validate_cospan", None),
    ("pullback.validate_cospan", "cli", "validate_cospan", None),
    ("pullback.build_weak_pullback", "pullback", "build_weak_pullback", _build_counts),
    ("pullback.build_weak_pullback", "cli", "build_weak_pullback", _build_counts),
    ("groupoid.validate_groupoid", "cli", "validate_groupoid", _validate_counts),
    ("pullback.check_fiber_product_lemma", "cli", "check_fiber_product_lemma", None),
    ("pullback.check_haar_theorem", "cli", "check_haar_theorem", None),
    ("pullback.check_quasi_invariance_and_modular", "cli", "check_quasi_invariance_and_modular", None),
    # only the call inside check_quasi_invariance_and_modular goes through this binding
    ("haar.is_quasi_invariant", "pullback", "is_quasi_invariant", None),
    ("pullback.check_projection_homs", "cli", "check_projection_homs", None),
    ("generate.alternate_disintegration", "cli", "alternate_disintegration", None),
    ("pullback.check_disintegration_independence", "cli", "check_disintegration_independence", None),
    ("pullback.check_commuting_diamond", "cli", "check_commuting_diamond", None),
    ("pullback.check_triple_integral_lemma", "cli", "check_triple_integral_lemma", None),
    ("pullback.check_expanding_lemma", "cli", "check_expanding_lemma", None),
    ("documents.parse_document", "documents", "parse_document", _parse_counts),
    ("documents.parse_document", "cli", "parse_document", _parse_counts),
    ("documents.serialize", "documents", "serialize", _serialize_counts),
    ("documents.serialize", "cli", "serialize", _serialize_counts),
)


class Tracer:
    """Collects spans while its patches are installed (use as a context
    manager). `trace_id` and `phase` are set by the caller between calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self.trace_id = ""
        self.phase = ""
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, annotate):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            span = {"name": name, "start": start, "end": end, "trace_id": self.trace_id, "phase": self.phase}
            if annotate is not None:
                span.update(annotate(args, result))
            self.spans.append(span)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, module_name, attr, annotate in PATCHES:
            module = importlib.import_module(f"measured_groupoids.{module_name}")
            original = getattr(module, attr)  # a missing binding fails loudly
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, annotate))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# per-layer metric -> span names whose durations it sums (a leading "-"
# subtracts a child span, giving the parent's self time)
BUSY = {
    "groupoid.validate_s": ("groupoid.validate_groupoid",),
    "pullback.validate_cospan_s": ("pullback.validate_cospan",),
    "pullback.build_s": ("pullback.build_weak_pullback",),
    "claim.lemma.fiber_product.s": ("pullback.check_fiber_product_lemma",),
    "claim.thm.haar_system.s": ("pullback.check_haar_theorem",),
    "claim.prop.quasi_invariance.s": ("haar.is_quasi_invariant",),
    "claim.remark.modular_formula.s": ("pullback.check_quasi_invariance_and_modular", "-haar.is_quasi_invariant"),
    "claim.prop.projection_homs.s": ("pullback.check_projection_homs",),
    "claim.prop.disintegration_independence.s": (
        "generate.alternate_disintegration",
        "pullback.check_disintegration_independence",
    ),
    "claim.diamond.commutes.s": ("pullback.check_commuting_diamond",),
    "claim.lemma.triple_integrals.s": ("pullback.check_triple_integral_lemma",),
    "claim.lemma.expanding_integral.s": ("pullback.check_expanding_lemma",),
    "generate.random_cospan_s": ("generate.random_cospan",),
    "documents.parse_s": ("documents.parse_document",),
    "documents.serialize_s": ("documents.serialize",),
}

# per-layer count metric -> (span name, count key, unit); None counts the spans
COUNTS = {
    "groupoid.element_pairs": ("groupoid.validate_groupoid", "element_pairs", "count"),
    "groupoid.composable_triples": ("groupoid.validate_groupoid", "composable_triples", "count"),
    "pullback.elements": ("pullback.build_weak_pullback", "elements", "count"),
    "pullback.units": ("pullback.build_weak_pullback", "units", "count"),
    "pullback.compose_entries": ("pullback.build_weak_pullback", "compose_entries", "count"),
    "generate.cospans": ("generate.random_cospan", None, "count"),
    "documents.bytes_read": ("documents.parse_document", "bytes_read", "B"),
    "documents.bytes_written": ("documents.serialize", "bytes_written", "B"),
}


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Busy seconds and work counts per layer. Generation is taken from the
    set-up phase; every other layer from the traced pass and the output gate,
    so that building the expected documents in set-up does not count."""
    busy: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str | None], int] = defaultdict(int)
    for s in spans:
        if (s["phase"] == "setup") != (s["name"] == "generate.random_cospan"):
            continue
        busy[s["name"]] += s["end"] - s["start"]
        counts[(s["name"], None)] += 1
        for key, n in s.get("counts", {}).items():
            counts[(s["name"], key)] += n
    out: dict[str, tuple[float, str]] = {}
    for metric, names in BUSY.items():
        out[metric] = (sum(-busy[n[1:]] if n.startswith("-") else busy[n] for n in names), "s")
    for metric, (name, key, unit) in COUNTS.items():
        out[metric] = (counts[(name, key)], unit)
    return out
