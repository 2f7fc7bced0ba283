"""Regenerate the canonical test fixtures under tests/fixtures/.

Run from the repository root:  python scripts/make_fixtures.py
"""

from __future__ import annotations

import pathlib

from measured_groupoids import (
    Cospan,
    FiniteCover,
    GroupAction,
    FiniteMeasure,
    cyclic_group,
    pair_groupoid,
    trivial_group,
    with_counting_haar,
)
from measured_groupoids.documents import CospanDocument, GroupoidDocument, serialize
from measured_groupoids.families import CechCospanData, TransformationCospanData, trivial_action
from measured_groupoids.groupoid import GroupoidHom, identity_hom
from measured_groupoids.haar import HaarGroupoid, counting_haar_system

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def z2_cospan() -> Cospan:
    z2 = cyclic_group(2)
    h = with_counting_haar(z2)
    return Cospan(h, h, h, identity_hom(z2), identity_hom(z2))


def pair_quasi_violation() -> GroupoidDocument:
    g = pair_groupoid(["1", "2"])
    return GroupoidDocument(g, counting_haar_system(g), FiniteMeasure(g.units, {"1-1": 1}))


def bad_cospan() -> CospanDocument:
    # left leg fails quasi-invariance: pair groupoid with mass only at one unit
    s = pair_groupoid(["1", "2"])
    s_h = HaarGroupoid(s, counting_haar_system(s), FiniteMeasure(s.units, {"1-1": 1}))
    g = trivial_group()
    g_h = with_counting_haar(g)
    p = GroupoidHom(s, g, {x: "e" for x in s.elements})
    q = identity_hom(g)
    return CospanDocument.of(Cospan(s_h, g_h, g_h, p, q))


def cech_params() -> CechCospanData:
    return CechCospanData(
        FiniteCover.build(["y1", "y2"], {"1": ["y1"], "2": ["y2"]}),
        FiniteCover.build(["z1"], {"1": ["z1"], "2": ["z1"]}),
        ("x",),
        {"y1": "x", "y2": "x"},
        {"z1": "x"},
    )


def transformation_params() -> TransformationCospanData:
    z2 = cyclic_group(2)
    swap = GroupAction(
        z2,
        ["y1", "y2"],
        {"y1": {"g0": "y1", "g1": "y2"}, "y2": {"g0": "y2", "g1": "y1"}},
    )
    still = trivial_action(cyclic_group(1, prefix="e"), ["z1"])
    return TransformationCospanData(swap, still, ("x",), {"y1": "x", "y2": "x"}, {"z1": "x"})


def fixture_texts() -> dict[str, str]:
    """File name -> serialized document, for every fixture."""
    return {
        "z2_cospan.json": serialize(CospanDocument.of(z2_cospan())),
        "pair_quasi_violation.json": serialize(pair_quasi_violation()),
        "bad_cospan.json": serialize(bad_cospan()),
        "cech_params.json": serialize(cech_params()),
        "transformation_params.json": serialize(transformation_params()),
    }


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, text in fixture_texts().items():
        path = FIXTURES / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
