import importlib.util
import json
import pathlib
import random

import pytest

from measured_groupoids import (
    DanglingReference,
    ParseError,
    UnsupportedVersion,
    build_weak_pullback,
    random_cospan,
    random_haar_groupoid,
)
from measured_groupoids.documents import (
    CospanDocument,
    GroupoidDocument,
    PullbackDocument,
    parse_document,
    serialize,
    str_to_weight,
    weight_to_str,
)

from helpers import z2_cospan

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_weight_strings():
    from fractions import Fraction

    assert weight_to_str(Fraction(3, 4)) == "3/4"
    assert weight_to_str(Fraction(5)) == "5"
    assert str_to_weight("3/4", "$") == Fraction(3, 4)
    assert str_to_weight("0", "$") == 0
    for bad in ("-1/2", "1.5", "1/0", "a", "1/-2"):
        with pytest.raises(ParseError):
            str_to_weight(bad, "$")


def test_groupoid_document_roundtrip_identity():
    h = random_haar_groupoid(7)
    text = serialize(GroupoidDocument.of(h))
    doc = parse_document(text)
    assert doc.groupoid == h.groupoid
    assert doc.haar == h.haar
    assert doc.unit_measure == h.unit_measure
    assert serialize(doc) == text


def test_serialization_is_canonical():
    h = random_haar_groupoid(9)
    assert serialize(GroupoidDocument.of(h)) == serialize(GroupoidDocument.of(h))


def test_cospan_and_pullback_roundtrip():
    c = random_cospan(4)
    ct = serialize(CospanDocument.of(c))
    assert serialize(parse_document(ct)) == ct
    w = build_weak_pullback(c, validate=False)
    pt = serialize(PullbackDocument.of(w))
    assert serialize(parse_document(pt)) == pt


def test_fixture_files_are_canonical():
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        assert serialize(parse_document(text)) == text, path.name


def test_fixture_script_reproduces_the_fixtures():
    script = FIXTURES.parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    texts = make_fixtures.fixture_texts()
    assert sorted(texts) == sorted(path.name for path in FIXTURES.glob("*.json"))
    for name, text in texts.items():
        assert text.encode("utf-8") == (FIXTURES / name).read_bytes(), name


def test_negative_weight_rejected():
    import json

    obj = json.loads(serialize(GroupoidDocument.of(random_haar_groupoid(1))))
    first_unit = obj["units"][0]
    obj["haar"][first_unit][0] = "-1/2"
    with pytest.raises(ParseError):
        parse_document(json.dumps(obj))


def test_decimal_literal_rejected():
    with pytest.raises(ParseError):
        parse_document('{"format_version": 1, "kind": "groupoid", "x": 1.5}')


def test_unsupported_version():
    with pytest.raises(UnsupportedVersion):
        parse_document('{"format_version": 99, "kind": "groupoid"}')


def test_dangling_compose_reference():
    h = random_haar_groupoid(2)
    doc = GroupoidDocument(h.groupoid, None, None)
    import json

    obj = json.loads(serialize(doc))
    obj["compose"][0][2] = "ghost"
    with pytest.raises(DanglingReference):
        parse_document(json.dumps(obj))


def test_haar_row_length_checked():
    text = serialize(GroupoidDocument.of(z2_cospan().left))
    import json

    obj = json.loads(text)
    first_unit = obj["units"][0]
    obj["haar"][first_unit] = obj["haar"][first_unit][:-1]
    with pytest.raises(ParseError):
        parse_document(json.dumps(obj))


def test_unknown_kind():
    with pytest.raises(ParseError):
        parse_document('{"format_version": 1, "kind": "mystery"}')


def test_cospan_requires_measures_for_conversion():
    c = z2_cospan()
    doc = CospanDocument.of(c)
    doc.left.haar = None
    from measured_groupoids import MalformedInput

    with pytest.raises(MalformedInput):
        doc.to_cospan()


def _moved_product(data: dict, rng) -> dict:
    """The pullback document with one product of two non-units in its result
    replaced by another element with the same range and source."""
    g = data["result"]
    units = set(g["units"])
    hom_sets: dict[tuple[str, str], list[str]] = {}
    for x in g["elements"]:
        hom_sets.setdefault((g["range"][x], g["source"][x]), []).append(x)
    movable = [
        i
        for i, (x, y, z) in enumerate(g["compose"])
        if x not in units and y not in units and len(hom_sets[(g["range"][z], g["source"][z])]) > 1
    ]
    moved = json.loads(json.dumps(data))
    entry = moved["result"]["compose"][rng.choice(movable)]
    entry[2] = rng.choice([z for z in hom_sets[(g["range"][entry[2]], g["source"][entry[2]])] if z != entry[2]])
    return moved


@pytest.mark.parametrize("seed", [3, 4])
def test_shuffled_compose_entries_parse_validate_and_serialize_as_sorted(seed, tmp_path, capsys):
    # parsed product rows keep the document's order of compose entries; the
    # groupoid, the `mgpd validate` output and the serialized bytes must not
    # depend on it, also when a moved product makes validation enumerate
    from measured_groupoids.cli import main

    rng = random.Random(seed)
    w = build_weak_pullback(random_cospan(seed, with_null_base=seed % 5 == 4), validate=False)
    text = serialize(PullbackDocument.of(w))
    for data in (json.loads(text), _moved_product(json.loads(text), rng)):
        shuffled = json.loads(json.dumps(data))
        for g in (*(shuffled["cospan"][leg] for leg in ("left", "base", "right")), shuffled["result"]):
            rng.shuffle(g["compose"])
        assert shuffled["result"]["compose"] != data["result"]["compose"]
        docs, outputs = [], []
        for name, body in (("sorted", data), ("shuffled", shuffled)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            docs.append(parse_document(path.read_text(encoding="utf-8")))
            outputs.append((main(["validate", str(path)]), *capsys.readouterr()))
        assert docs[0].result.groupoid == docs[1].result.groupoid
        assert docs[0].cospan.left.groupoid == docs[1].cospan.left.groupoid
        assert serialize(docs[0]) == serialize(docs[1])
        assert outputs[0] == outputs[1]
    assert serialize(docs[0]) != text and outputs[0][0] == 2  # the moved product is found
    assert serialize(parse_document(text)) == text


def test_compose_raises_the_missing_pair_and_the_view_counts_entries():
    g = random_haar_groupoid(7).groupoid
    x = g.elements[0]
    y = next(y for y in g.elements if g.r(y) != g.d(x))
    with pytest.raises(KeyError) as missing:
        g.compose(x, y)
    assert missing.value.args == ((x, y),)
    assert (x, y) not in g.compose_map and g.compose_map.get((x, y)) is None
    assert g.compose(x, g.d(x)) == g.compose_map[(x, g.d(x))] == x
    assert len(g.compose_map) == len(list(g.compose_map)) == sum(len(row) for row in g.rows.values())
