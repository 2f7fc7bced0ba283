import importlib.util
import json
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    _write,
    parse_document,
    serialize,
    str_to_weight,
    weight_to_str,
)
from measured_groupoids.measures import FiniteMeasure

from helpers import oracle_parse, oracle_serialize, replace, z2_cospan

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_weight_strings():
    from fractions import Fraction

    assert weight_to_str(Fraction(3, 4)) == "3/4"
    assert weight_to_str(Fraction(5)) == "5"
    assert str_to_weight("3/4", "$") == Fraction(3, 4)
    assert str_to_weight("0", "$") == 0
    obj = json.loads(serialize(GroupoidDocument.of(z2_cospan().left)))
    for bad in ("-1/2", "1.5", "1/0", "a", "1/-2", 1, None):
        with pytest.raises(ParseError) as oracle:
            str_to_weight(bad, "$.unit_measure")
        # the reader rejects the weight with the oracle's text
        with pytest.raises(ParseError) as parsed:
            parse_document(json.dumps({**obj, "unit_measure": [bad] * len(obj["units"])}))
        assert str(parsed.value) == str(oracle.value)


def test_the_writer_refuses_a_weight_past_the_digits_the_reader_converts():
    # 10**4300 - 1 has 4,300 digits, the most `int()` converts from text by
    # default, and 10**4300 one more; what the writer writes reads back
    from fractions import Fraction

    h = z2_cospan().left
    (u,) = h.groupoid.units
    for den in (10**4300 - 1, 10**4300):
        doc = GroupoidDocument(h.groupoid, h.haar, FiniteMeasure(h.groupoid.units, {u: 1}, den))
        if den < 10**4300:
            assert parse_document(serialize(doc)) == doc
            continue
        with pytest.raises(ParseError) as refused:
            serialize(doc)
        more = "more than the 4300 a document holds"
        assert str(refused.value) == f"$.unit_measure[{u!r}]: the weight's denominator has 4301 digits, {more}"
    doc = PullbackDocument.of(build_weak_pullback(z2_cospan()))
    x = min(doc.modular)
    with pytest.raises(ParseError) as refused:
        serialize(replace(doc, modular={**doc.modular, x: Fraction(10**4300)}))
    assert str(refused.value) == f"$.modular[{x!r}]: the weight's numerator has 4301 digits, {more}"


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


def test_dangling_products_are_named_in_canonical_row_order():
    # the elements listed out of order and the compose list in the writer's
    # order: the first unknown product is the one of the first row in
    # canonical order, whatever order the document lists the elements in
    obj = {
        "format_version": 1, "kind": "groupoid", "elements": ["g", "e"], "units": ["e"],
        "range": {"e": "e", "g": "e"}, "source": {"e": "e", "g": "e"}, "inverse": {"e": "e", "g": "g"},
        "compose": [["e", "e", "ghostA"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "ghostB"]],
    }
    with pytest.raises(DanglingReference) as err:
        parse_document(json.dumps(obj))
    assert str(err.value) == "$: compose table references unknown id 'ghostA'"


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


def _documents_of(c, w=None):
    docs = [CospanDocument.of(c)]
    if w is not None:
        docs.append(PullbackDocument.of(w))
    return docs


def _assert_oracles_agree(doc, label):
    # the writer gives the bytes of json.dumps(body, indent=2, sort_keys=True),
    # and the reader the documents of one Fraction per weight and the
    # entry-by-entry conversion of the compose list
    text = serialize(doc)
    assert text == oracle_serialize(doc), label
    assert parse_document(text) == oracle_parse(text), label


def test_writer_and_reader_match_their_oracles_on_fixtures_and_examples():
    from measured_groupoids.families import example_result

    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        doc = parse_document(text)
        assert serialize(doc) == oracle_serialize(doc) == text, path.name
        if isinstance(doc, (GroupoidDocument, CospanDocument)):
            assert doc == oracle_parse(text), path.name
    for family in ("cech", "transformation"):
        result = example_result(family, parse_document((FIXTURES / f"{family}_params.json").read_text(encoding="utf-8")))
        text = serialize(result)
        assert text == oracle_serialize(result), family
        assert serialize(parse_document(text)) == text, family


def test_writer_and_reader_match_their_oracles_on_the_sweep(sweep):
    for seed, w in sweep.pullbacks:
        for doc in _documents_of(w.cospan, w):
            _assert_oracles_agree(doc, seed)


def test_writer_and_reader_match_their_oracles_on_the_ladders():
    # the cyclic ladder reaches ids that sort as g1 < g10 < g2, so the rows
    # the builder reorders are written and read back in that order
    spec = importlib.util.spec_from_file_location("bench", FIXTURES.parent.parent / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert set(bench.LADDERS) == {"cyclic", "pair", "transformation"} and max(bench.LADDERS["cyclic"]) >= 11
    for family, ns in bench.LADDERS.items():
        for n in ns:
            c = bench.ladder_cospan(family, n)
            for doc in _documents_of(c, build_weak_pullback(c, validate=False)):
                _assert_oracles_agree(doc, (family, n))


# ids that JSON escapes, or writes as \u escapes: quotes, backslashes,
# control characters that are not whitespace, and non-ASCII letters, some
# outside the basic plane
_ID_CHARS = st.sampled_from(['a', 'b', '"', '\\', '/', '\x00', '\x7f', '\u00e9', '\u4e2d', '\u2603', '\U0001f600', '\ud800'])


@given(st.lists(st.text(_ID_CHARS, min_size=1, max_size=3), min_size=1, max_size=3, unique=True))
def test_writer_and_reader_match_their_oracles_on_escaped_ids(points):
    from measured_groupoids import Cospan, identity_hom, pair_groupoid, with_counting_haar

    g = pair_groupoid(points)
    h = with_counting_haar(g)
    c = Cospan(h, h, h, identity_hom(g), identity_hom(g))
    for doc in (GroupoidDocument.of(h), *_documents_of(c, build_weak_pullback(c, validate=False))):
        _assert_oracles_agree(doc, points)


_BODIES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(_ID_CHARS),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner, inner) | st.dictionaries(st.text(_ID_CHARS), inner, max_size=4),
    max_leaves=20,
)


@given(_BODIES)
def test_written_text_is_that_of_json_dumps_with_indent(body):
    out = []
    _write(body, "", out)
    assert "".join(out) == json.dumps(body, indent=2, sort_keys=True)
