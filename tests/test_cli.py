import gc
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from measured_groupoids import cli, families
from measured_groupoids.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _validate_json(data, tmp_path, capsys) -> tuple[int, str]:
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["validate", str(doc)])
    return rc, capsys.readouterr().out


def test_check_z2_fixture_passes(capsys):
    rc = main(["check", str(FIXTURES / "z2_cospan.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 10
    assert "FAIL" not in out
    assert "thm.haar_system" in out and "prop.quasi_invariance" in out


def test_check_strict_flag(capsys):
    rc = main(["check", "--strict", str(FIXTURES / "z2_cospan.json")])
    assert rc == 0


def test_check_bad_cospan_names_quasi_invariance(capsys):
    rc = main(["check", str(FIXTURES / "bad_cospan.json")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "quasi-invariance" in out
    assert "1-2" in out


def test_validate_quasi_violation_fixture(capsys):
    rc = main(["validate", str(FIXTURES / "pair_quasi_violation.json")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "quasi-invariance" in out and "1-2" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    capsys.readouterr()
    assert main(["validate", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize(
    "argv",
    [[], ["check", "--fast", str(FIXTURES / "z2_cospan.json")], ["gen", "cospan", "--bounds", "-1,5"]],
    ids=["missing-subcommand", "unknown-flag", "option-like-bounds"],
)
def test_usage_errors_exit_one(argv, capsys):
    # argparse prints the usage and its error; the exit code is that of a
    # bad argument, not of a validation failure
    assert main(argv) == 1
    assert "error: " in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: mgpd")


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    doc = tmp_path / "latin1.json"
    doc.write_bytes('{"kind": "groupoïd"}'.encode("latin-1"))
    assert main(["validate", str(doc)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {doc} is not UTF-8 text")


def test_gen_rejects_non_integer_bounds(capsys):
    assert main(["gen", "cospan", "--bounds", "x,y"]) == 1
    assert capsys.readouterr().err == "error: --bounds must be 'max_units,max_elements'\n"


@pytest.mark.parametrize("bounds", ["0,0", "1,0", "-1,5"])
@pytest.mark.parametrize("what", ["groupoid", "cospan"])
def test_gen_rejects_bounds_below_one(what, bounds, tmp_path, capsys):
    out = tmp_path / "instance.json"
    assert main(["gen", what, f"--bounds={bounds}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --bounds must be at least 1,1\n"
    assert not out.exists()


def test_unexpected_exception_exits_four(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check", broken)
    assert main(["check", str(FIXTURES / "z2_cospan.json")]) == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "error: internal: RuntimeError: boom\n"
    # verbose runs keep the traceback, ahead of the same line
    monkeypatch.setenv("MGPD_VERBOSE", "1")
    assert main(["check", str(FIXTURES / "z2_cospan.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n") and err.endswith("error: internal: RuntimeError: boom\n")


def test_float_literal_exit_code(tmp_path):
    doc = tmp_path / "f.json"
    doc.write_text('{"format_version": 1, "kind": "groupoid", "w": 0.5}', encoding="utf-8")
    assert main(["validate", str(doc)]) == 1


def test_pullback_then_validate_roundtrip(tmp_path, capsys):
    out = tmp_path / "pullback.json"
    assert main(["pullback", str(FIXTURES / "z2_cospan.json"), "--out", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    from measured_groupoids.documents import parse_document, serialize

    assert serialize(parse_document(text)) == text


def test_validate_rejects_a_result_that_is_not_the_pullback(tmp_path, capsys):
    # one-weight changes that keep every law the validators check (the unit
    # measure of an isolated unit, the Haar weight of a one-element fiber):
    # only a comparison with the construction rejects them
    cospan, doc, bad = tmp_path / "c.json", tmp_path / "p.json", tmp_path / "bad.json"
    labels = ("cospan", "groupoid axioms", "haar system", "haar groupoid", "modular table", "proj_left", "proj_right")
    sound = "".join(f"ok: {label}\n" for label in labels)
    for seed, path in (
        (109, ("unit_measure", 0)),
        (109, ("haar", "m0.e|m0.e|m0.e", 0)),
        (1, ("unit_measure", 3)),
        (1, ("haar", "b.m0.e|m0.e|m0.e", 0)),
    ):
        assert main(["gen", "cospan", "--seed", str(seed), "--out", str(cospan)]) == 0
        assert main(["pullback", str(cospan), "--out", str(doc)]) == 0
        capsys.readouterr()
        assert main(["validate", str(doc)]) == 0
        assert capsys.readouterr().out == sound
        data = json.loads(doc.read_text(encoding="utf-8"))
        node = data["result"]
        for key in path[:-1]:
            node = node[key]
        assert node[path[-1]] != "5/2"
        node[path[-1]] = "5/2"
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert main(["validate", str(bad)]) == 2, (seed, path)
        mismatch = f"violation: stored result.{path[0]} is not that of the weak pullback of the stored cospan\n"
        assert capsys.readouterr().out == sound + mismatch


def _pullback_document(tmp_path, capsys):
    doc = tmp_path / "p.json"
    assert main(["pullback", str(FIXTURES / "z2_cospan.json"), "--out", str(doc)]) == 0
    capsys.readouterr()
    return json.loads(doc.read_text(encoding="utf-8"))


def test_validate_names_a_changed_modular_entry(tmp_path, capsys):
    data = _pullback_document(tmp_path, capsys)
    x = sorted(data["modular"])[0]
    derived = data["modular"][x]
    assert derived != "5/2"
    data["modular"][x] = "5/2"
    rc, out = _validate_json(data, tmp_path, capsys)
    assert rc == 2
    assert f"violation: stored modular table does not match the stored measures at {x}: stored 5/2, derived {derived}\n" in out
    assert "ok: modular table" not in out
    # a missing entry is named the same way
    del data["modular"][x]
    rc, out = _validate_json(data, tmp_path, capsys)
    assert rc == 2
    assert f"violation: stored modular table does not match the stored measures at {x}: stored undefined, derived {derived}\n" in out


def test_validate_rejects_a_result_without_unit_measure(tmp_path, capsys):
    data = _pullback_document(tmp_path, capsys)
    del data["result"]["unit_measure"]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(doc)]) == 2
    assert capsys.readouterr().err == "error: document lacks result.unit_measure\n"
    # a leg of the stored cospan without its Haar weights
    data = _pullback_document(tmp_path, capsys)
    del data["cospan"]["right"]["haar"]
    doc.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(doc)]) == 2
    assert capsys.readouterr().err == "error: document lacks cospan.right.haar\n"


def test_example_cech(tmp_path, capsys):
    out = tmp_path / "cech.json"
    rc = main(["example", "cech", "--params", str(FIXTURES / "cech_params.json"), "--out", str(out)])
    assert rc == 0
    assert "isomorphism" in capsys.readouterr().out
    assert main(["validate", str(out)]) == 0


def test_example_transformation(tmp_path, capsys):
    out = tmp_path / "tr.json"
    rc = main(
        ["example", "transformation", "--params", str(FIXTURES / "transformation_params.json"), "--out", str(out)]
    )
    assert rc == 0
    assert main(["validate", str(out)]) == 0


def _example_result(family, params, tmp_path, capsys):
    out = tmp_path / f"{family}.json"
    assert main(["example", family, "--params", str(params), "--out", str(out)]) == 0
    capsys.readouterr()
    return json.loads(out.read_text(encoding="utf-8"))


_EXAMPLE_AXIOMS_OK = "".join(f"ok: {g} groupoid axioms\n" for g in ("left", "base", "right", "pullback", "target"))


def _transformation_params_with_spare_base_point(tmp_path):
    # the fixture's base is one point, so there is no other base element to
    # send a leg to; a second, unused base point makes one
    params = json.loads((FIXTURES / "transformation_params.json").read_text(encoding="utf-8"))
    params["base_space"] = sorted(params["base_space"] + ["w"])
    path = tmp_path / "transformation_params.json"
    path.write_text(json.dumps(params), encoding="utf-8")
    return path


@pytest.mark.parametrize("family", ["cech", "transformation"])
def test_validate_example_result_checks_the_pullback(family, tmp_path, capsys):
    data = _example_result(family, FIXTURES / f"{family}_params.json", tmp_path, capsys)
    assert _validate_json(data, tmp_path, capsys) == (0, _EXAMPLE_AXIOMS_OK + "ok: isomorphism verdict\n")
    # the target stored as the pullback, with the identity as the canonical
    # map: every groupoid is sound and the map is an isomorphism
    data["pullback"] = data["target"]
    data["iso_map"] = {x: x for x in data["target"]["elements"]}
    mismatch = "violation: stored pullback is not the weak pullback of the stored cospan\n"
    assert _validate_json(data, tmp_path, capsys) == (2, _EXAMPLE_AXIOMS_OK + mismatch)


@pytest.mark.parametrize(
    "family, params, entry, image",
    [
        ("cech", lambda tmp_path: FIXTURES / "cech_params.json", "1:y1:1", "1:x:2"),
        ("transformation", _transformation_params_with_spare_base_point, "y1:g0", "w"),
    ],
    ids=["cech", "transformation"],
)
def test_validate_example_result_checks_the_legs(family, params, entry, image, tmp_path, capsys):
    data = _example_result(family, params(tmp_path), tmp_path, capsys)
    assert _validate_json(data, tmp_path, capsys)[0] == 0
    assert data["left_map"][entry] != image
    data["left_map"][entry] = image
    rc, out = _validate_json(data, tmp_path, capsys)
    assert rc == 2
    assert out.startswith(_EXAMPLE_AXIOMS_OK + "violation: left_map: ")
    assert f"[{entry}" in out
    assert "isomorphism verdict" not in out


@pytest.mark.parametrize("family", ["cech", "transformation"])
def test_validate_example_result_checks_the_verdict(family, tmp_path, capsys):
    data = _example_result(family, FIXTURES / f"{family}_params.json", tmp_path, capsys)
    assert data["is_isomorphism"] is True
    data["is_isomorphism"] = False
    flipped = "violation: stored isomorphism verdict does not match the stored map\n"
    assert _validate_json(data, tmp_path, capsys) == (2, _EXAMPLE_AXIOMS_OK + flipped)


@pytest.mark.parametrize(
    "family, field, key, value",
    [
        ("cech", "left_map", "ghost", "x"),
        ("transformation", "left_map", "ghost", "x"),
        ("transformation", "left_action", "act", {"ghost": {"g0": "y1", "g1": "y2"}}),
    ],
    ids=["cech-map", "transformation-map", "action-row"],
)
def test_example_parameters_keyed_by_unknown_ids_are_parse_errors(family, field, key, value, tmp_path, capsys):
    params = json.loads((FIXTURES / f"{family}_params.json").read_text(encoding="utf-8"))
    if isinstance(value, dict):
        params[field][key].update(value)
    else:
        params[field][key] = value
    doc = tmp_path / "params.json"
    doc.write_text(json.dumps(params), encoding="utf-8")
    for args in (["validate", str(doc)], ["example", family, "--params", str(doc), "--out", str(tmp_path / "e.json")]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: $") and "'ghost'" in captured.err


@pytest.mark.parametrize(
    "family, builder, builds",
    # cech: left, right, base and target; transformation: left, right and
    # target (the base is cotrivial)
    [("cech", "cech_groupoid", 4), ("transformation", "transformation_groupoid", 3)],
)
def test_example_builds_each_groupoid_once(family, builder, builds, monkeypatch, tmp_path, capsys):
    built = []
    real = getattr(families, builder)

    def counted(arg):
        built.append(arg)
        return real(arg)

    monkeypatch.setattr(families, builder, counted)
    params = FIXTURES / f"{family}_params.json"
    assert main(["example", family, "--params", str(params), "--out", str(tmp_path / "e.json")]) == 0
    assert len(built) == builds


def test_transformation_action_on_an_empty_space_is_rejected(tmp_path, capsys):
    params = json.loads((FIXTURES / "transformation_params.json").read_text(encoding="utf-8"))
    params["right_action"]["space"] = []
    params["right_action"]["act"] = {}
    params["right_map"] = {}
    doc = tmp_path / "tr.json"
    doc.write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "e.json"
    for args in (["validate", str(doc)], ["example", "transformation", "--params", str(doc), "--out", str(out)]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: $.right_action: group action needs a nonempty space\n")
    assert not out.exists()


def test_transformation_legs_over_different_base_points_have_an_empty_pullback(tmp_path, capsys):
    # nonempty actions whose maps meet nowhere over the base: the pullback and
    # the target are both empty, and the canonical map between them is an
    # isomorphism
    params = json.loads(_transformation_params_with_spare_base_point(tmp_path).read_text(encoding="utf-8"))
    params["right_map"] = {z: "w" for z in params["right_map"]}
    doc = tmp_path / "tr.json"
    doc.write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "e.json"
    assert main(["example", "transformation", "--params", str(doc), "--out", str(out)]) == 0
    assert "pullback 0 elements, target 0 elements, canonical map is an isomorphism" in capsys.readouterr().out
    assert main(["validate", str(out)]) == 0


def test_cech_index_set_mismatch_is_a_parse_error(tmp_path, capsys):
    # covers over different index sets are a malformed document, reported
    # with its path like the other malformed parameter documents
    params = json.loads((FIXTURES / "cech_params.json").read_text(encoding="utf-8"))
    del params["right_cover"]["blocks"]["2"]
    doc = tmp_path / "cech.json"
    doc.write_text(json.dumps(params), encoding="utf-8")
    for args in (["validate", str(doc)], ["example", "cech", "--params", str(doc), "--out", str(tmp_path / "e.json")]):
        assert main(args) == 1
        assert "error: $: covers must share one index set" in capsys.readouterr().err


def test_modular_prints_table(tmp_path, capsys):
    gout = tmp_path / "g.json"
    assert main(["gen", "groupoid", "--seed", "5", "--bounds", "3,12", "--out", str(gout)]) == 0
    capsys.readouterr()
    assert main(["modular", str(gout)]) == 0
    out = capsys.readouterr().out
    assert out.strip()
    for line in out.strip().splitlines():
        name, value = line.split("\t")
        assert name and value


def test_modular_names_a_missing_measure(tmp_path, capsys):
    gout = tmp_path / "g.json"
    assert main(["gen", "groupoid", "--seed", "5", "--out", str(gout)]) == 0
    data = json.loads(gout.read_text(encoding="utf-8"))
    for name in ("unit_measure", "haar"):
        del data[name]
        gout.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["modular", str(gout)]) == 2
        assert capsys.readouterr() == ("", f"error: document lacks {name}\n")


def test_gen_cospan_roundtrip(tmp_path, capsys):
    cout = tmp_path / "c.json"
    assert main(["gen", "cospan", "--seed", "8", "--out", str(cout)]) == 0
    assert main(["validate", str(cout)]) == 0
    assert main(["check", str(cout)]) == 0


def test_gen_null_cospan(tmp_path, capsys):
    cout = tmp_path / "cn.json"
    assert main(["gen", "cospan", "--seed", "3", "--null", "--out", str(cout)]) == 0
    assert main(["check", str(cout)]) == 0


def test_check_exit_three_when_a_claim_fails(monkeypatch, capsys):
    # the structure theorems cannot fail on a valid cospan, so force one
    # claim down to exercise the exit-code contract
    def rigged(cospan, w, strict=False):
        results = cli_real(cospan, w, strict=strict)
        results["thm.haar_system"] = (False, "forced failure")
        return results

    cli_real = cli.run_claims
    monkeypatch.setattr(cli, "run_claims", rigged)
    rc = main(["check", str(FIXTURES / "z2_cospan.json")])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL thm.haar_system" in out


def test_verbose_env_adds_detail(monkeypatch, capsys):
    monkeypatch.setenv("MGPD_VERBOSE", "1")
    assert main(["check", str(FIXTURES / "z2_cospan.json")]) == 0
    out = capsys.readouterr().out
    assert "checked" in out  # modular claim detail becomes visible
    assert "PASS axioms.pullback_groupoid — generators 3, generator pairs 12\n" in out


def _string_leaves(node, path=()):
    """(path, value) for every string that is a list item or a dict value."""
    if isinstance(node, str):
        yield path, node
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from _string_leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _string_leaves(v, path + (i,))


def _mutants(text, rng, count):
    """Copies of a document with one string leaf replaced by another string
    that occurs in the same document."""
    leaves = list(_string_leaves(json.loads(text)))
    pool = sorted({v for _, v in leaves})
    for _ in range(count):
        doc = json.loads(text)
        path, old = rng.choice(leaves)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = rng.choice([v for v in pool if v != old])
        yield json.dumps(doc)


def test_mutated_fixtures_end_in_documented_exit_codes(tmp_path, capsys):
    # every document that parses must end in a documented exit code, never
    # in an exception: validators run their dependent checks only on tables
    # that passed the checks those rely on
    escaped = []
    for fixture in sorted(FIXTURES.glob("*.json")):
        rng = random.Random(fixture.name)
        for n, text in enumerate(_mutants(fixture.read_text(encoding="utf-8"), rng, 60)):
            doc = tmp_path / "mutant.json"
            doc.write_text(text, encoding="utf-8")
            for args in (["validate", str(doc)], ["check", str(doc)], ["pullback", str(doc), "--out", str(tmp_path / "p.json")]):
                rc = main(args)
                err = capsys.readouterr().err
                if rc == cli.EXIT_INTERNAL:  # an escaped exception is the failure this test looks for
                    escaped.append(f"{fixture.name} mutant {n}, {args[0]}: {err.strip()}")
                else:
                    assert rc in (0, 1, 2, 3), (fixture.name, n, args[0], rc)
    assert not escaped, "\n".join(escaped)


def _entries(node, path=()):
    """The path of every list item and every dict entry, at any depth."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield path + (k,)
            yield from _entries(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield path + (i,)
            yield from _entries(v, path + (i,))


def _deletion_mutants(text, rng, count):
    """Copies of a document with one list item or dict entry deleted."""
    paths = list(_entries(json.loads(text)))
    for path in rng.sample(paths, min(count, len(paths))):
        doc = json.loads(text)
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        yield json.dumps(doc)


def test_deletion_mutants_end_in_documented_exit_codes(tmp_path, capsys):
    # a missing table entry must be reported, never looked up: this reaches
    # the parameter documents' maps and acting groups, which string swaps
    # leave total
    examples = {"cech_params.json": "cech", "transformation_params.json": "transformation"}
    escaped = []
    for fixture in sorted(FIXTURES.glob("*.json")):
        rng = random.Random(fixture.name)
        for n, text in enumerate(_deletion_mutants(fixture.read_text(encoding="utf-8"), rng, 80)):
            doc = tmp_path / "mutant.json"
            doc.write_text(text, encoding="utf-8")
            runs = [
                ["validate", str(doc)],
                ["check", str(doc)],
                ["pullback", str(doc), "--out", str(tmp_path / "p.json")],
                ["modular", str(doc)],
            ]
            if fixture.name in examples:
                runs.append(["example", examples[fixture.name], "--params", str(doc), "--out", str(tmp_path / "e.json")])
            for args in runs:
                rc = main(args)
                err = capsys.readouterr().err
                if rc == cli.EXIT_INTERNAL:  # an escaped exception is the failure this test looks for
                    escaped.append(f"{fixture.name} mutant {n}, {args[0]}: {err.strip()}")
                else:
                    assert rc in (0, 1, 2, 3), (fixture.name, n, args[0], rc)
    assert not escaped, "\n".join(escaped)


def test_main_leaves_the_freeze_count_unchanged(capsys):
    # only the console entry point freezes, after main returns, so that the
    # shutdown collection skips what the process holds; tests and scripts
    # that call main keep collecting as before
    before = gc.get_freeze_count()
    assert main(["check", str(FIXTURES / "z2_cospan.json")]) == 0
    assert gc.get_freeze_count() == before


def test_the_module_entry_point_checks_the_z2_fixture():
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("MGPD_VERBOSE", None)
    argv = [sys.executable, "-m", "measured_groupoids.cli", "check", str(FIXTURES / "z2_cospan.json")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["PASS"] * 10


@pytest.mark.parametrize("command", ["validate", "check"])
def test_a_document_nested_past_the_decoders_depth_is_a_parse_error(command, tmp_path, capsys):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main([command, str(doc)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == "error: document nests lists or objects deeper than the JSON decoder can read\n"


@pytest.mark.parametrize("command", ["validate", "check"])
@pytest.mark.parametrize("weight", ["1" * 5001, "1/" + "3" * 5001])
def test_a_weight_longer_than_an_int_converts_is_a_parse_error(command, weight, tmp_path, capsys):
    data = json.loads((FIXTURES / "z2_cospan.json").read_text(encoding="utf-8"))
    data["left"]["unit_measure"][0] = weight
    doc = tmp_path / "digits.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, str(doc)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    want = f"error: $.left.unit_measure: weight {weight[:20]}... has a numerator or denominator of more than 4300 digits\n"
    assert err == want


def test_a_derived_weight_past_the_digits_a_document_holds_is_a_parse_error(tmp_path, capsys):
    # each leg's two unit weights are an integer and the reciprocal of one,
    # of 3,000 digits each, within what the reader converts; the pullback's
    # unit measure multiplies two of them. The writer refuses at the
    # reader's limit, so that whatever it writes reads back
    cospan, out = tmp_path / "cospan.json", tmp_path / "pullback.json"
    assert main(["gen", "cospan", "--seed", "3", "--bounds", "2,8", "--out", str(cospan)]) == cli.EXIT_OK
    data = json.loads(cospan.read_text(encoding="utf-8"))
    for side in ("left", "right"):
        data[side]["unit_measure"][:2] = ["7" * 3000, "1/" + "3" * 3000]
    cospan.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(cospan)]) == cli.EXIT_OK
    assert main(["check", str(cospan)]) == cli.EXIT_OK
    capsys.readouterr()
    assert main(["pullback", str(cospan), "--out", str(out)]) == cli.EXIT_PARSE
    field = "$.result.unit_measure['m0.g0|m0.g0|m0.g0']"
    more = "more than the 4300 a document holds"
    assert capsys.readouterr().err == f"error: {field}: the weight's numerator has 6000 digits, {more}\n"
    assert not out.exists()
