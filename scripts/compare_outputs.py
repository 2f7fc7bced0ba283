"""Compare what `mgpd` does in this checkout and in another, byte for byte.

Usage:  python scripts/compare_outputs.py --baseline DIR

DIR is the root of another checkout, say a clone of the parent commit. The
same corpus of invocations runs through `measured_groupoids.cli.main` in one
subprocess per checkout, each with PYTHONPATH=<checkout>/src and its own
temporary directory. Per invocation it records the exit code, the sha256 of
stdout and of stderr, and the sha256 of each file the invocation wrote, with
the temporary directory's path replaced by a fixed token. Prints every
invocation that differs, then one tally line per kind of invocation (its
subcommand, and whether MGPD_VERBOSE is set) with how many of that kind
differ, then the totals; exits 1 if any differ, and 2 when a corpus run
fails.

The corpus, read from this checkout's `tests/fixtures`:
- every fixture with `validate`, `check`, `check --strict`, `modular` and
  `pullback --out`;
- both worked examples, `validate` of what they write, and each example on
  the other's parameters;
- copies of each example's parameters with one top-level field deleted, and
  with one cover block or action row of either side replaced by a number,
  each with `validate` and `example`;
- copies of each written example result with `is_isomorphism` flipped,
  `construction` a number, `target` deleted, and (where the base has another
  element) one `left_map` value moved to another base element, each with
  `validate`;
- `--help` and an unknown flag;
- seeds 0-199 with `gen cospan` (with `--null` on every fifth seed),
  `validate`, `check`, `pullback --out` and `validate` of the written
  pullback, and `MGPD_VERBOSE=1 check` on every tenth seed;
- the same seeds with `gen groupoid` (with `--null` on every fifth seed) and
  `gen cospan --bounds 2,8`, each written to stdout, and `gen groupoid`
  written to a file, then `modular` of that file;
- unit-weight mutants: for each seed, the cospan with the first nonzero unit
  weight of the left, the base or the right set to "0", each with `validate`
  and `check`. These are the inputs on which the measure-class checks fail;
- Haar-weight mutants: for each seed, the cospan with one weight of the left
  Haar system changed, which breaks left invariance, with `validate` and
  `check`;
- pullback mutants: for each seed, copies of the written pullback with one
  `modular` weight changed, with one `result.haar` weight changed, and with
  every left unit weight of the stored cospan doubled, each with `validate`.
  Each fails a different stored-result check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
TMP = "<tmp>"
SEEDS = 200


def corpus(tmp: pathlib.Path):
    """(label, argv, verbose) of each invocation, in order. A later entry may
    read a file an earlier one wrote, so the entries are yielded lazily."""
    for path in sorted(FIXTURES.glob("*.json")):
        name, f = path.name, str(path)
        for argv in (["validate", f], ["check", f], ["check", "--strict", f], ["modular", f]):
            yield " ".join([*argv[:-1], name]), argv, False
        yield f"pullback {name}", ["pullback", f, "--out", str(tmp / f"pullback_{name}")], False
    for family in ("cech", "transformation"):
        params, out = FIXTURES / f"{family}_params.json", tmp / f"example_{family}.json"
        yield f"example {family}", ["example", family, "--params", str(params), "--out", str(out)], False
        yield f"validate example {family}", ["validate", str(out)], False
        other = FIXTURES / f"{'transformation' if family == 'cech' else 'cech'}_params.json"
        argv = ["example", family, "--params", str(other), "--out", str(tmp / f"example_{family}_other.json")]
        yield f"example {family} on the other family's params", argv, False
        for name, mutant in params_mutants(params, tmp):
            yield f"validate {family} params {name}", ["validate", mutant], False
            argv = ["example", family, "--params", mutant, "--out", str(tmp / f"example_{family}_{name}.json")]
            yield f"example {family} params {name}", argv, False
        for name, mutant in result_mutants(out):
            yield f"validate example {family} {name}", ["validate", mutant], False
    yield "--help", ["--help"], False
    yield "unknown flag", ["check", "--no-such-flag", str(FIXTURES / "z2_cospan.json")], False
    for seed in range(SEEDS):
        cospan, pullback = str(tmp / f"cospan_{seed}.json"), str(tmp / f"pullback_{seed}.json")
        groupoid = str(tmp / f"groupoid_{seed}.json")
        null = ["--null"] if seed % 5 == 4 else []
        yield f"gen cospan {seed}", ["gen", "cospan", "--seed", str(seed), *null, "--out", cospan], False
        yield f"gen groupoid {seed}", ["gen", "groupoid", "--seed", str(seed), *null], False
        yield f"gen groupoid {seed} --out", ["gen", "groupoid", "--seed", str(seed), *null, "--out", groupoid], False
        yield f"modular groupoid {seed}", ["modular", groupoid], False
        yield f"gen cospan --bounds 2,8 {seed}", ["gen", "cospan", "--bounds", "2,8", "--seed", str(seed)], False
        yield f"validate cospan {seed}", ["validate", cospan], False
        yield f"check cospan {seed}", ["check", cospan], False
        if seed % 10 == 0:
            yield f"MGPD_VERBOSE=1 check cospan {seed}", ["check", cospan], True
        yield f"pullback cospan {seed}", ["pullback", cospan, "--out", pullback], False
        yield f"validate pullback {seed}", ["validate", pullback], False
        for name, mutant in pullback_mutants(pathlib.Path(pullback)):
            yield f"validate pullback {seed} {name}", ["validate", mutant], False
        for side, mutant in unit_weight_mutants(pathlib.Path(cospan)):
            yield f"validate cospan {seed} zero {side} unit", ["validate", mutant], False
            yield f"check cospan {seed} zero {side} unit", ["check", mutant], False
        for mutant in haar_weight_mutants(pathlib.Path(cospan)):
            yield f"validate cospan {seed} left haar weight", ["validate", mutant], False
            yield f"check cospan {seed} left haar weight", ["check", mutant], False


def write_mutant(path: pathlib.Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def params_mutants(params: pathlib.Path, tmp: pathlib.Path):
    """(name, path) of each copy of an example's parameters with one
    top-level field deleted, and with the first cover block or action row of
    the left or the right side replaced by a number."""
    doc = json.loads(params.read_text(encoding="utf-8"))
    for field in sorted(doc):
        name = f"without-{field}"
        yield name, write_mutant(tmp / f"{params.stem}_{name}.json", {k: v for k, v in doc.items() if k != field})
    for side, table in (("left_cover", "blocks"), ("right_cover", "blocks"), ("left_action", "act"), ("right_action", "act")):
        if side in doc:
            entries = doc[side][table]
            name = f"{side}-{table}-number"
            mutant = {**doc, side: {**doc[side], table: {**entries, min(entries): 7}}}
            yield name, write_mutant(tmp / f"{params.stem}_{name}.json", mutant)


def result_mutants(result: pathlib.Path):
    """(name, path) of each copy of an example result with the verdict
    flipped, the construction a number, the target deleted, and the first
    `left_map` value moved to another base element, where there is one.
    There are none when `example` wrote no document."""
    if not result.exists():
        return
    doc = json.loads(result.read_text(encoding="utf-8"))
    mutants = {
        "flipped-verdict": {**doc, "is_isomorphism": not doc["is_isomorphism"]},
        "number-construction": {**doc, "construction": 7},
        "without-target": {k: v for k, v in doc.items() if k != "target"},
    }
    x = min(doc["left_map"])
    others = [e for e in doc["base"]["elements"] if e != doc["left_map"][x]]
    if others:
        mutants["moved-left_map"] = {**doc, "left_map": {**doc["left_map"], x: others[0]}}
    for name, mutant in mutants.items():
        yield name, write_mutant(result.with_name(f"{result.stem}_{name}.json"), mutant)


def unit_weight_mutants(cospan: pathlib.Path):
    """(side, path) of each copy of the cospan document with one unit weight
    set to "0": the first nonzero weight of the left, the base or the right.
    There are none when `gen` wrote no document."""
    if not cospan.exists():
        return
    doc = json.loads(cospan.read_text(encoding="utf-8"))
    for side in ("left", "base", "right"):
        weights = doc[side]["unit_measure"]
        nonzero = [i for i, w in enumerate(weights) if w != "0"]
        if nonzero:
            mutant = json.loads(json.dumps(doc))
            mutant[side]["unit_measure"][nonzero[0]] = "0"
            yield side, write_mutant(cospan.with_name(f"{cospan.stem}_zero_{side}.json"), mutant)


def changed(weight: str) -> str:
    """Another positive weight than `weight`."""
    return "2" if weight == "1" else "1"


def with_one_haar_weight_changed(haar: dict) -> dict | None:
    """A copy of a stored Haar system with the first weight of its first
    fiber of two or more elements changed, or None when it has no such
    fiber. On such a fiber every weight is tied to another fiber's by left
    invariance, so the copy is not left invariant."""
    u = next((u for u in sorted(haar) if len(haar[u]) > 1), None)
    if u is None:
        return None
    return {**haar, u: [changed(haar[u][0]), *haar[u][1:]]}


def haar_weight_mutants(cospan: pathlib.Path):
    """The path of the copy of the cospan document with one weight of the
    left Haar system changed, where `with_one_haar_weight_changed` gives
    one. There is none when `gen` wrote no document."""
    if not cospan.exists():
        return
    doc = json.loads(cospan.read_text(encoding="utf-8"))
    haar = with_one_haar_weight_changed(doc["left"]["haar"])
    if haar is not None:
        yield write_mutant(cospan.with_name(f"{cospan.stem}_left_haar.json"), {**doc, "left": {**doc["left"], "haar": haar}})


def pullback_mutants(pullback: pathlib.Path):
    """(name, path) of each copy of a pullback document with the first
    `modular` weight changed, with one `result.haar` weight changed (as
    `with_one_haar_weight_changed` changes it), and with every left unit
    weight of its cospan doubled, which keeps the cospan valid but not the
    stored unit measure. There are none when `pullback` wrote no document."""
    if not pullback.exists():
        return
    doc = json.loads(pullback.read_text(encoding="utf-8"))
    result, cospan, modular = doc["result"], doc["cospan"], doc["modular"]
    mutants = {}
    if modular:
        x = min(modular)
        mutants["modular-weight"] = {**doc, "modular": {**modular, x: changed(modular[x])}}
    haar = with_one_haar_weight_changed(result["haar"])
    if haar is not None:
        mutants["result-haar-weight"] = {**doc, "result": {**result, "haar": haar}}
    doubled = [str(2 * Fraction(w)) for w in cospan["left"]["unit_measure"]]
    mutants["doubled-left-unit-weights"] = {**doc, "cospan": {**cospan, "left": {**cospan["left"], "unit_measure": doubled}}}
    for name, mutant in mutants.items():
        yield name, write_mutant(pullback.with_name(f"{pullback.stem}_{name}.json"), mutant)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_corpus() -> list[dict]:
    """Run the corpus through the `cli` on the import path; one record per
    invocation. The written files of an invocation are those named after
    `--out`."""
    from measured_groupoids.cli import main

    os.environ.pop("MGPD_VERBOSE", None)
    records = []
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        for label, argv, verbose in corpus(tmp):
            out, err = io.StringIO(), io.StringIO()
            if verbose:
                os.environ["MGPD_VERBOSE"] = "1"
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                os.environ.pop("MGPD_VERBOSE", None)
            written = {}
            if "--out" in argv:
                path = pathlib.Path(argv[argv.index("--out") + 1])
                if path.exists():
                    written[path.name] = sha(path.read_bytes().replace(d.encode(), TMP.encode()))
            stdout, stderr = (s.getvalue().replace(d, TMP) for s in (out, err))
            kind = f"MGPD_VERBOSE=1 {argv[0]}" if verbose else argv[0]
            records.append(
                {"label": label, "kind": kind, "exit": code, "stdout": sha(stdout.encode()), "stderr": sha(stderr.encode()),
                 "files": written, "text": (stdout[:2000], stderr[:2000])}
            )
    return records


def records_of(checkout: pathlib.Path) -> subprocess.Popen:
    """A subprocess that runs the corpus on `checkout`'s source and prints
    its records as JSON."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--records"]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)


def first_line_that_differs(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i + 1}: {x!r} != {y!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def differences(mine: list[dict], theirs: list[dict]) -> list[tuple[str, str]]:
    """(kind, line) for each invocation whose record differs, the line
    naming what differs."""
    if [r["label"] for r in mine] != [r["label"] for r in theirs]:
        return [("corpus", f"the corpora differ: {len(mine)} invocations here, {len(theirs)} in the baseline")]
    out = []
    for a, b in zip(mine, theirs):
        what = [key for key in ("exit", "stdout", "stderr", "files") if a[key] != b[key]]
        if what:
            line = f"{a['label']}: {', '.join(what)} differ"
            if a["exit"] != b["exit"]:
                line += f" (exit {a['exit']} here, {b['exit']} in the baseline)"
            for key, i in (("stdout", 0), ("stderr", 1)):
                if key in what:
                    line += f"; {key} {first_line_that_differs(a['text'][i], b['text'][i])}"
            out.append((a["kind"], line))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", type=pathlib.Path, help="root of the checkout to compare with")
    parser.add_argument("--records", action="store_true", help=argparse.SUPPRESS)  # the subprocess's mode
    args = parser.parse_args()
    if args.records:
        json.dump(run_corpus(), sys.stdout)
        return 0
    if args.baseline is None:
        parser.error("--baseline is required")
    runs = [records_of(checkout) for checkout in (ROOT, args.baseline.resolve())]
    outputs = [run.communicate()[0] for run in runs]
    if any(run.returncode for run in runs):
        print("a corpus run failed", file=sys.stderr)
        return 2
    mine, theirs = (json.loads(out) for out in outputs)
    diffs = differences(mine, theirs)
    for _, line in diffs:
        print(line)
    kinds, differing = Counter(r["kind"] for r in mine), Counter(kind for kind, _ in diffs)
    for kind, n in kinds.items():
        print(f"{kind}: {differing[kind]} of {n} differ")
    print(f"{len(mine)} invocations, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
