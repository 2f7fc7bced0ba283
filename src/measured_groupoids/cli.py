"""Command-line driver.

Subcommands: validate, pullback, check, example, modular, gen. Exit codes:
0 success, 1 parse failure or bad argument (usage errors included),
2 validation failure, 3 theorem-check failure, 4 internal error (any other
exception, reported as `error: internal: <type>: <message>`). Set
MGPD_VERBOSE=1 for per-claim detail in reports and for the traceback of an
internal error.

This module parses arguments and prints. `families` computes and checks the
worked examples, and is imported with `generate` by the subcommands that use
them (`example`, `gen`, and `validate` of an example document), so that a
process that checks or validates a cospan or a pullback loads neither.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from operator import attrgetter

from .documents import CospanDocument, GroupoidDocument, PullbackDocument, parse_document, serialize, weight_to_str
from .errors import GroupoidError, ParseError
from .groupoid import GroupoidHom, ValidationReport, validate_groupoid
from .haar import HaarGroupoid, is_haar, validate_haar_groupoid, validate_haar_hom, validate_unit_measure
from .measures import alternate_disintegration
from .pullback import build_weak_pullback, check_commuting_diamond, check_disintegration_independence, check_expanding_lemma
from .pullback import check_fiber_product_lemma, check_haar_theorem, check_quasi_invariance_and_modular, check_projection_homs
from .pullback import check_triple_integral_lemma, validate_cospan

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_CHECK = 3
EXIT_INTERNAL = 4


def _verbose() -> bool:
    return os.environ.get("MGPD_VERBOSE", "") not in ("", "0")


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _print_report(report: ValidationReport, label: str) -> bool:
    if report.ok:
        print(f"ok: {label}")
        return True
    for v in report.violations:
        print(f"violation: {label}: {v}")
    return False


def _measured(doc: GroupoidDocument) -> HaarGroupoid | None:
    """The document as a Haar groupoid, or None when it lacks a measure."""
    return doc.to_haar_groupoid() if doc.haar is not None and doc.unit_measure is not None else None


def _validate_groupoid_document(doc: GroupoidDocument, h: HaarGroupoid | None) -> bool:
    """The axioms, then the measures the document carries. `h` is
    `_measured(doc)`, which the caller keeps so that its measures are derived
    once."""
    # the measure checks compose and index by the tables, so they run only
    # on a groupoid that satisfies the axioms
    if not _print_report(validate_groupoid(doc.groupoid), "groupoid axioms"):
        return False
    ok = True
    if doc.haar is not None:
        ok = _print_report(is_haar(doc.groupoid, doc.haar), "haar system")
    if h is not None:
        ok &= _print_report(validate_unit_measure(h), "haar groupoid")
    return ok


# the fields of a pullback document that its cospan determines, each with
# the attribute of the built weak pullback that it must equal. The modular
# table is not among them: it is checked against the stored measures first,
# so it matches the built one once the three result fields do.
_PULLBACK_FIELDS = (
    ("result.groupoid", "groupoid"), ("result.haar", "haar"), ("result.unit_measure", "unit_measure"),
    ("proj_left", "proj_left.mapping"), ("proj_right", "proj_right.mapping"),
)


def _validate_pullback_document(doc: PullbackDocument) -> bool:
    cospan = doc.cospan.to_cospan("cospan.")
    ok = _print_report(validate_cospan(cospan), "cospan")
    h = _measured(doc.result)
    ok &= _validate_groupoid_document(doc.result, h)
    if ok:
        if h is None:
            h = doc.result.to_haar_groupoid("result.")  # raises: the result lacks a measure
        # quasi-invariance has been checked, so reading the table cannot raise
        derived = dict(h.modular)
        if derived != doc.modular:
            x = next(x for x in sorted(derived.keys() | doc.modular.keys()) if derived.get(x) != doc.modular.get(x))
            stored, want = (weight_to_str(t[x]) if x in t else "undefined" for t in (doc.modular, derived))
            print(f"violation: stored modular table does not match the stored measures at {x}: stored {stored}, derived {want}")
            ok = False
        else:
            print("ok: modular table")
        for name, mapping, leg in (
            ("proj_left", doc.proj_left, cospan.left),
            ("proj_right", doc.proj_right, cospan.right),
        ):
            hom = GroupoidHom(h.groupoid, leg.groupoid, mapping)
            ok &= _print_report(validate_haar_hom(hom, h, leg), name)
    if ok:
        # the laws above hold for many results; the construction fixes one
        built = build_weak_pullback(cospan, validate=False)
        for field, attribute in _PULLBACK_FIELDS:
            if attrgetter(field)(doc) != attrgetter(attribute)(built):
                print(f"violation: stored {field} is not that of the weak pullback of the stored cospan")
                return False
    return ok


def cmd_validate(args) -> int:
    doc = _read(args.file)
    if isinstance(doc, GroupoidDocument):
        ok = _validate_groupoid_document(doc, _measured(doc))
    elif isinstance(doc, CospanDocument):
        ok = _print_report(validate_cospan(doc.to_cospan()), "cospan")
    elif isinstance(doc, PullbackDocument):
        ok = _validate_pullback_document(doc)
    else:  # an example document, the one other kind that parses
        from .families import example_report

        ok = True
        for line in example_report(doc):
            print(line)
            ok &= not line.startswith("violation:")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_pullback(args) -> int:
    doc = _read(args.file)
    if not isinstance(doc, CospanDocument):
        print("error: pullback needs a cospan document", file=sys.stderr)
        return EXIT_PARSE
    cospan = doc.to_cospan()
    report = validate_cospan(cospan)
    if not report.ok:
        _print_report(report, "cospan")
        return EXIT_VALIDATION
    w = build_weak_pullback(cospan, validate=False)
    out = serialize(PullbackDocument.of(w))
    _write(args.out, out)
    print(f"pullback: {len(w.groupoid.elements)} elements, {len(w.groupoid.units)} units -> {args.out}")
    return EXIT_OK


def _disintegration_independence(cospan, w, strict):
    base_mu0 = cospan.base.unit_measure
    alternates = (alternate_disintegration(w.disint_left, base_mu0), alternate_disintegration(w.disint_right, base_mu0))
    return (check_disintegration_independence(w, *alternates),)


# The structure claims in the order `check` prints them, each entry
# (claim ids, check): the check takes (cospan, pullback, strict) and returns
# one report per id. The checks name their functions through this module's
# globals, read when they run, so that they can be wrapped from outside.
REGISTRY = (
    (("axioms.pullback_groupoid",), lambda c, w, strict: (validate_groupoid(w.groupoid),)),
    (("lemma.fiber_product",), lambda c, w, strict: (check_fiber_product_lemma(w),)),
    (("thm.haar_system",), lambda c, w, strict: (check_haar_theorem(w),)),
    (("prop.quasi_invariance", "remark.modular_formula"), lambda c, w, strict: check_quasi_invariance_and_modular(w, strict=strict)),
    (("prop.projection_homs",), lambda c, w, strict: (check_projection_homs(w),)),
    (("prop.disintegration_independence",), _disintegration_independence),
    (("diamond.commutes",), lambda c, w, strict: (check_commuting_diamond(w),)),
    (("lemma.triple_integrals",), lambda c, w, strict: (check_triple_integral_lemma(w),)),
    (("lemma.expanding_integral",), lambda c, w, strict: (check_expanding_lemma(w),)),
)
CLAIMS = tuple(claim for ids, _ in REGISTRY for claim in ids)


def claim_reports(cospan, w, strict: bool = False):
    """Run the checks of `REGISTRY` in order on a built pullback, yielding
    for each entry its claim ids, its reports (one per id) and the seconds
    its check took by `time.perf_counter`."""
    for ids, check in REGISTRY:
        start = time.perf_counter()
        reports = check(cospan, w, strict)
        yield ids, reports, time.perf_counter() - start


def run_claims(cospan, w, strict: bool = False) -> dict[str, tuple[bool, str]]:
    """Evaluate every structure claim on a built pullback, in `CLAIMS` order;
    returns claim id -> (passed, the report's summary)."""
    return {
        claim: (r.ok, r.summary())
        for ids, reports, _ in claim_reports(cospan, w, strict)
        for claim, r in zip(ids, reports, strict=True)
    }


def cmd_check(args) -> int:
    doc = _read(args.file)
    if not isinstance(doc, CospanDocument):
        print("error: check needs a cospan document", file=sys.stderr)
        return EXIT_PARSE
    cospan = doc.to_cospan()
    report = validate_cospan(cospan)
    if not report.ok:
        _print_report(report, "cospan")
        return EXIT_VALIDATION
    w = build_weak_pullback(cospan, validate=False)
    if _verbose():
        for note in w.assumptions:
            print(f"note: {note}")
    results = run_claims(cospan, w, strict=args.strict)
    failed = 0
    for claim in CLAIMS:
        ok, detail = results[claim]
        status = "PASS" if ok else "FAIL"
        line = f"{status} {claim}"
        if not ok or _verbose():
            line += f" — {detail}"
        print(line)
        failed += 0 if ok else 1
    return EXIT_OK if failed == 0 else EXIT_CHECK


def cmd_example(args) -> int:
    from .families import example_result

    result = example_result(args.family, _read(args.params))
    _write(args.out, serialize(result))
    print(
        f"{args.family}: pullback {len(result.pullback.elements)} elements, target {len(result.target.elements)} elements, "
        f"canonical map is {'an isomorphism' if result.is_isomorphism else 'NOT an isomorphism'} -> {args.out}"
    )
    return EXIT_OK if result.is_isomorphism else EXIT_CHECK


def cmd_modular(args) -> int:
    doc = _read(args.file)
    if not isinstance(doc, GroupoidDocument):
        print("error: modular needs a groupoid document", file=sys.stderr)
        return EXIT_PARSE
    h = doc.to_haar_groupoid()
    report = validate_haar_groupoid(h)
    if not report.ok:
        _print_report(report, "haar groupoid")
        return EXIT_VALIDATION
    delta = h.modular
    for x in sorted(delta):
        print(f"{x}\t{weight_to_str(delta[x])}")
    return EXIT_OK


def cmd_gen(args) -> int:
    from .generate import random_cospan, random_haar_groupoid

    try:
        bounds = tuple(int(b) for b in args.bounds.split(","))
    except ValueError:
        bounds = ()
    if len(bounds) != 2:
        print("error: --bounds must be 'max_units,max_elements'", file=sys.stderr)
        return EXIT_PARSE
    if min(bounds) < 1:
        print("error: --bounds must be at least 1,1", file=sys.stderr)
        return EXIT_PARSE
    if args.what == "groupoid":
        h = random_haar_groupoid(args.seed, bounds, null_orbits=args.null)
        text = serialize(GroupoidDocument.of(h))
    else:
        c = random_cospan(args.seed, bounds, with_null_base=args.null)
        text = serialize(CospanDocument.of(c))
    if args.out:
        _write(args.out, text)
        print(f"{args.what} for seed {args.seed} -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mgpd", description="finite measured groupoids and their weak pullbacks")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="validate a document; exit 0 iff all validators pass")
    s.add_argument("file")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("pullback", help="build the weak pullback of a cospan file")
    s.add_argument("file")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_pullback)

    s = sub.add_parser("check", help="run every structure-theorem check on a cospan")
    s.add_argument("file")
    s.add_argument("--strict", action="store_true", help="treat skipped off-support modular triples as failures")
    s.set_defaults(func=cmd_check)

    s = sub.add_parser("example", help="build a worked example and verify its canonical isomorphism")
    s.add_argument("family", choices=("cech", "transformation"))
    s.add_argument("--params", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_example)

    s = sub.add_parser("modular", help="print the modular function over the support")
    s.add_argument("file")
    s.set_defaults(func=cmd_modular)

    s = sub.add_parser("gen", help="emit a seeded random instance")
    s.add_argument("what", choices=("groupoid", "cospan"))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--bounds", default="4,24")
    s.add_argument("--null", action="store_true", help="engineer a null orbit in the unit measure")
    s.add_argument("--out")
    s.set_defaults(func=cmd_gen)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse has printed the help, or the usage and its error
        return EXIT_OK if e.code == 0 else EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except GroupoidError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:
        if _verbose():
            import traceback  # only here, to keep it off every run's start-up

            traceback.print_exc()
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    code = main()
    # shutdown runs a full collection over every tracked object that is not
    # frozen; unlike os._exit, freezing keeps atexit handlers, the flushing
    # of the streams and the exit code
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
