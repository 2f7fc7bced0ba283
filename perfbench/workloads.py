"""The benchmark's workloads: inputs made from the workload seed, one timed
verdict per item, and the checks that every verdict matches its known answer.

Each workload has the same shape:
  setup()          makes the inputs (timed, and repeated, by the runner);
  prepare()        derives or checks the expected answers (untimed), returning errors;
  before(item)     clears what an earlier pass left for this item (untimed);
  run(item)        produces one verdict (the only timed call per item);
  check(item, out) returns None, or a message saying how the verdict is wrong;
  gate()           checks that need the whole run, returning error messages;
  close()          removes what the run wrote.
and the attributes `tracer` (set by the runner for a traced pass),
`spawns_processes` and `exit_mismatches`.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from measured_groupoids import cli, documents, generate, pullback

from counts import pullback_counts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = ROOT / "tests" / "fixtures"

# sweep: the ROADMAP's 200-cospan sweep, pinned by its exact instance counts
SWEEP_SEEDS = range(200)
SWEEP_BASELINE = {"elements": 32_766, "compose_entries": 639_090, "composable_triples": 17_026_122}

SMALL_BOUNDS = (2, 8)
SMALL_POOL = 2000

# cli: ordinary documents from the small bounds, plus large pullbacks of a
# fixed size and validation work, so that every seed's corpus costs about the
# same. 512-element pullbacks at the default bounds come with 2^17 or 2^19
# composable triples; the heavier class is used. With 8 ordinary and 4 large
# cospans a pass has 51 invocations, and its p80 tail (ten beyond) falls among
# the large documents' `check` invocations, away from the crowd of ordinary
# invocations whose times differ only by noise.
CLI_ORDINARY = 8
CLI_LARGE = 4
LARGE_ELEMENTS = 512
LARGE_TRIPLES = 2**19

SEED_STRIDE = 1_000_000

# `mgpd validate` on a sound pullback document
PULLBACK_OK = "".join(
    f"ok: {label}\n"
    for label in ("cospan", "groupoid axioms", "haar system", "haar groupoid", "modular table", "proj_left", "proj_right")
)


def with_null(cospan_seed: int) -> bool:
    """Every fifth cospan has a null base orbit, as in the property sweep."""
    return cospan_seed % 5 == 4


@dataclass
class Item:
    trace_id: str
    payload: object
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# in-process workloads: sweep and small


def cospan_verdict(c) -> dict:
    """`mgpd check`'s pipeline without the document: validate the cospan,
    build the pullback, evaluate every claim."""
    report = pullback.validate_cospan(c)
    if not report.ok:
        return {"valid": False, "detail": report.summary()}
    w = pullback.build_weak_pullback(c, validate=False)
    results = cli.run_claims(c, w)
    g = w.groupoid
    return {
        "valid": True,
        "claims": {claim: ok for claim, (ok, _) in results.items()},
        "elements": len(g.elements),
        "units": len(g.units),
        "compose_entries": len(g.compose_map),
    }


class CospanWorkload:
    """Generated cospans, each through validate -> build -> all ten claims."""

    tracer = None
    spawns_processes = False
    exit_mismatches = 0

    def __init__(self, cospan_seeds, bounds, baseline=None):
        self.cospan_seeds = list(cospan_seeds)
        self.bounds = bounds
        self.baseline = baseline
        self.items: list[Item] = []

    def setup(self) -> None:
        self.items = [
            Item(f"cospan:{s}", generate.random_cospan(s, self.bounds, with_null_base=with_null(s)))
            for s in self.cospan_seeds
        ]

    def prepare(self) -> list[str]:
        for item in self.items:
            item.expected = pullback_counts(item.payload)
        return []

    def before(self, item: Item) -> None:
        pass

    def run(self, item: Item) -> dict:
        return cospan_verdict(item.payload)

    def check(self, item: Item, out: dict) -> str | None:
        if not out["valid"]:
            return f"{item.trace_id}: generated cospan rejected: {out['detail']}"
        failed = [claim for claim in cli.CLAIMS if not out["claims"].get(claim)]
        if failed or set(out["claims"]) != set(cli.CLAIMS):
            return f"{item.trace_id}: claims failed or missing: {failed or sorted(out['claims'])}"
        for key in ("elements", "units", "compose_entries"):
            if out[key] != item.expected[key]:
                return f"{item.trace_id}: pullback {key} {out[key]} != {item.expected[key]} counted from the cospan"
        return None

    def gate(self) -> list[str]:
        errors = []
        if self.baseline is not None:
            for key, want in self.baseline.items():
                got = sum(item.expected[key] for item in self.items)
                if got != want:
                    errors.append(f"sweep {key}: {got} != ROADMAP baseline {want}; the inputs have drifted")
        # generated inputs survive the canonical document round trip
        for item in self.items:
            text = documents.serialize(documents.CospanDocument.of(item.payload))
            if documents.serialize(documents.parse_document(text)) != text:
                errors.append(f"{item.trace_id}: cospan document does not round-trip byte for byte")
        return errors

    def close(self) -> None:
        pass


def sweep(seed: int) -> CospanWorkload:
    order = list(SWEEP_SEEDS)
    random.Random(seed).shuffle(order)  # the seed sets the visiting order only
    return CospanWorkload(order, generate.DEFAULT_BOUNDS, SWEEP_BASELINE)


def small(seed: int, pool: int = SMALL_POOL) -> CospanWorkload:
    return CospanWorkload(range(seed * SEED_STRIDE, seed * SEED_STRIDE + pool), SMALL_BOUNDS)


# ---------------------------------------------------------------------------
# cli: mgpd processes over a document corpus


def corrupt_pullback(text: str, rng: random.Random) -> str | None:
    """The pullback document with one product of two non-units replaced by
    another element with the same range and source, or None when every such
    hom-set has a single element."""
    doc = json.loads(text)
    g = doc["result"]
    units = set(g["units"])

    def ends(x):
        return g["range"][x], g["source"][x]

    by_ends = defaultdict(list)
    for x in g["elements"]:
        by_ends[ends(x)].append(x)
    entries = [e for e in g["compose"] if e[0] not in units and e[1] not in units and len(by_ends[ends(e[2])]) > 1]
    if not entries:
        return None
    entry = rng.choice(entries)
    entry[2] = rng.choice([x for x in by_ends[ends(entry[2])] if x != entry[2]])
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass
class Invocation:
    args: list[str]
    exit_code: int
    stdout_has: tuple[str, ...] = ()
    stdout_is: str | None = None
    output: str | None = None
    output_bytes: bytes | None = None


@dataclass
class CorpusEntry:
    name: str
    cospan_seed: int
    bounds: tuple[int, int]
    counts: dict  # counted from the cospan's tables
    pullback: str  # the library's serialization of the weak pullback
    corrupted: str


class CliWorkload:
    """One `mgpd` process per verdict, closed loop, over a corpus written in
    set-up: `check` on generated cospans and the z2 fixture, `pullback`
    writing documents that `validate` then reads, and negative controls.

    Which cospans enter the corpus, their expected pullback documents and
    the corrupted copies are the benchmark's own choices and are made once,
    untimed, when the workload is created; set-up generates the chosen
    cospans and writes the documents."""

    tracer = None
    spawns_processes = True

    def __init__(self, seed: int, workdir: Path, ordinary: int = CLI_ORDINARY, large: int = CLI_LARGE):
        self.workdir = workdir
        self.items: list[Item] = []
        self.env = {k: v for k, v in os.environ.items() if k != "MGPD_VERBOSE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self._span_file = workdir / "child-spans.json"
        self.exit_mismatches = 0
        self.corpus = self._choose(seed, ordinary, large)

    @staticmethod
    def _choose(seed: int, ordinary: int, large: int) -> list[CorpusEntry]:
        """The first `ordinary` cospans of the seed's stream at the small
        bounds, and the first `large` at the default bounds whose pullbacks
        have the large size, each kept only if its pullback can be
        corrupted."""
        rng = random.Random(seed)
        corpus: list[CorpusEntry] = []
        for kind, bounds, wanted in (("small", SMALL_BOUNDS, ordinary), ("large", generate.DEFAULT_BOUNDS, large)):
            found = 0
            s = seed * SEED_STRIDE
            while found < wanted:
                c = generate.random_cospan(s, bounds, with_null_base=with_null(s))
                n = pullback_counts(c)
                if kind == "small" or (n["elements"], n["composable_triples"]) == (LARGE_ELEMENTS, LARGE_TRIPLES):
                    text = documents.serialize(documents.PullbackDocument.of(pullback.build_weak_pullback(c, validate=False)))
                    bad = corrupt_pullback(text, rng)
                    if bad is not None:
                        corpus.append(CorpusEntry(f"{kind}-{s}", s, bounds, n, text, bad))
                        found += 1
                s += 1
        return corpus

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        claims_ok = "".join(f"PASS {claim}\n" for claim in cli.CLAIMS)
        items = [
            Item("doc:z2_cospan", Invocation(["check", str(FIXTURES / "z2_cospan.json")], 0, stdout_is=claims_ok)),
            Item(
                "doc:bad_cospan",
                Invocation(["check", str(FIXTURES / "bad_cospan.json")], 2, ("violation: cospan: left.quasi-invariance",)),
            ),
            Item(
                "doc:pair_quasi_violation",
                Invocation(
                    ["validate", str(FIXTURES / "pair_quasi_violation.json")],
                    2,
                    ("violation: haar groupoid: quasi-invariance",),
                ),
            ),
        ]
        for e in self.corpus:
            c = generate.random_cospan(e.cospan_seed, e.bounds, with_null_base=with_null(e.cospan_seed))
            cospan_path = self.workdir / f"{e.name}.cospan.json"
            out_path = self.workdir / f"{e.name}.pullback.json"
            bad_path = self.workdir / f"{e.name}.corrupt.json"
            cospan_path.write_text(documents.serialize(documents.CospanDocument.of(c)), encoding="utf-8")
            bad_path.write_text(e.corrupted, encoding="utf-8")
            summary = f"pullback: {e.counts['elements']} elements, {e.counts['units']} units -> {out_path}\n"
            items += [
                Item(f"doc:{e.name}.cospan", Invocation(["check", str(cospan_path)], 0, stdout_is=claims_ok)),
                Item(
                    f"doc:{e.name}.cospan",
                    Invocation(["pullback", str(cospan_path), "--out", str(out_path)], 0, stdout_is=summary,
                               output=str(out_path), output_bytes=e.pullback.encode("utf-8")),
                ),
                Item(f"doc:{e.name}.pullback", Invocation(["validate", str(out_path)], 0, stdout_is=PULLBACK_OK)),
                Item(
                    f"doc:{e.name}.corrupt",
                    Invocation(["validate", str(bad_path)], 2, ("violation: groupoid axioms: associativity",)),
                ),
            ]
        self.items = items

    def prepare(self) -> list[str]:
        """The expected pullback documents must have the element and unit
        counts made on the cospans' tables."""
        errors = []
        for e in self.corpus:
            result = json.loads(e.pullback)["result"]
            if (len(result["elements"]), len(result["units"])) != (e.counts["elements"], e.counts["units"]):
                errors.append(f"{e.name}: the library's pullback document disagrees with the counted sizes")
        return errors

    def command(self, item: Item) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "measured_groupoids.cli", *item.payload.args]
        return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(self._span_file), item.trace_id, *item.payload.args]

    def run(self, item: Item) -> subprocess.CompletedProcess:
        return subprocess.run(self.command(item), cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60)

    def before(self, item: Item) -> None:
        """Remove what a previous pass wrote, so only this invocation's
        output can satisfy the check."""
        for path in (item.payload.output, self._span_file if self.tracer else None):
            if path is not None:
                Path(path).unlink(missing_ok=True)

    def check(self, item: Item, proc: subprocess.CompletedProcess) -> str | None:
        inv = item.payload
        if self.tracer is not None and self._span_file.exists():
            self.tracer.spans += json.loads(self._span_file.read_text(encoding="utf-8"))
        where = f"mgpd {' '.join(Path(a).name for a in inv.args)}"
        if "Traceback (most recent call last)" in proc.stderr:
            return f"{where}: traceback\n{proc.stderr}"
        if proc.returncode != inv.exit_code:
            self.exit_mismatches += 1
            return f"{where}: exit {proc.returncode}, expected {inv.exit_code}\n{proc.stdout}{proc.stderr}"
        for want in inv.stdout_has:
            if want not in proc.stdout:
                return f"{where}: output lacks {want.strip()!r}\n{proc.stdout}"
        if inv.stdout_is is not None and proc.stdout != inv.stdout_is:
            return f"{where}: output {proc.stdout!r}, expected {inv.stdout_is!r}"
        if inv.output_bytes is not None:
            path = Path(inv.output)
            if not path.exists() or path.read_bytes() != inv.output_bytes:
                return f"{where}: written document differs from the library's serialization"
        return None

    def gate(self) -> list[str]:
        return []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, workdir: Path):
    if name == "sweep":
        return sweep(seed)
    if name == "small":
        return small(seed)
    if name == "cli":
        return CliWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
