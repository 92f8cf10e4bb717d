"""The four workloads: seeded inputs, one op each, and the check of every op.

Each workload builds its inputs from a `random.Random(seed)` and returns a
list of `Case`s; the runner takes them in rotation.  `op` is the timed call
into the package; `check` turns its raw result into an `Outcome` outside the
timed region.  The program only ever receives the generated parameters.

An op has one of three outcomes:

- *certified*: the program certified its claim and the check agrees;
- *declined*: the program itself reported, with its documented exit code and
  a well-formed answer, that it could not certify this input (a `sweep` set
  whose limit ladder gives up or whose h tables it finds off the paper's, a
  `tangency` plane with a row it reports as not touching).  The answer is checked like any other and must be the same
  on every rerun; it lowers `certified_per_s` and is counted on `#` lines and
  in the traced `ops.declined_share`, but it is not a wrong output;
- *failed*: anything else: an exception, an exit code or document that does
  not fit, an output that differs from an earlier run of the same input.  A
  failure where the program claimed success (exit 0, or a search that
  returned parameters) is also *silent*, and makes the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass

from touching_conics import cli, surface
from touching_conics.errors import NotFoundError

# The three reference draws of the test suite: SearchConfig() gives params_star.
REFERENCE_TARGETS = (
    ("star", {}),
    ("draw2", {"a": 2.0, "b": 1.0, "lambda0": 1.5, "q0_min": 0.1}),
    ("draw3", {"a": 1.0, "b": 2.0, "lambda0": 4.0, "q0_min": 0.05}),
)

# The paper's classification: exactly these two (resolution, hypothesis) pairs
# survive.  Kept here rather than read from the package, so the check does not
# depend on the program's own claim.
EXPECTED_SURVIVORS = frozenset(
    {("(X1, X0plusX1, X0)", "L+ over I1"), ("(AX0minusBX1, X0, X0plusX1)", "L- over I1")}
)

SWEEP_SETS_PER_CELL = 2
SWEEP_REDRAWS = 10
SEARCH_GRID = (16, 24)
TANGENCY_ROUNDS = 16
TANGENCY_GRID = 256
# The unbounded intervals I1 and I4plus are cut this far from their finite end
# when a tangency plane is drawn in them.
TANGENCY_SPAN = 5.0


@dataclass
class Case:
    key: str
    data: object


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    silent: bool = False
    declined: bool = False
    digest: str = ""
    conics: int = 0


@dataclass
class Workload:
    cases: list[Case]
    op: object
    check: object


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """Run the command line in-process, capturing what it writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def params_arg(p) -> str:
    return ",".join(repr(float(x)) for x in (p.q0, p.q1, p.q2, p.a, p.b))


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def reference_draws() -> list[tuple[str, object]]:
    return [(name, surface.find_valid_params(surface.SearchConfig(**kw))) for name, kw in REFERENCE_TARGETS]


def _region_target(u: list[float], gap_lo: float, q0_hi: float) -> dict:
    """The (a, b, lambda0, q0_min) target at a point u of the unit 4-cube:
    a and b log-uniform in [1/4, 4], lambda0 - b/a in [gap_lo, 6.25] and
    q0_min in [0.05, q0_hi]."""
    a, b = (math.exp(math.log(0.25) + x * math.log(16.0)) for x in u[:2])
    lam0 = b / a + gap_lo + (6.25 - gap_lo) * u[2]
    return {"a": a, "b": b, "lambda0": lam0, "q0_min": 0.05 + (q0_hi - 0.05) * u[3]}


# ---------------------------------------------------------------------------
# report and sweep: one CLI `report` per op


def report_op(p) -> tuple[int, str, str]:
    return cli_call(["--params", params_arg(p), "report"])


def _survivors(doc: dict) -> set[tuple[str, str]]:
    return {(s["resolution"], s["hypothesis"]) for s in doc["classification"]["survivors"]}


def check_report(raw: tuple[int, str, str]) -> Outcome:
    """A reference draw must certify: any non-zero exit fails the op."""
    code, out, err = raw
    digest = _digest(code, out, err)
    if code != 0:
        return Outcome(False, f"exit {code}: {err.strip()[:160]}", digest=digest)
    doc = json.loads(out)
    survivors = _survivors(doc)
    if survivors != EXPECTED_SURVIVORS:
        return Outcome(False, f"survivors {sorted(survivors)}", silent=True, digest=digest)
    if not doc["h_tables"]["passed"]:
        return Outcome(False, "h_tables.passed is false with exit 0", silent=True, digest=digest)
    return Outcome(True, digest=digest)


def check_sweep(raw: tuple[int, str, str]) -> Outcome:
    """As check_report, except that an answer in which the program itself says
    it could not certify the set is a declined op: exit 2 with the reason on
    standard error and no document, or exit 2 with a document marked
    inconclusive, or exit 1 with a document whose own pass flags explain it."""
    code, out, err = raw
    digest = _digest(code, out, err)
    if code == 2 and not out and err.startswith("inconclusive: "):
        return Outcome(True, f"exit 2: {err.strip()[:160]}", declined=True, digest=digest)
    if code in (1, 2) and out:
        doc = json.loads(out)
        inconclusive = doc["classification"]["inconclusive"]
        not_passed = [part for part in ("validation", "h_tables", "psi") if not doc[part]["passed"]]
        if not inconclusive and _survivors(doc) != EXPECTED_SURVIVORS:
            not_passed.append("survivors")
        if inconclusive == (code == 2) and (inconclusive or not_passed):
            what = "inconclusive" if inconclusive else f"{', '.join(not_passed)} not passed"
            bad = [r for r in doc["h_tables"]["rows"] if not r["passed"]]
            if bad:
                what += f"; first h row: {bad[0]['function']} {bad[0]['choice']} {bad[0]['check']} = {bad[0]['computed']}"
            return Outcome(True, f"exit {code}: {what}", declined=True, digest=digest)
    return check_report(raw)


def build_report(rng: random.Random) -> Workload:
    draws = reference_draws()
    start = rng.randrange(len(draws))
    cases = [Case(name, p) for name, p in draws[start:] + draws[:start]]
    return Workload(cases, report_op, check_report)


def build_sweep(rng: random.Random) -> Workload:
    """Two admissible sets in each of the 16 cells of the region split in half
    along every axis, drawn in the middle half of the cell.  The region keeps
    the part where the limit ladder gives up (large q2, small b/a): those
    ops exit 2 and are declined.  Drawing per cell keeps the share of such
    sets from swinging with the seed as much as free draws would."""
    cases = []
    for cell in itertools.product((0.25, 0.75), repeat=4):
        for _ in range(SWEEP_SETS_PER_CELL):
            cases.append(Case(f"set{len(cases)}", _admissible_in_cell(rng, cell)))
    return Workload(cases, report_op, check_sweep)


def _admissible_in_cell(rng: random.Random, cell: tuple[float, ...]):
    for _ in range(SWEEP_REDRAWS):
        u = [c + rng.uniform(-0.125, 0.125) for c in cell]
        try:
            return surface.find_valid_params(surface.SearchConfig(**_region_target(u, 0.25, 3.0)))
        except NotFoundError:
            continue
    raise RuntimeError(f"no admissible set found in sweep cell {cell}")


# ---------------------------------------------------------------------------
# search: find_valid_params then validate


def search_op(target: dict):
    try:
        p = surface.find_valid_params(surface.SearchConfig(**target))
    except NotFoundError as exc:
        return target, None, exc
    return target, p, surface.validate(p)


def check_search(raw) -> Outcome:
    target, p, rep = raw
    if p is None:
        return Outcome(False, f"not found: {rep}")
    digest = _digest(p)
    lam0 = target["lambda0"]
    if not rep.passed:
        return Outcome(False, "found parameters fail validate", silent=True, digest=digest)
    if abs(rep.lambda0 - lam0) > 1e-6 * (1.0 + lam0):
        return Outcome(False, f"double root {rep.lambda0} != target {lam0}", silent=True, digest=digest)
    return Outcome(True, digest=digest)


def build_search(rng: random.Random) -> Workload:
    """One target in each cell of a 16 x 24 grid over a and lambda0 - b/a,
    the two coordinates that decide most of how many candidate q0 a search
    steps through; b and q0_min lie on a Latin hypercube.  q0_min stays near
    the CLI default (0.05 to 0.1), so every search steps through some
    candidates, 2 to about 20.  lambda0 stays at least 1 beyond b/a: closer,
    a search takes up to about 50 steps, and the few such searches in a run
    make its tail percentile swing with the seed.  The cells are taken in
    blocks of 24 that each hold every lambda0 - b/a row once, so wherever a
    run stops it has seen nearly the same spread of searches."""
    rows, cols = SEARCH_GRID
    cells = [((k + j) % rows, j) for k in range(rows) for j in range(cols)]
    latin = []
    for _ in range(2):
        strata = list(range(len(cells)))
        rng.shuffle(strata)
        latin.append([(k + rng.random()) / len(cells) for k in strata])
    cases = []
    for n, ((i, j), u1, u3) in enumerate(zip(cells, *latin)):
        u = [(i + rng.random()) / rows, u1, (j + rng.random()) / cols, u3]
        cases.append(Case(f"target{n}", _region_target(u, 1.0, 0.1)))
    return Workload(cases, search_op, check_search)


# ---------------------------------------------------------------------------
# tangency: one plane of a reference draw per op


def _planes(rng: random.Random, p, k: int) -> list[tuple[str, float]]:
    """One plane in each of I1, I2, I3, I4minus, I4plus, in the k-th of
    TANGENCY_ROUNDS equal slices of the middle 90% of the interval: over all
    rounds the planes cover every interval evenly, whatever the seed."""
    ba = p.b / p.a
    lam0 = surface.lambda0(p)
    spans = (
        ("I1", -1.0 - TANGENCY_SPAN, -1.0),
        ("I2", -1.0, 0.0),
        ("I3", 0.0, ba),
        ("I4minus", ba, lam0),
        ("I4plus", lam0, lam0 + TANGENCY_SPAN),
    )
    return [
        (name, lo + (0.05 + 0.9 * (k + rng.random()) / TANGENCY_ROUNDS) * (hi - lo)) for name, lo, hi in spans
    ]


def tangency_op(case_data):
    """The tangency sweep on the plane, then one `conic` export per family
    that the sweep covers there (generic and orbit where f > 0, special
    where f < 0)."""
    p, lam = case_data
    pa = params_arg(p)
    sweep = cli_call(["--params", pa, "--lambda", repr(lam), "--grid", str(TANGENCY_GRID), "tangency"])
    families = ("generic", "orbit") if surface.f_value(p, lam) > 0.0 else ("special",)
    exports = [(fam, cli_call(["--params", pa, "--lambda", repr(lam), "conic", "--type", fam])) for fam in families]
    return lam, sweep, exports


_EXPORT_TYPES = {"generic": ("Generic",), "special": ("Special",), "orbit": ("Orbit", "ContainedInB")}


def check_tangency(raw) -> Outcome:
    """Every export must certify.  A sweep with rows not passed is declined
    when the program says so itself (exit 1, `passed: false`); with exit 0 it
    is a silent failure."""
    lam, (code, out, err), exports = raw
    digest = _digest(raw)
    if not out:
        return Outcome(False, f"lam={lam:.6g}: exit {code}: {err.strip()[:120]}", digest=digest)
    doc = json.loads(out)
    bad = [r for r in doc["rows"] if not r["passed"]]
    conics = len(doc["rows"]) - len(bad)
    failures = []
    if (code, doc["passed"]) != ((1, False) if bad else (0, True)):
        failures.append(f"exit {code} and passed={doc['passed']} with {len(bad)} row(s) not passed")
    for fam, (ecode, eout, eerr) in exports:
        if ecode != 0:
            failures.append(f"conic --type {fam}: exit {ecode}: {eerr.strip()[:120]}")
            continue
        rec = json.loads(eout)["conic"]
        form = rec["min_real_form"]
        if rec["tangency"] not in _EXPORT_TYPES[fam]:
            failures.append(f"conic --type {fam} reports {rec['tangency']}")
        elif form is not None and not form > 0.0:
            failures.append(f"conic --type {fam} has a real point (min form {form})")
        else:
            conics += 1
    if failures:
        return Outcome(False, f"lam={lam:.6g}: " + "; ".join(failures), silent=bool(bad) and code == 0,
                       digest=digest, conics=conics)
    if bad:
        first = bad[0]
        return Outcome(True, f"lam={lam:.6g}: exit 1, {len(bad)} row(s) not passed, first {first['family']} "
                       f"knob={first['knob']:.6g} type={first['type']}", declined=True, digest=digest, conics=conics)
    return Outcome(True, digest=digest, conics=conics)


def build_tangency(rng: random.Random) -> Workload:
    """TANGENCY_ROUNDS planes of each reference draw in each interval, taken
    in rotation so that consecutive ops walk through the five intervals and
    every stretch of the run holds the same mix of f > 0 and f < 0 planes."""
    draws = reference_draws()
    cases = []
    for k in range(TANGENCY_ROUNDS):
        for name, p in draws:
            cases.extend(Case(f"{name}/{which}/{k}", (p, lam)) for which, lam in _planes(rng, p, k))
    return Workload(cases, tangency_op, check_tangency)


BUILDERS = {
    "report": build_report,
    "sweep": build_sweep,
    "search": build_search,
    "tangency": build_tangency,
}
