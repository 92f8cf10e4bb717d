"""Command-line surface and structured report emission.

Exit status: 0 all checks passed, 1 some check failed, 3 usage error.
Inadmissible parameters are a failed check: the later stages are not
computed.  On admissible ones every endpoint limit is Zero or Infinity, so
no verdict is left undecided.  Reports are JSON and are byte-identical
across reruns with the same configuration; wall-clock timings are only
embedded when explicitly requested.  critical and tangency, the subcommands
with rows, write their rows as CSV under --format csv; the others have no
rows and refuse it as a usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
import time
from collections.abc import Sequence
from dataclasses import fields, is_dataclass
from itertools import chain, groupby, repeat
from typing import NamedTuple

from . import __version__
from .analysis import PSI, RadiusAnalysis, TableRow, _table_rows, h0_critical_on_i2, h0_pairings, verify_h_tables
from .classifier import _COUNT_ROWS, EXPECTED_SURVIVORS, EliminationTrace, _plans, _trace, assign_types, classify
from .errors import (
    DegenerateConicError,
    DomainError,
    InputError,
    InvalidParameterError,
    NotFoundError,
    PreconditionError,
)
from .surface import SearchConfig, SurfaceParams, first_admissible, intervals, partition, validate_with_locus

SCHEMA = "report-v2"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 3

# The densest tangency grid.  A sweep builds its angles and their texts
# before it types a conic, so a grid from a mistyped number would fill
# memory first.  A search validates each q0 step, tens of microseconds each,
# so a sweep with no admissible step ends within seconds at MAX_Q0_STEPS.
MAX_GRID = 65536
MAX_Q0_STEPS = 100_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n{self.format_usage()}")


def _elapsed(t0: float) -> float:
    """Seconds since t0, to the microsecond."""
    return round(time.perf_counter() - t0, 6)


def _number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{where}: {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise InputError(f"{where}: {text.strip()!r} is not a finite number")
    return value


def _finite_float(text: str) -> float:
    """The type of every float flag: nan and +-inf are usage errors too."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_params_arg(text: str) -> SurfaceParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise InputError("--params expects q0,q1,q2,a,b")
    q0, q1, q2, a, b = (_number(p, "--params") for p in parts)
    return SurfaceParams(q0, q1, q2, a, b)


def _parse_params_file(path: str) -> SurfaceParams:
    values: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"params file {path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("=", 1) if "=" in line else line.split(None, 1)
        if len(parts) != 2:
            raise InputError(f"params file line {line!r} is not 'key = value'")
        key = parts[0].strip()
        values[key] = _number(parts[1], f"params file key {key}")
    try:
        return SurfaceParams(values["q0"], values["q1"], values["q2"], values["a"], values["b"])
    except KeyError as exc:
        raise InputError(f"params file missing key {exc}") from exc


def _surface_params(args) -> SurfaceParams | None:
    """The parameter set of --params or --params-file, if either is given."""
    if args.params and args.params_file:
        raise InputError("pass only one of --params / --params-file")
    if args.params:
        return _parse_params_arg(args.params)
    if args.params_file:
        return _parse_params_file(args.params_file)
    return None


def _require_params(args) -> SurfaceParams:
    if args.params is None:
        raise InputError("surface parameters required: pass --params or --params-file")
    return args.params


def _require_plane(args, alpha: float | None = None):
    """The plane of --lambda, a conics.Plane.  Plane refuses one where the
    families' entries overflow; an orbit conic's residual is built from
    (alpha + Q)^2, so four times that must be finite too.  conics is
    imported here: only the conic subcommands need it."""
    from .conics import Plane

    params = _require_params(args)
    if args.lam is None:
        raise InputError("--lambda required")
    plane = Plane(params, args.lam)
    if alpha is not None and not math.isfinite(4.0 * (alpha + plane.q) * (alpha + plane.q)):
        raise DomainError(f"(alpha + Q)^2 at alpha={alpha!r} overflows the float range")
    return plane


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _record(rep) -> dict:
    """A report dataclass as a JSON object: its fields, in their order, and
    its pass flag.  A nested report dataclass is left to _json_safe."""
    return {**vars(rep), "passed": rep.passed}


def _conic_record(conic, label: str, lam: float | None, knob: float) -> dict:
    from .conics import min_real_form

    return {
        "lambda": lam,
        "theta_or_alpha": knob,
        "type": label,
        "matrix": [[_complex_pair(z) for z in row] for row in conic.rows],
        "det": _complex_pair(conic.det()),
        "min_real_form": min_real_form(conic),
    }


# A pairing sample this close to the critical plane is skipped: there the
# sample and its partner merge into a double root of the pairing quartic,
# and 1e-3 apart they are simple roots, far outside CRITICAL_PLANE_TOL.
PAIRING_SAMPLE_MARGIN = 1e-3


def _pairing_samples(analysis: RadiusAnalysis) -> dict:
    """A few partner planes of the degenerate-radius pairing inside I2,
    paired in one stacked solve."""
    crit = h0_critical_on_i2(analysis)
    lams = [lam for lam in (-1.0 + k * 0.18 for k in range(1, 5)) if abs(lam - crit) >= PAIRING_SAMPLE_MARGIN]
    mus = h0_pairings(analysis, lams, crit)
    return {"critical_lambda": crit, "samples": [{"lambda": lam, "mu": mu} for lam, mu in zip(lams, mus)]}


def _json_safe(x):
    if is_dataclass(x):
        return vars(x)
    return x


_encode_str = json.encoder.encode_basestring_ascii


class _Fragment(NamedTuple):
    """A JSON value as text: the text _json_text writes for it nested depth
    levels down, without the final newline, and for the rows of critical
    or tangency the values of their CSV lines (tangency builds them only
    under --format csv).  Each is built at the depth where the documents
    write it, so the writer appends its text as it is.

    The kinds: written once per process, psi and classification's
    type_assignment (module constants) and each component schedule
    (_schedule_record); put together per document from per-process text
    around its numbers, the rows of critical or tangency (_rows, one
    fragment whose values are their CSV lines, joined from _table_row's
    texts, one per count, or from _tangency_row_text around the knobs) and
    classification's traces (_trace_template around the witnesses)."""

    text: str
    values: tuple = ()
    depth: int = 0


def _fragment(x, depth: int = 0) -> _Fragment:
    """x rendered once, nested depth levels down, to be written any number
    of times."""
    return _Fragment(_json_text(x)[:-1].replace("\n", "\n" + "  " * depth), depth=depth)


def _item_text(x, depth: int = 0) -> str:
    """The text of x as an item of a list nested depth levels down: its
    lines nested one level deeper, after the newline that opens the item."""
    pad = "\n" + "  " * (depth + 1)
    return pad + _json_text(x)[:-1].replace("\n", pad)


def _rows(items: Sequence[str], values: tuple, depth: int) -> _Fragment:
    """The rows of critical or tangency as one fragment nested depth levels
    down: the list of the item texts (see _item_text at that depth), each
    of which opens with its newline, and the rows' CSV lines."""
    return _Fragment("[" + ",".join(items) + "\n" + "  " * depth + "]" if items else "[]", values, depth)


def _write_json(x, indent: str, out: list[str]) -> None:
    """Append to out the text of x, nested at indent (a newline and the
    indentation of x's line), by json.dumps' rules for indent=2,
    sort_keys=True and default=_json_safe.  A key that is not a str raises
    TypeError from sorted or from the string encoder.  A _Fragment is
    written as the text it was rendered to, at the depth where it is
    written."""
    if type(x) is _Fragment:
        out.append(x.text)
    elif isinstance(x, str):
        out.append(_encode_str(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = indent + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(x):
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(x[key], inner, out)
            sep = comma
        out.append(indent + "}")
    elif isinstance(x, float):
        # NaN and the infinities as json writes them with allow_nan on
        if x - x == 0.0:
            out.append(float.__repr__(x))
        else:
            out.append("NaN" if x != x else "Infinity" if x > 0.0 else "-Infinity")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = indent + "  "
        sep, comma = "[" + inner, "," + inner
        for item in x:
            out.append(sep)
            _write_json(item, inner, out)
            sep = comma
        out.append(indent + "]")
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    else:
        safe = _json_safe(x)
        if safe is x:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        _write_json(safe, indent, out)


def _json_text(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True, default=_json_safe) and a
    newline, the same string from a plain recursive writer: the stdlib
    encoder takes its pure-Python path whenever indent is set.  With
    _Fragments in doc, the text of doc with each one's source in its place."""
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(doc: dict, args) -> None:
    if args.fmt == "csv":
        # the rows are one _Fragment, and the subcommand names their columns
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(args.csv_header)
        writer.writerows(doc["rows"].values)
        text = buf.getvalue()
    else:
        text = _json_text(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(args, body: dict, timings: dict | None) -> dict:
    config = {
        "params": None if args.params is None else args.params.as_dict(),
        "lambda": args.lam,
        "theta": args.theta,
        "alpha": args.alpha,
        "grid": args.grid,
        "out": args.out,
        "format": args.fmt,
    }
    doc = {"version": {"artifact": __version__, "schema": SCHEMA}, "config": config, **body}
    if args.timings and timings is not None:
        doc["timings"] = timings
    return doc


# ---------------------------------------------------------------------------
# subcommands: each returns (body, passed, timings or None), and run() wraps
# the body in the envelope, writes it and exits 0 when passed, else 1.
# report's sections are the bodies of validate, critical, classify and psi;
# critical and classify are sections of one RadiusAnalysis.


def _validation(params: SurfaceParams):
    """validate's section, and the report the later stages partition by."""
    t0 = time.perf_counter()
    rep, locus = validate_with_locus(params)
    sing = [
        {"location": pt.location, "kind": pt.kind.value, "lambda": pt.lam, "multiplicity": pt.multiplicity}
        for pt in locus
    ]
    return rep, {"validation": _record(rep), "singular_locus": sing}, {"validate_s": _elapsed(t0)}


def _cmd_validate(args):
    rep, body, timings = _validation(_require_params(args))
    return body, rep.passed, timings


def _analysis(args) -> RadiusAnalysis:
    params = _require_params(args)
    return RadiusAnalysis(params, intervals(params))


def _cmd_search_params(args):
    if args.q0_steps > MAX_Q0_STEPS:
        raise InputError(f"q0 steps must be at most {MAX_Q0_STEPS}")
    search = SearchConfig(
        a=args.a, b=args.b, lambda0=args.lambda0, q0_min=args.q0_min, q0_max=args.q0_max,
        q0_steps=args.q0_steps,
    )
    t0 = time.perf_counter()
    try:
        params, rep = first_admissible(search)
    except NotFoundError as exc:
        return {"search": {"found": False, "error": str(exc)}}, False, None
    body = {"search": {"found": True, "params": params.as_dict()}, "validation": _record(rep)}
    return body, rep.passed, {"search_s": _elapsed(t0)}


def _cmd_conic(args):
    from .conics import FAMILIES

    plane = _require_plane(args, args.alpha if args.type == "orbit" else None)
    knob = args.theta
    if args.type == "orbit":
        knob = args.alpha if args.alpha is not None else -plane.q
    conic = FAMILIES[args.type](plane, knob)
    record = _conic_record(conic, args.type, plane.lam, knob)
    t0 = time.perf_counter()
    record["tangency"] = plane.conic_type(conic).value
    return {"conic": record}, True, {"decide_s": _elapsed(t0), "exact_conics": plane.exact_conics}


_TANGENCY_HEADER = ("family", "knob", "type", "passed")


@functools.cache
def _tangency_row_text(family: str, label: str, passed: bool) -> tuple[str, str]:
    """A tangency row's item text (see _item_text) before and after its
    knob, in the rows one level down.  The cache holds at most 3 families x
    6 ConicType labels = 18 entries, since passed follows from the family
    and the label."""
    text = _item_text({"family": family, "knob": None, "passed": passed, "type": label}, 1)
    head, tail = text.split('"knob": null')
    return head + '"knob": ', tail


@functools.lru_cache(maxsize=1)
def _grid_angles(n: int) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """The angles 2 pi k / n of the grid and their texts, float.__repr__ of
    each.  They depend on the grid alone, and a process sweeps one grid: a
    CLI run sweeps once, so the cache saves nothing there, and a process
    that sweeps many planes at one grid, as perfbench's tangency workload
    does at 256, renders the angles once."""
    angles = tuple(2.0 * math.pi * k / n for k in range(n))
    return angles, tuple(map(float.__repr__, angles))


def _cmd_tangency(args):
    if args.grid < 16:
        raise InputError("grid density must be at least 16")
    if args.grid > MAX_GRID:
        raise InputError(f"grid density must be at most {MAX_GRID}")
    plane = _require_plane(args)
    t0 = time.perf_counter()
    n = args.grid
    angles, angle_texts = _grid_angles(n)
    if plane.f > 0.0:
        sf = math.sqrt(plane.f)
        alphas = [-plane.q - sf + 2.0 * sf * k / n for k in range(1, n)]
        sweeps = [
            ("generic", angles, angle_texts, ("Generic",)),
            ("orbit", alphas, list(map(float.__repr__, alphas)), ("Orbit", "ContainedInB")),
        ]
    else:
        sweeps = [("special", angles, angle_texts, ("Special",))]
    items = []
    # the CSV lines are built only where they are written
    values = [] if args.fmt == "csv" else None
    ok = True
    decide_s = 0.0
    for family, knobs, texts, accepted in sweeps:
        t1 = time.perf_counter()
        kinds = plane.conic_types(family, knobs)
        decide_s += time.perf_counter() - t1
        # a run of rows of one type is one item text: the knobs' texts
        # joined by the text between two of its rows
        start = 0
        for kind, run in groupby(kinds):
            end = start + len(list(run))
            label = kind.value
            passed = label in accepted
            ok = ok and passed
            head, tail = _tangency_row_text(family, label, passed)
            items.append(head + (tail + "," + head).join(texts[start:end]) + tail)
            if values is not None:
                values += zip(repeat(family), knobs[start:end], repeat(label), repeat(passed))
            start = end
    timings = {
        "tangency_s": _elapsed(t0),
        "decide_s": round(decide_s, 6),
        "exact_conics": plane.exact_conics,
        "conics": sum(len(knobs) for _, knobs, _, _ in sweeps),
    }
    return {"rows": _rows(items, tuple(values or ()), 1), "passed": ok}, ok, timings


_TABLE_HEADER = tuple(field.name for field in fields(TableRow))


@functools.cache
def _table_row(row: int, count: int, depth: int) -> tuple[str, tuple, bool]:
    """Count row number row of verify_h_tables read as count, and the limit
    rows after it, written once per process: their item texts (see
    _item_text) in rows depth levels down, joined by commas, their CSV
    lines, and whether they all pass.  The limit rows are constants of the
    region, a count is at most the degree of its critical polynomial, a
    cubic or less, and critical writes the rows one level down, report two:
    the cache holds at most 2 x 31 x 4 entries."""
    rows = _table_rows()[row].rows(count)
    text = ",".join(_item_text(_record(r), depth) for r in rows)
    return text, tuple(tuple(vars(r).values()) for r in rows), all(r.passed for r in rows)


def _critical(analysis: RadiusAnalysis, depth: int):
    """critical's section, its rows depth levels down: one in critical, two
    in report's h_tables."""
    t0 = time.perf_counter()
    counts = verify_h_tables(analysis).counts
    texts, lines, passes = zip(*map(_table_row, range(len(counts)), counts, repeat(depth)))
    passed = all(passes)
    body = {"rows": _rows(texts, tuple(chain.from_iterable(lines)), depth), "passed": passed}
    return body, passed, {"h_tables_s": _elapsed(t0)}


def _trace_record(trace: EliminationTrace) -> dict:
    """An elimination trace as a record of classification.traces."""
    return {
        "resolution": trace.choice.label(),
        "hypothesis": trace.hypothesis.value,
        "verdict": trace.verdict.value,
        "reasons": [vars(r) for r in trace.reasons],
    }


# classification.traces is written two levels down, in report and in classify
_TRACES_DEPTH = 2


@functools.cache
def _trace_template(index: int, measured: int) -> tuple[str, tuple[tuple[int, str], ...]]:
    """The item text (see _item_text) of the trace record of plan index of
    _plans() at _TRACES_DEPTH, cut at its witnesses: the text before the
    first, and per witness its count row and the text after it.  measured
    has bit r set for each count row r of the plan with a critical point; a
    NaN stands in for that witness while the record is written, and NaN is
    never a witness.  A plan reads three rows, so the cache holds at most
    48 x 2^3 = 384 entries."""
    plan = _plans()[index]
    firsts = [math.nan if measured >> row & 1 else None for row in range(len(_COUNT_ROWS))]
    text = _item_text(_trace_record(_trace(plan, firsts)), _TRACES_DEPTH)
    parts = text.split('"witness": NaN')
    pieces = [part + '"witness": ' for part in parts[:-1]] + parts[-1:]
    rows = [row for row, _, _ in plan.reads if measured >> row & 1]
    return pieces[0], tuple(zip(rows, pieces[1:]))


@functools.cache
def _plan_rows() -> tuple[int, ...]:
    """Per plan of _plans(), the bits of the count rows it reads."""
    return tuple(sum(1 << row for row, _, _ in plan.reads) for plan in _plans())


def _traces(firsts: tuple[float | None, ...]) -> _Fragment:
    """classification.traces of the count rows' first critical points: each
    plan's template with its witnesses spliced in.  A witness lies strictly
    inside its span, so it is finite, and the writer writes a finite float
    as float.__repr__ does."""
    texts = [None if w is None else float.__repr__(w) for w in firsts]
    measured = sum(1 << row for row, w in enumerate(firsts) if w is not None)
    out = ["["]
    for index, rows in enumerate(_plan_rows()):
        head, spliced = _trace_template(index, measured & rows)
        out.append(head)
        for row, piece in spliced:
            out += (texts[row], piece)
        out.append(",")
    out[-1] = "\n" + "  " * _TRACES_DEPTH + "]"
    return _Fragment("".join(out), depth=_TRACES_DEPTH)


# classification's type_assignment, written two levels down
_TYPE_ASSIGNMENT = _fragment(
    [{"interval": name, "type": kind.value, "justification": why} for name, kind, why in assign_types().by_interval],
    2,
)


@functools.cache
def _schedule_record(choice, hyp, s) -> _Fragment:
    """A survivor's component schedule, written once per process, three
    levels down.  The schedule follows from the choice and the first
    hypothesis it survives under, so the cache holds at most 24 x 2 x 2 =
    96 entries."""
    return _fragment(
        {
            "resolution": choice.label(),
            "hypothesis": hyp.value,
            "I1": s.i1.value,
            "I2": s.i2.value,
            "I3": s.i3.value,
            "I4minus": s.i4minus.value,
            "I4plus": s.i4plus.value,
            "gamma_progression": list(s.gamma_progression()),
        },
        3,
    )


def _classification(analysis: RadiusAnalysis):
    """classify's section.  type_assignment is the module fragment, traces
    one fragment put together from the per-plan templates, and each
    component schedule a cached fragment; the survivors and the pairing
    samples are written value by value.  pairing_s, the part of
    classify_s spent pairing the samples, is timed on its own."""
    t0 = time.perf_counter()
    rep = classify(analysis)
    survivors = rep.outcome.survivors
    t1 = time.perf_counter()
    pairing = _pairing_samples(analysis)
    pairing_s = _elapsed(t1)
    body = {
        "type_assignment": _TYPE_ASSIGNMENT,
        "survivors": [{"resolution": ch.label(), "hypothesis": hyp.value} for ch, hyp in survivors],
        # kept in the report schema; every verdict is decided
        "inconclusive": False,
        "traces": _traces(rep.outcome.firsts),
        "component_schedules": [_schedule_record(*entry) for entry in rep.schedules],
        "broken_pairing": pairing,
    }
    ok = set(survivors) == set(EXPECTED_SURVIVORS)
    return {"classification": body}, ok, {"classify_s": _elapsed(t0), "pairing_s": pairing_s}


_PSI = _fragment(_record(PSI), 1)


def _cmd_psi(args):
    return {"psi": _PSI}, PSI.passed, None


def _cmd_report(args):
    params = _require_params(args)
    rep, body, timings = _validation(params)
    t0 = time.perf_counter()
    try:
        analysis = RadiusAnalysis(params, partition(params, rep))
    except PreconditionError as exc:
        # not admissible: the later stages are not computed, and say why
        error = f"not computed: {exc}"
        body["h_tables"] = {"rows": [], "passed": False, "error": error}
        body["classification"] = {"error": error, "inconclusive": False, "survivors": []}
        timings["classify_s"] = _elapsed(t0)
        ok = False
    else:
        body["h_tables"], ok_h, t_h = _critical(analysis, 2)
        classification, ok_c, t_c = _classification(analysis)
        body |= classification
        timings |= t_h | t_c | analysis.work_counts()
        ok = ok_h and ok_c
    psi, ok_p, _ = _cmd_psi(args)
    return body | psi, ok and ok_p, timings


# ---------------------------------------------------------------------------


# the common flags' values when not given; run() replaces --params and
# --params-file by args.params, a SurfaceParams or None
_COMMON_DEFAULTS = {
    "params": None,
    "params_file": None,
    "lam": None,
    "theta": 0.0,
    "alpha": None,
    "grid": 24,
    "out": None,
    "fmt": "json",
    "timings": False,
}


def _common_flags() -> argparse.ArgumentParser:
    """Flags accepted both before and after the subcommand; SUPPRESS keeps a
    later parser from clobbering a value the earlier one already set."""
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--params", help="q0,q1,q2,a,b")
    common.add_argument("--params-file", dest="params_file", help="flat key=value file with q0,q1,q2,a,b")
    common.add_argument("--lambda", dest="lam", type=_finite_float, help="plane parameter")
    common.add_argument("--theta", type=_finite_float, help="family angle")
    common.add_argument("--alpha", type=_finite_float, help="orbit family parameter")
    common.add_argument("--grid", type=int, help="tangency sweep density (>= 16)")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"))
    common.add_argument("--timings", action="store_true", help="embed wall-clock timings in the report")
    return common


# argparse reads a value such as "-1e-08" as an option, since only "-"
# followed by digits or a point counts as a negative number there, so such a
# value of these flags is joined to its flag: "--lambda=-1e-08"; a --params
# list is, when its first piece is one: "--params=-0.5,0.1,1,1,1".
_SIGNED_FLAGS = frozenset({"--lambda", "--theta", "--alpha", "--params"})
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _join_negative_numbers(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        head = tok.split(",", 1)[0] if out and out[-1] == "--params" else tok
        if out and out[-1] in _SIGNED_FLAGS and _NEGATIVE_NUMBER.fullmatch(head):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and building it costs about a tenth of a report."""
    common = _common_flags()
    ap = _Parser(prog="touching-conics", description=__doc__, parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, cmd, summary: str, csv_header: tuple | None = None) -> argparse.ArgumentParser:
        parser = sub.add_parser(name, help=summary, parents=[common])
        parser.set_defaults(cmd=cmd, csv_header=csv_header)
        return parser

    command("validate", _cmd_validate, "admissibility checks and singular locus")
    sp = command("search-params", _cmd_search_params, "sweep for an admissible parameter set")
    sp.add_argument("--a", type=_finite_float, default=1.0)
    sp.add_argument("--b", type=_finite_float, default=1.0)
    sp.add_argument("--lambda0", type=_finite_float, default=2.0)
    sp.add_argument("--q0-min", dest="q0_min", type=_finite_float, default=0.05)
    sp.add_argument("--q0-max", dest="q0_max", type=_finite_float, default=5.0)
    sp.add_argument("--q0-steps", dest="q0_steps", type=int, default=100)
    cp = command("conic", _cmd_conic, "construct and export one conic")
    cp.add_argument("--type", choices=("generic", "special", "orbit"), required=True)
    command("tangency", _cmd_tangency, "verify the touching structure over a family sweep", _TANGENCY_HEADER)
    command("critical", lambda args: _critical(_analysis(args), 1), "critical-point and limit tables", _TABLE_HEADER)
    command("classify", lambda args: _classification(_analysis(args)), "type assignment, elimination, component schedules")
    command("psi", _cmd_psi, "exact radial-profile claims of the line correspondence")
    command("report", _cmd_report, "full pipeline bundle")
    return ap


def run(argv: list[str]) -> int:
    args = argparse.Namespace(**_COMMON_DEFAULTS)
    try:
        build_parser().parse_args(_join_negative_numbers(argv), args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE

    try:
        if args.fmt == "csv" and args.csv_header is None:
            raise InputError(f"--format csv: {args.command} has no rows; only critical and tangency write CSV")
        args.params = _surface_params(args)
        body, passed, timings = args.cmd(args)
        _emit(_envelope(args, body, timings), args)
    except (InputError, FileNotFoundError, IsADirectoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (
        InvalidParameterError, DomainError, DegenerateConicError, PreconditionError, NotFoundError
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    return EXIT_OK if passed else EXIT_FAIL


def main() -> None:
    sys.exit(run(sys.argv[1:]))
