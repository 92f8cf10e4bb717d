"""Command-line surface and structured report emission.

Exit status: 0 all checks passed, 1 some check failed, 3 usage error.
Inadmissible parameters are a failed check: the later stages are not
computed.  On admissible ones every endpoint limit is Zero or Infinity, so
no verdict is left undecided.  Reports are JSON (optionally CSV for hscan
rows) and are byte-identical across reruns with the same configuration;
wall-clock timings are only embedded when explicitly requested.
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
from dataclasses import is_dataclass

from . import __version__
from .analysis import RadiusAnalysis, h0_critical_on_i2, h0_pairing, psi_check, verify_h_tables
from .classifier import EXPECTED_SURVIVORS, classify
from .conics import (
    ConicCoeffs,
    generic_conic,
    min_real_form,
    orbit_conic,
    special_conic,
    verify_touching,
)
from .errors import (
    DomainError,
    InputError,
    InvalidParameterError,
    NotFoundError,
    PreconditionError,
    RealityError,
)
from .resolution import HKind, LinearForm, ResolutionChoice, all_resolutions, h_function
from .surface import (
    SearchConfig,
    SurfaceParams,
    f_value,
    find_valid_params,
    intervals,
    q_value,
    singular_locus,
    validate,
)

SCHEMA = "report-v1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 3


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
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
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


def _parse_resolution(text: str) -> ResolutionChoice:
    names = [n for n in text.split(",") if n.strip()]
    if len(names) != 3:
        raise InputError("--resolution expects ELL1,ELL2,ELL3")
    return ResolutionChoice(*(LinearForm.parse(n) for n in names))


def _require_params(args) -> SurfaceParams:
    if args.params is None:
        raise InputError("surface parameters required: pass --params or --params-file")
    return args.params


def _require_lambda(args) -> float:
    if args.lam is None:
        raise InputError("--lambda required")
    return args.lam


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _record(rep) -> dict:
    """A report dataclass as a JSON object: its fields, in their order, and
    its pass flag.  A nested report dataclass is left to _json_safe."""
    return {**vars(rep), "passed": rep.passed}


# each conic family's constructor, as a function of (params, lam, knob)
_CONICS = {
    "generic": generic_conic,
    "special": special_conic,
    "orbit": lambda params, lam, alpha: orbit_conic(alpha),
}


def _conic_record(conic: ConicCoeffs, label: str, lam: float | None, knob: float) -> dict:
    det = conic.det()
    return {
        "lambda": lam,
        "theta_or_alpha": knob,
        "type": label,
        "matrix": [[_complex_pair(conic.m[i, j]) for j in range(3)] for i in range(3)],
        "det": _complex_pair(det),
        "min_real_form": min_real_form(conic) if conic.is_real(1e-8) else None,
    }


def _pairing_samples(params: SurfaceParams, cache: RadiusAnalysis) -> dict:
    """A few partner planes of the degenerate-radius pairing inside I2."""
    crit = h0_critical_on_i2(params, cache)
    samples = []
    for k in range(1, 5):
        lam = -1.0 + k * 0.18
        if abs(lam - crit) < 1e-3:
            continue
        samples.append({"lambda": lam, "mu": h0_pairing(params, lam, cache=cache)})
    return {"critical_lambda": crit, "samples": samples}


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if is_dataclass(x):
        return vars(x)
    return x


def _emit(doc: dict, args) -> None:
    if args.fmt == "csv" and "rows" in doc:
        buf = io.StringIO()
        rows = doc["rows"]
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, default=_json_safe) + "\n"
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
        "resolution": args.resolution,
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
# report's sections are the bodies of validate, critical, classify and psi.


def _cmd_validate(args):
    params = _require_params(args)
    t0 = time.perf_counter()
    rep = validate(params)
    sing = [
        {"location": pt.location, "kind": pt.kind.value, "lambda": pt.lam, "multiplicity": pt.multiplicity}
        for pt in singular_locus(params)
    ]
    return {"validation": _record(rep), "singular_locus": sing}, rep.passed, {"validate_s": _elapsed(t0)}


def _cmd_search_params(args):
    search = SearchConfig(
        a=args.a, b=args.b, lambda0=args.lambda0, q0_min=args.q0_min, q0_max=args.q0_max,
        q0_steps=args.q0_steps,
    )
    t0 = time.perf_counter()
    try:
        params = find_valid_params(search)
    except NotFoundError as exc:
        return {"search": {"found": False, "error": str(exc)}}, False, None
    rep = validate(params)
    body = {"search": {"found": True, "params": params.as_dict()}, "validation": _record(rep)}
    return body, rep.passed, {"search_s": _elapsed(t0)}


def _cmd_conic(args):
    params = _require_params(args)
    lam = _require_lambda(args)
    knob = args.theta
    if args.type == "orbit":
        knob = args.alpha if args.alpha is not None else -q_value(params, lam)
    conic = _CONICS[args.type](params, lam, knob)
    record = _conic_record(conic, args.type, lam, knob)
    record["tangency"] = verify_touching(conic, params, lam).kind.value
    return {"conic": record}, True, None


def _cmd_tangency(args):
    params = _require_params(args)
    lam = _require_lambda(args)
    t0 = time.perf_counter()
    n = args.grid
    f = f_value(params, lam)
    angles = [2.0 * math.pi * k / n for k in range(n)]
    if f > 0.0:
        q = q_value(params, lam)
        sf = math.sqrt(f)
        alphas = [-q - sf + 2.0 * sf * k / n for k in range(1, n)]
        sweeps = [("generic", angles, ("Generic",)), ("orbit", alphas, ("Orbit", "ContainedInB"))]
    else:
        sweeps = [("special", angles, ("Special",))]
    rows = []
    for family, knobs, accepted in sweeps:
        for knob in knobs:
            kind = verify_touching(_CONICS[family](params, lam, knob), params, lam).kind.value
            rows.append({"family": family, "knob": knob, "type": kind, "passed": kind in accepted})
    ok = all(r["passed"] for r in rows)
    return {"rows": rows, "passed": ok}, ok, {"tangency_s": _elapsed(t0), "conics": len(rows)}


def _cmd_hscan(args):
    params = _require_params(args)
    part = intervals(params)
    choices = [_parse_resolution(args.resolution)] if args.resolution else all_resolutions()
    rows = []
    n = args.grid
    windows = {
        HKind.H0: (part.i2, (part.i4minus[0], part.lambda0 - 1e-3)),
        HKind.H1: (part.i1, part.i3),
        HKind.H2: (part.i2, (part.i4minus[0], part.lambda0 + 10.0)),
        HKind.H3: (part.i1, part.i3),
    }
    for choice in choices:
        for kind, spans in windows.items():
            for lo, hi in spans:
                lo = max(lo, -50.0)
                hi = min(hi, 50.0)
                for k in range(1, n):
                    lam = lo + (hi - lo) * k / n
                    try:
                        val = h_function(kind, choice, params, lam)
                    except DomainError:
                        continue
                    rows.append(
                        {
                            "kind": kind.value,
                            "ell1": choice.ell1.value,
                            "ell2": choice.ell2.value,
                            "ell3": choice.ell3.value,
                            "lambda": lam,
                            "value": val,
                        }
                    )
    return {"rows": rows}, True, None


def _cmd_critical(args, cache: RadiusAnalysis | None = None):
    params = _require_params(args)
    t0 = time.perf_counter()
    rep = verify_h_tables(params, cache)
    return {"rows": [_record(r) for r in rep.rows], "passed": rep.passed}, rep.passed, {"h_tables_s": _elapsed(t0)}


def _cmd_classify(args, cache: RadiusAnalysis | None = None):
    params = _require_params(args)
    t0 = time.perf_counter()
    cache = cache or RadiusAnalysis(params)
    rep = classify(params, cache)
    body = {
        "type_assignment": [
            {"interval": name, "type": kind.value, "justification": why}
            for name, kind, why in rep.assignment.by_interval
        ],
        "survivors": [
            {"resolution": ch.label(), "hypothesis": hyp.value} for ch, hyp in rep.outcome.survivors
        ],
        # kept in the report-v1 schema; every verdict is decided
        "inconclusive": False,
        "traces": [
            {
                "resolution": t.choice.label(),
                "hypothesis": t.hypothesis.value,
                "verdict": t.verdict.value,
                "reasons": [
                    {"code": r.code, "description": r.description, "witness": _json_safe(r.witness)}
                    for r in t.reasons
                ],
            }
            for t in rep.outcome.traces
        ],
        "component_schedules": [
            {
                "resolution": ch.label(),
                "hypothesis": hyp.value,
                "I1": s.i1.value,
                "I2": s.i2.value,
                "I3": s.i3.value,
                "I4minus": s.i4minus.value,
                "I4plus": s.i4plus.value,
                "gamma_progression": list(s.gamma_progression()),
            }
            for ch, hyp, s in rep.schedules
        ],
        "broken_pairing": _pairing_samples(params, cache),
    }
    ok = set(rep.outcome.survivors) == set(EXPECTED_SURVIVORS)
    return {"classification": body}, ok, {"classify_s": _elapsed(t0)}


def _cmd_psi(args):
    rep = psi_check()
    return {"psi": _record(rep)}, rep.passed, None


def _cmd_report(args):
    params = _require_params(args)
    body, ok, timings = _cmd_validate(args)
    t0 = time.perf_counter()
    try:
        cache = RadiusAnalysis(params)
    except PreconditionError as exc:
        # not admissible: the later stages are not computed, and say why
        error = f"not computed: {exc}"
        body["h_tables"] = {"rows": [], "passed": False, "error": error}
        body["classification"] = {"error": error, "inconclusive": False, "survivors": []}
        timings["classify_s"] = _elapsed(t0)
        ok = False
    else:
        body["h_tables"], ok_h, t_h = _cmd_critical(args, cache)
        classification, ok_c, t_c = _cmd_classify(args, cache)
        body |= classification
        timings |= t_h | t_c
        ok = ok and ok_h and ok_c
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
    "resolution": None,
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
    common.add_argument("--resolution", help="ELL1,ELL2,ELL3 out of X0,X1,X0plusX1,AX0minusBX1")
    common.add_argument("--grid", type=int, help="sample density (>= 16)")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"))
    common.add_argument("--timings", action="store_true", help="embed wall-clock timings in the report")
    return common


# argparse reads a value such as "-1e-08" as an option, since only "-"
# followed by digits or a point counts as a negative number there, so such a
# value of these flags is joined to its flag: "--lambda=-1e-08".
_SIGNED_FLAGS = frozenset({"--lambda", "--theta", "--alpha"})
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _join_negative_numbers(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_FLAGS and _NEGATIVE_NUMBER.fullmatch(tok):
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

    def command(name: str, cmd, summary: str) -> argparse.ArgumentParser:
        parser = sub.add_parser(name, help=summary, parents=[common])
        parser.set_defaults(cmd=cmd)
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
    command("tangency", _cmd_tangency, "verify the touching structure over a family sweep")
    command("hscan", _cmd_hscan, "radius-function samples over the legal windows")
    command("critical", _cmd_critical, "critical-point and limit tables")
    command("classify", _cmd_classify, "type assignment, elimination, component schedules")
    command("psi", _cmd_psi, "radial-profile checks of the line correspondence")
    command("report", _cmd_report, "full pipeline bundle")
    return ap


def run(argv: list[str]) -> int:
    args = argparse.Namespace(**_COMMON_DEFAULTS)
    try:
        build_parser().parse_args(_join_negative_numbers(argv), args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE

    if args.grid < 16:
        sys.stderr.write("grid density must be at least 16\n")
        return EXIT_USAGE

    try:
        args.params = _surface_params(args)
        body, passed, timings = args.cmd(args)
        _emit(_envelope(args, body, timings), args)
    except (InputError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (InvalidParameterError, DomainError, RealityError, PreconditionError, NotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    return EXIT_OK if passed else EXIT_FAIL


def main() -> None:
    sys.exit(run(sys.argv[1:]))
