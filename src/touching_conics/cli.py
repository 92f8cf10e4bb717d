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
from dataclasses import dataclass, fields, is_dataclass

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


@dataclass
class RunConfig:
    params: dict | None = None
    lam: float | None = None
    theta: float = 0.0
    alpha: float | None = None
    resolution: str | None = None
    grid: int = 24
    out: str | None = None
    fmt: str = "json"
    timings: bool = False

    def as_dict(self) -> dict:
        return {
            "params": self.params,
            "lambda": self.lam,
            "theta": self.theta,
            "alpha": self.alpha,
            "resolution": self.resolution,
            "grid": self.grid,
            "out": self.out,
            "format": self.fmt,
        }


def _elapsed(t0: float) -> float:
    """Seconds since t0, to the microsecond."""
    return round(time.perf_counter() - t0, 6)


def _number(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{where}: {text.strip()!r} is not a number") from None


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


def _parse_resolution(text: str) -> ResolutionChoice:
    names = [n for n in text.split(",") if n.strip()]
    if len(names) != 3:
        raise InputError("--resolution expects ELL1,ELL2,ELL3")
    return ResolutionChoice(*(LinearForm.parse(n) for n in names))


def _require_params(cfg: RunConfig) -> SurfaceParams:
    if cfg.params is None:
        raise InputError("surface parameters required: pass --params or --params-file")
    p = cfg.params
    return SurfaceParams(p["q0"], p["q1"], p["q2"], p["a"], p["b"])


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _record(rep) -> dict:
    """A report dataclass as a JSON object: its fields, in their order, and
    its pass flag.  A nested report dataclass is left to _json_safe."""
    return {**vars(rep), "passed": rep.passed}


def _validation_dict(params: SurfaceParams) -> tuple[dict, bool]:
    rep = validate(params)
    return _record(rep), rep.passed


def _singular_dict(params: SurfaceParams) -> list[dict]:
    return [
        {
            "location": pt.location,
            "kind": pt.kind.value,
            "lambda": pt.lam,
            "multiplicity": pt.multiplicity,
        }
        for pt in singular_locus(params)
    ]


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


def _htable_rows(params: SurfaceParams, cache: RadiusAnalysis | None = None):
    rep = verify_h_tables(params, cache)
    return [_record(r) for r in rep.rows], rep.passed


def _classification_dict(params: SurfaceParams, cache: RadiusAnalysis) -> tuple[dict, bool]:
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
    return body, set(rep.outcome.survivors) == set(EXPECTED_SURVIVORS)


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


def _psi_dict() -> tuple[dict, bool]:
    rep = psi_check()
    return _record(rep), rep.passed


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if is_dataclass(x):
        return vars(x)
    return x


def _emit(doc, cfg: RunConfig) -> None:
    if cfg.fmt == "csv" and isinstance(doc, dict) and "rows" in doc:
        buf = io.StringIO()
        rows = doc["rows"]
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, default=_json_safe) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(cfg: RunConfig, body: dict, timings: dict | None) -> dict:
    doc = {"version": {"artifact": __version__, "schema": SCHEMA}, "config": cfg.as_dict()}
    doc.update(body)
    if cfg.timings and timings is not None:
        doc["timings"] = timings
    return doc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    t0 = time.perf_counter()
    body, ok = _validation_dict(params)
    doc = _envelope(
        cfg,
        {"validation": body, "singular_locus": _singular_dict(params)},
        {"validate_s": _elapsed(t0)},
    )
    _emit(doc, cfg)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_search_params(cfg: RunConfig, args) -> int:
    search = SearchConfig(
        a=args.a, b=args.b, lambda0=args.lambda0, q0_min=args.q0_min, q0_max=args.q0_max,
        q0_steps=args.q0_steps,
    )
    t0 = time.perf_counter()
    try:
        params = find_valid_params(search)
    except NotFoundError as exc:
        _emit(_envelope(cfg, {"search": {"found": False, "error": str(exc)}}, None), cfg)
        return EXIT_FAIL
    body, ok = _validation_dict(params)
    doc = _envelope(
        cfg,
        {"search": {"found": True, "params": params.as_dict()}, "validation": body},
        {"search_s": _elapsed(t0)},
    )
    _emit(doc, cfg)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_conic(cfg: RunConfig, args) -> int:
    params = _require_params(cfg)
    if cfg.lam is None:
        raise InputError("--lambda required")
    kind = args.type
    if kind == "generic":
        conic = generic_conic(params, cfg.lam, cfg.theta)
        knob = cfg.theta
    elif kind == "special":
        conic = special_conic(params, cfg.lam, cfg.theta)
        knob = cfg.theta
    else:
        alpha = cfg.alpha if cfg.alpha is not None else -q_value(params, cfg.lam)
        conic = orbit_conic(alpha)
        knob = alpha
    record = _conic_record(conic, kind, cfg.lam, knob)
    record["tangency"] = verify_touching(conic, params, cfg.lam).kind.value
    _emit(_envelope(cfg, {"conic": record}, None), cfg)
    return EXIT_OK


def _cmd_tangency(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    if cfg.lam is None:
        raise InputError("--lambda required")
    t0 = time.perf_counter()
    lam = cfg.lam
    f = f_value(params, lam)
    rows = []
    ok = True
    n = max(16, cfg.grid)
    if f > 0.0:
        for k in range(n):
            theta = 2.0 * math.pi * k / n
            rep = verify_touching(generic_conic(params, lam, theta), params, lam)
            good = rep.kind.value == "Generic"
            ok &= good
            rows.append({"family": "generic", "knob": theta, "type": rep.kind.value, "passed": good})
        q = q_value(params, lam)
        sf = math.sqrt(f)
        for k in range(1, n):
            alpha = -q - sf + 2.0 * sf * k / n
            rep = verify_touching(orbit_conic(alpha), params, lam)
            good = rep.kind.value in ("Orbit", "ContainedInB")
            ok &= good
            rows.append({"family": "orbit", "knob": alpha, "type": rep.kind.value, "passed": good})
    else:
        for k in range(n):
            theta = 2.0 * math.pi * k / n
            rep = verify_touching(special_conic(params, lam, theta), params, lam)
            good = rep.kind.value == "Special"
            ok &= good
            rows.append({"family": "special", "knob": theta, "type": rep.kind.value, "passed": good})
    timings = {"tangency_s": _elapsed(t0), "conics": len(rows)}
    _emit(_envelope(cfg, {"rows": rows, "passed": ok}, timings), cfg)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_hscan(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    part = intervals(params)
    choices = [_parse_resolution(cfg.resolution)] if cfg.resolution else all_resolutions()
    rows = []
    n = max(16, cfg.grid)
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
    _emit(_envelope(cfg, {"rows": rows}, None), cfg)
    return EXIT_OK


def _cmd_critical(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    t0 = time.perf_counter()
    rows, ok = _htable_rows(params)
    doc = _envelope(
        cfg, {"rows": rows, "passed": ok}, {"h_tables_s": _elapsed(t0)}
    )
    _emit(doc, cfg)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_classify(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    t0 = time.perf_counter()
    body, ok = _classification_dict(params, RadiusAnalysis(params))
    doc = _envelope(
        cfg, {"classification": body}, {"classify_s": _elapsed(t0)}
    )
    _emit(doc, cfg)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_psi(cfg: RunConfig) -> int:
    body, ok = _psi_dict()
    _emit(_envelope(cfg, {"psi": body}, None), cfg)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_report(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    timings = {}
    t0 = time.perf_counter()
    validation, ok_v = _validation_dict(params)
    timings["validate_s"] = _elapsed(t0)
    sing = _singular_dict(params)
    t0 = time.perf_counter()
    try:
        cache = RadiusAnalysis(params)
    except PreconditionError as exc:
        # not admissible: the later stages are not computed, and say why
        error = f"not computed: {exc}"
        h_tables = {"rows": [], "passed": False, "error": error}
        classification = {"error": error, "inconclusive": False, "survivors": []}
        ok_h = ok_c = False
    else:
        h_rows, ok_h = _htable_rows(params, cache)
        h_tables = {"rows": h_rows, "passed": ok_h}
        timings["h_tables_s"] = _elapsed(t0)
        t0 = time.perf_counter()
        classification, ok_c = _classification_dict(params, cache)
    timings["classify_s"] = _elapsed(t0)
    psi, ok_p = _psi_dict()
    doc = _envelope(
        cfg,
        {
            "validation": validation,
            "singular_locus": sing,
            "h_tables": h_tables,
            "classification": classification,
            "psi": psi,
        },
        timings,
    )
    _emit(doc, cfg)
    return EXIT_OK if (ok_v and ok_h and ok_c and ok_p) else EXIT_FAIL


# ---------------------------------------------------------------------------


# every common flag stores to the RunConfig field of its name, except that
# --params and --params-file both end up in RunConfig.params, as a dict
_COMMON_DEFAULTS = {f.name: f.default for f in fields(RunConfig)} | {"params_file": None}


def _common_flags() -> argparse.ArgumentParser:
    """Flags accepted both before and after the subcommand; SUPPRESS keeps a
    later parser from clobbering a value the earlier one already set."""
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--params", help="q0,q1,q2,a,b")
    common.add_argument("--params-file", dest="params_file", help="flat key=value file with q0,q1,q2,a,b")
    common.add_argument("--lambda", dest="lam", type=float, help="plane parameter")
    common.add_argument("--theta", type=float, help="family angle")
    common.add_argument("--alpha", type=float, help="orbit family parameter")
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
    sub.add_parser("validate", help="admissibility checks and singular locus", parents=[common])
    sp = sub.add_parser("search-params", help="sweep for an admissible parameter set", parents=[common])
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--lambda0", type=float, default=2.0)
    sp.add_argument("--q0-min", dest="q0_min", type=float, default=0.05)
    sp.add_argument("--q0-max", dest="q0_max", type=float, default=5.0)
    sp.add_argument("--q0-steps", dest="q0_steps", type=int, default=100)
    cp = sub.add_parser("conic", help="construct and export one conic", parents=[common])
    cp.add_argument("--type", choices=("generic", "special", "orbit"), required=True)
    sub.add_parser("tangency", help="verify the touching structure over a family sweep", parents=[common])
    sub.add_parser("hscan", help="radius-function samples over the legal windows", parents=[common])
    sub.add_parser("critical", help="critical-point and limit tables", parents=[common])
    sub.add_parser("classify", help="type assignment, elimination, component schedules", parents=[common])
    sub.add_parser("psi", help="radial-profile checks of the line correspondence", parents=[common])
    sub.add_parser("report", help="full pipeline bundle", parents=[common])
    return ap


def run(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_negative_numbers(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    for key, value in _COMMON_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)

    if args.grid < 16:
        sys.stderr.write("grid density must be at least 16\n")
        return EXIT_USAGE

    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name != "params"})
    try:
        if args.params and args.params_file:
            raise InputError("pass only one of --params / --params-file")
        if args.params:
            cfg.params = _parse_params_arg(args.params).as_dict()
        elif args.params_file:
            cfg.params = _parse_params_file(args.params_file).as_dict()

        if args.command == "validate":
            return _cmd_validate(cfg)
        if args.command == "search-params":
            return _cmd_search_params(cfg, args)
        if args.command == "conic":
            return _cmd_conic(cfg, args)
        if args.command == "tangency":
            return _cmd_tangency(cfg)
        if args.command == "hscan":
            return _cmd_hscan(cfg)
        if args.command == "critical":
            return _cmd_critical(cfg)
        if args.command == "classify":
            return _cmd_classify(cfg)
        if args.command == "psi":
            return _cmd_psi(cfg)
        return _cmd_report(cfg)
    except (InputError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (InvalidParameterError, DomainError, RealityError, PreconditionError, NotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


def main() -> None:
    sys.exit(run(sys.argv[1:]))
