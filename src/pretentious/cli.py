"""Command line front end.

One executable, one report per run. By default a subcommand emits a single
object

    {"version", "command", "config", "timestamp", "result"}

with sorted keys, so identical configs produce byte-identical output apart
from the timestamp. The parser is the only place that knows a command's
parameters: `config.params` is every parsed flag except the ones in
`STEERING`, which steer the run rather than parametrize it, and
`config.threads` sits beside it. Each `_cmd_*` only computes and returns
its result; `main` writes the report, and only after the run succeeds.

Three commands can write CSV instead: `meanvalues report` (one row per
class), `meanvalues trend` (one row per decade of x and modulus q) and
`sieve legendre` (one row per record low). They write CSV when `--format
csv` is given, or when `--format` is absent and `--out` ends in `.csv`;
otherwise JSON. Every CSV goes through `_csv`, floats as their repr.

The parser checks types, signs and finiteness; the library call checks
every other precondition before it reads the prime table, which sieves on
first use. `meanvalues trend` builds all of its tables before the first
scan, so an xmax past the sieve's range is refused before anything
sieves. Exit codes: 0 success, 2 malformed arguments or spec strings
(or an unreadable or unwritable file), 3 precondition violations, 4
theorem-assertion failures (the latter always indicate an implementation
bug, not bad input); each failure prints one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .arith import MAX_SIEVE_LIMIT, PrimeTable
from .characters import (
    DirichletCharacter,
    character_by_index,
    conductor,
    enumerate_characters,
    is_primitive,
    primitive_part,
    unit_group,
)
from .constants import all_constants, delta0, delta1, repulsion_constant, repulsion_minimum
from .errors import PreconditionError, SpecParseError, TheoremViolation
from .funcspec import FunctionSpec, parse_spec
from .meanvalues import euler_product_mean, halasz_bound, progression_report
from .nearchar import ApproxHomomorphism, nearest_character
from .pretension import find_exceptional
from .sieve_experiments import (
    bad_moduli,
    legendre_progression_experiment,
    multiplicativity_defect,
)

# parsed attributes that are not part of config.params
STEERING = ("command", "subcommand", "func", "out", "threads", "format", "verbose")


def _json_default(obj):
    """What json cannot write itself, as plain JSON types.

    Complex numbers become {"re":, "im":}; characters serialize by their
    stable serial string; function specs by their round-trippable text form.
    """
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, DirichletCharacter):
        return obj.serial
    if isinstance(obj, FunctionSpec):
        return obj.render()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(args, result) -> None:
    command = args.command
    if getattr(args, "subcommand", None):
        command += " " + args.subcommand
    params = {k: v for k, v in vars(args).items() if k not in STEERING}
    report = {
        "version": __version__,
        "command": command,
        "config": {"params": params, "threads": args.threads},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _wants_csv(args) -> bool:
    """CSV when --format says so, or without --format when --out ends in .csv."""
    if args.format is not None:
        return args.format == "csv"
    return bool(args.out) and args.out.endswith(".csv")


def _csv(columns, rows) -> str:
    """The CSV text of `rows` under a header of `columns`. A cell is its
    str, which for a float is its repr; None is an empty cell."""
    lines = [",".join(columns)]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative number, got {text}")
    return value


def _moduli(text: str) -> list[int]:
    try:
        return [_positive_int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text}") from None


def _repulsion_order(text: str) -> str:
    # kept as typed, so config.params.m reads as given; _cmd_constants converts
    if text != "continuous":
        try:
            int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer or 'continuous', got {text}"
            ) from None
    return text


# ---------------------------------------------------------------- constants


def _cmd_constants(args):
    if args.name is None:
        return all_constants(tolerance=args.tol)
    if args.name == "delta1":
        return delta1(tolerance=args.tol)
    if args.name == "delta0":
        return delta0(tolerance=args.tol)
    if args.m is None:
        value, argmin = repulsion_minimum()
        return {"minimum": value, "argmin_m": argmin,
                "continuous": repulsion_constant("continuous")}
    m = args.m if args.m == "continuous" else int(args.m)
    return {"m": m, "value": repulsion_constant(m)}


# --------------------------------------------------------------- pretension


def _cmd_pretension_find(args):
    f = parse_spec(args.f)
    return find_exceptional(f, args.x, args.Q, args.A, PrimeTable(args.x), depth=args.depth)


# --------------------------------------------------------------- meanvalues


_REPORT_COLUMNS = ("a", "Re F", "Im F", "residual", "main_term",
                   "error_ref_brancha", "error_ref_branchb")
_TREND_COLUMNS = ("f", "q", "x", "normalized_max_residual", "max_residual", "conductor", "t")
_RECORD_COLUMNS = ("p", "record_low")


def _cmd_meanvalues_report(args):
    f = parse_spec(args.f)
    report = progression_report(f, args.x, args.q, args.Q, args.A, PrimeTable(args.x))
    if not _wants_csv(args):
        return report
    # one row per reduced class; the two reference-curve columns repeat so the
    # file stays self-contained for plotting
    rows = []
    for row in report.rows:
        value = complex(row.value)
        main_term = None if row.main_term is None else abs(row.main_term)
        rows.append((row.a, value.real, value.imag, abs(row.residual), main_term,
                     report.error_ref_power_window, report.error_ref_log_window))
    return _csv(_REPORT_COLUMNS, rows)


def _cmd_meanvalues_trend(args):
    f = parse_spec(args.f)
    decades = []
    x = 10**4
    while x <= args.xmax:
        decades.append(x)
        x *= 10
    if not decades:
        raise PreconditionError(f"xmax must be >= 10000 for one decade, got {args.xmax}")
    # every table before the first scan, so an xmax past the sieve's range is
    # refused before anything sieves; one table per decade, shared across q
    tables = [PrimeTable(x) for x in decades]
    rows = []
    for x, table in zip(decades, tables):
        for q in args.qs:
            rep = progression_report(f, x, q, args.Q, args.A, table)
            rows.append((args.f, q, x, rep.normalized_max_residual, rep.max_residual,
                         rep.exceptional.conductor, rep.exceptional.t))
    if _wants_csv(args):
        return _csv(_TREND_COLUMNS, rows)
    return [dict(zip(_TREND_COLUMNS, row)) for row in rows]


def _cmd_meanvalues_halasz(args):
    f = parse_spec(args.f)
    return halasz_bound(f, args.x, args.T, PrimeTable(args.x))


def _cmd_meanvalues_euler(args):
    f = parse_spec(args.f)
    return euler_product_mean(f, args.x, PrimeTable(args.x), t=args.t, q=args.q,
                              truncation=args.truncation)


# - ------------------------------------------------------------------ sieve


def _cmd_sieve_bad_moduli(args):
    f = parse_spec(args.f)
    # class values reach (x // q) q + (a mod q) <= x + q - 1; past 10^8 the
    # library refuses the scan before it sieves, and x = q = 1 needs no prime
    table = PrimeTable(max(2, min(args.x + args.q - 1, MAX_SIEVE_LIMIT)))
    report = bad_moduli(f, args.x, args.q, args.a, args.eta, table)
    return report if args.verbose else dataclasses.replace(report, masses=None)


def _cmd_sieve_defect(args):
    report = multiplicativity_defect(parse_spec(args.f), args.x, args.q, PrimeTable(args.x))
    return report if args.verbose else dataclasses.replace(report, pairs=())


def _cmd_sieve_legendre(args):
    table = PrimeTable(max(args.p_limit, 2))
    report = legendre_progression_experiment(args.q, args.a, args.x, args.p_limit, table)
    if _wants_csv(args):
        return _csv(_RECORD_COLUMNS, report.running)
    return report if args.verbose else dataclasses.replace(report, running=())


# ---------------------------------------------------------------- nearchar


def _parse_g_file(path: str, q: int) -> ApproxHomomorphism:
    """Read `a: re,im` lines, one per unit a in [0, q); blank lines and # comments ok."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecParseError(f"cannot read g-file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            left, right = line.split(":", 1)
            a = int(left)
            parts = [float(v) for v in right.split(",")]
            if len(parts) > 2:
                raise ValueError(f"{len(parts)} numbers")
        except ValueError as exc:
            raise SpecParseError(f"{path}:{lineno}: expected 'a: re,im', got {raw!r}") from exc
        if not (0 <= a < q and math.gcd(a, q) == 1):
            raise SpecParseError(f"{path}:{lineno}: {a} is not a unit in [0, {q})")
        if a in values:
            raise SpecParseError(f"{path}:{lineno}: second value for unit {a}")
        values[a] = complex(*parts)
    return ApproxHomomorphism.from_values(q, values)


def _cmd_nearchar_recover(args):
    return nearest_character(_parse_g_file(args.g, args.q))


# ------------------------------------------------------------------- chars


def _char_summary(chi: DirichletCharacter) -> dict:
    return {
        "serial": chi.serial,
        "index": chi.index,
        "order": chi.order(),
        "conductor": conductor(chi),
        "is_principal": chi.is_principal(),
        "is_real": chi.is_real(),
        "is_primitive": is_primitive(chi),
    }


def _cmd_chars_list(args):
    chars = [_char_summary(chi) for chi in enumerate_characters(args.q)]
    return {"q": args.q, "phi": unit_group(args.q).phi, "characters": chars}


def _cmd_chars_eval(args):
    chi = character_by_index(args.q, args.index)
    return {"serial": chi.serial, "n": args.n, "value": chi(args.n), "angle": chi.angle(args.n)}


def _cmd_chars_conductor(args):
    chi = character_by_index(args.q, args.index)
    return {"serial": chi.serial, "conductor": conductor(chi), "is_primitive": is_primitive(chi),
            "primitive_part": primitive_part(chi).serial}


# ----------------------------------------------------------------- parsing

# flags that several commands declare alike
_F = ("--f", dict(required=True))
_X = ("--x", dict(type=_positive_int, required=True))
_Q = ("--q", dict(type=_positive_int, required=True))
_INDEX = ("--index", dict(type=int, required=True))
_SCAN_Q = ("--Q", dict(type=_positive_int, required=True))
_SCAN_A = ("--A", dict(type=_nonneg_float, required=True))
_FORMAT = ("--format", dict(choices=["json", "csv"],
                            help="default json, or csv if --out ends in .csv"))


def _command(sub, name: str, help: str, func, *flags) -> None:
    """Declare one subcommand: its (flag, add_argument kwargs) pairs, then the shared flags."""
    p = sub.add_parser(name, help=help)
    for flag, kwargs in flags:
        p.add_argument(flag, **kwargs)
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="recorded in the report config only")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretentious",
        description="desk-scale experiments on multiplicative functions in progressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "constants", "named constants with error estimates", _cmd_constants,
             ("--name", dict(choices=["delta1", "delta0", "repulsion"])),
             ("--tol", dict(type=_finite_float, default=1e-10)),
             ("--m", dict(type=_repulsion_order,
                          help="order for --name repulsion (integer >= 2 or 'continuous')")))

    pret = sub.add_parser("pretension", help="distance minimization over characters")
    pret_sub = pret.add_subparsers(dest="subcommand", required=True)
    _command(pret_sub, "find", "scan primitive characters for the best twist",
             _cmd_pretension_find,
             ("--f", dict(required=True,
                          help="function spec, e.g. mobius or prod(char:5:2,nit:1.0)")),
             _X,
             ("--Q", dict(type=_positive_int, required=True, help="conductor bound")),
             ("--A", dict(type=_nonneg_float, required=True, help="twist bound |t| <= A")),
             ("--depth", dict(type=_positive_int, default=10, help="spectrum entries kept")))

    mv = sub.add_parser("meanvalues", help="progression sums, bounds, Euler products")
    mv_sub = mv.add_subparsers(dest="subcommand", required=True)
    _command(mv_sub, "report", "residuals against the best character model",
             _cmd_meanvalues_report, _F, _X, _Q, _SCAN_Q, _SCAN_A, _FORMAT)
    _command(mv_sub, "trend", "normalized max residual per decade of x and modulus q",
             _cmd_meanvalues_trend, _F,
             ("--qs", dict(type=_moduli, default="3,4,5,8", help="comma-separated moduli")),
             ("--xmax", dict(type=_finite_float, default=1e6,
                             help="largest x; rows at x = 10^4, 10^5, ... <= xmax")),
             _SCAN_Q, _SCAN_A, _FORMAT)
    _command(mv_sub, "halasz", "mean value bound from the best twist", _cmd_meanvalues_halasz,
             _F, _X,
             ("--T", dict(type=_nonneg_float, default=1.0, help="twist scan bound, >= 1")))
    _command(mv_sub, "euler", "Euler product prediction for the mean", _cmd_meanvalues_euler,
             _F, _X,
             ("--q", dict(type=_positive_int, default=1)),
             ("--t", dict(type=_finite_float, default=0.0)),
             ("--truncation", dict(type=_positive_int,
                                   help="prime cutoff P: multiply over p <= P (default x) and "
                                        "report the tail bound sum_{P < p <= x} "
                                        "log(p/(p-2))")))

    sv = sub.add_parser("sieve", help="bad moduli, defect, and symbol scans")
    sv_sub = sv.add_subparsers(dest="subcommand", required=True)
    _command(sv_sub, "bad-moduli", "primitive-character mass scan over moduli",
             _cmd_sieve_bad_moduli, _F, _X, _Q,
             ("--a", dict(type=_positive_int, required=True)),
             ("--eta", dict(type=_nonneg_float, required=True)),
             ("--verbose", dict(action="store_true", help="include per-modulus masses")))
    _command(sv_sub, "defect", "multiplicativity defect over unit pairs", _cmd_sieve_defect,
             _F, _X, _Q,
             ("--verbose", dict(action="store_true", help="include the full pairwise table")))
    _command(sv_sub, "legendre", "quadratic-symbol means over a progression",
             _cmd_sieve_legendre, _Q,
             ("--a", dict(type=_positive_int, required=True)),
             _X,
             ("--p-limit", dict(dest="p_limit", type=_positive_int, required=True)),
             ("--verbose", dict(action="store_true", help="include the running-infimum trace")),
             _FORMAT)

    nc = sub.add_parser("nearchar", help="approximate-character recovery")
    nc_sub = nc.add_subparsers(dest="subcommand", required=True)
    _command(nc_sub, "recover", "identify the character a unit function approximates",
             _cmd_nearchar_recover, _Q,
             ("--g", dict(required=True, help="file of 'a: re,im' lines, one per unit mod q")))

    ch = sub.add_parser("chars", help="character tables and diagnostics")
    ch_sub = ch.add_subparsers(dest="subcommand", required=True)
    _command(ch_sub, "list", "all characters mod q", _cmd_chars_list, _Q)
    _command(ch_sub, "eval", "evaluate one character at one point", _cmd_chars_eval,
             _Q, _INDEX, ("--n", dict(type=int, required=True)))
    _command(ch_sub, "conductor", "conductor and primitive part", _cmd_chars_conductor,
             _Q, _INDEX)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the report is written only once the run has succeeded, so a refused
    # run leaves one stderr line and nothing else
    try:
        result = args.func(args)
        if isinstance(result, str):
            _write(args, result)
        else:
            _emit(args, result)
        return 0
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TheoremViolation as exc:
        print(f"theorem violation (implementation bug): {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
