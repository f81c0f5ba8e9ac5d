"""Command line front end.

One executable, one report per run. Every subcommand emits a single object

    {"version", "command", "config", "timestamp", "result"}

with sorted keys, so identical configs produce byte-identical output apart
from the timestamp. Numeric parameters are validated before any sieving
starts. Exit codes: 0 success, 2 malformed arguments or spec strings,
3 precondition violations, 4 theorem-assertion failures (the latter always
indicate an implementation bug, not bad input).
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
from .arith import PrimeTable
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

DEFAULT_SEED = 0


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Normalized run parameters, embedded verbatim in every report."""

    command: str
    params: dict
    seed: int
    threads: int


def _jsonable(obj):
    """Recursively convert report objects to plain JSON types.

    Complex numbers become {"re":, "im":}; characters serialize by their
    stable serial string; function specs by their round-trippable text form.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, DirichletCharacter):
        return obj.serial
    if isinstance(obj, FunctionSpec):
        return obj.render()
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(args, config: RunConfig, result) -> None:
    report = {
        "version": __version__,
        "command": config.command,
        "config": {
            "params": _jsonable(config.params),
            "seed": config.seed,
            "threads": config.threads,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "result": _jsonable(result),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, command: str, **params) -> RunConfig:
    return RunConfig(
        command=command,
        params=params,
        seed=getattr(args, "seed", DEFAULT_SEED),
        threads=getattr(args, "threads", 1),
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative number, got {text}")
    return value


# ---------------------------------------------------------------- constants


def _cmd_constants(args) -> int:
    if args.name is None:
        result = all_constants(tolerance=args.tol)
    elif args.name == "delta1":
        result = delta1(tolerance=args.tol)
    elif args.name == "delta0":
        result = delta0(tolerance=args.tol)
    elif args.name == "repulsion":
        if args.m is None:
            value, argmin = repulsion_minimum()
            result = {
                "minimum": value,
                "argmin_m": argmin,
                "continuous": repulsion_constant("continuous"),
            }
        else:
            m = args.m if args.m == "continuous" else int(args.m)
            result = {"m": m, "value": repulsion_constant(m)}
    else:  # argparse choices make this unreachable
        raise SpecParseError(f"unknown constant {args.name!r}")
    config = _config(args, "constants", name=args.name, tol=args.tol, m=args.m)
    _emit(args, config, result)
    return 0


# --------------------------------------------------------------- pretension


def _cmd_pretension_find(args) -> int:
    f = parse_spec(args.f)
    table = PrimeTable(args.x)
    report = find_exceptional(f, args.x, args.Q, args.A, table, depth=args.depth)
    config = _config(
        args, "pretension find", f=args.f, x=args.x, Q=args.Q, A=args.A, depth=args.depth
    )
    _emit(args, config, report)
    return 0


# --------------------------------------------------------------- meanvalues


_CSV_HEADER = "a,Re F,Im F,residual,main_term,error_ref_brancha,error_ref_branchb"


def _report_csv(report) -> str:
    # one row per reduced class; the two reference-curve columns repeat so the
    # file stays self-contained for plotting
    lines = [_CSV_HEADER]
    brancha = "" if report.error_ref_power_window is None else repr(report.error_ref_power_window)
    branchb = repr(report.error_ref_log_window)
    for row in report.rows:
        value = complex(row.value)
        lines.append(
            ",".join(
                [
                    str(row.a),
                    repr(value.real),
                    repr(value.imag),
                    repr(abs(row.residual)),
                    "" if row.main_term is None else repr(abs(row.main_term)),
                    brancha,
                    branchb,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_meanvalues_report(args) -> int:
    f = parse_spec(args.f)
    table = PrimeTable(args.x)
    report = progression_report(f, args.x, args.q, args.Q, args.A, table)
    fmt = args.format
    if fmt is None:
        out = getattr(args, "out", None)
        fmt = "csv" if out and out.endswith(".csv") else "json"
    if fmt == "csv":
        _write(args, _report_csv(report))
    else:
        config = _config(
            args, "meanvalues report", f=args.f, x=args.x, q=args.q, Q=args.Q, A=args.A
        )
        _emit(args, config, report)
    return 0


def _cmd_meanvalues_halasz(args) -> int:
    f = parse_spec(args.f)
    table = PrimeTable(args.x)
    result = halasz_bound(f, args.x, args.T, table)
    config = _config(args, "meanvalues halasz", f=args.f, x=args.x, T=args.T)
    _emit(args, config, result)
    return 0


def _cmd_meanvalues_euler(args) -> int:
    f = parse_spec(args.f)
    table = PrimeTable(args.x)
    result = euler_product_mean(
        f, args.x, table, t=args.t, q=args.q, truncation=args.truncation
    )
    config = _config(
        args,
        "meanvalues euler",
        f=args.f,
        x=args.x,
        q=args.q,
        t=args.t,
        truncation=args.truncation,
    )
    _emit(args, config, result)
    return 0


# - ------------------------------------------------------------------ sieve


def _cmd_sieve_bad_moduli(args) -> int:
    f = parse_spec(args.f)
    # class values reach n*q + a <= x + q, so sieve slightly past x
    table = PrimeTable(args.x + args.q)
    report = bad_moduli(f, args.x, args.q, args.a, args.eta, table, keep_masses=args.verbose)
    if not args.verbose:
        report = dataclasses.replace(report, masses=None)
    config = _config(
        args, "sieve bad-moduli", f=args.f, x=args.x, q=args.q, a=args.a, eta=args.eta
    )
    _emit(args, config, report)
    return 0


def _cmd_sieve_defect(args) -> int:
    f = parse_spec(args.f)
    table = PrimeTable(args.x)
    report = multiplicativity_defect(f, args.x, args.q, table)
    if not args.verbose:
        report = dataclasses.replace(report, pairs=())
    config = _config(args, "sieve defect", f=args.f, x=args.x, q=args.q)
    _emit(args, config, report)
    return 0


def _cmd_sieve_legendre(args) -> int:
    table = PrimeTable(max(args.x, args.p_limit))
    report = legendre_progression_experiment(args.q, args.a, args.x, args.p_limit, table)
    if not args.verbose:
        report = dataclasses.replace(report, running=())
    config = _config(
        args, "sieve legendre", q=args.q, a=args.a, x=args.x, p_limit=args.p_limit
    )
    _emit(args, config, report)
    return 0


# ---------------------------------------------------------------- nearchar


def _parse_g_file(path: str, q: int) -> ApproxHomomorphism:
    """Read `a: re,im` lines (one per unit mod q); blank lines and # comments ok."""
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
            parts = right.split(",")
            re_part = float(parts[0])
            im_part = float(parts[1]) if len(parts) > 1 else 0.0
        except (ValueError, IndexError) as exc:
            raise SpecParseError(f"{path}:{lineno}: expected 'a: re,im', got {raw!r}") from exc
        values[a] = complex(re_part, im_part)
    return ApproxHomomorphism.from_values(q, values)


def _cmd_nearchar_recover(args) -> int:
    g = _parse_g_file(args.g, args.q)
    result = nearest_character(g)
    config = _config(args, "nearchar recover", q=args.q, g=args.g)
    _emit(args, config, result)
    return 0


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


def _cmd_chars_list(args) -> int:
    chars = enumerate_characters(args.q)
    result = {
        "q": args.q,
        "phi": unit_group(args.q).phi,
        "characters": [_char_summary(chi) for chi in chars],
    }
    config = _config(args, "chars list", q=args.q)
    _emit(args, config, result)
    return 0


def _cmd_chars_eval(args) -> int:
    chi = character_by_index(args.q, args.index)
    angle = chi.angle(args.n)
    result = {
        "serial": chi.serial,
        "n": args.n,
        "value": chi(args.n),
        "angle": angle,
    }
    config = _config(args, "chars eval", q=args.q, index=args.index, n=args.n)
    _emit(args, config, result)
    return 0


def _cmd_chars_conductor(args) -> int:
    chi = character_by_index(args.q, args.index)
    psi = primitive_part(chi)
    result = {
        "serial": chi.serial,
        "conductor": conductor(chi),
        "is_primitive": is_primitive(chi),
        "primitive_part": psi.serial,
    }
    config = _config(args, "chars conductor", q=args.q, index=args.index)
    _emit(args, config, result)
    return 0


# ----------------------------------------------------------------- parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="recorded in the report config for reproducibility (default 0)",
    )
    parser.add_argument(
        "--threads", type=_positive_int, default=1, help="recorded in the report config only"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretentious",
        description="desk-scale experiments on multiplicative functions in progressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="named constants with error estimates")
    p.add_argument("--name", choices=["delta1", "delta0", "repulsion"])
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--m", help="order for --name repulsion (integer >= 2 or 'continuous')")
    _add_common(p)
    p.set_defaults(func=_cmd_constants)

    pret = sub.add_parser("pretension", help="distance minimization over characters")
    pret_sub = pret.add_subparsers(dest="subcommand", required=True)
    p = pret_sub.add_parser("find", help="scan primitive characters for the best twist")
    p.add_argument("--f", required=True, help="function spec, e.g. mobius or prod(char:5:2,nit:1.0)")
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--Q", type=_positive_int, required=True, help="conductor bound")
    p.add_argument("--A", type=_nonneg_float, required=True, help="twist bound |t| <= A")
    p.add_argument("--depth", type=_positive_int, default=10, help="spectrum entries kept")
    _add_common(p)
    p.set_defaults(func=_cmd_pretension_find)

    mv = sub.add_parser("meanvalues", help="progression sums, bounds, Euler products")
    mv_sub = mv.add_subparsers(dest="subcommand", required=True)

    p = mv_sub.add_parser("report", help="residuals against the best character model")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--Q", type=_positive_int, required=True)
    p.add_argument("--A", type=_nonneg_float, required=True)
    p.add_argument("--format", choices=["json", "csv"], help="default json, or csv if --out ends in .csv")
    _add_common(p)
    p.set_defaults(func=_cmd_meanvalues_report)

    p = mv_sub.add_parser("halasz", help="mean value bound from the best twist")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--T", type=_nonneg_float, default=1.0, help="twist scan bound, >= 1")
    _add_common(p)
    p.set_defaults(func=_cmd_meanvalues_halasz)

    p = mv_sub.add_parser("euler", help="Euler product prediction for the mean")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--q", type=_positive_int, default=1)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--truncation", type=_positive_int, default=None,
                   help="prime cutoff P: multiply over p <= P (default x) and "
                        "report the tail bound sum_{P < p <= x} 2/p")
    _add_common(p)
    p.set_defaults(func=_cmd_meanvalues_euler)

    sv = sub.add_parser("sieve", help="bad moduli, defect, and symbol scans")
    sv_sub = sv.add_subparsers(dest="subcommand", required=True)

    p = sv_sub.add_parser("bad-moduli", help="primitive-character mass scan over moduli")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--eta", type=_nonneg_float, required=True)
    p.add_argument("--verbose", action="store_true", help="include per-modulus masses")
    _add_common(p)
    p.set_defaults(func=_cmd_sieve_bad_moduli)

    p = sv_sub.add_parser("defect", help="multiplicativity defect over unit pairs")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--verbose", action="store_true", help="include the full pairwise table")
    _add_common(p)
    p.set_defaults(func=_cmd_sieve_defect)

    p = sv_sub.add_parser("legendre", help="quadratic-symbol means over a progression")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--p-limit", dest="p_limit", type=_positive_int, required=True)
    p.add_argument("--verbose", action="store_true", help="include the running-infimum trace")
    _add_common(p)
    p.set_defaults(func=_cmd_sieve_legendre)

    nc = sub.add_parser("nearchar", help="approximate-character recovery")
    nc_sub = nc.add_subparsers(dest="subcommand", required=True)
    p = nc_sub.add_parser("recover", help="identify the character a unit function approximates")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--g", required=True, help="file of 'a: re,im' lines, one per unit mod q")
    _add_common(p)
    p.set_defaults(func=_cmd_nearchar_recover)

    ch = sub.add_parser("chars", help="character tables and diagnostics")
    ch_sub = ch.add_subparsers(dest="subcommand", required=True)

    p = ch_sub.add_parser("list", help="all characters mod q")
    p.add_argument("--q", type=_positive_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_chars_list)

    p = ch_sub.add_parser("eval", help="evaluate one character at one point")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_chars_eval)

    p = ch_sub.add_parser("conductor", help="conductor and primitive part")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--index", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_chars_conductor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
