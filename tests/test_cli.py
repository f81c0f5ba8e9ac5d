"""Command line reports: schema, determinism, formats, exit codes."""

import argparse
import csv
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import pretentious.cli as cli
from pretentious import __version__
from pretentious.characters import character_by_index, character_row, unit_group
from pretentious.arith import PrimeTable, sieve_primes
from pretentious.errors import PreconditionError, TheoremViolation
from pretentious.funcspec import Mobius
from pretentious.meanvalues import euler_product_mean, halasz_bound, progression_report
from pretentious.pretension import find_exceptional
from pretentious.sieve_experiments import (
    BadModuliReport,
    bad_moduli,
    legendre_progression_experiment,
    multiplicativity_defect,
)

TOP_KEYS = {"version", "command", "config", "timestamp", "result"}
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, argv):
    """(exit code, stdout, stderr) of one in-process run, argparse's refusals included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------------ schema


def test_report_schema(capsys):
    rep = run_json(capsys, ["constants", "--name", "delta1"])
    assert set(rep.keys()) == TOP_KEYS
    assert rep["version"] == __version__
    assert rep["command"] == "constants"
    assert set(rep["config"].keys()) == {"params", "threads"}
    assert rep["config"]["threads"] == 1
    assert rep["result"]["value"] == pytest.approx(-0.6569990137169279, abs=1e-9)
    assert rep["result"]["name"] == "delta1"


def test_config_round_trip(capsys):
    rep = run_json(capsys, [
        "meanvalues", "halasz", "--f", "mobius", "--x", "2000", "--T", "1.5",
        "--threads", "2",
    ])
    assert rep["command"] == "meanvalues halasz"
    assert rep["config"]["params"] == {"f": "mobius", "x": 2000, "T": 1.5}
    assert rep["config"]["threads"] == 2


def test_determinism_modulo_timestamp(capsys):
    argv = ["sieve", "defect", "--f", "mobius", "--x", "3000", "--q", "5"]
    a = run_json(capsys, argv)
    b = run_json(capsys, argv)
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_keys_sorted_on_wire(capsys):
    code, out, _ = run_cli(capsys, ["constants", "--name", "delta0"])
    assert code == 0
    top = [l for l in out.splitlines() if l.startswith('  "')]
    keys = [l.split('"')[1] for l in top]
    assert keys == sorted(keys)
    assert keys == ["command", "config", "result", "timestamp", "version"]


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, [
        "constants", "--name", "repulsion", "--m", "3", "--out", str(path),
    ])
    assert code == 0
    assert out == ""
    rep = json.loads(path.read_text())
    assert rep["result"]["m"] == 3
    assert rep["result"]["value"] == pytest.approx(1 / 3, abs=1e-12)


def test_complex_values_as_re_im(capsys):
    rep = run_json(capsys, ["chars", "eval", "--q", "5", "--index", "1", "--n", "2"])
    val = rep["result"]["value"]
    expected = complex(character_by_index(5, 1)(2))
    assert val["re"] == pytest.approx(expected.real, abs=1e-12)
    assert val["im"] == pytest.approx(expected.imag, abs=1e-12)
    assert isinstance(rep["result"]["angle"], str)  # exact fraction of a turn


# ----------------------------------------------------------------- formats


def test_report_csv_header_and_rows(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, _, err = run_cli(capsys, [
        "meanvalues", "report", "--f", "char:5:2", "--x", "2000", "--q", "5",
        "--Q", "5", "--A", "2", "--format", "csv", "--out", str(path),
    ])
    assert code == 0, err
    lines = path.read_text().splitlines()
    assert lines[0] == "a,Re F,Im F,residual,main_term,error_ref_brancha,error_ref_branchb"
    assert len(lines) == 1 + 4  # one row per unit mod 5
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        int(cells[0])
        for c in cells[1:5]:
            float(c)
        assert float(cells[3]) <= 1e-6  # exact character: residuals vanish


def test_csv_inferred_from_out_extension(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, [
        "meanvalues", "report", "--f", "one", "--x", "1000", "--q", "4",
        "--Q", "4", "--A", "1", "--out", str(path),
    ])
    assert code == 0
    assert path.read_text().startswith("a,Re F,Im F")


def test_csv_brancha_empty_when_A_is_one(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    run_cli(capsys, [
        "meanvalues", "report", "--f", "one", "--x", "1000", "--q", "3",
        "--Q", "3", "--A", "1", "--format", "csv", "--out", str(path),
    ])
    for line in path.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert cells[5] == ""  # power-window reference undefined at A = 1
        float(cells[6])


def test_csv_main_term_empty_on_principal_fallback(tmp_path, capsys):
    # mobius at this scale pretends to conductor 5, which cannot induce mod 4,
    # so the report falls back to the principal character and has no main term
    path = tmp_path / "rows.csv"
    code, _, err = run_cli(capsys, [
        "meanvalues", "report", "--f", "mobius", "--x", "2000", "--q", "4",
        "--Q", "10", "--A", "2", "--format", "csv", "--out", str(path),
    ])
    assert code == 0, err
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert cells[4] == ""
        float(cells[3])


def test_json_report_still_default(capsys):
    rep = run_json(capsys, [
        "meanvalues", "report", "--f", "one", "--x", "1000", "--q", "4",
        "--Q", "4", "--A", "1",
    ])
    assert rep["command"] == "meanvalues report"
    assert rep["result"]["q"] == 4
    assert len(rep["result"]["rows"]) == 2


# ------------------------------------------------------------------ sweeps


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_trend_smallest_sweep(capsys):
    code, out, err = run_cli(capsys, ["meanvalues", "trend", "--f", "mobius", "--xmax", "1e4",
                                      "--qs", "3", "--Q", "10", "--A", "2", "--format", "csv"])
    assert code == 0, err
    rows = _csv_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == ["f", "q", "x", "normalized_max_residual", "max_residual",
                         "conductor", "t"]
    assert (row["f"], row["q"], row["x"]) == ("mobius", "3", "10000")
    assert float(row["normalized_max_residual"]) >= 0
    assert int(row["conductor"]) >= 1
    float(row["t"])


def test_trend_rows_are_the_reports_of_each_decade_and_modulus(tmp_path, capsys):
    argv = ["meanvalues", "trend", "--f", "mobius", "--xmax", "200000", "--qs", "3,8",
            "--Q", "10", "--A", "2"]
    rep = run_json(capsys, argv)
    assert rep["config"]["params"] == {"f": "mobius", "qs": [3, 8], "xmax": 200000.0,
                                       "Q": 10, "A": 2.0}
    want = []
    for x in (10**4, 10**5):
        for q in (3, 8):
            r = progression_report(Mobius(), x, q, 10, 2.0, PrimeTable(x))
            want.append({"f": "mobius", "q": q, "x": x,
                         "normalized_max_residual": r.normalized_max_residual,
                         "max_residual": r.max_residual,
                         "conductor": r.exceptional.conductor, "t": r.exceptional.t})
    assert rep["result"] == want
    # the same rows as CSV, chosen by the --out extension
    path = tmp_path / "trend.csv"
    code, out, err = run_cli(capsys, argv + ["--out", str(path)])
    assert (code, out) == (0, ""), err
    rows = _csv_rows(path.read_text())
    assert [(int(r["x"]), int(r["q"]), float(r["normalized_max_residual"])) for r in rows] == \
        [(w["x"], w["q"], w["normalized_max_residual"]) for w in want]


def test_trend_sieves_once(monkeypatch, capsys):
    # one table to the last decade serves every decade and modulus
    limits = []

    def counting(limit):
        limits.append(limit)
        return sieve_primes(limit)

    monkeypatch.setattr("pretentious.arith.sieve_primes", counting)
    code, out, err = run_cli(capsys, ["meanvalues", "trend", "--f", "mobius", "--xmax", "1e5",
                                      "--qs", "3,8", "--Q", "10", "--A", "2", "--format", "csv"])
    assert code == 0, err
    assert len(_csv_rows(out)) == 4
    assert limits == [10**5]


def test_trend_scans_once_per_decade(monkeypatch, capsys):
    # every modulus of a decade is reported against that decade's one scan
    calls = []

    def counting(f, x, *args, **kwargs):
        calls.append(x)
        return find_exceptional(f, x, *args, **kwargs)

    monkeypatch.setattr("pretentious.cli.find_exceptional", counting)
    monkeypatch.setattr("pretentious.meanvalues.find_exceptional", counting)
    code, out, err = run_cli(capsys, ["meanvalues", "trend", "--f", "mobius", "--xmax", "1e5",
                                      "--qs", "3,4,5,8", "--Q", "10", "--A", "2",
                                      "--format", "csv"])
    assert code == 0, err
    assert len(_csv_rows(out)) == 8
    assert calls == [10**4, 10**5]


@pytest.mark.parametrize("q,a", [(4, 3), (5, 1)])
def test_legendre_csv_smallest_scan(capsys, q, a):
    code, out, err = run_cli(capsys, ["sieve", "legendre", "--q", str(q), "--a", str(a),
                                      "--x", "1000", "--p-limit", "100", "--format", "csv"])
    assert code == 0, err
    rows = _csv_rows(out)
    assert rows and list(rows[0]) == ["p", "record_low"]
    lows = [float(r["record_low"]) for r in rows]
    assert all(b < a for a, b in zip(lows, lows[1:]))  # each row is a new record low
    assert all(int(r["p"]) % 2 == 1 for r in rows)
    full = legendre_progression_experiment(q, a, 1000, 100, PrimeTable(1000))
    assert [(int(r["p"]), float(r["record_low"])) for r in rows] == list(full.running)


@pytest.mark.parametrize("flag", ["--q", "--a"])
def test_sieve_legendre_refuses_a_nonpositive_class_at_the_flag(capsys, flag):
    # --q 0 --a 1 would divide by zero, and --a 0 is no unit
    args = {"--q": "4", "--a": "1", "--x": "100", "--p-limit": "50"}
    args[flag] = "0"
    code, out, err = run_cli(capsys, ["sieve", "legendre", "--format", "csv",
                                      *(t for kv in args.items() for t in kv)])
    assert code == 2
    assert out == ""
    assert "expected a positive integer, got 0" in err


_TREND = ["meanvalues", "trend", "--f", "mobius", "--Q", "10", "--A", "2"]
_LEGENDRE = ["sieve", "legendre", "--q", "4", "--a", "3", "--x", "100", "--p-limit", "50",
             "--format", "csv"]


@pytest.mark.parametrize("argv,flag,value,message", [
    pytest.param(_TREND, "--A", "inf", "expected a finite number", id="trend-A-inf"),
    pytest.param(_TREND, "--A", "nan", "expected a finite number", id="trend-A-nan"),
    pytest.param(_TREND, "--xmax", "inf", "expected a finite number", id="trend-xmax-inf"),
    pytest.param(_LEGENDRE, "--x", "inf", "invalid _positive_int value", id="legendre-x-inf"),
    pytest.param(_LEGENDRE, "--p-limit", "nan", "invalid _positive_int value",
                 id="legendre-p-limit-nan"),
])
def test_sweeps_refuse_non_finite_bounds_at_the_flag(capsys, argv, flag, value, message):
    # an infinite --xmax would sweep without end, --A inf overflow the scan
    # grid, and --A nan scan quietly; the Legendre bounds are integers
    code, out, err = run_cli(capsys, [*argv, flag, value])
    assert code == 2
    assert out == ""
    assert f"argument {flag}: {message}" in err


@pytest.mark.parametrize("argv,code,message", [
    pytest.param(["sieve", "legendre", "--q", "4", "--a", "2", "--x", "100", "--p-limit", "50",
                  "--format", "csv"], 3, "error: need gcd(a, q) = 1, got a=2, q=4",
                 id="legendre-gcd"),
    pytest.param([*_TREND[:4], "--xmax", "1e4", "--qs", "3", "--Q", "20000", "--A", "2"], 3,
                 "error: conductor bound must be in [1, 10000], got 20000",
                 id="trend-conductor-bound"),
    pytest.param(["meanvalues", "trend", "--f", "bogus", "--xmax", "1e4", "--Q", "10",
                  "--A", "2"], 2, "error: unrecognized spec 'bogus'", id="trend-bad-spec"),
    pytest.param([*_TREND, "--xmax", "1e4", "--qs", "0"], 2,
                 "argument --qs: expected a positive integer, got 0", id="trend-qs-zero"),
    pytest.param([*_TREND, "--xmax", "1e4", "--qs", "4,x"], 2,
                 "argument --qs: expected comma-separated positive integers, got 4,x",
                 id="trend-qs-malformed"),
])
def test_sweeps_report_errors_in_one_line(capsys, argv, code, message):
    got, out, err = run_cli(capsys, argv)
    assert got == code
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,sieves", [
    pytest.param([*_TREND, "--qs", "3", "--xmax", "1e4", "--Q", "0"], False, id="trend-Q-zero"),
    pytest.param([*_TREND, "--qs", "3", "--xmax", "1e4", "--Q", "20000"], False,
                 id="trend-Q-past-x"),
    pytest.param([*_TREND, "--qs", "3", "--xmax", "1000000000"], False,
                 id="trend-xmax-past-1e8"),
    pytest.param([*_TREND, "--qs", "3", "--xmax", "9999"], False, id="trend-no-decade"),
    # every modulus is checked at x = 10^4 before the first scan
    pytest.param([*_TREND, "--qs", "3,20000", "--xmax", "1e5"], False, id="trend-q-past-x"),
    pytest.param(["meanvalues", "report", "--f", "mobius", "--x", "1000", "--q", "1001",
                  "--Q", "10", "--A", "2", "--format", "csv"], False, id="report-q-past-x"),
    pytest.param(["sieve", "legendre", "--q", "4", "--a", "2", "--x", "100", "--p-limit", "50",
                  "--format", "csv"], False, id="legendre-gcd"),
])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_a_refused_run_writes_nothing(monkeypatch, tmp_path, capsys, argv, sieves, to_file):
    # the trend script once printed its CSV header before the first refusal
    def never(*args):
        raise AssertionError("the sieve started")

    if not sieves:
        monkeypatch.setattr("pretentious.arith.sieve_primes", never)
    path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, argv + (["--out", str(path)] if to_file else []))
    assert code in (2, 3)
    assert out == ""
    assert not path.exists()
    assert err.count("error:") == 1
    assert "Traceback" not in err


# -------------------------------------------------------------- exit codes


def test_exit_2_on_bad_spec(capsys):
    # 0.3.4i has no sign between its real and imaginary parts
    for spec in ("bogus:12", "table:{2:0.3.4i,3:1}"):
        code, _, err = run_cli(capsys, ["meanvalues", "halasz", "--f", spec, "--x", "100"])
        assert code == 2, spec
        assert "error:" in err


def test_exit_3_on_precondition(capsys):
    code, _, err = run_cli(capsys, [
        "meanvalues", "halasz", "--f", "one", "--x", "100", "--T", "0.5",
    ])
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("spec", ["legendre:1000000000000000003", "threshold:1" + "0" * 400])
def test_spec_beyond_the_library_range_exits_3_with_one_line(monkeypatch, capsys, spec):
    # the Legendre modulus was trial-divided for minutes, and the threshold
    # cutoff ended the run in an OverflowError traceback
    def never(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr("pretentious.funcspec.is_prime_small", never)
    code, out, err = run_cli(capsys, ["pretension", "find", "--f", spec, "--x", "1000",
                                      "--Q", "5", "--A", "1"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_4_on_theorem_violation(capsys, monkeypatch):
    def boom(tolerance):
        raise TheoremViolation("forced for the exit-code contract")

    monkeypatch.setattr(cli, "delta1", boom)
    code, _, err = run_cli(capsys, ["constants", "--name", "delta1"])
    assert code == 4
    assert "theorem violation" in err


def test_exit_2_on_unreadable_g_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, [
        "nearchar", "recover", "--q", "5", "--g", str(tmp_path / "absent.txt"),
    ])
    assert code == 2
    assert "cannot read" in err


def test_argparse_rejects_bad_numbers(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["meanvalues", "halasz", "--f", "one", "--x", "-5"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["meanvalues", "euler", "--f", "mobius", "--x", "1000", "--t", "nan"],
    ["constants", "--name", "delta1", "--tol", "nan"],
    ["pretension", "find", "--f", "mobius", "--x", "1000", "--Q", "5", "--A", "inf"],
    ["constants", "--name", "repulsion", "--m", "abc"],
])
def test_argparse_rejects_non_finite_and_malformed_flags(capsys, argv):
    # NaN would reach the report, a NaN tolerance never converges, inf overflows the
    # scan grid, and abc is no order
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_repulsion_order_recorded_as_given(capsys):
    rep = run_json(capsys, ["constants", "--name", "repulsion", "--m", "3"])
    assert rep["config"]["params"]["m"] == "3"
    assert rep["result"]["m"] == 3


@pytest.mark.parametrize("spec, want", [("table:{2:nan,3:1;rule=cm}", 3), ("nit:nan", 2)])
def test_non_finite_spec_value_is_refused(capsys, spec, want):
    # a NaN value fails the |f(p)| <= 1 precondition; a NaN twist is a bad spec
    code, out, err = run_cli(capsys, ["meanvalues", "euler", "--f", spec, "--x", "3"])
    assert code == want
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("command", [["pretension", "find", "--f", "mobius"],
                                     ["meanvalues", "report", "--f", "mobius", "--q", "4"]])
def test_conductor_bound_above_max_modulus_exits_3_before_the_scan(monkeypatch, capsys, command):
    def never(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr("pretentious.arith.sieve_primes", never)
    monkeypatch.setattr("pretentious.pretension.read_prime_values", never)
    monkeypatch.setattr("pretentious.pretension.primitive_characters_upto", never)
    code, out, err = run_cli(capsys, [*command, "--x", "1000", "--Q", "10001", "--A", "1"])
    assert code == 3
    assert out == ""
    assert "conductor bound" in err


@pytest.mark.parametrize("q, x", [("1001", "1000"), ("20000", "100000")])
def test_report_modulus_out_of_range_exits_3_before_the_sieve(monkeypatch, capsys, q, x):
    def never(*args):
        raise AssertionError("the sieve started")

    monkeypatch.setattr("pretentious.arith.sieve_primes", never)
    code, out, err = run_cli(capsys, ["meanvalues", "report", "--f", "mobius", "--q", q,
                                      "--x", x, "--Q", "10", "--A", "2"])
    assert code == 3
    assert out == ""
    assert "q <= min" in err


_SMALL = PrimeTable(2000)


@pytest.mark.parametrize("command, library", [
    (["meanvalues", "halasz", "--f", "mobius", "--x", "100000000", "--T", "0.5"],
     lambda: halasz_bound(Mobius(), 1000, 0.5, _SMALL)),
    (["meanvalues", "euler", "--f", "mobius", "--x", "100000000", "--truncation", "100000001"],
     lambda: euler_product_mean(Mobius(), 1000, _SMALL, truncation=100000001)),
    (["sieve", "bad-moduli", "--f", "mobius", "--x", "99999000", "--q", "5", "--a", "1",
      "--eta", "1.5"],
     lambda: bad_moduli(Mobius(), 1000, 5, 1, 1.5, _SMALL)),
    (["sieve", "bad-moduli", "--f", "mobius", "--x", "99999000", "--q", "5", "--a", "5",
      "--eta", "0.5"],
     lambda: bad_moduli(Mobius(), 1000, 5, 5, 0.5, _SMALL)),
    (["sieve", "legendre", "--q", "6", "--a", "4", "--x", "100000000", "--p-limit", "100"],
     lambda: legendre_progression_experiment(6, 4, 1000, 100, _SMALL)),
    (["sieve", "defect", "--f", "mobius", "--q", "200000000", "--x", "100000000"],
     lambda: multiplicativity_defect(Mobius(), 100000000, 200000000, _SMALL)),
    (["sieve", "defect", "--f", "mobius", "--q", "20011", "--x", "100000000"],
     lambda: multiplicativity_defect(Mobius(), 10**8, 20011, PrimeTable(10**8))),
    (["sieve", "legendre", "--q", "4", "--a", "3", "--x", "100000001", "--p-limit", "100"],
     lambda: legendre_progression_experiment(4, 3, 100000001, 100, _SMALL)),
])
def test_refused_flag_exits_3_before_the_sieve(monkeypatch, capsys, command, library):
    # the library's own check refuses before the prime table sieves, with its message
    with pytest.raises(PreconditionError) as refused:
        library()

    def never(*args):
        raise AssertionError("the sieve started")

    monkeypatch.setattr("pretentious.arith.sieve_primes", never)
    code, out, err = run_cli(capsys, command)
    assert code == 3
    assert out == ""
    assert err == f"error: {refused.value}\n"


def test_bad_moduli_table_stops_where_the_class_values_do(monkeypatch, capsys):
    # n q + a for n <= x // q stops at 99,999,997 <= 10^8, so the scan runs
    # at the top of the range; a real scan would take 2,236 class-sum passes
    # over 2 * 10^7 values, so the library call is stubbed
    limits = []

    def stub(f, x, q, a, eta, table):
        limits.append(table.limit)
        return BadModuliReport(x=x, q=q, a=a, eta=eta, n_terms=0, modulus_bound=1,
                               bad=(), sum_inverse_phi=0.0, large_sieve_bound=1.0,
                               masses=())

    monkeypatch.setattr(cli, "bad_moduli", stub)
    rep = run_json(capsys, ["sieve", "bad-moduli", "--f", "mobius", "--x", "99999999",
                            "--q", "5", "--a", "2", "--eta", "0.3"])
    assert limits == [10**8]
    assert rep["result"]["masses"] is None


def test_bad_moduli_past_the_table_exits_3_before_the_sieve(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the sieve started")

    monkeypatch.setattr("pretentious.arith.sieve_primes", never)
    code, out, err = run_cli(capsys, ["sieve", "bad-moduli", "--f", "mobius", "--x",
                                      "100000000", "--q", "5", "--a", "2", "--eta", "0.3"])
    assert code == 3
    assert out == ""
    assert err == "error: scan needs values up to 100000002; table stops at 100000000\n"


def test_exit_0_is_returned_not_raised(capsys):
    assert cli.main(["constants"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------- nearchar


def _write_g_file(path, q, index, perturb=0.0):
    chi = character_by_index(q, index)
    row = character_row(chi)
    lines = ["# unit values, one per line"]
    for u in unit_group(q).units:
        v = complex(row[int(u)])
        if perturb and u != 1:
            v *= np.exp(1j * perturb)
        lines.append(f"{int(u)}: {float(v.real)!r},{float(v.imag)!r}")
    path.write_text("\n".join(lines) + "\n")


def test_nearchar_recover_round_trip(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    _write_g_file(gfile, 5, 2, perturb=0.05)
    rep = run_json(capsys, ["nearchar", "recover", "--q", "5", "--g", str(gfile)])
    assert rep["result"]["chi"] == "char:5:2"
    assert rep["result"]["epsilon"] <= 0.2
    assert rep["result"]["max_deviation"] <= rep["result"]["uniform_bound"] + 1e-9


def test_nearchar_malformed_line(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    # line 2 is unreadable, has a third number, repeats a unit or names a non-unit
    for bad in ("2: what", "2: 0,1,9", "1: 1,0", "7: 1,0", "0: 1,0", "-3: 1,0"):
        gfile.write_text(f"1: 1,0\n{bad}\n2: -1,0\n3: -1,0\n4: 1,0\n")
        code, _, err = run_cli(capsys, ["nearchar", "recover", "--q", "5", "--g", str(gfile)])
        assert code == 2, bad
        assert f"{gfile}:2:" in err, bad  # diagnostic names the offending line


def test_nearchar_non_finite_value(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("1: nan,0\n2: 1,0\n3: 1,0\n4: 1,0\n")
    code, _, err = run_cli(capsys, ["nearchar", "recover", "--q", "5", "--g", str(gfile)])
    assert code == 3
    assert "finite" in err


def test_nearchar_missing_unit(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("1: 1,0\n2: 1,0\n3: 1,0\n")
    code, _, err = run_cli(capsys, ["nearchar", "recover", "--q", "5", "--g", str(gfile)])
    assert code == 3
    assert "missing value at unit 4" in err


# ------------------------------------------------------------------- chars


def test_chars_list(capsys):
    rep = run_json(capsys, ["chars", "list", "--q", "8"])
    res = rep["result"]
    assert res["q"] == 8 and res["phi"] == 4
    serials = [c["serial"] for c in res["characters"]]
    assert serials == [f"char:8:{i}" for i in range(4)]
    assert res["characters"][0]["is_principal"]
    assert all(c["is_real"] for c in res["characters"])  # (Z/8)* has exponent 2
    conductors = sorted(c["conductor"] for c in res["characters"])
    assert conductors == [1, 4, 8, 8]


def test_chars_conductor_induced(capsys):
    rep = run_json(capsys, ["chars", "conductor", "--q", "9", "--index", "0"])
    res = rep["result"]
    assert res["conductor"] == 1
    assert not res["is_primitive"]
    assert res["primitive_part"] == "char:1:0"


def test_sieve_legendre_verbose_toggle(capsys):
    argv = ["sieve", "legendre", "--q", "4", "--a", "3", "--x", "2000", "--p-limit", "100"]
    quiet = run_json(capsys, argv)
    loud = run_json(capsys, argv + ["--verbose"])
    assert quiet["result"]["running"] == []
    assert len(loud["result"]["running"]) >= 1
    assert quiet["result"]["infimum"] == loud["result"]["infimum"]


_LEGENDRE_AT_1E8 = """
import contextlib, io, json
from pretentious import cli
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    code = cli.main(["sieve", "legendre", "--q", "4", "--a", "3", "--x", "100000000",
                     "--p-limit", "10000"])
out = dict(code=code, result=json.loads(printed.getvalue())["result"])
"""


def test_sieve_legendre_sieves_only_to_the_p_limit(fresh_process):
    # its own process, whose peak RSS is this run's: a sieve to x = 10^8
    # peaked at 124-125 MB for the 1,229 primes below 10^4 that the scan
    # reads; the process itself takes about 31 MB before any table
    out = fresh_process(_LEGENDRE_AT_1E8)
    assert out["code"] == 0
    assert out["rss_mb"] <= 60
    want = legendre_progression_experiment(4, 3, 10**8, 10**4, PrimeTable(10**4))
    assert (out["result"]["infimum"], out["result"]["argmin_p"]) == (want.infimum, want.argmin_p)


@pytest.mark.parametrize("q, a, p_limit", [("4", "3", "2"), ("3", "1", "3")])
def test_sieve_legendre_with_no_prime_to_scan_exits_3(capsys, q, a, p_limit):
    code, out, err = run_cli(capsys, ["sieve", "legendre", "--q", q, "--a", a,
                                      "--x", "100", "--p-limit", p_limit])
    assert code == 3
    assert out == ""
    assert "no odd prime" in err


def test_sieve_bad_moduli_and_defect_verbose_toggle(capsys):
    quiet = run_json(capsys, [
        "sieve", "bad-moduli", "--f", "mobius", "--x", "4000", "--q", "4",
        "--a", "3", "--eta", "0.2",
    ])
    assert quiet["result"]["masses"] is None
    loud = run_json(capsys, [
        "sieve", "bad-moduli", "--f", "mobius", "--x", "4000", "--q", "4",
        "--a", "3", "--eta", "0.2", "--verbose",
    ])
    assert loud["result"]["masses"] is not None
    dq = run_json(capsys, ["sieve", "defect", "--f", "mobius", "--x", "3000", "--q", "5"])
    assert dq["result"]["pairs"] == []
    dv = run_json(capsys, [
        "sieve", "defect", "--f", "mobius", "--x", "3000", "--q", "5", "--verbose",
    ])
    assert len(dv["result"]["pairs"]) == 10


def test_pretension_find_cli(capsys):
    rep = run_json(capsys, [
        "pretension", "find", "--f", "char:5:2", "--x", "1000", "--Q", "5", "--A", "0.5",
    ])
    res = rep["result"]
    assert res["psi"] == "char:5:2"
    assert res["conductor"] == 5
    assert abs(res["t"]) <= 1e-4
    assert res["squared_distance"] <= 1e-6
    assert len(res["spectrum"]) >= 2


def test_meanvalues_euler_truncation_is_prime_cutoff(capsys):
    rep = run_json(capsys, [
        "meanvalues", "euler", "--f", "liouville", "--x", "100000", "--truncation", "1000",
    ])
    assert rep["result"]["truncation"] == 1000
    assert rep["result"]["tail_log_bound"] > 0


# ------------------------------------------------------- README and config


# every CSV header the CLI writes
CSV_HEADERS = {",".join(columns) for columns in
               (cli._REPORT_COLUMNS, cli._TREND_COLUMNS, cli._RECORD_COLUMNS)}


def _readme_cli_commands():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.startswith("pretentious ")]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_g_file(tmp_path / "units.txt", 15, 3, perturb=0.05)
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    if "--out" in argv:
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
    header, _, rows = out.partition("\n")
    if header in CSV_HEADERS:
        width = header.count(",")
        assert rows and all(row.count(",") == width for row in rows.splitlines())
        return
    rep = json.loads(out, parse_constant=_reject_constant)
    assert set(rep) == TOP_KEYS
    assert rep["command"] == " ".join(argv[:1] if argv[0] == "constants" else argv[:2])


def _leaf_parsers(parser, prefix=()):
    """(command name, parser) for every runnable subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


SMALL_RUNS = {
    "constants": ["--name", "repulsion", "--m", "3"],
    "pretension find": ["--f", "mobius", "--x", "1000", "--Q", "3", "--A", "1"],
    "meanvalues report": ["--f", "one", "--x", "1000", "--q", "4", "--Q", "4", "--A", "1"],
    "meanvalues trend": ["--f", "mobius", "--xmax", "10000", "--qs", "3", "--Q", "3",
                         "--A", "1"],
    "meanvalues halasz": ["--f", "mobius", "--x", "1000"],
    "meanvalues euler": ["--f", "mobius", "--x", "1000"],
    "sieve bad-moduli": ["--f", "mobius", "--x", "1000", "--q", "3", "--a", "1", "--eta", "0.5"],
    "sieve defect": ["--f", "mobius", "--x", "1000", "--q", "5"],
    "sieve legendre": ["--q", "4", "--a", "3", "--x", "1000", "--p-limit", "50"],
    "nearchar recover": ["--q", "5", "--g", "g.txt"],
    "chars list": ["--q", "8"],
    "chars eval": ["--q", "5", "--index", "1", "--n", "2"],
    "chars conductor": ["--q", "9", "--index", "0"],
}


def test_small_runs_cover_every_subcommand():
    assert set(SMALL_RUNS) == {name for name, _ in _leaf_parsers(cli.build_parser())}


# the flags the README leaves out of config.params
STEERING_FLAGS = {"out", "threads", "format", "verbose"}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_config_params_are_the_declared_flags(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_g_file(tmp_path / "g.txt", 5, 2)
    parser = dict(_leaf_parsers(cli.build_parser()))[command]
    declared = {a.dest for a in parser._actions if a.option_strings} - {"help"}
    rep = run_json(capsys, command.split() + SMALL_RUNS[command])
    assert rep["command"] == command
    assert set(rep["config"]["params"]) == declared - STEERING_FLAGS
