"""Smoke tests for the sweep scripts in scripts/.

Each script runs in its own interpreter at its smallest size; the test
checks the exit code and that stdout is CSV under the documented header.
"""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _launch(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def _run_script(name: str, *args: str) -> list[dict]:
    proc = _launch(name, *args)
    assert proc.returncode == 0, proc.stderr
    return list(csv.DictReader(io.StringIO(proc.stdout)))


def test_residual_trend_smallest_sweep():
    rows = _run_script("residual_trend.py", "--xmax", "1e4", "--qs", "3")
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == ["f", "q", "x", "normalized_max_residual", "max_residual",
                         "conductor", "t"]
    assert (row["f"], row["q"], row["x"]) == ("mobius", "3", "10000")
    assert float(row["normalized_max_residual"]) >= 0
    assert int(row["conductor"]) >= 1
    float(row["t"])


@pytest.mark.parametrize("q,a", [(4, 3), (5, 1)])
def test_legendre_infimum_smallest_scan(q, a):
    rows = _run_script("legendre_infimum.py", "--q", str(q), "--a", str(a),
                       "--x", "1e3", "--p-limit", "100")
    assert rows and list(rows[0]) == ["p", "record_low"]
    lows = [float(r["record_low"]) for r in rows]
    assert lows == sorted(lows, reverse=True)  # each row is a new record low
    assert all(int(r["p"]) % 2 == 1 for r in rows)


@pytest.mark.parametrize("flag", ["--q", "--a"])
def test_legendre_infimum_refuses_a_nonpositive_class_at_the_flag(flag):
    # --q 0 --a 1 used to end in a ZeroDivisionError traceback, and --a 0 in
    # a PreconditionError one
    args = {"--q": "4", "--a": "1", "--x": "100", "--p-limit": "50"}
    args[flag] = "0"
    proc = _launch("legendre_infimum.py", *(t for kv in args.items() for t in kv))
    assert proc.returncode == 2, proc.stderr
    assert "expected a positive integer, got 0" in proc.stderr


@pytest.mark.parametrize("name,flag,value", [
    ("residual_trend.py", "--A", "inf"),
    ("residual_trend.py", "--A", "nan"),
    ("residual_trend.py", "--xmax", "inf"),
    ("legendre_infimum.py", "--x", "inf"),
    ("legendre_infimum.py", "--p-limit", "nan"),
])
def test_scripts_refuse_non_finite_bounds(name, flag, value):
    # an infinite --xmax used to sweep without end, --A inf to end in an
    # OverflowError, and --A nan to scan quietly
    proc = _launch(name, flag, value)
    assert proc.returncode == 2, proc.stderr
    assert "expected a finite number" in proc.stderr


@pytest.mark.parametrize("name,args,code,message", [
    ("legendre_infimum.py", ["--q", "4", "--a", "2", "--x", "100", "--p-limit", "50"], 3,
     "error: need gcd(a, q) = 1, got a=2, q=4"),
    ("residual_trend.py", ["--xmax", "1e4", "--qs", "3", "--Q", "0"], 3,
     "error: conductor bound must be in [1, 10000], got 0"),
    ("residual_trend.py", ["--xmax", "1e4", "--f", "bogus"], 2,
     "error: unrecognized spec 'bogus'"),
    ("residual_trend.py", ["--xmax", "1e4", "--qs", "0"], 2,
     "argument --qs: expected a positive integer, got 0"),
    ("residual_trend.py", ["--xmax", "1e4", "--qs", "4,x"], 2,
     "argument --qs: expected comma-separated positive integers, got 4,x"),
])
def test_scripts_report_errors_as_the_cli_does(name, args, code, message):
    # each of these used to end in a traceback
    proc = _launch(name, *args)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
