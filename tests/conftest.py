"""Shared prime tables, built once per session, a fill-width patch, and a
runner of scripts in a fresh process that reports its peak memory.

The medium table carries a small margin past 10^6 because progression class
values for x = 10^6, q = 5 reach n*q + a = 10^6 + 1.
"""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pretentious
from pretentious import funcspec
from pretentious.arith import PrimeTable

# appended to every fresh-process script: its dict `out`, with the process's
# own peak RSS in MB
_PRINT_WITH_PEAK = """
import json as _json
try:
    with open("/proc/self/status") as _fh:
        _peak = next(int(l.split()[1]) for l in _fh if l.startswith("VmHWM:")) / 1024
except OSError:
    import resource as _resource
    _peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss / 1024
print(_json.dumps(dict(out, rss_mb=_peak)))
"""


@pytest.fixture(scope="session")
def table_small():
    return PrimeTable(2 * 10**4)


@pytest.fixture(scope="session")
def table_medium():
    return PrimeTable(10**6 + 8)


@pytest.fixture(scope="session")
def table_large():
    return PrimeTable(10**7)


@pytest.fixture(scope="session")
def block_width():
    """block_width(w) is a context in which every fill block is w wide, int8
    ones included, so that small x still spans many blocks."""

    @contextlib.contextmanager
    def patched(width: int):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(funcspec, "FILL_BLOCK_WIDTH", width)
            mp.setattr(funcspec, "SIGN_FILL_BLOCK_WIDTH", width)
            yield

    return patched


@pytest.fixture(scope="session")
def fresh_process():
    """fresh_process(script) runs script in a new Python process on this
    checkout's src and returns the dict `out` the script builds, with
    rss_mb, the process's own peak RSS in MB.  The peak is read as VmHWM
    where there is one: ru_maxrss keeps the high-water mark of the process
    that forked the child across exec, so under pytest it reads at least
    the test runner's own peak."""
    src = str(Path(pretentious.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(script: str) -> dict:
        proc = subprocess.run([sys.executable, "-c", script + _PRINT_WITH_PEAK],
                              capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout)

    return run
