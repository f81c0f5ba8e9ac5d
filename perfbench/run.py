#!/usr/bin/env python3
"""Benchmark of the pretentious library, one seeded workload per run.

    python3 perfbench/run.py --workload twist-scan --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # all four, one table

A run sets up (imports, prime tables, cache warm-up), then repeats the
workload's pass of queries until --seconds have elapsed (at least one pass),
checking every output outside the timed blocks. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it first runs the same workload and seed
untraced in a child process (for trace.overhead_frac), then runs the same
passes again with span wrappers installed and reports the per-layer metrics.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}; the lines before it list every metric with its unit and the run's
provenance, and the full record goes to .perfbench_out/. Exit status: 0 when
every check passed, 1 when a query failed, 2 when the benchmark cannot run.
See perfbench/METRICS.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAUNCHER = Path(__file__).resolve().parent / "launch_cli.py"
WORKLOAD_NAMES = ("twist-scan", "progression", "large-sieve", "cli-sweep")
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 170


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="minimum length of the query phase (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time setup_s)")
    return p.parse_args(argv)


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _pin_environment() -> dict:
    """Single-threaded BLAS/OpenMP and the checkout's source first on the path,
    for this process (set before numpy loads) and every child."""
    for cap in THREAD_CAPS:
        os.environ[cap] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


def _make_workload(name: str, env: dict, traced: bool = False):
    import workloads

    if name == "cli-sweep":
        if traced:
            return workloads.CliSweep(ROOT, env, LAUNCHER, OUT / f"cli-spans-{os.getpid()}.json")
        return workloads.CliSweep(ROOT, env)
    return workloads.WORKLOADS[name]()


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pretentious").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "thread_caps": {cap: os.environ.get(cap) for cap in THREAD_CAPS},
    }


def _time_setup(args) -> list[float]:
    """Process start to 'ready' for fresh setup-only processes."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return samples


def _run_passes(workload, args, tracer, passes: int | None) -> tuple[list[dict], int]:
    """Run whole passes until --seconds have elapsed, or exactly `passes`."""
    import numpy as np
    import workloads

    records: list[dict] = []
    done = 0
    start = time.perf_counter()
    while True:
        if passes is None and done and time.perf_counter() - start >= args.seconds:
            break
        if passes is not None and done >= passes:
            break
        rng = np.random.default_rng([args.seed, done])
        for query in workload.pass_queries(rng):
            sw = workloads.Stopwatch()
            out = None
            rec = {"pass": done, "kind": query.kind, "query": query.describe()}
            try:
                if tracer is None:
                    out = workload.run(query, sw)
                else:
                    tracer.query = len(records)
                    tracer.enabled = True
                    try:
                        with tracer.span("bench.query"):
                            out = workload.run(query, sw)
                    finally:
                        tracer.enabled = False
                rec["failures"] = workload.check(query, out)
            except Exception as exc:  # a failed query is counted, not fatal
                rec["failures"] = [f"raised {type(exc).__name__}: {exc}"]
            rec["seconds"] = sw.total
            records.append(rec)
        done += 1
    return records, done


def _untraced_baseline(args) -> dict:
    """Run the same workload and seed untraced in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"untraced run failed (exit {proc.returncode}): {proc.stderr[-500:]}")
    with open(_result_path(args.workload, args.seed, 0)) as fh:
        return json.load(fh)


def _result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"result-{workload}-seed{seed}-trace{trace}.json"


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


def run_one(args, env) -> int:
    bench = _benchmark_spec()
    baseline = _untraced_baseline(args) if args.trace else None

    import pretentious

    if Path(pretentious.__file__).resolve().parent != SRC / "pretentious":
        print(f"perfbench: imported pretentious from {pretentious.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    workload = _make_workload(args.workload, env, traced=tracer is not None)
    workload.setup()

    with tracing.WarningLog() as wlog:
        if tracer is not None:
            workload.tracer = tracer
            workload.warning_records = wlog.records
            tracer.install()
            tracer.enabled = False
            try:
                records, passes = _run_passes(workload, args, tracer, baseline["passes"])
            finally:
                tracer.uninstall()
        else:
            records, passes = _run_passes(workload, args, None, None)

    times = [r["seconds"] for r in records]
    failed = sum(1 for r in records if r["failures"])
    wall = sum(times) / passes
    detail = {"provenance": _provenance(args), "passes": passes, "records": records,
              "warnings": wlog.records, "fail_frac": failed / len(records)}
    if tracer is None:
        if args.workload == "cli-sweep":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup = _time_setup(args)
        detail["setup_samples"] = setup
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "query_s.p50": statistics.median(times),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        declared = bench["end_to_end"]
    else:
        values = tracing.layer_metrics(tracer.spans, wlog.records)
        values["trace.overhead_frac"] = wall / baseline["metrics"]["wall_s"]["value"] - 1.0
        detail["untraced_wall_s"] = baseline["metrics"]["wall_s"]["value"]
        declared = bench["per_layer"]
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"spans": tracer.spans, "warnings": wlog.records}, fh)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    detail["metrics"] = metrics
    detail["all_layer_metrics"] = values if tracer is not None else None
    with open(_result_path(args.workload, args.seed, args.trace), "w") as fh:
        json.dump(detail, fh, indent=1)

    mode = "traced" if args.trace else "untraced"
    _print_metrics(f"perfbench {args.workload} seed={args.seed} {mode}: {passes} pass(es), "
                   f"{len(records)} queries, query_s.p50 over n={len(records)}", metrics)
    print(f"  fail_frac  {failed}/{len(records)} = {failed / len(records):.6g}")
    for rec in records:
        for msg in rec["failures"]:
            print(f"  FAILED {rec['query'][:120]}: {msg}")
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            status = 1
            print(f"perfbench {name}: exit {proc.returncode} {proc.stderr[-500:]}")
        if lines and proc.returncode in (0, 1):
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "pretentious" / "__init__.py").is_file():
        print(f"perfbench: library source src/pretentious not found under {ROOT}",
              file=sys.stderr)
        return 2
    env = _pin_environment()
    if args.setup_probe:
        _make_workload(args.workload, env).setup()
        print("ready", flush=True)
        return 0
    if args.seconds is None:
        args.seconds = float(_benchmark_spec()["run_seconds"])
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, env)


if __name__ == "__main__":
    sys.exit(main())
