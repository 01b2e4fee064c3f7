"""Benchmark of primecusps: three workloads, each in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...       # every workload in turn
    python3 perfbench/run.py --record FILE [--scale toy]  # write a reference

Workloads: decompose-1e5, cusps-1e6, exact-sieve (see workloads.py and
README.md).  With --trace 0 a run first starts SETUP_PROBES processes that
only import, then runs the workload in one fresh process after another until
--seconds of workload time have passed (at least one), and reports medians:

    wall_s       first timed call until the output is checked   [s]
    cpu_s        user + system CPU of the process, same window  [s]
    peak_rss_mb  ru_maxrss of the workload process               [MB]
    setup_s      process start until the first timed call       [s]

With --trace 1 it alternates an untraced and a traced process and reports
the per-layer metrics of tracer.py (medians over the traced processes) plus
trace.overhead_s, traced minus untraced wall_s.  Every process's outputs are
checked against reference.json; the last stdout line is
{"correct", "attempted", "failed", "metrics"}, and the lines before it give
the environment stamp and failed_frac = failed / attempted.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, ".out")

sys.path.insert(0, HERE)
from tracer import LAYER_UNITS  # noqa: E402  (stdlib only)

WORKLOADS = ("decompose-1e5", "cusps-1e6", "exact-sieve")
SCALES = ("full", "toy")
DEFAULT_SEED = 0
SETUP_PROBES = 9
#: a run must end within 180 s; a worker still going after this is killed
WORKER_TIMEOUT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {**LAYER_UNITS, "trace.overhead_s": "s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The caller's environment with every BLAS/OpenMP thread count capped
    at nproc."""
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env.get(var, cap)), cap)))
        except ValueError:
            env[var] = str(cap)
    return env


def environment_stamp(env: dict, numpy_version: str) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_commit": commit, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": nproc(), "cpu": cpu,
            "threads": {var: env[var] for var in THREAD_VARS}}


def spawn(worker_args: list, env: dict) -> dict:
    """Run worker.py in a fresh process and wait for it.  Returns its result
    file plus ``spawned`` (perf_counter just before the start) and the
    process's own ``peak_rss_mb``."""
    os.makedirs(OUT, exist_ok=True)
    fd, result_path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=OUT)
    os.close(fd)
    try:
        spawned = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, "--result", result_path]
                                + worker_args, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=sys.stderr)
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise BenchError(f"worker {worker_args} timed out")
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchError(f"worker {worker_args} exited {proc.returncode}")
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        os.remove(result_path)
    result["spawned"] = spawned
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return result


def worker_args(name, seed, scale, trace, reference) -> list:
    args = ["--workload", name, "--seed", str(seed), "--scale", scale,
            "--trace", str(trace),
            "--workdir", os.path.join(OUT, "work", name, f"trace{trace}")]
    return args + (["--reference", reference] if reference else [])


def run_workload(name, seed, seconds, trace, scale, reference, env) -> dict:
    """One benchmark run: returns the result object and the samples."""
    setup, procs, traced = [], [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(["--setup-only"], env)
            setup.append(probe["ready"] - probe["spawned"])
    elapsed = 0.0
    while True:
        r = spawn(worker_args(name, seed, scale, 0, reference), env)
        procs.append(r)
        setup.append(r["ready"] - r["spawned"])
        elapsed += r["wall_s"]
        if trace:
            t = spawn(worker_args(name, seed, scale, 1, reference), env)
            traced.append(t)
            elapsed += t["wall_s"]
        if elapsed >= seconds:
            break

    med = statistics.median
    if trace:
        values = {m: med(t["layers"][m] for t in traced) for m in LAYER_UNITS}
        values["trace.overhead_s"] = med(
            t["wall_s"] - r["wall_s"] for r, t in zip(procs, traced))
        units = TRACE_UNITS
    else:
        values = {"wall_s": med(r["wall_s"] for r in procs),
                  "cpu_s": med(r["cpu_s"] for r in procs),
                  "peak_rss_mb": med(r["peak_rss_mb"] for r in procs),
                  "setup_s": med(setup)}
        units = END_TO_END_UNITS
    everything = procs + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    for r in everything:
        for line in r["failures"]:
            print(f"FAILED {name}: {line}", file=sys.stderr)
    return {
        "numpy": procs[0]["numpy"],
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {m: {"value": values[m], "unit": units[m]}
                               for m in units}},
        "samples": {"wall_s": [r["wall_s"] for r in procs],
                    "cpu_s": [r["cpu_s"] for r in procs],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in procs],
                    "setup_s": setup,
                    "traced_wall_s": [t["wall_s"] for t in traced]},
    }


def report(name: str, seed: int, trace: int, scale: str, run: dict,
           stamp: dict) -> None:
    """Human-readable lines for one workload, and a result file with the
    environment stamp and every sample."""
    res = run["result"]
    metrics = "  ".join(f"{m}={v['value']:.6g} {v['unit']}"
                        for m, v in res["metrics"].items())
    print(f"{name} seed={seed} trace={trace}: {metrics}  "
          f"failed_frac={res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']}/{res['attempted']})")
    path = os.path.join(OUT, f"result-{name}-{scale}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace, "scale": scale,
                   "env": stamp, **run}, fh, indent=1)


def record(path: str, scale: str, env: dict) -> None:
    """Record every workload's op summaries at DEFAULT_SEED as a reference."""
    recorded = {}
    for name in WORKLOADS:
        r = spawn(worker_args(name, DEFAULT_SEED, scale, 0, None), env)
        errors = [f"{op}: {v['invariant']['error']}" for op, v in r["ops"].items()
                  if "error" in v["invariant"]]
        if errors:
            raise BenchError(f"{name}: {len(errors)} ops raised while recording, "
                             f"first {errors[0]}")
        recorded[name] = r["ops"]
        print(f"recorded {name}: {len(r['ops'])} ops", file=sys.stderr)
    with open(path, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "scale": scale, "workloads": recorded},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="toy: the self-tests' small sizes")
    ap.add_argument("--reference", default=REFERENCE)
    ap.add_argument("--record", metavar="FILE",
                    help="record a reference at the default seed instead")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "primecusps", "__init__.py")):
        print(f"error: no primecusps sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.record:
            record(args.record, args.scale, env)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if not os.path.isfile(args.reference):
            raise BenchError(f"no reference file {args.reference}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            run = run_workload(name, args.seed, args.seconds, args.trace,
                               args.scale, args.reference, env)
            stamp = environment_stamp(env, run.pop("numpy"))
            print("env " + json.dumps(stamp, sort_keys=True))
            report(name, args.seed, args.trace, args.scale, run, stamp)
            results[name] = run["result"]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
