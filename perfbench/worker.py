"""Run one workload once, in the fresh process that run.py starts.

    python3 perfbench/worker.py --workload NAME --seed N --scale full|toy
        --trace 0|1 --workdir DIR --result FILE [--reference FILE]
    python3 perfbench/worker.py --setup-only --result FILE

The result file receives ``ready`` (time.perf_counter, CLOCK_MONOTONIC, when
the first timed call is about to start), ``wall_s`` and ``cpu_s`` from then
until the output is checked, the op summaries, the oracle's verdict and, with
--trace 1, the per-layer metrics.  --setup-only stops after the imports, so
that run.py can sample set-up time without running the workload.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import numpy  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402  (imports primecusps and every layer)
from run import SCALES, WORKLOADS  # noqa: E402


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", choices=SCALES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--result", required=True)
    ap.add_argument("--reference", default=None,
                    help="reference file; without it the run only records")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result_path = os.path.abspath(args.result)
    if args.setup_only:
        _write_json(result_path, {"ready": time.perf_counter()})
        return 0
    if args.workload is None or args.workdir is None:
        ap.error("--workload and --workdir are required")

    reference = None
    if args.reference:
        with open(args.reference) as fh:
            ref_file = json.load(fh)
        if ref_file["scale"] != args.scale:
            ap.error(f"reference is for scale {ref_file['scale']!r}")
        reference = {"seed": ref_file["seed"],
                     "ops": ref_file["workloads"][args.workload]}
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)

    tr = tracer.Tracer().install() if args.trace else None
    ready = time.perf_counter()
    cpu0 = _cpu_seconds()
    ops, output_bytes = workloads.run(args.workload, args.seed, args.scale)
    ops = json.loads(json.dumps(ops))
    attempted, failures = (len(ops), []) if reference is None else \
        oracle.check(ops, reference, args.seed)
    wall = time.perf_counter() - ready
    cpu = _cpu_seconds() - cpu0

    result = {"ready": ready, "wall_s": wall, "cpu_s": cpu,
              "numpy": numpy.__version__,
              "attempted": attempted, "failed": len(failures),
              "failures": failures, "ops": ops}
    if tr is not None:
        tr.uninstall()
        result["layers"] = tr.metrics(output_bytes)
        _write_json(f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, **tr.dump()})
    _write_json(result_path, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
