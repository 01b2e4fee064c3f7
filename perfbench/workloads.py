"""The three benchmark workloads and the output summaries the oracle checks.

Each workload runs through the public API only and returns
``{op: {"invariant": ..., "at_seed": ...}}``: one entry per checked
operation.  ``invariant`` holds what must match the reference at every seed;
``at_seed`` holds what is compared only at the reference's own seed.

- ``decompose-1e5``: ``primecusps decompose --N 100000 --A 4`` (z0 = 3 and
  M = primorial(3) by default).  Dominated by ~25k direct ``exp_sum_at``
  evaluations in the cover and the transform checks.
- ``cusps-1e6``: ``primecusps cusps --N 1000000 --A 4 --subset full``.
  Dominated by one 2^25-point FFT spectrum and its memory, with few direct
  evaluations.
- ``exact-sieve``: Fraction arithmetic only -- acceptance criterion 1 (β by
  its Fourier expansion against β direct for n <= 2000 on 27 weight tables),
  the exact doubling scan G(z^2) <= 2 G(z) for z <= 300, and
  ``explicit_estimate_report(ctx, 10000)``.  No FFT, no ``exp_sum_at``.

The seed goes to the CLI's ``--seed`` (it drives the random alphas of the
decompose checks) and permutes the order in which exact-sieve visits its
tables, n values and z values; the work done is the same for every seed.
The ``toy`` scale runs the same code paths at a size the self-tests can
afford.
"""
from __future__ import annotations

import hashlib
import json
import os
import random

from primecusps import arith, cli, gfunctions, sieve

CLI_ARGS = {
    "decompose-1e5": {
        "full": ["decompose", "--N", "100000", "--A", "4"],
        # N = 10^4 needs A = 2: at A = 4 its Bohr set is empty (exit 1)
        "toy": ["decompose", "--N", "10000", "--A", "2", "--grid", "131072"],
    },
    "cusps-1e6": {
        "full": ["cusps", "--N", "1000000", "--A", "4", "--subset", "full"],
        "toy": ["cusps", "--N", "10000", "--A", "4", "--subset", "full",
                "--grid", "131072"],
    },
}

EXACT_PARAMS = {
    "full": {"limit": 120_000, "z0": (2, 3, 5), "z": (20, 30, 50),
             "tau": (1, 5, 7), "n_max": 2000, "doubling_max": 300,
             "report_zmax": 10_000},
    "toy": {"limit": 2000, "z0": (2, 3), "z": (20,), "tau": (1, 5),
            "n_max": 200, "doubling_max": 30, "report_zmax": 1000},
}


def _int_bytes(n: int) -> bytes:
    # str() of an int is capped at 4300 digits; G(z^2) denominators are longer
    return n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)


def _digest(fractions) -> str:
    """Short exact fingerprint of a sequence of Fractions (or ints)."""
    h = hashlib.sha256()
    for f in fractions:
        h.update(_int_bytes(f.numerator) + b"/" + _int_bytes(f.denominator) + b";")
    return h.hexdigest()[:16]


def _cli_invariant(name: str, code: int, doc) -> dict:
    """What the command must reproduce at every seed."""
    out = {"exit": code}
    if doc is None:
        return out
    out["rows"] = [[r["lemma"], r["status"]] for r in doc["checks"]]
    if name == "decompose-1e5":
        m = doc["metrics"]
        out.update(M=doc["M"], z=doc["z"], bohr_size=m["bohr_size"],
                   cover_size=m["cover_size"],
                   h1_violations=m["h1_violations"], sup_grid=doc["sup"]["grid"])
    else:
        out.update(arcs=len(doc["arcs"]), count=doc["count"],
                   count_ok=doc["count_ok"], threshold=doc["threshold"],
                   bound=doc["bound"])
    return out


def run_cli(name: str, seed: int, scale: str):
    """One CLI command in the current directory.  Returns the op summaries
    and the bytes the command wrote."""
    path = f"{name}.json"
    if os.path.exists(path):
        os.remove(path)
    code = cli.main(CLI_ARGS[name][scale] + ["--seed", str(seed), "--output", path])
    doc = None
    size = 0
    if os.path.exists(path):
        size = os.path.getsize(path)
        with open(path) as fh:
            doc = json.load(fh)
    at_seed = None if doc is None else {
        k: v for k, v in doc.items() if k not in ("config", "seed")}
    return {"cli": {"invariant": _cli_invariant(name, code, doc),
                    "at_seed": at_seed}}, size


def _guarded(ops: dict, op: str, fn) -> None:
    """Record fn()'s summary under op; an exception is recorded as the
    op's outcome, which then fails against the reference."""
    try:
        ops[op] = {"invariant": fn()}
    except Exception as err:  # the op fails; the workload carries on
        ops[op] = {"invariant": {"error": f"{type(err).__name__}: {err}"}}


def run_exact(seed: int, scale: str):
    p = EXACT_PARAMS[scale]
    rng = random.Random(seed)
    ctx = arith.build_context(p["limit"])
    ops = {}

    tables = [(z0, z, tau) for z0 in p["z0"] for z in p["z"] for tau in p["tau"]]
    rng.shuffle(tables)
    ns = list(range(1, p["n_max"] + 1))
    rng.shuffle(ns)
    for z0, z, tau in tables:
        def beta_table(z0=z0, z=z, tau=tau):
            weights = sieve.build_weights(ctx, sieve.SieveParams(z0, z, tau))
            fourier = sieve.beta_fourier_many(ctx, weights, ns)
            direct = [sieve.beta_direct(ctx, weights, n) for n in ns]
            return {"keys": len(weights.lam) + len(weights.w),
                    "equal": fourier == direct,
                    "digest": _digest(v for _, v in sorted(zip(ns, direct)))}
        _guarded(ops, f"beta z0={z0} z={z} tau={tau}", beta_table)

    zs = list(range(2, p["doubling_max"] + 1))
    rng.shuffle(zs)
    for z in zs:
        def doubling(z=z):
            gz = gfunctions.g_value(ctx, 1, z)
            gz2 = gfunctions.g_value(ctx, 1, z * z)
            return {"holds": gz2 <= 2 * gz, "digest": _digest((gz, gz2))}
        _guarded(ops, f"doubling z={z}", doubling)

    def report():
        rows = gfunctions.explicit_estimate_report(ctx, p["report_zmax"])
        return {"rows": [[r.lemma, r.status] for r in rows],
                "margins": [r.margin for r in rows]}
    _guarded(ops, "explicit-estimate-report", report)
    return ops, 0


def run(name: str, seed: int, scale: str):
    if name == "exact-sieve":
        return run_exact(seed, scale)
    return run_cli(name, seed, scale)
