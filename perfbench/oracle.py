"""Compare a workload's op summaries with the recorded reference.

Strings, integers, booleans and structure must match exactly.  Floats match
within the tolerances the package states: REEVAL_TOL = 1e-6 (relative, the
direct re-evaluation tolerance in cusps.py) and FLOAT_SLACK = 1e-9
(absolute, the float slack in report.py).  They are frozen here so that a
change to the package's constants cannot loosen the benchmark's check.
"""
from __future__ import annotations

import math

REL_TOL = 1e-6
ABS_TOL = 1e-9


def same(got, ref) -> bool:
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(ref, bool):
            return False
        if not (isinstance(got, (int, float)) and isinstance(ref, (int, float))):
            return False
        return math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(ref, dict):
        return (isinstance(got, dict) and got.keys() == ref.keys()
                and all(same(got[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(same(g, r) for g, r in zip(got, ref)))
    return type(got) is type(ref) and got == ref


def check(ops: dict, reference: dict, seed: int) -> tuple[int, list[str]]:
    """(ops attempted, one line per failed op).  ``reference`` holds this
    workload's recorded ops and the seed they were recorded at."""
    ref_ops = reference["ops"]
    at_ref_seed = seed == reference["seed"]
    failures = []
    for op in sorted(set(ops) | set(ref_ops)):
        got, ref = ops.get(op), ref_ops.get(op)
        if got is None or ref is None:
            failures.append(f"{op}: {'missing' if got is None else 'not in the reference'}")
        elif not same(got["invariant"], ref["invariant"]):
            failures.append(f"{op}: invariant differs: {got['invariant']!r:.300}")
        elif at_ref_seed and not same(got.get("at_seed"), ref.get("at_seed")):
            failures.append(f"{op}: output at the reference seed differs")
    return len(set(ops) | set(ref_ops)), failures
