"""Uniform result rows for inequality checkers.

Every checker in the package reports {lemma, params, lhs, rhs, margin,
status}; a suite passes when no row has status "fail" (hypothesis-gated rows
may be "not-applicable" and still count as clean).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# relative slack for float comparisons of provable inequalities
FLOAT_SLACK = 1e-9


@dataclass
class CheckRow:
    lemma: str
    params: dict
    lhs: float | None
    rhs: float | None
    margin: float | None
    status: str
    note: str

    def to_dict(self) -> dict:
        return asdict(self)


def leq_row(lemma: str, params: dict, lhs, rhs, note: str) -> CheckRow:
    """Row asserting lhs <= rhs, with a small relative slack for floats."""
    lhs_f, rhs_f = float(lhs), float(rhs)
    ok = lhs_f <= rhs_f + FLOAT_SLACK * max(1.0, abs(rhs_f))
    return CheckRow(lemma, params, lhs_f, rhs_f, rhs_f - lhs_f, PASS if ok else FAIL, note)


def exact_leq_row(lemma: str, params: dict, lhs, rhs, note: str) -> CheckRow:
    """Row asserting lhs <= rhs, no float slack."""
    return CheckRow(lemma, params, float(lhs), float(rhs), float(rhs - lhs),
                    PASS if lhs <= rhs else FAIL, note)


def na_row(lemma: str, params: dict, note: str) -> CheckRow:
    return CheckRow(lemma, params, None, None, None, NOT_APPLICABLE, note)


def all_clean(rows) -> bool:
    return all(r.status != FAIL for r in rows)

