"""Uniform result rows for inequality checkers.

Every checker in the package reports {lemma, params, lhs, rhs, margin,
status}; a suite passes when no row has status "fail" (hypothesis-gated rows
may be "not-applicable" and still count as clean).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# relative slack for float comparisons of provable inequalities
FLOAT_SLACK = 1e-9


@dataclass
class CheckRow:
    lemma: str
    params: dict = field(default_factory=dict)
    lhs: float | None = None
    rhs: float | None = None
    margin: float | None = None
    status: str = PASS
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def leq_row(lemma: str, params: dict, lhs, rhs, note: str) -> CheckRow:
    """Row asserting lhs <= rhs, with a small relative slack for floats."""
    lhs_f, rhs_f = float(lhs), float(rhs)
    slack = FLOAT_SLACK * max(1.0, abs(rhs_f))
    ok = lhs_f <= rhs_f + slack
    return CheckRow(
        lemma=lemma,
        params=params,
        lhs=lhs_f,
        rhs=rhs_f,
        margin=rhs_f - lhs_f,
        status=PASS if ok else FAIL,
        note=note,
    )


def exact_leq_row(lemma: str, params: dict, lhs, rhs, note: str) -> CheckRow:
    """Row asserting lhs <= rhs, no float slack."""
    ok = lhs <= rhs
    return CheckRow(
        lemma=lemma,
        params=params,
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(rhs - lhs),
        status=PASS if ok else FAIL,
        note=note,
    )


def na_row(lemma: str, params: dict, note: str) -> CheckRow:
    return CheckRow(lemma=lemma, params=params, status=NOT_APPLICABLE, note=note)


def all_clean(rows) -> bool:
    return all(r.status != FAIL for r in rows)

