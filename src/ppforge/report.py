"""Structured pass/fail reports for the permutation criteria.

Both records are tuple-backed (typing.NamedTuple): immutable, made by one
tuple allocation and read by field name.  The suites call a criterion once
per case, so a report costs what its tuples cost.
"""

from typing import NamedTuple


class Condition(NamedTuple):
    """One hypothesis of a criterion: a label, its truth value, and an
    optional witness explaining a failure (e.g. the offending element)."""

    label: str
    holds: bool
    witness: object = None

    def to_json_dict(self) -> dict:
        out = {"label": self.label, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class ConditionReport(NamedTuple):
    """Ordered condition list plus the conjunction verdict.  `witness` is
    never set here; it stays a field so a report can be rebuilt from its
    three parts, ConditionReport(conditions, verdict, witness)."""

    conditions: tuple
    verdict: bool
    witness: object = None

    @classmethod
    def build(cls, conditions) -> "ConditionReport":
        conds = tuple(conditions)
        return cls(conds, all([c.holds for c in conds]))

    def condition(self, label: str) -> Condition:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)
