"""Structured pass/fail reports for the permutation criteria."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Condition:
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


@dataclass(frozen=True)
class ConditionReport:
    """Ordered condition list plus the conjunction verdict.  `witness` is
    never set here; it stays a field so a report can be rebuilt from its
    three parts."""

    conditions: tuple
    verdict: bool
    witness: object = None

    @classmethod
    def build(cls, conditions) -> "ConditionReport":
        conds = tuple(conditions)
        return cls(conds, all(c.holds for c in conds))

    def condition(self, label: str) -> Condition:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)
