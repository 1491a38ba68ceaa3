"""Structured pass/fail reports for the permutation criteria.

Both records are tuple-backed (typing.NamedTuple): immutable and read by
field name.  A condition without a witness is one of two records per label,
made once (shared_conditions) and picked by its truth value, so a criterion
builds a Condition only when it names a witness.  ConditionReport.build
makes its tuple directly, without the NamedTuple constructor, and takes the
conjunction in C.  A report therefore costs one tuple for its conditions
and one for itself.
"""

from operator import itemgetter
from typing import NamedTuple

_holds = itemgetter(1)
_tuple_new = tuple.__new__


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


def shared_conditions(label: str) -> tuple:
    """The two witness-free conditions of a label, indexed by truth value:
    shared_conditions(label)[holds] == Condition(label, holds)."""
    return Condition(label, False), Condition(label, True)


class ConditionReport(NamedTuple):
    """Ordered condition list plus the conjunction verdict.  `witness` is
    never set here; it stays a field so a report can be rebuilt from its
    three parts, ConditionReport(conditions, verdict, witness)."""

    conditions: tuple
    verdict: bool
    witness: object = None

    @classmethod
    def build(cls, conditions) -> "ConditionReport":
        """The report of any iterable of conditions, a generator included;
        equal to cls(conds, all(c.holds for c in conds))."""
        conds = tuple(conditions)
        return _tuple_new(cls, (conds, all(map(_holds, conds)), None))

    def condition(self, label: str) -> Condition:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)
