"""Spans around the public calls into each ppforge module, from outside.

A `Tracer` replaces a chosen set of functions and methods with timing
wrappers and restores the originals on `uninstall`.  A function is rebound in
every ppforge namespace that holds it (the package re-exports most names,
and `oracle` and `cli` import the criteria by name), and a method is patched
on its class, so no call path slips past the wrapper.

Spans are aggregated per (group, parent group) as [calls, seconds, seconds
covered by child spans]: the suites make millions of per-case calls, and the
aggregate keeps memory bounded while still giving each group its self time.
"""

import functools
import sys
import time

PACKAGE = "ppforge"

# (module, qualified name, group).  The group is the layer metric prefix.
SPAN_TARGETS = (
    ("cyclotomic", "lemma_check", "cyclotomic.check"),
    ("cyclotomic", "theorem1_check", "cyclotomic.check"),
    ("cyclotomic", "hermite_family", "cyclotomic.check"),
    ("report", "ConditionReport.build", "report.build"),
    ("additive", "subgroup_data", "additive.subgroup_data"),
    ("additive", "proposition_check", "additive.check"),
    ("additive", "necessary_conditions_check", "additive.check"),
    ("additive", "commuting_criterion_check", "additive.check"),
    ("additive", "trace_theorem_check", "additive.check"),
    ("poly", "format_poly", "poly.format"),
    ("poly", "parse_poly", "poly.parse"),
    ("poly", "parse_additive", "poly.parse"),
    ("poly", "FqPoly.substituted_power", "poly.expand"),
    ("poly", "FqPoly.shifted", "poly.expand"),
    ("poly", "FqPoly.compose", "poly.expand"),
    ("poly", "FqPoly.reduce_exponents", "poly.expand"),
    ("poly", "AdditivePoly.expand", "poly.expand"),
    ("oracle", "run_equivalence_suite", "oracle.suite"),
    ("oracle", "lemma_h_corpus", "oracle.corpus"),
    ("oracle", "theorem1_g0_corpus", "oracle.corpus"),
    ("oracle", "additive_poly_corpus", "oracle.corpus"),
    ("oracle", "arbitrary_g_corpus", "oracle.corpus"),
    ("oracle", "prime_field_additive_corpus", "oracle.corpus"),
    ("oracle", "prime_coeff_poly_corpus", "oracle.corpus"),
    ("oracle", "trace_g_corpus", "oracle.corpus"),
    ("oracle", "is_permutation", "oracle.is_permutation"),
    ("oracle", "EquivalenceReport.record", "oracle.record"),
    ("field", "make_field", "field.make_field"),
    ("field", "Field.tables", "field.tables"),
    ("field", "FieldTables.pow_col", "field.col_ops"),
    ("field", "FieldTables.mul_cols", "field.col_ops"),
    ("field", "FieldTables.add_cols", "field.col_ops"),
    ("field", "FieldTables.scalar_mul", "field.col_ops"),
    ("field", "FieldTables.eval_col", "field.eval_col"),
    ("cli", "main", "cli.main"),
)

# Counted but not timed, so their time stays in the caller's self time.
COUNT_TARGETS = (
    ("cli", "_emit"),
)


class Tracer:
    def __init__(self):
        self.spans = {}      # (group, parent group or None) -> [calls, s, child s]
        self.calls = {}      # "module.qualname" -> calls
        self.tables = {}     # id -> FieldTables returned by Field.tables
        self._stack = []     # open spans: [group, child seconds]
        self._patches = []   # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self):
        for mod, qualname, group in SPAN_TARGETS:
            self._patch(mod, qualname, lambda key, fn, g=group: self._span(g, key, fn))
        for mod, qualname in COUNT_TARGETS:
            self._patch(mod, qualname, self._count)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, mod, qualname, make):
        module = sys.modules[f"{PACKAGE}.{mod}"]
        key = f"{mod}.{qualname}"
        self.calls.setdefault(key, 0)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(key, raw.__func__))
            else:
                wrapped = make(key, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, qualname)
        wrapped = make(key, original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, attr, value))
                    setattr(other, attr, wrapped)

    def _count(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, group, key, fn):
        spans, calls, stack, clock = self.spans, self.calls, self._stack, time.perf_counter
        keep_tables = key == "field.Field.tables"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1] if stack else None
            frame = [group, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                pgroup = None
                if parent is not None:
                    parent[1] += dt
                    pgroup = parent[0]
                agg = spans.get((group, pgroup))
                if agg is None:
                    agg = spans[(group, pgroup)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[1]
            if keep_tables:
                self.tables[id(result)] = result
            return result
        return wrapper

    # -- read-out ---------------------------------------------------------------

    def group_calls(self, group: str) -> int:
        return sum(a[0] for (g, _), a in self.spans.items() if g == group)

    def group_seconds(self, group: str) -> float:
        """Wall time inside the group, counting a span nested in its own
        group once."""
        return sum(a[1] for (g, parent), a in self.spans.items()
                   if g == group and parent != group)

    def group_self_seconds(self, group: str) -> float:
        """Time inside the group not covered by any wrapped call it made."""
        return sum(a[1] - a[2] for (g, parent), a in self.spans.items()
                   if g == group and parent != group)

    def tables_bytes(self) -> int:
        """Bytes of every numpy array held by the FieldTables handed out,
        cached power columns included."""
        total = 0
        for t in self.tables.values():
            for slot in type(t).__slots__:
                value = getattr(t, slot, None)
                if hasattr(value, "nbytes") and value.base is None:
                    total += value.nbytes
            total += sum(col.nbytes for col in t._pow_cache.values())
        return total

    def span_table(self) -> list:
        return [{"group": g, "parent": p, "calls": a[0], "s": a[1], "child_s": a[2]}
                for (g, p), a in sorted(self.spans.items(), key=lambda kv: -kv[1][1])]
