"""Additive-coset permutation criteria.

For additive A and B, the map f(x) = A(x) + g(B(x)) respects cosets of
ker B, so whether f permutes F_q comes down to how the induced map on im B
interacts with the subgroup A(ker B).  The machinery here reads kernels,
images, right inverses and cosets off the maps' values at every element
(AdditivePoly.values(), built from the basis images by F_p-linearity),
decides the coset criterion and its corollaries, and builds the
low-degree families obtained from the trace map.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FieldError, ScopeError
from .field import Field
from .poly import AdditivePoly, FqPoly, additive_commutes, trace_poly
from .report import Condition, ConditionReport, shared_conditions

PROP_COVER = "A(ker B) + fhat(im B) = F_q"
NEC_A_INJ = "A is injective on ker B"
NEC_FHAT_INJ = "fhat is injective on im B"
# the first condition of corollary 2 and, with B the trace map, of the
# trace theorem
A_PERM = "A permutes ker B"
COR2_IM_PERM = "A(x)+B(g(x)) permutes im B"
TRACE_FP_PERM = "B(g(x))+h(x)*A(x) permutes F_p"
TRACE_NO_ROOTS = "h has no roots in F_p"

# the witness-free conditions, indexed by truth value
_PROP_COVER = shared_conditions(PROP_COVER)
_NEC_A_INJ = shared_conditions(NEC_A_INJ)
_NEC_FHAT_INJ = shared_conditions(NEC_FHAT_INJ)
_A_PERM = shared_conditions(A_PERM)
_COR2_IM_PERM = shared_conditions(COR2_IM_PERM)
_TRACE_FP_PERM = shared_conditions(TRACE_FP_PERM)
_TRACE_NO_ROOTS = shared_conditions(TRACE_NO_ROOTS)


class AdditiveTriple(NamedTuple("AdditiveTriple", [("A", AdditivePoly), ("B", AdditivePoly),
                                                    ("g", FqPoly)])):
    """The data of f(x) = A(x) + g(B(x)).

    A tuple-backed record, validated when it is made.
    """

    __slots__ = ()

    def __new__(cls, A: AdditivePoly, B: AdditivePoly, g: FqPoly):
        if not (A.field == B.field == g.field):
            raise FieldError("A, B and g must live over the same field")
        return tuple.__new__(cls, (A, B, g))

    @property
    def field(self) -> Field:
        return self.A.field


@dataclass(frozen=True)
class SubgroupData:
    """Kernel/image data of B together with A's action on it.

    right_inverse maps each value in im B to a preimage (least index by
    default); a_of_right_inverse caches A applied to those preimages, and
    a_kernel_image is the subgroup A(ker B).  coset labels every element
    with the least element of its coset of A(ker B), so coset[x] == x
    exactly at the coset representatives.  commutes says whether A and B
    commute, the hypothesis of the commuting criterion, read on the n basis
    elements t^i (additive_commutes).  A and B at every element are
    A.values() and B.values().
    """

    kernel: tuple
    image: tuple
    right_inverse: dict
    a_kernel_image: tuple
    a_of_right_inverse: dict
    coset: tuple
    commutes: bool


def subgroup_data(A: AdditivePoly, B: AdditivePoly, *, preimage: str = "least") -> SubgroupData:
    """Kernel, image and right inverse of B, and A's action on them, read
    from their values at every element, B.values() and A.values().

    The coset labels take q more additions: walking F_q upwards, each
    element not yet labelled is the least of its coset and labels the whole
    coset.

    preimage selects which representative the right inverse table stores:
    "least" (canonical) or "greatest" (used to test that the coset criterion
    does not depend on the choice).
    """
    if preimage not in ("least", "greatest"):
        raise FieldError(f"unknown preimage rule {preimage!r}")
    field = A.field
    if field != B.field:
        raise FieldError("A and B must live over the same field")
    bv, av = B.values(), A.values()
    kernel = tuple(x for x, v in enumerate(bv) if v == 0)
    # the last preimage written for a value is the one kept
    pairs = enumerate(bv) if preimage == "greatest" else reversed(tuple(enumerate(bv)))
    rinv = {v: x for x, v in pairs}
    image = tuple(sorted(rinv))
    a_kernel_image = tuple(sorted({av[beta] for beta in kernel}))
    coset = [None] * field.q
    add = field.add
    for x in field.elements():
        if coset[x] is None:
            for s in a_kernel_image:
                coset[add(x, s)] = x
    a_of_rinv = {gamma: av[rinv[gamma]] for gamma in image}
    return SubgroupData(kernel, image, rinv, a_kernel_image, a_of_rinv, tuple(coset),
                        additive_commutes(A, B))


def _fhat_values(tr: AdditiveTriple, data: SubgroupData) -> list:
    """fhat(gamma) = g(gamma) + A(Bhat(gamma)) for gamma in im B, in image order."""
    add, gv = tr.field.add, tr.g.values()
    return [add(gv[gamma], data.a_of_right_inverse[gamma]) for gamma in data.image]


def proposition_check(tr: AdditiveTriple, *, data: SubgroupData = None) -> ConditionReport:
    """Coset criterion: f = A(x) + g(B(x)) permutes F_q iff the sumset
    A(ker B) + fhat(im B) is all of F_q.

    The sumset is the union of the cosets of A(ker B) that fhat hits, and
    |ker B| * |im B| = q, so it covers F_q exactly when A is injective on
    ker B and fhat hits |im B| distinct cosets: an O(|im B|) test against
    the coset labels.  The witness of a failure is the least element left
    uncovered, the least coset label that fhat misses.

    data is an optional subgroup_data(A, B), shared across g; g is read
    from g.values().
    """
    if data is None:
        data = subgroup_data(tr.A, tr.B)
    coset = data.coset
    hit = {coset[v] for v in _fhat_values(tr, data)}
    if len(data.a_kernel_image) == len(data.kernel) and len(hit) == len(data.image):
        return ConditionReport.build((_PROP_COVER[True],))
    witness = next(x for x, c in enumerate(coset) if c == x and x not in hit)
    return ConditionReport.build((Condition(PROP_COVER, False, witness),))


def necessary_conditions_check(tr: AdditiveTriple, *,
                               data: SubgroupData = None) -> ConditionReport:
    """The two injectivity conditions that every permuting triple satisfies:
    A injective on ker B, and fhat injective on im B."""
    if data is None:
        data = subgroup_data(tr.A, tr.B)
    c1 = len(data.a_kernel_image) == len(data.kernel)
    c2 = len(set(_fhat_values(tr, data))) == len(data.image)
    return ConditionReport.build((_NEC_A_INJ[c1], _NEC_FHAT_INJ[c2]))


def commuting_criterion_check(tr: AdditiveTriple, *,
                              data: SubgroupData = None) -> ConditionReport:
    """When A and B commute: f permutes F_q iff A permutes ker B and
    A(x) + B(g(x)) permutes im B.

    Raises ScopeError when A and B do not commute (the criterion does not
    apply), as data.commutes records.  data is an optional
    subgroup_data(A, B), shared across g.
    """
    if data is None:
        data = subgroup_data(tr.A, tr.B)
    if not data.commutes:
        raise ScopeError("A and B do not commute; the commuting criterion does not apply")
    add = tr.field.add
    c1 = data.a_kernel_image == data.kernel
    av, bv, gv = tr.A.values(), tr.B.values(), tr.g.values()
    c2 = sorted(add(av[gamma], bv[gv[gamma]]) for gamma in data.image) == list(data.image)
    return ConditionReport.build((_A_PERM[c1], _COR2_IM_PERM[c2]))


def triple_poly(tr: AdditiveTriple) -> FqPoly:
    """Expanded, exponent-reduced form of A(x) + g(B(x))."""
    bx = tr.B.expand()
    return (tr.A.expand() + tr.g.compose(bx)).reduce_exponents()


# ---------------------------------------------------------------------------
# trace-based construction


@functools.lru_cache(maxsize=None)
def _trace_map(field: Field) -> tuple:
    """The trace map's values, trace_poly(field).values(), and its kernel,
    made once per field."""
    tv = trace_poly(field).values()
    return tv, tuple(x for x, v in enumerate(tv) if v == 0)


class TraceTheoremParams(NamedTuple("TraceTheoremParams", [("g", FqPoly), ("A", AdditivePoly),
                                                            ("h", FqPoly)])):
    """f(x) = g(B(x)) + h(B(x)) * A(x) with B the trace polynomial.

    A and h must have all coefficients in the prime subfield; g is arbitrary.
    A tuple-backed record, validated when it is made.
    """

    __slots__ = ()

    def __new__(cls, g: FqPoly, A: AdditivePoly, h: FqPoly):
        if not (g.field == A.field == h.field):
            raise FieldError("g, A and h must live over the same field")
        if not A.coefficients_in_prime_field():
            raise FieldError("A has a coefficient outside F_p")
        if not h.coefficients_in_prime_field():
            raise FieldError("h has a coefficient outside F_p")
        return tuple.__new__(cls, (g, A, h))

    @property
    def field(self) -> Field:
        return self.g.field


def trace_theorem_check(tp: TraceTheoremParams) -> ConditionReport:
    """Criterion for f = g(B(x)) + h(B(x))*A(x) with B the trace map.

    Three conditions: A permutes ker B; the map c -> B(g(c)) + h(c)*A(c)
    permutes F_p; and h has no roots in F_p.  Together they are equivalent
    to f permuting F_q.  Prime fields are refused: with a trivial trace
    kernel the no-roots condition stops being necessary, so the three
    conditions no longer characterize permutations there.  g and h are
    read on F_p only (prime_values), A on ker B and F_p from its values
    (A.values()), and the trace map from its values, made once per field
    (_trace_map).  The first condition reads A alone: it is decided once per
    A object and kept on it (AdditivePoly._trace_perm).
    """
    field = tp.field
    if field.n == 1:
        raise ScopeError("the trace criterion needs a proper extension (n >= 2)")
    tv, kernel = _trace_map(field)
    A = tp.A
    c1 = A._trace_perm
    if c1 is None:
        c1 = A._trace_perm = sorted(map(A.values().__getitem__, kernel)) == list(kernel)
    av, gv, hv = A.prime_values(), tp.g.prime_values(), tp.h.prime_values()
    add, mul, fp = field.add, field.mul, range(field.p)
    c2 = sorted(add(tv[gv[c]], mul(hv[c], av[c])) for c in fp) == list(fp)
    root = hv.index(0) if 0 in hv else None
    return ConditionReport.build((
        _A_PERM[c1],
        _TRACE_FP_PERM[c2],
        _TRACE_NO_ROOTS[True] if root is None
        else Condition(TRACE_NO_ROOTS, False, f"h({root}) = 0"),
    ))


def trace_theorem_poly(tp: TraceTheoremParams) -> FqPoly:
    """Expanded, exponent-reduced form of g(B(x)) + h(B(x)) * A(x)."""
    bx = trace_poly(tp.field).expand()
    return (tp.g.compose(bx) + tp.h.compose(bx) * tp.A.expand()).reduce_exponents()


def gamma_search(field: Field) -> int:
    """Least-index gamma with gamma^(p-1) = -1 in a degree-2 extension.

    Such a gamma exists for every odd p since 2(p-1) divides p^2-1.  The
    indices below p are F_p, where gamma^(p-1) = 1, so the search starts at
    p.  For p = 2 the equation collapses to gamma = 1 = -1 having no effect,
    so the search is refused as not applicable.
    """
    if field.n != 2:
        raise ScopeError("gamma_search needs a degree-2 extension")
    if field.p == 2:
        raise ScopeError("not applicable in characteristic 2: -1 = 1 makes "
                         "gamma^(p-1) = -1 vacuous")
    target = field.neg(1)
    for gamma in range(field.p, field.q):
        if field.pow(gamma, field.p - 1) == target:
            return gamma
    raise FieldError("no gamma found; unreachable for odd p")  # defensive


def example_family(field: Field, h: FqPoly) -> FqPoly:
    """x + gamma * h(x^p + x) over F_{p^2}: always a permutation.

    h must have coefficients in F_p; gamma is the canonical gamma_search
    value.  With h = x^2 the degree is 2p, on the order of sqrt(q).
    """
    if h.field != field:
        raise FieldError("h must live over the given field")
    if not h.coefficients_in_prime_field():
        raise FieldError("h has a coefficient outside F_p")
    gamma = gamma_search(field)
    tx = trace_poly(field).expand()
    return (FqPoly.x(field) + h.compose(tx).scaled(gamma)).reduce_exponents()
