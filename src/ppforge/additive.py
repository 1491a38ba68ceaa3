"""Additive-coset permutation criteria.

For additive A and B, the map f(x) = A(x) + g(B(x)) respects cosets of
ker B, so whether f permutes F_q comes down to how the induced map on im B
interacts with the subgroup A(ker B).  The machinery here computes kernels,
images, right inverses and cosets by exhaustive evaluation, decides the
coset criterion and its corollaries, and builds the low-degree families
obtained from the trace map.
"""

import functools
from dataclasses import dataclass

from .errors import FieldError, ScopeError
from .field import Field, check_expansion
from .poly import AdditivePoly, FqPoly, additive_commutes, trace_poly
from .report import Condition, ConditionReport

PROP_COVER = "A(ker B) + fhat(im B) = F_q"
NEC_A_INJ = "A is injective on ker B"
NEC_FHAT_INJ = "fhat is injective on im B"
COR2_A_PERM = "A permutes ker B"
COR2_IM_PERM = "A(x)+B(g(x)) permutes im B"
TRACE_A_PERM = "A permutes ker B"
TRACE_FP_PERM = "B(g(x))+h(x)*A(x) permutes F_p"
TRACE_NO_ROOTS = "h has no roots in F_p"


@dataclass(frozen=True)
class AdditiveTriple:
    """The data of f(x) = A(x) + g(B(x))."""

    A: AdditivePoly
    B: AdditivePoly
    g: FqPoly

    def __post_init__(self):
        if not (self.A.field == self.B.field == self.g.field):
            raise FieldError("A, B and g must live over the same field")

    @property
    def field(self) -> Field:
        return self.A.field


@dataclass(frozen=True)
class SubgroupData:
    """Kernel/image data of B together with A's action on it.

    right_inverse maps each value in im B to a preimage (least index by
    default); a_of_right_inverse caches A applied to those preimages, and
    a_kernel_image is the subgroup A(ker B).  a_on_image is A on im B, in
    image order.
    """

    kernel: tuple
    image: tuple
    right_inverse: dict
    a_kernel_image: tuple
    a_of_right_inverse: dict
    a_on_image: tuple


def subgroup_data(A: AdditivePoly, B: AdditivePoly, *, preimage: str = "least") -> SubgroupData:
    """Exhaustively evaluate B (and A where needed) over the field.

    preimage selects which representative the right inverse table stores:
    "least" (canonical) or "greatest" (used to test that the coset criterion
    does not depend on the choice).
    """
    if preimage not in ("least", "greatest"):
        raise FieldError(f"unknown preimage rule {preimage!r}")
    field = A.field
    if field != B.field:
        raise FieldError("A and B must live over the same field")
    check_expansion(field.work(0, field.q), f"a walk of F_q for q={field.q}")
    rinv: dict[int, int] = {}
    kernel = []
    for x in field.elements():
        v = B.eval(x)
        if v == 0:
            kernel.append(x)
        if preimage == "greatest" or v not in rinv:
            rinv[v] = x
    image = tuple(sorted(rinv))
    a_kernel_image = tuple(sorted({A.eval(beta) for beta in kernel}))
    a_of_rinv = {gamma: A.eval(rinv[gamma]) for gamma in image}
    a_on_image = tuple(A.eval(gamma) for gamma in image)
    return SubgroupData(tuple(kernel), image, rinv, a_kernel_image, a_of_rinv, a_on_image)


def _fhat_values(tr: AdditiveTriple, data: SubgroupData, g_on_image=None) -> list:
    """fhat(gamma) = g(gamma) + A(Bhat(gamma)) for gamma in im B, in image order."""
    field = tr.field
    if g_on_image is None:
        g_on_image = {gamma: tr.g.eval(gamma) for gamma in data.image}
    return [field.add(g_on_image[gamma], data.a_of_right_inverse[gamma])
            for gamma in data.image]


def proposition_check(tr: AdditiveTriple, *, data: SubgroupData = None,
                      g_on_image: dict = None) -> ConditionReport:
    """Coset criterion: f = A(x) + g(B(x)) permutes F_q iff the sumset
    A(ker B) + fhat(im B) is all of F_q.

    data and g_on_image are optional precomputed caches (pure functions of
    (A, B) and (B, g) respectively); passing them changes nothing but speed.
    """
    if data is None:
        data = subgroup_data(tr.A, tr.B)
    field = tr.field
    q = field.q
    fhat = _fhat_values(tr, data, g_on_image)
    covered = set()
    add = field.add
    for s in data.a_kernel_image:
        for v in fhat:
            covered.add(add(s, v))
    ok = len(covered) == q
    witness = None if ok else min(set(range(q)) - covered)
    return ConditionReport.build((Condition(PROP_COVER, ok, witness),))


def necessary_conditions_check(tr: AdditiveTriple, *, data: SubgroupData = None,
                               g_on_image: dict = None) -> ConditionReport:
    """The two injectivity conditions that every permuting triple satisfies:
    A injective on ker B, and fhat injective on im B."""
    if data is None:
        data = subgroup_data(tr.A, tr.B)
    c1 = len(data.a_kernel_image) == len(data.kernel)
    fhat = _fhat_values(tr, data, g_on_image)
    c2 = len(set(fhat)) == len(data.image)
    return ConditionReport.build((
        Condition(NEC_A_INJ, c1),
        Condition(NEC_FHAT_INJ, c2),
    ))


def commuting_criterion_check(tr: AdditiveTriple, *, data: SubgroupData = None,
                              g_on_image: dict = None,
                              verified_commuting: bool = False) -> ConditionReport:
    """When A and B commute: f permutes F_q iff A permutes ker B and
    A(x) + B(g(x)) permutes im B.

    Raises ScopeError when A and B do not commute (the criterion does not
    apply).  verified_commuting skips the exhaustive re-check for callers
    that already filtered on it.
    """
    if not verified_commuting and not additive_commutes(tr.A, tr.B):
        raise ScopeError("A and B do not commute; the commuting criterion does not apply")
    if data is None:
        data = subgroup_data(tr.A, tr.B)
    field = tr.field
    c1 = data.a_kernel_image == data.kernel
    if g_on_image is None:
        g_on_image = {gamma: tr.g.eval(gamma) for gamma in data.image}
    vals = sorted(field.add(a_gamma, tr.B.eval(g_on_image[gamma]))
                  for gamma, a_gamma in zip(data.image, data.a_on_image))
    c2 = vals == list(data.image)
    return ConditionReport.build((
        Condition(COR2_A_PERM, c1),
        Condition(COR2_IM_PERM, c2),
    ))


def triple_poly(tr: AdditiveTriple) -> FqPoly:
    """Expanded, exponent-reduced form of A(x) + g(B(x))."""
    bx = tr.B.expand()
    return (tr.A.expand() + tr.g.compose(bx)).reduce_exponents()


# ---------------------------------------------------------------------------
# trace-based construction


@functools.lru_cache(maxsize=None)
def _trace_kernel(field: Field) -> tuple:
    check_expansion(field.work(0, field.q), f"a walk of F_q for q={field.q}")
    B = trace_poly(field)
    return tuple(x for x in field.elements() if B.eval(x) == 0)


@functools.lru_cache(maxsize=256)
def _permutes_trace_kernel(A: AdditivePoly) -> bool:
    kernel = _trace_kernel(A.field)
    return sorted(A.eval(beta) for beta in kernel) == list(kernel)


@dataclass(frozen=True)
class TraceTheoremParams:
    """f(x) = g(B(x)) + h(B(x)) * A(x) with B the trace polynomial.

    A and h must have all coefficients in the prime subfield; g is arbitrary.
    """

    g: FqPoly
    A: AdditivePoly
    h: FqPoly

    def __post_init__(self):
        if not (self.g.field == self.A.field == self.h.field):
            raise FieldError("g, A and h must live over the same field")
        if not self.A.coefficients_in_prime_field():
            raise FieldError("A has a coefficient outside F_p")
        if not self.h.coefficients_in_prime_field():
            raise FieldError("h has a coefficient outside F_p")

    @classmethod
    def gamma_delta(cls, h: FqPoly, A: AdditivePoly, gamma: int,
                    delta: int) -> "TraceTheoremParams":
        """Preset g = gamma*h + delta (gamma, delta element indices)."""
        g = h.scaled(gamma) + FqPoly.constant(h.field, delta)
        return cls(g, A, h)

    @property
    def field(self) -> Field:
        return self.g.field


def trace_theorem_check(tp: TraceTheoremParams) -> ConditionReport:
    """Criterion for f = g(B(x)) + h(B(x))*A(x) with B the trace map.

    Three conditions: A permutes ker B; the map c -> B(g(c)) + h(c)*A(c)
    permutes F_p; and h has no roots in F_p.  Together they are equivalent
    to f permuting F_q.  Prime fields are refused: with a trivial trace
    kernel the no-roots condition stops being necessary, so the three
    conditions no longer characterize permutations there.
    """
    field = tp.field
    if field.n == 1:
        raise ScopeError("the trace criterion needs a proper extension (n >= 2)")
    B = trace_poly(field)
    c1 = _permutes_trace_kernel(tp.A)
    p = field.p
    vals = sorted(field.add(B.eval(tp.g.eval(c)), field.mul(tp.h.eval(c), tp.A.eval(c)))
                  for c in range(p))
    c2 = vals == list(range(p))
    root = next((c for c in range(p) if tp.h.eval(c) == 0), None)
    c3 = root is None
    return ConditionReport.build((
        Condition(TRACE_A_PERM, c1),
        Condition(TRACE_FP_PERM, c2),
        Condition(TRACE_NO_ROOTS, c3, None if c3 else f"h({root}) = 0"),
    ))


def trace_theorem_poly(tp: TraceTheoremParams) -> FqPoly:
    """Expanded, exponent-reduced form of g(B(x)) + h(B(x)) * A(x)."""
    bx = trace_poly(tp.field).expand()
    return (tp.g.compose(bx) + tp.h.compose(bx) * tp.A.expand()).reduce_exponents()


def gamma_search(field: Field) -> int:
    """Least-index gamma with gamma^(p-1) = -1 in a degree-2 extension.

    Such a gamma exists for every odd p since 2(p-1) divides p^2-1.  For
    p = 2 the equation collapses to gamma = 1 = -1 having no effect, so the
    search is refused as not applicable.
    """
    if field.n != 2:
        raise ScopeError("gamma_search needs a degree-2 extension")
    if field.p == 2:
        raise ScopeError("not applicable in characteristic 2: -1 = 1 makes "
                         "gamma^(p-1) = -1 vacuous")
    target = field.neg(1)
    for gamma in field.units():
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
