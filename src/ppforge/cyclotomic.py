"""Multiplicative-coset permutation criteria and family generators.

The maps handled here are of the shape f(x) = x^u * h(x^((q-1)/d)) for a
divisor d of q-1: raising to the power (q-1)/d projects F_q^* onto the group
mu_d of d-th roots of unity, so whether f permutes F_q reduces to a coprime
condition on u and the behaviour of an induced map on the d points of mu_d.
"""

import math
from dataclasses import dataclass

from .errors import FieldError, ScopeError
from .field import Field
from .poly import CyclotomicForm, FqPoly, _collect, expand_cyclotomic, h_d_poly
from .report import Condition, ConditionReport

LEMMA_COPRIME = "gcd(u,(q-1)/d)=1"
LEMMA_MU_PERM = "x^u*h(x)^((q-1)/d) permutes mu_d"

T1_COPRIME = "gcd(u,(q-1)/d)=1"
T1_EXP_UNIT = "gcd(d,u+k(q-1)/d)=1"
T1_B_NONZERO = "b!=0"
T1_DTH_POWER = "1+g(1)/b is a d-th power in F_q*"

HERMITE_2A_SQUARE = "2a is a square"
HERMITE_2B_SQUARE = "2b is a square"
HERMITE_COPRIME = "gcd(i*j,q-1)=1"


def _induced_map(cf: CyclotomicForm) -> tuple:
    """(mu_d, images): the induced map z -> z^u * h(z)^((q-1)/d) on mu_d."""
    field = cf.field
    m = (field.q - 1) // cf.d
    mu = field.mu_d(cf.d)
    return mu, [field.mul(field.pow(z, cf.u), field.pow(cf.h.eval(z), m)) for z in mu]


def lemma_check(cf: CyclotomicForm) -> ConditionReport:
    """Decide whether x^u * h(x^((q-1)/d)) permutes F_q.

    Two conditions are necessary and sufficient: gcd(u, (q-1)/d) = 1, and
    the induced map z -> z^u * h(z)^((q-1)/d) being a bijection of mu_d.
    The second is decided by direct enumeration of the d images.
    """
    c1 = math.gcd(cf.u, (cf.field.q - 1) // cf.d) == 1
    mu, image = _induced_map(cf)
    c2 = sorted(image) == sorted(mu)
    witness = None
    if not c2:
        missing = sorted(set(mu) - set(image))
        witness = f"mu_d element {missing[0]} not attained" if missing else "image leaves mu_d"
    return ConditionReport.build((
        Condition(LEMMA_COPRIME, c1),
        Condition(LEMMA_MU_PERM, c2, witness),
    ))


@dataclass(frozen=True)
class Theorem1Params:
    """Parameters of f(x) = x^u * (b*x^(k(q-1)/d) + g(x^((q-1)/d))).

    f is the lemma's x^u * h(x^((q-1)/d)) with h = b*x^k + g (see form).
    g is supplied through its cofactor g0, with g = h_d * g0, which makes
    the required divisibility structural.  b is an element index.  The
    check never forms g: since h_d(1) = d, g(1) = (d mod p) * g0(1).
    """

    d: int
    u: int
    k: int
    b: int
    g0: FqPoly

    def __post_init__(self):
        field = self.field
        _validate_d(field, self.d)
        if self.u < 1 or self.k < 0:
            raise ScopeError(f"need u >= 1 and k >= 0, got u={self.u}, k={self.k}")
        if not 0 <= self.b < field.q:
            raise FieldError(f"b={self.b} is not an element index (q={field.q})")

    @property
    def field(self) -> Field:
        return self.g0.field

    def g(self) -> FqPoly:
        """h_d * g0; ExpansionTooLargeError when h_d is past the guard."""
        return h_d_poly(self.field, self.d) * self.g0

    def form(self, g: FqPoly) -> CyclotomicForm:
        """The lemma's form of f, given g = self.g()."""
        return CyclotomicForm(self.u, self.d, FqPoly.monomial(self.field, self.b, self.k) + g)


def _validate_d(field: Field, d: int):
    if d <= 2:
        raise ScopeError(f"d={d} is out of scope: the four-condition criterion needs d > 2")
    if (field.q - 1) % d != 0:
        raise ScopeError(f"d={d} does not divide q-1={field.q - 1}")


def theorem1_check(params: Theorem1Params) -> ConditionReport:
    """The four-condition permutation criterion for h_d-divisible g.

    Conditions, in order: (1) gcd(u, (q-1)/d) = 1; (2) gcd(d, u + k(q-1)/d)
    = 1; (3) b != 0; (4) 1 + g(1)/b is a d-th power in F_q^*.  Condition (4)
    is evaluated only when b != 0 and recorded false otherwise, so reports
    stay total over the parameter space.  The verdict is equivalent to f
    permuting F_q.
    """
    field = params.field
    d, u, k, b = params.d, params.u, params.k, params.b
    m = (field.q - 1) // d
    c1 = math.gcd(u, m) == 1
    c2 = math.gcd(d, u + k * m) == 1
    c3 = b != 0
    if c3:
        # h_d(1) = d, and p does not divide d since d | q-1
        g1 = field.mul(d % field.p, params.g0.eval(1))
        val = field.add(1, field.div(g1, b))
        c4 = val != 0 and field.is_dth_power(val, d)
        witness4 = None if c4 else (f"1+g(1)/b = {val} is zero" if val == 0
                                    else f"1+g(1)/b = {val} is not a d-th power")
    else:
        c4 = False
        witness4 = "b=0: 1+g(1)/b is undefined"
    return ConditionReport.build((
        Condition(T1_COPRIME, c1),
        Condition(T1_EXP_UNIT, c2),
        Condition(T1_B_NONZERO, c3),
        Condition(T1_DTH_POWER, c4, witness4),
    ))


def theorem1_poly(params: Theorem1Params) -> FqPoly:
    """Expanded, exponent-reduced form of the parametrized polynomial."""
    return expand_cyclotomic(params.form(params.g()))


def cofactor_of(field: Field, d: int, g: FqPoly) -> FqPoly:
    """g0 with g = h_d * g0; raises when g is not divisible by h_d."""
    quot, rem = g.divmod(h_d_poly(field, d))
    if not rem.is_zero():
        raise FieldError(f"g = {g.text()} is not divisible by h_{d}; "
                         f"remainder {rem.text()}")
    return quot


def theorem1_generate(field: Field, d: int, u_values=(1,), k_values=(0,),
                      g0s=None, g: FqPoly = None):
    """Emit (params, report, expanded polynomial) for every verdict-true
    tuple, report being the theorem1_check report that admitted it.

    Order is lexicographic in (u, k, b index, g0 position), so output is
    stable.  An explicit g may be given instead of cofactors; it is divided
    by h_d and rejected on a nonzero remainder.  An empty stream is valid,
    and builds no g.
    """
    gs = {}  # g0 -> h_d * g0, built when g0 first yields a polynomial
    if g is not None:
        if g0s is not None:
            raise FieldError("pass either g0s or an explicit g, not both")
        g0s = (cofactor_of(field, d, g),)
        gs[g0s[0]] = g
    if g0s is None:
        g0s = (FqPoly.one(field),)
    g0s = tuple(g0s)
    _validate_d(field, d)
    for u in u_values:
        for k in k_values:
            for b in field.elements():
                for g0 in g0s:
                    params = Theorem1Params(d, u, k, b, g0)
                    report = theorem1_check(params)
                    if report.verdict:
                        if g0 not in gs:
                            gs[g0] = params.g()
                        yield params, report, expand_cyclotomic(params.form(gs[g0]))


def fhat_on_mu_d(params: Theorem1Params):
    """Tabulate the induced map on mu_d: z -> z^u * (b*z^k + g(z))^((q-1)/d).

    On mu_d minus {1} this collapses to the monomial b^((q-1)/d) *
    z^(u+k(q-1)/d) because g vanishes there; the table is computed honestly
    from the defining expression so that invariant can be tested.
    """
    return list(zip(*_induced_map(params.form(params.g()))))


@dataclass(frozen=True)
class HermiteParams:
    """f(x) = a*x^i*(x^((q-1)/2)+1) - b*x^j*(x^((q-1)/2)-1), q odd."""

    field: Field
    a: int
    b: int
    i: int
    j: int

    def __post_init__(self):
        if self.field.q % 2 == 0:
            raise ScopeError("the square/non-square split needs odd q")
        if not (0 < self.a < self.field.q and 0 < self.b < self.field.q):
            raise FieldError("a and b must be nonzero element indices")
        if self.i < 1 or self.j < 1:
            raise FieldError("exponents i, j must be positive")


@dataclass(frozen=True)
class HermiteFamily:
    """Expanded polynomial plus its piecewise description.

    On nonzero squares the map is square_coeff * x^square_exp; on
    non-squares it is nonsquare_coeff * x^nonsquare_exp.  Whether it
    permutes is judged apart from building it, by hermite_sufficient.
    """

    poly: FqPoly
    square_coeff: int
    square_exp: int
    nonsquare_coeff: int
    nonsquare_exp: int


def hermite_sufficient(hp: HermiteParams) -> ConditionReport:
    """The classical sufficient condition: 2a and 2b are squares and
    gcd(ij, q-1) = 1.  Needs no expansion, so it answers at any q."""
    field = hp.field
    return ConditionReport.build((
        Condition(HERMITE_2A_SQUARE, field.is_dth_power(field.add(hp.a, hp.a), 2)),
        Condition(HERMITE_2B_SQUARE, field.is_dth_power(field.add(hp.b, hp.b), 2)),
        Condition(HERMITE_COPRIME, math.gcd(hp.i * hp.j, field.q - 1) == 1),
    ))


def hermite_family(hp: HermiteParams) -> HermiteFamily:
    """f = a*x^(i+s) + a*x^i - b*x^(j+s) + b*x^j for s = (q-1)/2: its four
    terms merged once, then exponent-reduced."""
    field, a, b, s = hp.field, hp.a, hp.b, (hp.field.q - 1) // 2
    f = _collect(field, ((hp.i + s, a), (hp.i, a), (hp.j + s, field.neg(b)),
                         (hp.j, b))).reduce_exponents()
    return HermiteFamily(f, field.add(a, a), hp.i, field.add(b, b), hp.j)
