"""Multiplicative-coset permutation criteria and family generators.

The maps handled here are of the shape f(x) = x^u * h(x^((q-1)/d)) for a
divisor d of q-1: raising to the power (q-1)/d projects F_q^* onto the group
mu_d of d-th roots of unity, so whether f permutes F_q reduces to a coprime
condition on u and the behaviour of an induced map on the d points of mu_d.
"""

import math
from typing import NamedTuple

from .errors import FieldError, ScopeError
from .field import ADD_TABLE_MAX_Q, Field
from .poly import CyclotomicForm, FqPoly, _collect, _poly, expand_cyclotomic, h_d_poly
from .report import Condition, ConditionReport, shared_conditions

LEMMA_COPRIME = "gcd(u,(q-1)/d)=1"
LEMMA_MU_PERM = "x^u*h(x)^((q-1)/d) permutes mu_d"

T1_COPRIME = "gcd(u,(q-1)/d)=1"
T1_EXP_UNIT = "gcd(d,u+k(q-1)/d)=1"
T1_B_NONZERO = "b!=0"
T1_DTH_POWER = "1+g(1)/b is a d-th power in F_q*"

HERMITE_2A_SQUARE = "2a is a square"
HERMITE_2B_SQUARE = "2b is a square"
HERMITE_COPRIME = "gcd(i*j,q-1)=1"

# the witness-free conditions, indexed by truth value
_LEMMA_COPRIME = shared_conditions(LEMMA_COPRIME)
_LEMMA_MU_PERM = shared_conditions(LEMMA_MU_PERM)
_T1_COPRIME = shared_conditions(T1_COPRIME)
_T1_EXP_UNIT = shared_conditions(T1_EXP_UNIT)
_T1_B_NONZERO = shared_conditions(T1_B_NONZERO)
_T1_DTH_POWER = shared_conditions(T1_DTH_POWER)
_HERMITE_2A_SQUARE = shared_conditions(HERMITE_2A_SQUARE)
_HERMITE_2B_SQUARE = shared_conditions(HERMITE_2B_SQUARE)
_HERMITE_COPRIME = shared_conditions(HERMITE_COPRIME)


def _induced_map(cf: CyclotomicForm) -> tuple:
    """(mu_d, images): the induced map z -> z^u * h(z)^((q-1)/d) on mu_d,
    enumerated with two powers per root; the reference that fhat_on_mu_d
    tabulates, against which lemma_check's index form is tested."""
    field, d = cf.field, cf.d
    m = (field.q - 1) // d
    mu = field.mu_d(d)
    return mu, [field.mul(field.pow(z, cf.u), field.pow(hz, m))
                for z, hz in zip(mu, cf.h.mu_values(d))]


def lemma_check(cf: CyclotomicForm) -> ConditionReport:
    """Decide whether x^u * h(x^((q-1)/d)) permutes F_q.

    Two conditions are necessary and sufficient: gcd(u, (q-1)/d) = 1, and
    the induced map z -> z^u * h(z)^((q-1)/d) being a bijection of mu_d.
    The second is decided in index form: with mu_d ordered as z_j = zeta^j,
    z_j^u is z_(j*u mod d) and h(z_j)^((q-1)/d) is z_(t_j), or 0, with t_j
    kept on h (FqPoly.mu_positions), so z_j maps to z_((j*u + t_j) mod d)
    and the map is a bijection when those d indices are distinct.
    """
    d, u = cf.d, cf.u
    c1 = math.gcd(u, (cf.field.q - 1) // d) == 1
    hit = {(j * u + t) % d for j, t in enumerate(cf.h.mu_positions(d)) if t is not None}
    if len(hit) == d:
        cond2 = _LEMMA_MU_PERM[True]
    else:
        # fewer than d positions hit: the least root at a missed one is named
        missed = min(z for j, z in enumerate(cf.field.mu_d(d)) if j not in hit)
        cond2 = Condition(LEMMA_MU_PERM, False, f"mu_d element {missed} not attained")
    return ConditionReport.build((_LEMMA_COPRIME[c1], cond2))


class Theorem1Params(NamedTuple("Theorem1Params", [("d", int), ("u", int), ("k", int),
                                                    ("b", int), ("g0", FqPoly)])):
    """Parameters of f(x) = x^u * (b*x^(k(q-1)/d) + g(x^((q-1)/d))).

    f is the lemma's x^u * h(x^((q-1)/d)) with h = b*x^k + g (see form).
    g is supplied through its cofactor g0, with g = h_d * g0, which makes
    the required divisibility structural.  b is an element index.  The
    check never forms g: since h_d(1) = d, g(1) = (d mod p) * g0(1).
    A tuple-backed record, validated when it is made.
    """

    __slots__ = ()

    def __new__(cls, d: int, u: int, k: int, b: int, g0: FqPoly):
        field = g0.field
        _validate_d(field, d)
        if u < 1 or k < 0:
            raise ScopeError(f"need u >= 1 and k >= 0, got u={u}, k={k}")
        if not 0 <= b < field.q:
            raise FieldError(f"b={b} is not an element index (q={field.q})")
        return tuple.__new__(cls, (d, u, k, b, g0))

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


def _cond4_outcome(g0: FqPoly, d: int, b: int):
    """Condition (4) of theorem1_check for (d, g0, b): True when it holds,
    else the witness text.  It reads d, g(1) and b only, not u or k."""
    if not b:
        return "b=0: 1+g(1)/b is undefined"
    field = g0.field
    # h_d(1) = d, and p does not divide d since d | q-1
    g1 = field.mul(d % field.p, g0.eval(1))
    val = field.add(1, field.div(g1, b))
    if val == 0:
        return "1+g(1)/b = 0 is zero"
    return field.is_dth_power(val, d) or f"1+g(1)/b = {val} is not a d-th power"


def theorem1_check(params: Theorem1Params) -> ConditionReport:
    """The four-condition permutation criterion for h_d-divisible g.

    Conditions, in order: (1) gcd(u, (q-1)/d) = 1; (2) gcd(d, u + k(q-1)/d)
    = 1; (3) b != 0; (4) 1 + g(1)/b is a d-th power in F_q^*.  Condition (4)
    is evaluated only when b != 0 and recorded false otherwise, so reports
    stay total over the parameter space.  The verdict is equivalent to f
    permuting F_q.

    Condition (4) does not read u or k, so its outcome is computed once per
    (d, g0, b) and kept in a table on g0 (FqPoly._cond4), filled as calls
    reach it and freed with g0, while q <= ADD_TABLE_MAX_Q (at most one
    entry per divisor and element).  The theorem1 suite still calls this once
    per case; a call for another (u, k) costs two gcds and a lookup.  The
    table keeps the witness text, and a failing call builds its own
    Condition from it.
    """
    d, u, k, b, g0 = params
    m = (g0.field.q - 1) // d
    table = g0._cond4.get(d)
    if table is None:
        table = {}
        # kept while q <= ADD_TABLE_MAX_Q, as pow_col's cache is, so that a
        # long walk of b on a large field keeps nothing
        if g0.field.q <= ADD_TABLE_MAX_Q:
            g0._cond4[d] = table
    held = table.get(b)
    if held is None:
        held = table[b] = _cond4_outcome(g0, d, b)
    c1 = math.gcd(u, m) == 1
    c2 = math.gcd(d, u + k * m) == 1
    # the report's tuple is made directly, as ConditionReport.build makes it:
    # where (4) holds, b != 0
    c4 = _T1_DTH_POWER[True] if held is True else tuple.__new__(
        Condition, (T1_DTH_POWER, False, held))
    conds = (_T1_COPRIME[c1], _T1_EXP_UNIT[c2], _T1_B_NONZERO[b != 0], c4)
    return tuple.__new__(ConditionReport, (conds, held is True and c1 and c2, None))


def theorem1_poly(params: Theorem1Params) -> FqPoly:
    """Expanded, exponent-reduced form of the parametrized polynomial."""
    return expand_cyclotomic(params.form(params.g()))


def cofactor_of(field: Field, d: int, g: FqPoly) -> FqPoly:
    """g0 with g = h_d * g0; raises when g is not divisible by h_d.

    h_d is the product of x - z over the d-1 roots z != 1 of mu_d (p does
    not divide d), so g is divisible by h_d iff it vanishes at each of
    them: d-1 evaluations decide it before any long division is made.
    """
    _validate_d(field, d)
    for z in field.mu_d(d)[1:]:
        if g.eval(z):
            raise FieldError(f"g = {g.text()} is not divisible by h_{d}: "
                             f"it does not vanish at the root {z} of h_{d}")
    return g.divmod(h_d_poly(field, d))[0]


def theorem1_generate(field: Field, d: int, u_values=(1,), k_values=(0,),
                      g0s=None, g: FqPoly = None):
    """Emit (params, report, expanded polynomial) for every verdict-true
    tuple, report being the theorem1_check report that admitted it.

    Order is lexicographic in (u, k, b index, g0 position), so output is
    stable.  u_values and k_values are sequences, ranges included; their
    first and last entries are validated before anything is emitted.  An
    explicit g may be given instead of cofactors; it is divided by h_d and
    rejected on a nonzero remainder.  An empty stream is valid, and builds
    no g.

    Each condition is tested in the loop over the axes it reads: (1) once
    per u, (2) once per (u, k), and (3)-(4) by theorem1_check for each b;
    condition (4) is computed on the first (u, k) pass and looked up on g0
    by the later ones.
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
    if not (u_values and k_values and g0s):
        return
    for corner in (0, -1):  # each bound is an interval: the corners validate the grid
        Theorem1Params(d, u_values[corner], k_values[corner], 0, g0s[0])
    m = (field.q - 1) // d
    if m == 1:
        # the only (q-1)-th power is 1, so (4) needs g(1) = 0, that is
        # g0(1) = 0 since p does not divide d
        g0s = tuple(g0 for g0 in g0s if g0.eval(1) == 0)
        if not g0s:
            return
    for u in u_values:
        if math.gcd(u, m) != 1:
            continue
        for k in k_values:
            if math.gcd(d, u + k * m) != 1:
                continue
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


class HermiteParams(NamedTuple("HermiteParams", [("field", Field), ("a", int), ("b", int),
                                                  ("i", int), ("j", int)])):
    """f(x) = a*x^i*(x^((q-1)/2)+1) - b*x^j*(x^((q-1)/2)-1), q odd.

    A tuple-backed record, validated when it is made."""

    __slots__ = ()

    def __new__(cls, field: Field, a: int, b: int, i: int, j: int):
        if field.q % 2 == 0:
            raise ScopeError("the square/non-square split needs odd q")
        if not (0 < a < field.q and 0 < b < field.q):
            raise FieldError("a and b must be nonzero element indices")
        if i < 1 or j < 1:
            raise FieldError("exponents i, j must be positive")
        return tuple.__new__(cls, (field, a, b, i, j))


class HermiteFamily(NamedTuple):
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


def hermite_coeff_ok(field: Field, a: int) -> bool:
    """The coefficient half of hermite_sufficient: 2a is a square."""
    return field.is_dth_power(field.add(a, a), 2)


def hermite_exp_ok(field: Field, i: int) -> bool:
    """The exponent half of hermite_sufficient: gcd(i, q-1) = 1."""
    return math.gcd(i, field.q - 1) == 1


def hermite_sufficient(hp: HermiteParams) -> ConditionReport:
    """The classical sufficient condition: 2a and 2b are squares and
    gcd(ij, q-1) = 1.  Needs no expansion, so it answers at any q."""
    field = hp.field
    return ConditionReport.build((
        _HERMITE_2A_SQUARE[hermite_coeff_ok(field, hp.a)],
        _HERMITE_2B_SQUARE[hermite_coeff_ok(field, hp.b)],
        _HERMITE_COPRIME[hermite_exp_ok(field, hp.i) and hermite_exp_ok(field, hp.j)],
    ))


def hermite_family(hp: HermiteParams) -> HermiteFamily:
    """f = a*x^(i+s) + a*x^i - b*x^(j+s) + b*x^j for s = (q-1)/2: each
    exponent reduced as in FqPoly.reduce_exponents (i, j >= 1, so none is
    0).  Once reduced, i+s never equals i (nor j+s j), i+s equals j
    exactly when i equals j+s, and i+s equals j+s exactly when i equals j.
    So when i differs from j and from j+s the four exponents are distinct,
    and the four terms (a and b are nonzero) are sorted into the
    polynomial; only otherwise are they merged."""
    field, a, b, i, j = hp
    q1 = field.q - 1
    s = q1 // 2
    ri, rj = (i - 1) % q1 + 1, (j - 1) % q1 + 1
    rj_s = (j + s - 1) % q1 + 1
    terms = (((i + s - 1) % q1 + 1, a), (ri, a), (rj_s, field.neg(b)), (rj, b))
    f = _poly(field, sorted(terms)) if ri != rj and ri != rj_s else _collect(field, terms)
    return tuple.__new__(HermiteFamily, (f, field.add(a, a), i, field.add(b, b), j))
