"""Sparse polynomials and additive (p-power) polynomials over a Field.

FqPoly stores its nonzero terms: (exponent, coefficient) pairs in ascending
order of exponent, each coefficient the index of a nonzero element.  The
zero polynomial has no terms and its degree is reported as -1 (standing in
for minus infinity).  Nothing is allocated by degree, so x^(10^12) is one
term.  Only the constructions that multiply terms out, products (and so
composition), long division and h_d, can grow past the expansion guard
(field.EXPANSION_MAX_TERMS); they refuse to with ExpansionTooLargeError.
The walk of F_q, values(), is weighed against the same guard by what it
costs; both classes make it once per object and keep it, and keep the map
on F_p the same way (prime_values, sliced from the walk when it is made).
FqPoly walks with one eval per element, weighed as q powers; AdditivePoly
evaluates only its n basis images A(t^i) and builds the rest by
F_p-linearity, weighed as n powers and q additions.  FqPoly evaluates
itself on the d-th roots of unity (mu_values) and keeps, once per d, the
position in mu_d of each value raised to (q-1)/d (mu_positions), which the
lemma reads.
A Theorem 1 cofactor g0 also keeps, in _cond4, the outcome of that
theorem's condition (4) per (d, b), filled by cyclotomic.theorem1_check,
and an additive map keeps, in _trace_perm, whether it permutes the kernel
of the trace map, filled by additive.trace_theorem_check.

AdditivePoly keeps the coefficient vector of sum_i a_i * x^(p^i).  It is
never expanded implicitly, so the additive structure stays visible in the
data; expansion to an FqPoly is an explicit step.

Text grammar (shared with the CLI):  poly := term ('+' term)*,
term := coeff ['*' 'x' ['^' exp]] | 'x' ['^' exp], where coeff is the
integer index of a field element.  Whitespace is ignored everywhere.
"""

import heapq
import re
from typing import NamedTuple

from .errors import FieldError, PolyParseError, ScopeError
from .field import Field, check_expansion


class _Walked:
    """The map at every element, kept in _values, and on F_p, kept in _fp;
    each class makes its walk of F_q in _walk, which weighs it against the
    expansion guard first."""

    __slots__ = ("_values", "_fp")

    def values(self) -> tuple:
        """The map at every element, indexed by element: one walk of F_q,
        made on the first call and kept on this object."""
        if self._values is None:
            self._values = self._walk()
        return self._values

    def prime_values(self) -> tuple:
        """The map at 0, 1, .., p-1, the prime subfield: sliced from the
        walk of F_q when it is made, p evals otherwise; made on the first
        call and kept on this object."""
        if self._fp is None:
            p, vals = self.field.p, self._values
            self._fp = vals[:p] if vals is not None else tuple(map(self.eval, range(p)))
        return self._fp


class FqPoly(_Walked):
    """Polynomial over F_q held as its nonzero terms; immutable.

    FqPoly(field, coeffs) takes a dense coefficient sequence, constant term
    first; zeros are dropped.
    """

    __slots__ = ("field", "terms", "_mu_pos", "_cond4")

    def __init__(self, field: Field, coeffs=()):
        q = field.q
        terms = tuple((e, c) for e, c in enumerate(coeffs) if c)
        bad = next((c for _, c in terms if not 0 < c < q), None)
        if bad is not None:
            raise FieldError(f"coefficient {bad} out of range for q={q}")
        self.field = field
        self.terms = terms
        self._values = self._fp = None
        self._mu_pos = {}
        self._cond4 = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field, c, e):
        return cls.constant(field, c).shifted(e)

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else -1

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, FqPoly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.terms))

    def __repr__(self):
        return f"FqPoly({self.field.designation()}, {self.text()!r})"

    def text(self) -> str:
        return format_poly(self)

    def coefficients_in_prime_field(self) -> bool:
        p = self.field.p
        return all(c < p for _, c in self.terms)

    # -- evaluation -----------------------------------------------------------

    def eval(self, a: int) -> int:
        """Horner evaluation at the element with index a, stepping over each
        gap between exponents with one power of a; exact."""
        f = self.field
        acc = low = 0
        for e, c in reversed(self.terms):
            if acc:
                acc = f.add(f.mul(acc, a if low - e == 1 else f.pow(a, low - e)), c)
            else:
                acc = c
            low = e
        return f.mul(acc, f.pow(a, low)) if low else acc

    def _walk(self) -> tuple:
        """One eval per element, weighed as q powers."""
        f = self.field
        check_expansion(f.work(0, f.q), f"a walk of F_q for q={f.q}")
        return tuple(map(self.eval, f.elements()))

    def mu_values(self, d: int) -> tuple:
        """The polynomial at the d-th roots of unity, in the order of
        Field.mu_d(d): d evals, kept nowhere."""
        return tuple(self.eval(z) for z in self.field.mu_d(d))

    def mu_positions(self, d: int) -> tuple:
        """For each root z of Field.mu_d(d), in its order, the position in
        mu_d of h(z)^((q-1)/d), or None where h(z) = 0: one power per root,
        made on the first call per d and kept on this object."""
        pos = self._mu_pos.get(d)
        if pos is None:
            f = self.field
            m = (f.q - 1) // d
            index = {z: j for j, z in enumerate(f.mu_d(d))}
            pos = self._mu_pos[d] = tuple(index[f.pow(v, m)] if v else None
                                          for v in self.mu_values(d))
        return pos

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        return _collect(self.field, self.terms + other.terms)

    def __neg__(self):
        f = self.field
        return _poly(f, [(e, f.neg(c)) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product term by term; more term pairs than the expansion guard
        allows (Field.work) are refused before they are formed."""
        f = self.field
        check_expansion(f.work(len(self.terms) * len(other.terms)), "product")
        mul = f.mul
        return _collect(f, [(ea + eb, mul(ca, cb)) for ea, ca in self.terms
                            for eb, cb in other.terms])

    def scaled(self, c: int):
        f = self.field
        return _poly(f, [(e, f.mul(c, ci)) for e, ci in self.terms] if c else ())

    def shifted(self, k: int):
        """Multiply by x^k."""
        return _poly(self.field, [(e + k, c) for e, c in self.terms])

    def substituted_power(self, m: int):
        """The polynomial f(x^m); no exponent reduction."""
        if m < 1:
            raise FieldError("substitution power must be >= 1")
        return _poly(self.field, [(e * m, c) for e, c in self.terms])

    def compose(self, inner: "FqPoly"):
        """f(inner(x)) by Horner over the terms, raising inner to each gap
        between exponents by repeated squaring."""
        field = self.field

        def power(k):
            out, base = FqPoly.one(field), inner
            while k:
                if k & 1:
                    out = out * base
                k >>= 1
                if k:
                    base = base * base
            return out

        acc, low = FqPoly(field), max(self.degree, 0)
        for e, c in reversed(self.terms):
            acc = acc * power(low - e) + _poly(field, ((0, c),))
            low = e
        return acc * power(low)

    def divmod(self, other: "FqPoly"):
        """Long division over the terms; other must be nonzero.

        The remainder is a dict of terms and a heap yields its exponents that
        are still at least deg other, highest first; each step cancels the
        top term.  A quotient past the expansion guard is refused.
        """
        if other.is_zero():
            raise FieldError("division by the zero polynomial")
        f = self.field
        *low, (db, lead) = other.terms
        linv = f.inv(lead)
        rem = dict(self.terms)
        tops = [-e for e in rem if e >= db]
        heapq.heapify(tops)
        quot = []
        while tops:
            e = -heapq.heappop(tops)
            c = f.mul(rem.pop(e), linv)
            if not c:
                continue
            quot.append((e - db, c))
            check_expansion(len(quot), "quotient")
            for eb, cb in low:
                k = e - db + eb
                if k >= db and k not in rem:
                    heapq.heappush(tops, -k)
                rem[k] = f.sub(rem.get(k, 0), f.mul(c, cb))
        return _poly(f, quot[::-1]), _collect(f, rem.items())

    def reduce_exponents(self):
        """Canonical representative of the induced map, with degree < q.

        Exponents e > 0 map to ((e-1) mod (q-1)) + 1, never to 0, so the
        behaviour at x = 0 is preserved (x^(q-1) and 1 differ there);
        exponent 0 is kept.  Like terms are merged.  Below degree q this is
        the identity, so the polynomial itself is returned.
        """
        q = self.field.q
        if self.degree < q:
            return self
        return _collect(self.field, [((e - 1) % (q - 1) + 1 if e else 0, c)
                                     for e, c in self.terms])


def _poly(field: Field, terms) -> FqPoly:
    """An FqPoly from terms that are already ascending, nonzero and in range."""
    f = object.__new__(FqPoly)
    f.field = field
    f.terms = tuple(terms)
    f._values = f._fp = None
    f._mu_pos = {}
    f._cond4 = {}
    return f


def _collect(field: Field, pairs) -> FqPoly:
    """An FqPoly from (exponent, coefficient) pairs in any order: like terms
    are added and zero sums dropped."""
    add = field.add
    acc = {}
    for e, c in pairs:
        acc[e] = add(acc[e], c) if e in acc else c
    return _poly(field, sorted(t for t in acc.items() if t[1]))


class AdditivePoly(_Walked):
    """sum_i a_i * x^(p^i): a group endomorphism of (F_q, +)."""

    __slots__ = ("field", "add_coeffs", "_trace_perm")

    def __init__(self, field: Field, add_coeffs=()):
        cs = list(add_coeffs)
        q = field.q
        for c in cs:
            if not 0 <= c < q:
                raise FieldError(f"coefficient {c} out of range for q={q}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.add_coeffs = tuple(cs)
        self._values = self._fp = self._trace_perm = None

    def __eq__(self, other):
        return (isinstance(other, AdditivePoly) and self.field == other.field
                and self.add_coeffs == other.add_coeffs)

    def __hash__(self):
        return hash((self.field, self.add_coeffs))

    def __repr__(self):
        return f"AdditivePoly({self.field.designation()}, {self.expand().text()!r})"

    def is_zero(self) -> bool:
        return not self.add_coeffs

    def eval(self, a: int) -> int:
        """sum a_i * a^(p^i), walking up the Frobenius powers of a."""
        f = self.field
        acc, x = 0, a
        for c in self.add_coeffs:
            if c:
                acc = f.add(acc, f.mul(c, x))
            x = f.pow(x, f.p)
        return acc

    def _walk(self) -> tuple:
        """By F_p-linearity, from the n basis images A(t^i): the indices
        whose base-p digit i is c take c*A(t^i) plus the value at the index
        below p^i.  n evals and q additions, weighed as n powers and q
        additions."""
        f = self.field
        check_expansion(f.work(0, f.n) + f.q, f"a walk of F_q for q={f.q}")
        add, vals = f.add, [0]
        for i in range(f.n):
            image, step, below = self.eval(f.p ** i), 0, vals
            vals = list(below)
            for _ in range(1, f.p):
                step = add(step, image)
                vals += [add(step, v) for v in below]
        return tuple(vals)

    def expand(self) -> FqPoly:
        """The FqPoly with terms a_i * x^(p^i)."""
        p = self.field.p
        return _poly(self.field, [(p ** i, c) for i, c in enumerate(self.add_coeffs) if c])

    def coefficients_in_prime_field(self) -> bool:
        return all(c < self.field.p for c in self.add_coeffs)


def to_additive(f: FqPoly) -> AdditivePoly:
    """Reinterpret a polynomial as an additive one.

    Every term must sit at an exponent p^i; otherwise the polynomial does
    not define an additive map and a FieldError is raised.
    """
    field = f.field
    slots: dict[int, int] = {}
    for e, c in f.terms:
        i, pe = 0, 1
        while pe < e:
            pe *= field.p
            i += 1
        if pe != e or e == 0:
            raise FieldError(f"exponent {e} is not a power of p={field.p}; not additive")
        slots[i] = c
    return AdditivePoly(field, [slots.get(i, 0) for i in range(max(slots, default=-1) + 1)])


def additive_commutes(A: AdditivePoly, B: AdditivePoly) -> bool:
    """Whether A(B(a)) = B(A(a)) for every a in F_q.  Both compositions are
    F_p-linear, so they are compared on the n basis elements t^i only."""
    av, bv, f = A.values(), B.values(), A.field
    return all(av[bv[t]] == bv[av[t]] for t in (f.p ** i for i in range(f.n)))


def h_d_poly(field: Field, d: int) -> FqPoly:
    """x^(d-1) + ... + x + 1: vanishes on the d-th roots of unity except 1.

    Its d terms are the allocation, so d past the expansion guard raises
    ExpansionTooLargeError.
    """
    if d < 1:
        raise FieldError("d must be >= 1")
    check_expansion(d, f"h_d for d={d}")
    return _poly(field, [(e, 1) for e in range(d)])


def trace_poly(field: Field) -> AdditivePoly:
    """x^(q/p) + x^(q/p^2) + ... + x: the trace map onto the prime subfield."""
    return AdditivePoly(field, (1,) * field.n)


class CyclotomicForm(NamedTuple("CyclotomicForm", [("u", int), ("d", int), ("h", FqPoly)])):
    """f(x) = x^u * h(x^((q-1)/d)): a map respecting cosets of d-th powers.
    A tuple-backed record, validated when it is made."""

    __slots__ = ()

    def __new__(cls, u: int, d: int, h: FqPoly):
        if u < 1:
            raise ScopeError(f"u must be >= 1, got {u}")
        q = h.field.q
        if d < 1 or (q - 1) % d != 0:
            raise ScopeError(f"d={d} does not divide q-1={q - 1}")
        return tuple.__new__(cls, (u, d, h))

    @property
    def field(self) -> Field:
        return self.h.field


def expand_cyclotomic(cf: CyclotomicForm) -> FqPoly:
    """Explicit form of x^u * h(x^((q-1)/d)), exponent-reduced."""
    m = (cf.field.q - 1) // cf.d
    return cf.h.substituted_power(m).shifted(cf.u).reduce_exponents()


# ---------------------------------------------------------------------------
# text grammar

_TERM_RE = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$|^(\d+)$")


def parse_poly(field: Field, text: str) -> FqPoly:
    """Parse the shared polynomial grammar; coefficients are element indices."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise PolyParseError("empty polynomial")
    pairs = []
    for part in s.split("+"):
        m = _TERM_RE.match(part)
        if not m:
            raise PolyParseError(f"bad term {part!r} in polynomial {text!r}")
        if m.group(3) is not None:
            c, e = int(m.group(3)), 0
        else:
            c = int(m.group(1)) if m.group(1) is not None else 1
            e = int(m.group(2)) if m.group(2) is not None else 1
        if c >= field.q:
            raise PolyParseError(f"coefficient {c} is not an element index of "
                                 f"F_{field.designation()} (q={field.q})")
        pairs.append((e, c))
    return _collect(field, pairs)


def format_poly(f: FqPoly) -> str:
    """Canonical text form: descending exponents, '*' products, no spaces."""
    out = []
    for e, c in reversed(f.terms):
        if e == 0:
            out.append(str(c))
        else:
            v = "x" if e == 1 else f"x^{e}"
            out.append(v if c == 1 else f"{c}*{v}")
    return "+".join(out) or "0"


def parse_additive(field: Field, text: str) -> AdditivePoly:
    """Parse an additive polynomial from the shared grammar."""
    f = parse_poly(field, text)
    try:
        return to_additive(f)
    except FieldError as exc:
        raise PolyParseError(str(exc)) from None
