"""Dense polynomials and additive (p-power) polynomials over a Field.

FqPoly stores index-encoded coefficients, constant term first, trimmed so the
leading coefficient is nonzero; the zero polynomial is the empty tuple and
its degree is reported as -1 (standing in for minus infinity).

AdditivePoly keeps the coefficient vector of sum_i a_i * x^(p^i).  It is
never expanded implicitly, so the additive structure stays visible in the
data; expansion to a dense FqPoly is an explicit step.

Text grammar (shared with the CLI):  poly := term ('+' term)*,
term := coeff ['*' 'x' ['^' exp]] | 'x' ['^' exp], where coeff is the
integer index of a field element.  Whitespace is ignored everywhere.
"""

import re
from dataclasses import dataclass
from itertools import compress

from .errors import ExpansionTooLargeError, FieldError, PolyParseError, ScopeError
from .field import Field

# expansion guard: refuse dense polynomials built by monomial, shift,
# substitution or composition beyond this length
_MAX_DENSE_LEN = 1_000_000


def _check_dense_len(length: int):
    if length > _MAX_DENSE_LEN:
        raise ExpansionTooLargeError(
            f"dense polynomial of length {length} too large to expand")


class FqPoly:
    """Dense polynomial over F_q; immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = list(coeffs)
        q = field.q
        if cs and (min(cs) < 0 or max(cs) >= q):
            bad = next(c for c in cs if not 0 <= c < q)
            raise FieldError(f"coefficient {bad} out of range for q={q}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

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
        if not c:
            return cls(field)
        _check_dense_len(e + 1)
        return cls(field, (0,) * e + (c,))

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, FqPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"FqPoly({self.field.designation()}, {self.text()!r})"

    def text(self) -> str:
        return format_poly(self)

    def coefficients_in_prime_field(self) -> bool:
        return all(c < self.field.p for c in self.coeffs)

    # -- evaluation -----------------------------------------------------------

    def eval(self, a: int) -> int:
        """Horner evaluation at the element with index a; exact."""
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, a), c)
        return acc

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return FqPoly(f, out)

    def __neg__(self):
        f = self.field
        return FqPoly(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPoly(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return FqPoly(f, out)

    def scaled(self, c: int):
        f = self.field
        return FqPoly(f, [f.mul(c, ci) for ci in self.coeffs])

    def shifted(self, k: int):
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        _check_dense_len(k + len(self.coeffs))
        return FqPoly(self.field, (0,) * k + self.coeffs)

    def substituted_power(self, m: int):
        """The polynomial f(x^m); no exponent reduction."""
        if m < 1:
            raise FieldError("substitution power must be >= 1")
        if not self.coeffs:
            return self
        length = (len(self.coeffs) - 1) * m + 1
        _check_dense_len(length)
        out = [0] * length
        out[::m] = self.coeffs
        return FqPoly(self.field, out)

    def compose(self, inner: "FqPoly"):
        """f(inner(x)) by Horner in the polynomial ring."""
        f = self.field
        acc = FqPoly(f)
        for c in reversed(self.coeffs):
            acc = acc * inner + FqPoly.constant(f, c)
            _check_dense_len(len(acc.coeffs))
        return acc

    def divmod(self, other: "FqPoly"):
        """Polynomial division; other must be nonzero."""
        if other.is_zero():
            raise FieldError("division by the zero polynomial")
        f = self.field
        rem = list(self.coeffs)
        db = other.degree
        linv = f.inv(other.coeffs[-1])
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = f.mul(rem[i], linv)
            if c:
                quot[i - db] = c
                for j, bj in enumerate(other.coeffs):
                    rem[i - db + j] = f.sub(rem[i - db + j], f.mul(c, bj))
        return FqPoly(f, quot), FqPoly(f, rem[:db])

    def reduce_exponents(self):
        """Canonical representative of the induced map, with degree < q.

        Exponents e > 0 map to ((e-1) mod (q-1)) + 1, never to 0, so the
        behaviour at x = 0 is preserved (x^(q-1) and 1 differ there);
        exponent 0 is kept.  Like terms are merged.  Below degree q this is
        the identity, so the polynomial itself is returned.
        """
        f, cs = self.field, self.coeffs
        q = f.q
        if len(cs) <= q:
            return self
        out = list(cs[:q])
        for e in compress(range(q, len(cs)), cs[q:]):
            re = (e - 1) % (q - 1) + 1
            out[re] = f.add(out[re], cs[e])
        return FqPoly(f, out)


class AdditivePoly:
    """sum_i a_i * x^(p^i): a group endomorphism of (F_q, +)."""

    __slots__ = ("field", "add_coeffs")

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

    def expand(self) -> FqPoly:
        """Dense form, with coefficients only at p-power exponents."""
        f = self.field
        if not self.add_coeffs:
            return FqPoly(f)
        top = f.p ** (len(self.add_coeffs) - 1)
        out = [0] * (top + 1)
        e = 1
        for c in self.add_coeffs:
            out[e] = c
            e *= f.p
        return FqPoly(f, out)

    def coefficients_in_prime_field(self) -> bool:
        return all(c < self.field.p for c in self.add_coeffs)


def to_additive(f: FqPoly) -> AdditivePoly:
    """Reinterpret a dense polynomial as an additive one.

    Every nonzero coefficient must sit at an exponent p^i; otherwise the
    polynomial does not define an additive map and a FieldError is raised.
    """
    field = f.field
    slots: dict[int, int] = {}
    for e, c in enumerate(f.coeffs):
        if c == 0:
            continue
        i, pe = 0, 1
        while pe < e:
            pe *= field.p
            i += 1
        if pe != e or e == 0:
            raise FieldError(f"exponent {e} is not a power of p={field.p}; not additive")
        slots[i] = c
    if not slots:
        return AdditivePoly(field)
    out = [0] * (max(slots) + 1)
    for i, c in slots.items():
        out[i] = c
    return AdditivePoly(field, out)


def additive_commutes(A: AdditivePoly, B: AdditivePoly) -> bool:
    """Exhaustive check that A(B(a)) = B(A(a)) for every a in F_q."""
    f = A.field
    return all(A.eval(B.eval(a)) == B.eval(A.eval(a)) for a in f.elements())


def h_d_poly(field: Field, d: int) -> FqPoly:
    """x^(d-1) + ... + x + 1: vanishes on the d-th roots of unity except 1."""
    if d < 1:
        raise FieldError("d must be >= 1")
    return FqPoly(field, (1,) * d)


def trace_poly(field: Field) -> AdditivePoly:
    """x^(q/p) + x^(q/p^2) + ... + x: the trace map onto the prime subfield."""
    return AdditivePoly(field, (1,) * field.n)


@dataclass(frozen=True)
class CyclotomicForm:
    """f(x) = x^u * h(x^((q-1)/d)): a map respecting cosets of d-th powers."""

    u: int
    d: int
    h: FqPoly

    def __post_init__(self):
        if self.u < 1:
            raise ScopeError(f"u must be >= 1, got {self.u}")
        q = self.h.field.q
        if self.d < 1 or (q - 1) % self.d != 0:
            raise ScopeError(f"d={self.d} does not divide q-1={q - 1}")

    @property
    def field(self) -> Field:
        return self.h.field


def expand_cyclotomic(cf: CyclotomicForm) -> FqPoly:
    """Explicit dense form of x^u * h(x^((q-1)/d)), exponent-reduced."""
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
    acc: dict[int, int] = {}
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
        acc[e] = field.add(acc.get(e, 0), c)
    deg = max((e for e, c in acc.items() if c), default=-1)
    if deg + 1 > _MAX_DENSE_LEN:
        raise PolyParseError("polynomial too large")
    out = [0] * (deg + 1)
    for e, c in acc.items():
        if c:
            out[e] = c
    return FqPoly(field, out)


def format_poly(f: FqPoly) -> str:
    """Canonical text form: descending exponents, '*' products, no spaces."""
    if f.is_zero():
        return "0"
    cs = f.coeffs
    terms = []
    for e in compress(range(len(cs) - 1, -1, -1), reversed(cs)):
        c = cs[e]
        if e == 0:
            terms.append(str(c))
        else:
            v = "x" if e == 1 else f"x^{e}"
            terms.append(v if c == 1 else f"{c}*{v}")
    return "+".join(terms)


def parse_additive(field: Field, text: str) -> AdditivePoly:
    """Parse an additive polynomial from the shared grammar."""
    f = parse_poly(field, text)
    try:
        return to_additive(f)
    except FieldError as exc:
        raise PolyParseError(str(exc)) from None
