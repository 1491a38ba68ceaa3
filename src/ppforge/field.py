"""Exact arithmetic in small finite fields F_{p^n}.

Elements are plain Python ints in [0, q): the index encodes the coefficient
vector of the element over F_p through its base-p digits, digit i being the
coefficient of t^i where t is the residue class of x modulo the field's
irreducible polynomial.  For n = 1 this degenerates to ordinary residues
mod p.  The modulus is canonical: the first irreducible monic polynomial in
increasing order of the integer c_0 + c_1*p + ... + c_{n-1}*p^{n-1} built
from the non-leading coefficients, so two fields with equal (p, n) are
interchangeable.

A Field is immutable after construction apart from idempotent caches (the
primitive element, roots of unity), so sharing a Field between workers is
safe.  For q <= VECTOR_MAX_Q it builds its lookup tables when constructed.

Multiplication works in the cyclic group F_q^*: on every table field
(q <= VECTOR_MAX_Q) a product is one lookup exp_ext[log a + log b], where
log 0 is a sentinel that lands in a run of zeros; inv and pow are one
exp/log lookup too.  Addition works in (F_q, +).  A scalar sum never
reads a column table:
  p = 2                        XOR of the indices, at every q;
  n = 1, odd p                 residues, (a + b) mod p, at every q;
  odd p, n > 1,                a Zech-logarithm list,
    q <= VECTOR_MAX_Q          a + b = w^(log a + Z(log b - log a));
  odd p, n > 1, beyond         base-p digit arithmetic (_add_slow).
Column sums (FieldTables.add_cols, eval_col) read tables built from base-p
digits only: XOR for p = 2, and for odd p packed digit words
(FieldTables.spread), whose pairwise sums add_cols reads from a cached
q x q add table up to ADD_TABLE_MAX_Q.
Negation is multiplication by -1, the element with index p-1.  Beyond
VECTOR_MAX_Q, multiplication is digit-vector arithmetic (_mul_slow), the
same product mod the modulus that the modulus search uses.
"""

import functools
import math

import numpy as np

from .errors import ExpansionTooLargeError, FieldError, PolyParseError

# odd p: add_cols reads a q x q table (int32) of packed-word sums up to this size.
ADD_TABLE_MAX_Q = 512
# exp/log and digit tables (O(q) memory) are allowed up to this size.
VECTOR_MAX_Q = 1 << 16

# eval_col builds its term columns this many entries at a time, one
# scalar_mul per block.  is_permutation of a check theorem1 3^7 --d 1093
# polynomial (1,095 terms on r = 1,093 logs; median of 9 runs, 2 vCPU,
# numpy 2.4.6) took 19.0 ms at 2^12 entries, 16.1-16.3 ms at 2^13-2^14,
# 16.1-16.6 ms at 2^15-2^16 and 27.8 ms at 2^18, against 24.3 ms with one
# call per term; 2^14 is on that floor with 128 KB int64 temporaries.
EVAL_BLOCK_ENTRIES = 1 << 14

# expansion guard: the most terms (or roots of unity) one polynomial or
# mu_d may hold; past it a construction is refused before it is built
EXPANSION_MAX_TERMS = 1_000_000


def check_expansion(count: int, what: str):
    if count > EXPANSION_MAX_TERMS:
        raise ExpansionTooLargeError(f"{what} is too large to expand: {count} "
                                     f"exceeds the bound {EXPANSION_MAX_TERMS}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for every 64-bit integer."""
    if m < 2:
        return False
    for sp in _MR_BASES:
        if m % sp == 0:
            return m == sp
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int) -> dict:
    """Prime factorization, ascending: trial division below 1000, then
    Pollard-Brent rho on what is left; exact for 64-bit m."""
    out: dict[int, int] = {}
    d = 2
    while d < 1000 and d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    rest = [m] if m > 1 else []
    while rest:
        x = rest.pop()
        if is_prime(x):
            out[x] = out.get(x, 0) + 1
        else:
            f = _rho_factor(x)
            rest += (f, x // f)
    return dict(sorted(out.items()))


def _rho_factor(m: int) -> int:
    """A proper factor of an odd composite m: Brent's cycle search on
    x -> x^2 + c, with gcds batched over 128 steps."""
    for c in range(1, m):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    acc = acc * abs(x - y) % m
                g = math.gcd(acc, m)
                k += 128
            r *= 2
        if g == m:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g
    raise FieldError(f"no factor of {m} found")  # unreachable for composite m


def prime_divisors(m: int) -> tuple:
    return tuple(factorize(m))


def divisors(m: int) -> list:
    """All positive divisors of m, ascending."""
    if m < 1:
        return []
    out = [1]
    for r, k in factorize(m).items():
        out = [d * r ** i for d in out for i in range(k + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# polynomials over F_p (coefficient lists, little-endian) -- only what the
# modulus search needs

def _fp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_mulmod(a, b, mod, p):
    """a*b modulo the monic `mod`: the products are summed exactly, then
    each coefficient from the top down is reduced mod p once and, at or
    above deg mod, folded into the ones below it."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    n = len(mod) - 1
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i] % p
        if c:
            for j in range(n):
                out[i - n + j] -= c * mod[j]
    return _fp_trim([c % p for c in out[:n]])


def _fp_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    linv = pow(lb, p - 2, p)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * linv % p
        if c:
            quot[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _fp_trim(quot), _fp_trim(a[:db])


def _fp_pow_x(e, mod, p):
    """x^e reduced modulo `mod`, by square-and-multiply."""
    result = [1]
    base = _fp_divmod([0, 1], mod, p)[1]
    while e:
        if e & 1:
            result = _fp_mulmod(result, base, mod, p)
        base = _fp_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return a


def _is_irreducible(mod, p) -> bool:
    """Frobenius-based exact test for a monic polynomial over F_p."""
    n = len(mod) - 1
    if n == 1:
        return True
    x = [0, 1]
    if _fp_pow_x(p ** n, mod, p) != x:
        return False
    for r in prime_divisors(n):
        w = _fp_pow_x(p ** (n // r), mod, p)
        ln = max(len(w), 2)
        diff = [((w[i] if i < len(w) else 0) - (x[i] if i < len(x) else 0)) % p
                for i in range(ln)]
        if len(_fp_gcd(mod, _fp_trim(diff), p)) != 1:
            return False
    return True


def _find_modulus(p, n):
    """First irreducible monic degree-n polynomial in the canonical order."""
    for m in range(p ** n):
        coeffs = []
        mm = m
        for _ in range(n):
            coeffs.append(mm % p)
            mm //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise FieldError(f"no irreducible polynomial of degree {n} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------


class Field:
    """A concrete F_{p^n} with canonical modulus and integer element encoding."""

    __slots__ = ("p", "n", "q", "modulus", "_omega", "_tables", "_mu_cache",
                 "_exp_list", "_log_list", "_zech")

    def __init__(self, p: int, n: int = 1):
        if not isinstance(p, int) or not is_prime(p):
            raise FieldError(f"p must be prime, got {p}")
        if not isinstance(n, int) or n < 1:
            raise FieldError(f"extension degree must be >= 1, got {n}")
        q = p ** n
        if q >= 1 << 63:
            raise FieldError(f"p^n = {p}^{n} overflows the 64-bit range")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = _find_modulus(p, n)
        self._omega = None
        self._tables = None
        self._mu_cache: dict = {}
        self._exp_list = None
        self._log_list = None
        self._zech = None
        if q <= VECTOR_MAX_Q:
            self.tables()

    # -- identity ----------------------------------------------------------

    def designation(self) -> str:
        return f"{self.p}^{self.n}" if self.n > 1 else str(self.p)

    def __repr__(self):
        return f"Field({self.designation()})"

    def __eq__(self, other):
        # make_field and parse_field return one object per field: identity
        # decides the common case without building a tuple
        return self is other or (isinstance(other, Field)
                                 and (self.p, self.n) == (other.p, other.n))

    def __hash__(self):
        return hash((Field, self.p, self.n))

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int) -> tuple:
        """Base-p digits of the index: the coefficient vector over F_p."""
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def element(self, coeffs) -> int:
        """Index of the element with the given coefficient vector."""
        cs = list(coeffs)
        if len(cs) > self.n or any(not 0 <= c < self.p for c in cs):
            raise FieldError(f"coefficient vector {cs} invalid for {self!r}")
        idx = 0
        for c in reversed(cs):
            idx = idx * self.p + c
        return idx

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- arithmetic ---------------------------------------------------------
    # Hot paths trust their inputs to be indices in [0, q).

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        z = self._zech
        if z is not None:
            if a and b:
                # a + b = a * (1 + b/a); a negative index wraps mod q-1
                log = self._log_list
                la = log[a]
                return self._exp_list[la + z[log[b] - la]]
            return a or b
        return self._add_slow(a, b)

    def _add_slow(self, a, b):
        """a + b by base-p digits."""
        p = self.p
        if self.n == 1:
            return (a + b) % p
        out, mult = 0, 1
        for _ in range(self.n):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)  # index p-1 is -1; for p = 2 this is a

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        exp = self._exp_list
        if exp is not None:
            log = self._log_list
            return exp[log[a] + log[b]]
        return self._mul_slow(a, b)

    def _mul_slow(self, a, b):
        p = self.p
        if self.n == 1:
            return a * b % p
        return self.element(_fp_mulmod(self.coeffs(a), self.coeffs(b), self.modulus, p))

    def work(self, products: int, powers: int = 0) -> int:
        """What the expansion guard counts for that many scalar products and
        powers: one unit each on a table field and on a prime field (one
        lookup, or one built-in pow); beyond the tables with n > 1 a power
        is about log2(q) products and a product n^2 digit products."""
        if self._exp_list is not None or self.n == 1:
            return products + powers
        return (products + powers * self.q.bit_length()) * self.n ** 2

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a^e for any non-negative integer e, with 0^0 = 1; one exp/log
        lookup on table fields, the built-in pow on prime fields beyond,
        square-and-multiply on extension fields beyond."""
        if e < 0:
            raise FieldError("negative exponent")
        exp = self._exp_list
        if exp is not None:
            if a:
                return exp[self._log_list[a] * e % (self.q - 1)]
            return 0 if e else 1
        if self.n == 1:
            return pow(a, e, self.p)
        if a and e >= self.q:
            e = (e - 1) % (self.q - 1) + 1  # a^(q-1) = 1
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- multiplicative structure -------------------------------------------

    def primitive_element(self) -> int:
        """Least-index element of multiplicative order q-1; cached.

        For n > 1 the indices below p are F_p itself, whose orders divide
        p-1 < q-1, so the search starts at p.
        """
        if self._omega is None:
            m = self.q - 1
            rs = prime_divisors(m)
            for a in range(self.p if self.n > 1 else 1, self.q):
                if all(self.pow(a, m // r) != 1 for r in rs):
                    self._omega = a
                    break
        return self._omega

    def mu_d(self, d: int) -> tuple:
        """The d-th roots of unity, as consecutive powers of the primitive element.

        Returned in the order w^(j*(q-1)/d) for j = 0..d-1, so the list always
        starts with 1 and is deterministic.  Its callers raise each root to
        powers, so d such powers past the expansion guard (see work) are
        refused with ExpansionTooLargeError.
        """
        if d < 1 or (self.q - 1) % d != 0:
            raise FieldError(f"d={d} does not divide q-1={self.q - 1}")
        check_expansion(self.work(0, d), f"mu_d for d={d}")
        cached = self._mu_cache.get(d)
        if cached is None:
            out = [1]
            if d > 1:  # mu_1 = {1} needs no primitive element
                step = self.pow(self.primitive_element(), (self.q - 1) // d)
                for _ in range(d - 1):
                    out.append(self.mul(out[-1], step))
            cached = self._mu_cache[d] = tuple(out)
        return cached

    def is_dth_power(self, a: int, d: int) -> bool:
        """True iff nonzero a is a d-th power, i.e. a^((q-1)/d) = 1."""
        if a == 0:
            raise FieldError("zero is excluded from the d-th power test")
        if d < 1 or (self.q - 1) % d != 0:
            raise FieldError(f"d={d} does not divide q-1={self.q - 1}")
        return self.pow(a, (self.q - 1) // d) == 1

    # -- tables --------------------------------------------------------------

    def tables(self) -> "FieldTables":
        """Numpy lookup machinery for exhaustive evaluation (cached; built at
        construction for q <= VECTOR_MAX_Q)."""
        if self._tables is None:
            t = FieldTables(self)
            self._tables = t
            self._log_list = t.log.tolist()
            self._exp_list = t.exp_ext.tolist()
            if self.p > 2 and self.n > 1:
                # Zech logarithms, 1 + w^i = w^Z[i], built on digit 0 alone
                # (adding 1 carries nowhere), not through add_cols; 1 + w^i
                # = 0 gives the log 0 sentinel, which lands in exp_ext's zeros
                e, p = t.exp, self.p
                self._zech = t.log[e + 1 - p * (e % p == p - 1)].tolist()
        return self._tables


def _exp_digits(field: Field) -> np.ndarray:
    """Digit vectors of w^0 .. w^(q-2) for the primitive element w, one row each.

    Multiplication by w is an F_p-linear map M on digit vectors, so row i is
    M^i applied to the digits of 1.  The rows come in ceil(log2(q-1))
    doubling steps: rows [len, 2 len) are rows [0, len) times (M^len)^T
    mod p, then M^len <- (M^len)^2 mod p.  Entries stay below p, so every
    product sum is below n * p^2 <= q * p < 2^63.
    """
    p, n, q = field.p, field.n, field.q
    omega = field.primitive_element()
    # row j of M^T: the digits of w * t^j
    step_t = np.array([field.coeffs(field._mul_slow(omega, p ** j)) for j in range(n)],
                      dtype=np.int64)
    out = np.zeros((q - 1, n), dtype=np.int64)
    out[0, 0] = 1
    size = 1
    while size < q - 1:
        k = min(size, q - 1 - size)
        np.remainder(out[:k] @ step_t, p, out=out[size:size + k])
        step_t = step_t @ step_t % p
        size += k
    return out


@functools.lru_cache(maxsize=None)
def make_field(p: int, n: int = 1) -> Field:
    """Canonical Field for (p, n); the same instance is returned every time."""
    return Field(p, n)


def parse_field(text: str) -> Field:
    """Parse a field designation: "p" or "p^n"."""
    s = text.strip()
    try:
        if "^" in s:
            ps, ns = s.split("^", 1)
            return make_field(int(ps), int(ns))
        return make_field(int(s))
    except FieldError:
        raise
    except ValueError:
        raise PolyParseError(f"bad field designation {text!r}; expected \"p\" or \"p^n\"") from None


class FieldTables:
    """Vectorized lookup tables over one field.

    Always present (q <= 2^16): exp/log for the cyclic group F_q^* and the
    powers of p, pvec.  log[0] is the sentinel 2(q-1) and exp_ext is
    exp + exp + 2q-1 zeros, so exp_ext[log a + log b] = a*b for every a and
    b, zero included; exp is the cycle w^0 .. w^(q-2), a view of exp_ext.
    Column sums read tables built from base-p digits: for odd p the packed
    digit word `spread` that add_cols and eval_col sum in, and up to
    ADD_TABLE_MAX_Q the q x q addition table derived from it, which
    add_cols reads as a cache.  In characteristic 2 addition is XOR and
    needs no table.  eval_col builds its term columns on the subgroup the
    exponents generate, not on all q elements, a block of terms per
    scalar_mul call, and sums each block in packed words (XOR for p = 2).
    Scalar Field.add reads none of these: prime fields add as residues, and
    for odd p and n > 1 the Zech list comes from exp and log alone, so a
    fault in a column table cannot also hide in the criteria's scalar
    sums.  The arrays total at most 6q + n int64 words beside the add
    table.  All arrays are exact integer data; callers must not mutate
    them.
    """

    __slots__ = ("field", "q", "pvec", "exp", "exp_ext", "log",
                 "addf", "spread", "_pow_cache")

    def __init__(self, field: Field):
        q, p, n = field.q, field.p, field.n
        if q > VECTOR_MAX_Q:
            raise FieldError(f"lookup tables unsupported for q={q} > {VECTOR_MAX_Q}")
        self.field = field
        self.q = q
        self.pvec = p ** np.arange(n, dtype=np.int64)
        exp = _exp_digits(field) @ self.pvec
        self.exp_ext = np.concatenate((exp, exp, np.zeros(2 * q - 1, dtype=np.int64)))
        self.exp = self.exp_ext[:q - 1]
        log = np.empty(q, dtype=np.int64)
        log[0] = 2 * (q - 1)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        self.log = log

        self.addf = self.spread = None
        if p > 2:
            # spread[x] = sum_i digit_i(x) * 2^(b*i): a sum of such words adds
            # the digits of its terms slot by slot, without carries while each
            # slot stays below 2^b.  Up to ADD_TABLE_MAX_Q the q x q add table
            # caches every pairwise sum, reduced by _unspread
            digits = (np.arange(q, dtype=np.int64)[:, None] // self.pvec) % p
            self.spread = digits @ (1 << (_spread_bits(n) * np.arange(n, dtype=np.int64)))
            if q <= ADD_TABLE_MAX_Q:
                self.addf = self._unspread(self.spread[:, None] + self.spread).astype(np.int32).reshape(-1)
        self._pow_cache: dict = {}

    # -- column helpers ------------------------------------------------------

    def pow_col(self, e: int) -> np.ndarray:
        """Values a^e for every a, exact for any e >= 0.  Cached per exponent
        only while q <= ADD_TABLE_MAX_Q, so the cache stays within 2 MB."""
        if e == 0:
            return np.ones(self.q, dtype=np.int64)
        q = self.q
        re = (e - 1) % (q - 1) + 1
        col = self._pow_cache.get(re)
        if col is None:
            col = self.exp[_mod(self.log * re, q - 1)]
            col[0] = 0
            if q <= ADD_TABLE_MAX_Q:
                self._pow_cache[re] = col
        return col

    def mul_cols(self, x, y) -> np.ndarray:
        """Elementwise (broadcasting) field product of two index arrays."""
        return self.exp_ext[self.log[x] + self.log[y]]

    def add_cols(self, x, y) -> np.ndarray:
        """Elementwise (broadcasting) field sum of two index arrays."""
        x = np.asarray(x)
        y = np.asarray(y)
        if self.field.p == 2:
            return x ^ y
        if self.addf is not None:
            return self.addf[x * self.q + y]
        return self._unspread(self.spread[x] + self.spread[y])

    # c * xs for an index c, a scalar or an index array broadcasting
    # against the index array xs
    scalar_mul = mul_cols

    def eval_col(self, terms) -> np.ndarray:
        """Value table of the polynomial with the given (exponent, coefficient)
        terms, a sequence whose coefficients are element indices: scalars,
        or index columns of shape (rows, 1) for a stack of rows polynomials
        on the same exponents, a (rows, q) table then.

        Exact, folded onto the subgroup the exponents generate.  F_q^* is
        cyclic, so with a = w^l and e0 the first term's exponent,
        f(a) = a^e0 * P(l) where P(l) = sum c * w^(l (e - e0)).  Every e - e0
        is a multiple of g = gcd(q-1, e - e0 over the terms), so P has period
        r = (q-1)/g: the term columns are built on r logs, a block of terms
        per scalar_mul call (_sum_terms), then P is lifted to every a once,
        P[log a mod r] times the power column a^e0 (skipped at e0 = 0, where
        it is all ones).  f(0) is the sum of the coefficients at e = 0
        exactly (0^0 = 1, 0^e = 0 for e >= 1), so x^0 and x^(q-1) differ
        there.  Exponents need no reduction.  The cost is
        O(terms * rows * r + rows * q).
        """
        q = self.q
        e0 = terms[0][0] if terms else 0
        r = (q - 1) // math.gcd(q - 1, *(e - e0 for e, _ in terms))
        P = self._sum_terms(terms, e0, r)
        # take, not P[..., idx]: numpy's Ellipsis gather is about 2x slower
        col = P.take(_mod(self.log, r), axis=-1)
        col = self.mul_cols(col, self.pow_col(e0)) if e0 else col.astype(np.int64, copy=False)
        col[..., :1] = functools.reduce(self.add_cols, (c for e, c in terms if e == 0), 0)
        return col

    def _sum_terms(self, terms, e0: int, r: int) -> np.ndarray:
        """P(l) = sum c * w^(l (e - e0)) for l = 0..r-1, an (r,) or (rows, r)
        index array (zeros of length r when there are no terms).

        The terms go in blocks of at most EVAL_BLOCK_ENTRIES entries: one
        scalar_mul builds a block's (B, r) or (B, rows, r) columns, and the
        block is summed along its term axis: XOR in characteristic 2, packed
        `spread` words for odd p.  The packed accumulator runs across blocks
        and is reduced mod p digit-wise once at the end, and before a block
        that could overflow a slot."""
        if not terms:
            return np.zeros(r, dtype=np.int64)
        q1 = self.q - 1
        ramp = np.arange(r, dtype=np.int64)
        per = max(1, EVAL_BLOCK_ENTRIES // (np.size(terms[0][1]) * r))
        spread = self.spread
        if spread is not None:
            # terms a slot can hold: each adds a digit of at most p-1, and a
            # block must fit beside a reduced accumulator
            room = ((1 << _spread_bits(self.field.n)) - 1) // (self.field.p - 1)
            per = min(per, room - 1)
        acc, held = None, 0
        for lo in range(0, len(terms), per):
            block = terms[lo:lo + per]
            steps = np.array([(e - e0) % q1 for e, _ in block], dtype=np.int64)
            xs = self.exp[_mod(steps[:, None] * ramp, q1)]
            cs = np.array([c for _, c in block], dtype=np.int64)
            if cs.ndim == 1:
                cs = cs[:, None]
            else:  # (B, rows, 1) coefficient columns
                xs = xs[:, None]
            cols = self.scalar_mul(cs, xs)
            if spread is not None:
                part = spread[cols[0]] if len(cols) == 1 else spread[cols].sum(axis=0)
                if held + len(block) > room:
                    acc, held = spread[self._unspread(acc)], 1
                acc = part if acc is None else np.add(acc, part, out=acc)
                held += len(block)
            else:
                part = cols[0] if len(cols) == 1 else np.bitwise_xor.reduce(cols, axis=0)
                acc = part if acc is None else np.bitwise_xor(acc, part, out=acc)
        return acc if spread is None else self._unspread(acc)

    def _unspread(self, packed: np.ndarray) -> np.ndarray:
        """Indices whose digits are the packed slot sums reduced mod p,
        reduced one slot at a time."""
        p, b = self.field.p, _spread_bits(self.field.n)
        mask = (1 << b) - 1
        out = _mod(packed & mask, p)
        for i in range(1, self.field.n):
            out += _mod((packed >> (b * i)) & mask, p) * p ** i
        return out


def _mod(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m for a non-negative index array: numpy runs a floor division
    by a scalar through libdivide but not a remainder, which is about 4x
    slower on int64."""
    return x - x // m * m


def _spread_bits(n: int) -> int:
    """Bits per digit slot of the packed encoding: n slots fill 63 bits."""
    return 63 // n
