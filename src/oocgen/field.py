"""Exact arithmetic in small extension fields F_{p^e}.

Elements are stored by their discrete-log index with respect to a fixed
primitive element omega: index -1 encodes zero, index i >= 0 encodes omega^i.
Full exp/log tables are built at construction, so multiplication, inversion
and discrete logs are index arithmetic.  Addition stays in the log domain
too: a Zech table holds zech[i] = log(1 + omega^i) (-1 when that sum is
zero), so omega^a + omega^b = omega^(a + zech[b - a]) is one lookup, and
negation adds N/2 to the index for odd p.

The exp table is built one table-driven omega-step per element: multiplying
by omega is F_p-linear, so the code of omega*c is the sum of two
precomputed products, one for each half of c's digits, summed without
carries and mapped back to digits by lookup (ExtensionField._exp_log_tables).
Polynomial arithmetic on the coefficient ("code") representation,
sum(c_i x^i) mod modulus encoded as the integer sum(c_i p^i), is used only
to precompute those products, to test primitivity and by the independent
polynomial-route checker.

All choices (modulus, omega) are canonical, so two fields built from the
same (p, e, modulus) are bit-identical.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


class FieldError(ValueError):
    """Invalid field parameters or out-of-domain arguments."""


def _prime_factors(n):
    """Prime factorisation {prime: exponent} of n by trial division.

    Empty for n < 2.  The integers factored here (p, q and N = p^e - 1 of a
    field whose tables fit in memory) are small enough for trial division.
    """
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, b, p):
    """Remainder of a modulo b over F_p.  b must be nonzero."""
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % p
        _poly_trim(a)
    return a


def find_irreducible_factor(f, p):
    """Return a nontrivial monic factor of f over F_p, or None if irreducible.

    Trial division by all monic polynomials of degree <= deg(f)/2; fine at
    the field sizes this package targets.
    """
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _poly_mod(f, g, p):
                return g
    return None


def canonical_modulus(p, e):
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Coefficient tuples (c_0, ..., c_{e-1}) are compared low degree first.
    For e >= 2 tails with c_0 = 0 are skipped: x divides them.
    """
    c0 = range(1 if e >= 2 else 0, p)
    for tail in itertools.product(c0, *[range(p)] * (e - 1)):
        f = list(tail) + [1]
        if find_irreducible_factor(f, p) is None:
            return f
    raise FieldError(f"no irreducible polynomial of degree {e} over F_{p}")


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of an ExtensionField, stored by discrete-log index."""

    __slots__ = ("field", "idx")

    def __init__(self, field, idx):
        self.field = field
        self.idx = idx

    @property
    def code(self):
        """Integer encoding of the coefficient vector."""
        return 0 if self.idx < 0 else self.field.exp[self.idx]

    def is_zero(self):
        return self.idx < 0

    def __add__(self, other):
        f = self.field
        f._check_same(other)
        a, b = self.idx, other.idx
        if a < 0:
            return other
        if b < 0:
            return self
        z = f.zech[(b - a) % f.N]
        return FieldElement(f, -1 if z < 0 else (a + z) % f.N)

    def __neg__(self):
        f = self.field
        if self.idx < 0 or f.p == 2:
            return self
        return FieldElement(f, (self.idx + f.N // 2) % f.N)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        f._check_same(other)
        if self.idx < 0 or other.idx < 0:
            return f.zero()
        return FieldElement(f, (self.idx + other.idx) % f.N)

    def __pow__(self, t):
        f = self.field
        if self.idx < 0:
            if t == 0:
                return f.one()
            if t > 0:
                return f.zero()
            raise FieldError("negative power of zero")
        return FieldElement(f, (self.idx * t) % f.N)

    def inverse(self):
        if self.idx < 0:
            raise FieldError("zero has no inverse")
        return FieldElement(self.field, (-self.idx) % self.field.N)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.idx == other.idx

    def __hash__(self):
        return hash((id(self.field), self.idx))

    def __repr__(self):
        if self.idx < 0:
            return "0"
        if self.idx == 0:
            return "1"
        return f"w^{self.idx}"


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class ExtensionField:
    """F_{p^e} with exp/log tables for a canonical primitive element."""

    def __init__(self, p, e, modulus=None, omega_code=None):
        if type(p) is not int or _prime_factors(p) != {p: 1}:
            raise FieldError(f"p = {p} is not prime")
        if e < 1:
            raise FieldError(f"extension degree must be >= 1, got {e}")
        self.p = p
        self.e = e
        self.order = p ** e
        self.N = self.order - 1

        if modulus is None:
            modulus = canonical_modulus(p, e)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise FieldError(f"modulus must be monic of degree {e}")
            factor = find_irreducible_factor(modulus, p)
            if factor is not None:
                raise FieldError(
                    f"modulus is reducible; nontrivial factor {factor}")
        self.modulus = tuple(modulus)

        self._init_reduction_table()

        if omega_code is None:
            omega_code = self._find_primitive_code()
        elif not self._has_full_order(omega_code):
            raise FieldError(f"omega code {omega_code} is not primitive")
        self.omega_code = omega_code

        # exp[i] is the code of omega^i and log[code] = i; for F_2 (N = 1)
        # omega is 1 and exp = [1].  log[0] = -1 encodes zero.
        self.exp, self.log = self._exp_log_tables()
        if self.log.count(-1) != 1:
            raise FieldError("exp table is not a bijection")  # unreachable

        # zech[i] = log(1 + omega^i): adding 1 steps the constant digit mod p
        self.zech = [self.log[c + 1 if c % p != p - 1 else c - (p - 1)]
                     for c in self.exp]

        self._subfields = {}

    def _exp_log_tables(self):
        """exp and log tables, one table-driven omega-step per element.

        Multiplication by omega is F_p-linear.  Split a code as lo + hi*P
        with P = p^h, h = ceil(e/2); then omega*c = omega*lo + omega*(hi*x^h),
        and both products are precomputed with mul_codes for every lo and hi.
        They are stored spread: digit j sits in a slot of base B = 2p - 1,
        so their sum never carries, and each half of the sum maps back to
        p-ary digits (every slot mod p) by one lookup in r.  The tables hold
        2p^h + p^(e-h) + B^h entries, O(order) for every (p, e).
        """
        p, e, omega = self.p, self.e, self.omega_code
        h = (e + 1) // 2
        P, B = p ** h, 2 * p - 1
        Bh = B ** h
        spread, r = [0], [0]  # h-digit half: p-ary -> spread, spread -> p-ary
        for j in range(h):
            spread = [s + d * B ** j for d in range(p) for s in spread]
            r = [t + (d % p) * p ** j for d in range(B) for t in r]

        def spread_code(c):
            return spread[c % P] + spread[c // P] * Bh

        w_lo = [spread_code(self.mul_codes(omega, lo)) for lo in range(P)]
        w_hi = [spread_code(self.mul_codes(omega, hi * P))
                for hi in range(p ** (e - h))]
        n = max(self.N, 1)
        exp = [0] * n
        log = [-1] * self.order
        lo, hi = 1, 0
        for i in range(n):
            c = lo + hi * P
            exp[i] = c
            log[c] = i
            s = w_lo[lo] + w_hi[hi]
            lo, hi = r[s % Bh], r[s // Bh]
        return exp, log

    # -- code-level arithmetic (polynomial route, independent of the tables)

    def _compute_digits(self, code):
        out = []
        for _ in range(self.e):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def _encode(self, digits):
        code = 0
        for c in reversed(digits):
            code = code * self.p + c
        return code

    def _init_reduction_table(self):
        # digit vectors of x^(e+t) mod modulus, t = 0 .. e-2
        p, e = self.p, self.e
        self._xpow = []
        cur = [(-c) % p for c in self.modulus[:e]]  # x^e
        self._xpow.append(tuple(cur))
        for _ in range(e - 2):
            nxt = [0] + cur[:e - 1]
            top = cur[e - 1]
            if top:
                for j in range(e):
                    nxt[j] = (nxt[j] + top * self._xpow[0][j]) % p
            self._xpow.append(tuple(nxt))
            cur = nxt

    def _mul_digits(self, da, db):
        """Digit vector of the product of two digit vectors mod modulus."""
        p, e = self.p, self.e
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        res = conv[:e]
        for t in range(e - 2, -1, -1):
            c = conv[e + t]
            if c:
                red = self._xpow[t]
                for j in range(e):
                    res[j] = (res[j] + c * red[j]) % p
        return res

    def mul_codes(self, a, b):
        return self._encode(self._mul_digits(self._compute_digits(a),
                                             self._compute_digits(b)))

    def pow_code(self, a, t):
        result = 1
        base = a
        while t:
            if t & 1:
                result = self.mul_codes(result, base)
            base = self.mul_codes(base, base)
            t >>= 1
        return result

    def _has_full_order(self, code):
        if type(code) is not int or not 0 < code < self.order:
            return False
        for t in _prime_factors(self.N):
            if self.pow_code(code, self.N // t) == 1:
                return False
        return True

    def _find_primitive_code(self):
        for code in range(1, self.order):
            if self._has_full_order(code):
                return code
        raise FieldError("no primitive element found")  # unreachable

    # -- element constructors

    def zero(self):
        return FieldElement(self, -1)

    def one(self):
        return FieldElement(self, 0)

    @property
    def omega(self):
        return FieldElement(self, 1 % self.N) if self.N > 1 else self.one()

    def from_idx(self, i):
        if i == -1:
            return self.zero()
        return FieldElement(self, i % self.N)

    def from_code(self, code):
        return FieldElement(self, self.log[code])

    def from_coeffs(self, coeffs):
        return self.from_code(self._encode([c % self.p for c in coeffs]))

    def iter_elements(self):
        """All elements in canonical order: zero, then ascending log index."""
        yield self.zero()
        for i in range(self.N):
            yield FieldElement(self, i)

    def _check_same(self, other):
        if not isinstance(other, FieldElement) or other.field is not self:
            raise FieldError("elements belong to different fields")

    # -- discrete log and subfield structure

    def dlog(self, x):
        """Index i with omega^i = x; rejects zero."""
        self._check_same(x)
        if x.idx < 0:
            raise FieldError("dlog of zero is undefined")
        return x.idx

    def subfield(self, order):
        if order not in self._subfields:
            self._subfields[order] = SubfieldEmbedding(self, order)
        return self._subfields[order]

    def rel_norm(self, x, from_order, to_order):
        """Relative norm x^((q^k-1)/(q-1)) from F_{q^k} to F_q.

        Here from_order = q^k and to_order = q; both must be subfield orders
        with to_order | from_order in the lattice, and x must lie in the
        embedded F_{q^k}.
        """
        src = self.subfield(from_order)
        dst = self.subfield(to_order)
        if src.degree % dst.degree != 0:
            raise FieldError(
                f"F_{to_order} is not a subfield of F_{from_order}")
        if not src.contains(x):
            raise FieldError(f"{x!r} is not in the subfield of order {from_order}")
        result = x ** ((from_order - 1) // (to_order - 1))
        if not dst.contains(result):
            raise FieldError(f"norm of {x!r} is not in F_{to_order}")
        return result

    def is_irreducible_quadratic(self, b, c, sub_order):
        """True iff x^2 + b*x + c has no root in the subfield of that order.

        Decided by exhaustive root search; b and c must lie in the subfield.
        """
        emb = self.subfield(sub_order)
        if not (emb.contains(b) and emb.contains(c)):
            raise FieldError("quadratic coefficients must lie in the subfield")
        for t in emb.elements():
            if (t * t + b * t + c).is_zero():
                return False
        return True

    # -- serialization

    def descriptor(self):
        return {
            "p": self.p,
            "e": self.e,
            "modulus": list(self.modulus),
            "omega_index": self.omega_code,
        }

    def to_json(self):
        return json.dumps(self.descriptor(), sort_keys=True)

    def __repr__(self):
        return f"ExtensionField(p={self.p}, e={self.e})"


_FIELD_CACHE = {}


def field_create(p, e, modulus=None, omega_code=None):
    """Build (or fetch a cached) F_{p^e} with canonical deterministic tables."""
    key = (p, e, tuple(modulus) if modulus else None, omega_code)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = ExtensionField(p, e, modulus, omega_code)
    return _FIELD_CACHE[key]


def field_from_descriptor(desc):
    if not isinstance(desc, dict) or not {"p", "e", "modulus"} <= desc.keys():
        raise FieldError("field descriptor needs entries p, e and modulus")
    return field_create(desc["p"], desc["e"], desc["modulus"],
                        desc.get("omega_index"))


def factor_prime_power(q):
    """Split a prime power q into (p, e0) with q = p^e0."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise FieldError(f"{q} is not a prime power")
    (p, e0), = factors.items()
    return p, e0


def field_for_prime_power(q, m):
    """Realize F_{q^m} as an extension of the prime field F_p."""
    p, e0 = factor_prime_power(q)
    return field_create(p, e0 * m)


# ---------------------------------------------------------------------------
# subfield embeddings
# ---------------------------------------------------------------------------

class SubfieldEmbedding:
    """The subfield of order p^d inside F_{p^e}: the powers of omega^stride."""

    def __init__(self, field, order):
        p, e = field.p, field.e
        d = 0
        t = order
        while t > 1 and t % p == 0:
            t //= p
            d += 1
        if t != 1 or d == 0 or e % d != 0:
            raise FieldError(
                f"order {order} is not a subfield order of F_{p}^{e}")
        self.field = field
        self.order = order
        self.degree = d                  # over the prime field
        self.stride = field.N // (order - 1)
        self.generator = field.from_idx(self.stride % field.N)

    def contains(self, x):
        self.field._check_same(x)
        return x.idx < 0 or x.idx % self.stride == 0

    def elements(self):
        """All subfield elements: zero, then ascending log index."""
        f = self.field
        return [f.zero()] + [f.from_idx((self.stride * i) % f.N)
                             for i in range(self.order - 1)]

    def nonzero_elements(self):
        return self.elements()[1:]

    def __repr__(self):
        return f"SubfieldEmbedding(order={self.order} in {self.field!r})"


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def gaussian_binomial(m, k, q):
    """Number of k-dimensional subspaces of F_q^m, as an exact integer."""
    if k < 0 or k > m:
        return 0
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(q ** (m - i) - 1, q ** (k - i) - 1)
    if num.denominator != 1:
        raise FieldError(f"Gaussian binomial [{m} {k}]_{q} is not an integer")
    return num.numerator
