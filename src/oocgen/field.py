"""Exact arithmetic in small extension fields F_{p^e}.

An element is its discrete-log index with respect to a fixed primitive
element omega: an int in -1..N-1, where -1 is zero and i >= 0 is omega^i.
ExtensionField.mul and powers are index arithmetic.  Addition stays in the
log domain too: the one table a field keeps, the Zech table, holds
zech[i] = log(1 + omega^i) (-1 when that sum is zero), so
ExtensionField.add(a, b) = a + zech[b - a] is one lookup.  The subfield of
order p^d is an index stride, N / (p^d - 1): its nonzero elements are the
multiples of the stride.  The Zech table is a typed array (array.array,
4-byte entries), 4 bytes per field element; the log table it is filled
from lives only while the field is built, so the build peaks at 8 bytes
per element.  Orders above MAX_ORDER are refused before anything is built.

The log table is built one table-driven omega-step per element:
multiplying by omega is F_p-linear, so the code of omega*c is the sum of
two precomputed entries, one for each half of c's digits, summed without
carries and mapped back to digits by lookup (ExtensionField._log_table).
Polynomial arithmetic on the coefficient ("code") representation,
sum(c_i x^i) mod modulus encoded as the integer sum(c_i p^i), is used only
for the e products omega*x^j the entries are built from, and to test
primitivity (with a resultant for the norm to F_p).

Every integer factored (q, p, N = p^e - 1 and subfield orders) is at
most MAX_ORDER, so trial division is the one factoring and primality test.

All choices (modulus, omega) are canonical, so two fields built from the
same (p, e, modulus) are bit-identical.
"""

import itertools
from array import array


class FieldError(ValueError):
    """Invalid field parameters or out-of-domain arguments."""


# The largest field order built.  Its tables take 8 bytes per element while
# built, 512 MiB at 2^26, and the order stays below 2^31, so every table
# entry fits a 4-byte signed int.
MAX_ORDER = 2 ** 26

def _prime_factors(n):
    """Prime factorisation {prime: exponent} of n by trial division.

    Empty for n < 2.  It factors only integers no larger than MAX_ORDER:
    q, p, N = p^e - 1 and subfield orders, so trial division stops below
    sqrt(MAX_ORDER).
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

def _poly_mod(a, b, p):
    """Remainder of a modulo the monic b over F_p: len(b) - 1 digits."""
    d = len(b) - 1
    r = list(a)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            for j in range(d):
                r[i - d + j] = (r[i - d + j] - c * b[j]) % p
    return r[:d]


def _resultant(f, g, p):
    """Res(f, g) over F_p for a monic f, by the Euclidean algorithm.

    Res(f, g) = prod g(alpha) over the roots alpha of f.  Each round makes
    g monic, Res(f, b g) = b^deg(f) Res(f, g), swaps, Res(f, g) =
    (-1)^(deg f deg g) Res(g, f), and reduces, Res(g, f) = Res(g, f mod g).
    """
    res = 1
    g = list(g)
    while True:
        while g and not g[-1]:
            g.pop()
        if not g:
            return 0
        m, n, b = len(f) - 1, len(g) - 1, g[-1]
        res = res * pow(b, m, p) % p
        if n == 0:
            return res
        inv = pow(b, -1, p)
        g = [c * inv % p for c in g]
        if m * n % 2:
            res = -res % p
        f, g = g, _poly_mod(f, g, p)


def find_irreducible_factor(f, p):
    """Return a nontrivial monic factor of f over F_p, or None if irreducible.

    Trial division by all monic polynomials of degree <= deg(f)/2; fine at
    the field sizes this package targets.
    """
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not any(_poly_mod(f, g, p)):
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
# the field
# ---------------------------------------------------------------------------

def _check_order(p, e):
    """Refuse F_{p^e} above MAX_ORDER before anything is built, naming the
    bytes its tables would take while built: 8 per element."""
    if e > MAX_ORDER.bit_length() or p ** e > MAX_ORDER:
        need = (f"{8 * p ** e:.3g}" if e * p.bit_length() < 1000
                else f"8 * {p}^{e}")
        raise FieldError(
            f"F_{p}^{e} is too large: its tables would need {need} bytes, "
            f"above the limit of {8 * MAX_ORDER} bytes (order {MAX_ORDER})")


class ExtensionField:
    """F_{p^e} with the Zech table of a canonical primitive element."""

    def __init__(self, p, e, modulus=None, omega_code=None):
        if type(p) is not int or p < 2:
            raise FieldError(f"p = {p} is not prime")
        if e < 1:
            raise FieldError(f"extension degree must be >= 1, got {e}")
        _check_order(p, e)
        if _prime_factors(p) != {p: 1}:
            raise FieldError(f"p = {p} is not prime")
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

        if omega_code is None:
            omega_code = self._find_primitive_code()
        elif not self._has_full_order(omega_code):
            raise FieldError(f"omega code {omega_code} is not primitive")
        self.omega_code = omega_code

        # log[code] = i for the code of omega^i; log[0] = -1 encodes zero.
        # For F_2 (N = 1) omega is 1.
        log = self._log_table()
        if log.count(-1) != 1:
            raise FieldError("log table is not a bijection")  # unreachable

        # zech[i] = log(1 + omega^i).  Adding 1 steps the constant digit mod
        # p: it takes each code c = j (mod p) to the next code, cyclically,
        # of its block of p consecutive codes.  So zech[log[c]] = log[c + 1]
        # pairs the strided views log[j::p] and log[(j + 1) % p::p], with no
        # copy.  Code 0 is zero, the only -1 in log and with no entry, so
        # the j = 0 views start at code p.
        self.zech = array("i", [0]) * max(self.N, 1)
        with memoryview(self.zech) as zech_w, memoryview(log) as log_r:
            for j in range(p):
                c = j or p  # the first code of the view with an entry
                succ = c + 1 if j < p - 1 else c + 1 - p
                for i, z in zip(log_r[c::p], log_r[succ::p]):
                    zech_w[i] = z

    def _log_table(self):
        """The log table (4-byte array, -1 at code 0), one table-driven
        omega-step per element.

        Multiplication by omega is F_p-linear.  Split a code as lo + hi*P
        with P = p^h, h = ceil(e/2); then omega*c = omega*lo + omega*(hi*x^h).
        Codes are stored spread: digit j of an h-digit half sits in a slot
        of base B = 2p - 1, so the sum of two reduced halves never carries,
        and r maps a spread half back to p-ary digits (every slot mod p).
        The images omega*x^j, j < e, are the e products made with mul_codes;
        the tables of omega*lo and omega*(hi*x^h) are then built one digit
        at a time, each entry an earlier entry plus a multiple of an image,
        reduced through r.  Each entry is kept as its low and high spread
        half, so a step is four lookups, two additions and two r lookups.
        The step tables hold 2p^h + 2p^(e-h) + B^h entries, O(order) for
        every (p, e).
        """
        p, e, omega = self.p, self.e, self.omega_code
        h = (e + 1) // 2
        P, B = p ** h, 2 * p - 1
        spread, r = [0], [0]  # h-digit half: p-ary -> spread, spread -> p-ary
        for j in range(h):
            spread = [s + d * B ** j for d in range(p) for s in spread]
            r = [t + (d % p) * p ** j for d in range(B) for t in r]

        def tables(js):
            """Spread halves of omega * sum(d_j x^j) over the digits d_j of
            the positions js, indexed by the p-ary code of the digits."""
            lows, highs = [0], [0]
            for j in js:
                c = self.mul_codes(omega, p ** j)
                a, b = spread[c % P], spread[c // P]
                ma, mb = [0], [0]  # the multiples d * omega * x^j, d < p
                for _ in range(p - 1):
                    ma.append(spread[r[ma[-1] + a]])
                    mb.append(spread[r[mb[-1] + b]])
                lows = [spread[r[s + m]] for m in ma for s in lows]
                highs = [spread[r[s + m]] for m in mb for s in highs]
            return lows, highs

        lo_lo, lo_hi = tables(range(h))
        hi_lo, hi_hi = tables(range(h, e))
        log = array("i", [-1]) * self.order
        # stored through a memoryview: an array item assignment parses its
        # argument with a format string, a memoryview's stores it directly
        with memoryview(log) as log_w:
            lo, hi = 1, 0
            for i in range(max(self.N, 1)):
                log_w[lo + hi * P] = i
                lo, hi = r[lo_lo[lo] + hi_lo[hi]], r[lo_hi[lo] + hi_hi[hi]]
        return log

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

    def _mul_digits(self, da, db):
        """Digit vector of the product of two digit vectors mod modulus."""
        p = self.p
        conv = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        return _poly_mod(conv, self.modulus, p)

    def mul_codes(self, a, b):
        return self._encode(self._mul_digits(self._compute_digits(a),
                                             self._compute_digits(b)))

    def pow_code(self, a, t):
        """Code of a^t by square-and-multiply on digit vectors."""
        result = [1] + [0] * (self.e - 1)
        base = self._compute_digits(a)
        while t:
            if t & 1:
                result = self._mul_digits(result, base)
            t >>= 1
            if t:
                base = self._mul_digits(base, base)
        return self._encode(result)

    def _has_full_order(self, code):
        """Whether code is a primitive element: c^(N/t) != 1 for each prime
        t dividing N.

        When t also divides p - 1, c^(N/t) = N(c)^((p-1)/t) with the norm
        N(c) = c^(N/(p-1)) in F_p, which is the resultant Res(modulus, c):
        one Euclidean resultant per code and an integer power mod p replace
        square-and-multiply.  Every other t takes pow_code.
        """
        if type(code) is not int or not 0 < code < self.order:
            return False
        p, N = self.p, self.N
        norm = _resultant(self.modulus, self._compute_digits(code), p)
        for t in _prime_factors(N):
            if (p - 1) % t == 0:
                if pow(norm, (p - 1) // t, p) == 1:
                    return False
            elif self.pow_code(code, N // t) == 1:
                return False
        return True

    def _find_primitive_code(self):
        for code in range(1, self.order):
            if self._has_full_order(code):
                return code
        raise FieldError("no primitive element found")  # unreachable

    # -- arithmetic on log indices

    def add(self, a, b):
        """omega^a + omega^b as a log index: one Zech lookup."""
        if a < 0:
            return b
        if b < 0:
            return a
        z = self.zech[(b - a) % self.N]
        return -1 if z < 0 else (a + z) % self.N

    def mul(self, a, b):
        """omega^a * omega^b as a log index."""
        return -1 if a < 0 or b < 0 else (a + b) % self.N

    # -- subfield structure

    def subfield_stride(self, order):
        """N / (order - 1) for the subfield of that order: its nonzero
        elements are the multiples of the stride, its generator the stride."""
        p, e = self.p, self.e
        d = _prime_factors(order).get(p, 0) if order <= self.order else 0
        if d == 0 or order != p ** d or e % d != 0:
            raise FieldError(
                f"order {order} is not a subfield order of F_{p}^{e}")
        return self.N // (order - 1)

    # -- serialization

    def descriptor(self):
        return {
            "p": self.p,
            "e": self.e,
            "modulus": list(self.modulus),
            "omega_index": self.omega_code,
        }

    def __repr__(self):
        return f"ExtensionField(p={self.p}, e={self.e})"


_FIELD_CACHE = {}


def field_create(p, e, modulus=None, omega_code=None):
    """Build (or fetch a cached) F_{p^e} with canonical deterministic tables."""
    key = (p, e, None if modulus is None else tuple(modulus), omega_code)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = ExtensionField(p, e, modulus, omega_code)
    return _FIELD_CACHE[key]


def field_from_descriptor(desc):
    if not isinstance(desc, dict) or not {"p", "e", "modulus"} <= desc.keys():
        raise FieldError("field descriptor needs entries p, e and modulus")
    for key in ("p", "e", "omega_index"):
        if key in desc and type(desc[key]) is not int:
            raise FieldError(f"field descriptor: {key!r} must be an "
                             f"integer, got {desc[key]!r}")
    modulus = desc["modulus"]
    if not isinstance(modulus, list) or any(
            type(c) is not int for c in modulus):
        raise FieldError("field descriptor: 'modulus' must be a list of "
                         "integers")
    return field_create(desc["p"], desc["e"], modulus,
                        desc.get("omega_index"))


def factor_prime_power(q):
    """Split a prime power q into (p, e0) with q = p^e0; q above MAX_ORDER
    is refused, as F_q would be."""
    if type(q) is not int or q < 2:
        raise FieldError(f"{q} is not a prime power")
    _check_order(q, 1)
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise FieldError(f"{q} is not a prime power")
    return next(iter(factors.items()))


def field_for_prime_power(q, m):
    """Realize F_{q^m} as an extension of the prime field F_p."""
    p, e0 = factor_prime_power(q)
    return field_create(p, e0 * m)
