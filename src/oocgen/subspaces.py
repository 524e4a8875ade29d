"""F_q-linear subspaces of F_{q^m} and cyclic subspace codes.

An element is its log index (-1 for zero), as in field.py.  The log indices
of F_q^* are the multiples of g = N/(q - 1), so an F_q^*-class of nonzero
elements, a point of PG(m - 1, q), is a residue modulo g, and an F_q-subspace
is zero and a set of whole classes.  A Subspace carries its basis as log
indices and its span as those residues, so scaling by omega^a adds a to every
residue.  The distance sweep over scalings asks for |U ∩ omega^a V| at each
a, and since F_q^* fixes every subspace, a modulo g decides it; one cyclic
difference count on the classes answers it for every a at once:
|U ∩ omega^a V| = 1 + (q - 1) #{(u, v) : u - v = a (mod g)}.

kernel._BlockStack, the one counting kernel, makes every such count; _peak
reads its planes through a mask.  On an orbit's own mask, the positions whose
count is the whole subspace are its stabiliser modulo F_q^*, so one pass also
tells a short orbit.
"""

import functools
import math

from .field import (factor_prime_power, field_from_descriptor,
                    field_for_prime_power)
from .kernel import _BlockStack, _peak


class SubspaceError(ValueError):
    """Invalid subspace or code input."""


def _nonzero(U):
    """U's nonzero log indices: r + u for each class r and each log index
    u of F_q^*, the multiples of g below N."""
    units = range(0, U.field.N, U.field.subfield_stride(U.ground_q))
    return [r + u for r in U.classes for u in units]


class Subspace:
    """The F_q-span of the elements with the given log indices, with an
    independent basis extracted and the span kept as its F_q^*-classes.

    Dependent input is reduced, not rejected; the empty set spans {0}.  The
    span is F_q-closed by construction: for a closed S and lam in F_q^*,
    s + lam * el = lam (s / lam + el), so a new basis element el adds the
    classes of the q^dim sums s + el, s in S.
    """

    __slots__ = ("field", "ground_q", "basis", "classes", "dim")

    def __init__(self, field, ground_q, indices):
        add, g = field.add, field.subfield_stride(ground_q)
        units = range(0, field.N, g)
        basis, classes = [], set()
        for el in indices:
            if el < 0 or el % g in classes:  # zero, or already spanned
                continue
            basis.append(el)
            classes |= {add(r + u, el) % g for r in classes for u in units}
            classes.add(el % g)  # the sum 0 + el
        self.field, self.ground_q = field, ground_q
        self.basis, self.dim = tuple(basis), len(basis)
        self.classes = tuple(sorted(classes))

    def __repr__(self):
        return (f"Subspace(dim={self.dim}, q={self.ground_q}, "
                f"ambient=F_{self.field.order})")


class CyclicSubspaceCode:
    """A union of orbits, given by representative subspaces."""

    def __init__(self, field, ground_q, representatives):
        self.field = field
        self.ground_q = ground_q
        self.representatives = tuple(representatives)
        for U in self.representatives:
            if U.field is not self.field:
                raise SubspaceError("representatives live in different "
                                    "ambient fields")
            if U.ground_q != self.ground_q:
                raise SubspaceError(f"representatives lie over different "
                                    f"ground fields F_{self.ground_q} and "
                                    f"F_{U.ground_q}")
        dims = {U.dim for U in self.representatives}
        if len(dims) != 1:
            raise SubspaceError("representatives must have equal dimension")

    @property
    def dim(self):
        return self.representatives[0].dim

    @functools.cached_property
    def _sweep(self):
        """_orbit_sweep(self), swept once per code."""
        return _orbit_sweep(self)

    @property
    def min_distance(self):
        return self._sweep[0]

    @property
    def stabiliser_orders(self):
        """Per representative U, the order of {alpha : alpha U = U}; the
        orbit of U has N / order members."""
        return self._sweep[1]

    def orbits_disjoint(self):
        """No two representatives share an orbit: the distance is 0 exactly
        when U_i = alpha U_j for some i != j."""
        return len(self.representatives) < 2 or self.min_distance > 0

    def to_dict(self):
        return {
            "field": self.field.descriptor(),
            "orbits": [subspace_to_dict(U) for U in self.representatives],
        }


def subspace_to_dict(U):
    return {"ground_q": U.ground_q, "basis": list(U.basis)}


def _entry(d, key, what):
    if not isinstance(d, dict) or key not in d:
        raise SubspaceError(f"{what} has no {key!r} entry")
    return d[key]


def subspace_from_dict(d, fld):
    q = _entry(d, "ground_q", "orbit")
    basis = _entry(d, "basis", "orbit")
    if type(q) is not int:
        raise SubspaceError(f"ground_q must be an integer, got {q!r}")
    if not isinstance(basis, list) or not all(
            type(i) is int and -1 <= i < fld.N for i in basis):
        raise SubspaceError(f"basis entries must be log indices in "
                            f"-1..{fld.N - 1}, got {basis!r}")
    return Subspace(fld, q, basis)


def code_from_dict(d):
    fld = field_from_descriptor(_entry(d, "field", "code file"))
    orbits = _entry(d, "orbits", "code file")
    if not isinstance(orbits, list):
        raise SubspaceError("code file: 'orbits' must be a list")
    reps = [subspace_from_dict(s, fld) for s in orbits]
    if not reps:
        raise SubspaceError("code file contains no orbits")
    return CyclicSubspaceCode(fld, reps[0].ground_q, reps)


def code_min_distance(code):
    """Minimum subspace distance over the whole union of orbits."""
    return _orbit_sweep(code)[0]


def _orbit_sweep(code):
    """The minimum distance and the stabiliser order of each orbit.

    By cyclic symmetry d(alpha U, beta V) = d(U, alpha^{-1} beta V), so a
    sweep of alpha against fixed representatives is exact, and F_q^* fixes
    every subspace, so a runs over Z_g, g = N/(q - 1).  A _BlockStack(g)
    counts the classes of each U_j: c[a] = the number of F_q^*-classes
    in U_i ∩ omega^a U_j, i <= j.  Its own mask's peak, all
    of U_j's classes at a = 0, is U_j's stabiliser modulo F_q^*, left out
    of the distance; each of its residues stands for q - 1 scalars.  Over
    the rest of own and all of below only the peak is read: a subspace of
    dimension e holds (q^e - 1)/(q - 1) classes, looked up among e = 0..k,
    and that count rises with e, so the largest count is the largest
    intersection.
    """
    q, k = code.ground_q, code.dim
    dims = {(q ** e - 1) // (q - 1): e for e in range(k + 1)}
    g = code.field.subfield_stride(q)
    most, orders, stack = -1, [], _BlockStack(g)  # most: max dim(U ∩ a V)
    for U in code.representatives:
        planes, own, below = stack.count(U.classes)
        _, stab = _peak(planes, own)
        orders.append((q - 1) * stab.bit_count())
        region = below | own ^ stab  # stab lies in own
        if region:
            most = max(most, dims[_peak(planes, region)[0]])
    if most < 0:  # one orbit of size 1: no pair of distinct codewords
        raise SubspaceError("minimum distance of a single-subspace code "
                            "is undefined")
    return 2 * k - 2 * most, tuple(orders)


# ---------------------------------------------------------------------------
# explicit constructions via linearized monomials
# ---------------------------------------------------------------------------

def construct_w(fld, q, k, s, mu, xi):
    """The subspace {x + xi * mu * x^(q^s) : x in F_{q^k}}.

    mu and xi are log indices.  With mu = 0 this is F_{q^k} itself.  A
    degenerate (xi, mu) pair that collapses the dimension below k is a hard
    error.
    """
    N, g = fld.N, fld.subfield_stride(q ** k)
    c, qs = fld.mul(xi, mu), q ** s
    # the map is F_q-linear, so the images of 1, g, ..., g^(k-1) span U;
    # x^(q^s) is the index x * q^s
    U = Subspace(fld, q, [fld.add(x, fld.mul(c, x * qs % N))
                          for x in (g * i % N for i in range(k))])
    if U.dim != k:
        raise SubspaceError("degenerate (xi, mu): image has dimension < k")
    return U


def check_g_params(q, k):
    """Reject (q, k) outside the domain of G_{2k,s}: a prime power q >= 3
    and k >= 2."""
    if q < 3:
        raise SubspaceError("the explicit construction requires q >= 3 "
                            "(use --code with `oocgen construct` for "
                            "externally supplied orbits)")
    if k < 2:
        raise SubspaceError("construction requires k >= 2")
    factor_prime_power(q)


def construct_g(q, k, s):
    """The explicit multi-orbit code G_{2k,s} over F_{q^{2k}}.

    Picks the canonical primitive w of F_{q^k}, the first b in F_{q^k}
    (zero, then ascending log index) with no root t of t(t + b) + w in
    F_{q^k}, so x^2 + b x + w is irreducible, the first root xi of it in
    F_{q^{2k}} (ascending log index), and returns the floor((q-1)/2) orbits
    V_i = {u + u^(q^s) w^i xi : u in F_{q^k}}, all as log indices.

    The paper's norm conditions hold for these choices, so they are not
    checked here: the norm to F_q is the index times (q^k-1)/(q-1), so the
    N(w^i) = i N/(q-1) are distinct for i < q - 1, and xi^(q^k+1) = w makes
    N(w^i w^j xi^(q^k+1)) = (i+j+1) N/(q-1), never 1 as 1 <= i+j+1 <= q-2.
    The orbit sweep proves the code's distance either way.
    """
    check_g_params(q, k)
    if s < 1:
        raise SubspaceError(f"construction requires s >= 1, got s={s}")
    if math.gcd(s, k) != 1:
        raise SubspaceError(f"gcd(s, k) must be 1, got s={s}, k={k}")
    fld = field_for_prime_power(q, 2 * k)
    N, w = fld.N, fld.subfield_stride(q ** k)
    add, mul = fld.add, fld.mul

    def root(t, b):  # t(t + b) + w = 0: t is a root of x^2 + b x + w
        return add(mul(t, add(t, b)), w) < 0

    sub = (-1, *range(0, N, w))  # F_{q^k}: zero and the powers of w
    b = next(b for b in sub if not any(root(t, b) for t in sub))
    # both roots have norm xi^(q^k + 1) = w, so log xi = 1 mod q^k - 1
    xi = next(t for t in range(1, N, q ** k - 1) if root(t, b))
    reps = [construct_w(fld, q, k, s, w * i % N, xi)
            for i in range((q - 1) // 2)]
    return CyclicSubspaceCode(fld, q, tuple(reps))


# ---------------------------------------------------------------------------
# affine coset families
# ---------------------------------------------------------------------------

def _coset_scan(U):
    """Yield the log indices of omega^a + U, as a strictly increasing tuple,
    for each coset representative omega^a of F_{q^m}/U: t of them, a
    ascending.  a leads its tuple.

    omega^a + U is a and a + zech[u - a] for the nonzero span indices u.
    U^* is its F_q^*-classes, residues modulo g = N/(q - 1), which start
    marked.  lam(omega^a + U) = lam omega^a + U, so marking a coset's
    residues marks every F_q-multiple of it, and the classes of cosets
    partition the field outside U.  The next a is the least unmarked
    residue: it is below g, each member of its coset lies in an unmarked
    class, so a is the coset's least member, and -omega^a is not in U.
    """
    f, q, N = U.field, U.ground_q, U.field.N
    size = q ** U.dim
    if size >= f.order:
        raise SubspaceError("U must be a proper subspace")
    t = (f.order // size - 1) // (q - 1)
    g, zech, span_nz = f.subfield_stride(q), f.zech, _nonzero(U)
    covered = bytearray(g)
    for r in U.classes:
        covered[r] = 1
    a = -1
    for _ in range(t):  # each coset marks q^k of t q^k unmarked residues
        a = covered.find(0, a + 1)
        coset = tuple(sorted([a] + [(a + zech[i - a]) % N for i in span_nz]))
        yield coset
        for j in coset:
            covered[j % g] = 1


def coset_representatives(U):
    """Log indices a of pairwise non-F_q-proportional representatives omega^a
    of F_{q^m}/U, from the class-marking scan: exactly
    t = (q^{m-k} - 1)/(q - 1), none in U, no two differing by an
    F_q-multiple modulo U, each below N/(q - 1) and the first member of its
    coset's tuple."""
    return [coset[0] for coset in _coset_scan(U)]


class CosetFamily:
    """The affine family {U_i + omega^a}: each coset W^* as the strictly
    increasing tuple of its log indices, led by its representative a, so
    the family is ordered by U_i and then by least member."""

    __slots__ = ("cosets",)

    def __init__(self, cosets):
        self.cosets = cosets


def build_coset_family(code):
    """The cosets U_i + omega^a of every representative U_i, each a from
    one scan that marks F_q^*-classes, residues modulo N/(q - 1), as the
    scan's strictly increasing tuples of log indices, each led by its a.

    The orbits must be disjoint and full-length: each U_i stabilised by
    F_q^* alone.  A larger stabiliser would make two cosets of one orbit
    cyclic shifts of each other, so a short orbit is refused before the
    scan.
    """
    if not code.orbits_disjoint():
        raise SubspaceError("code orbits are not pairwise disjoint")
    q = code.ground_q
    for j, order in enumerate(code.stabiliser_orders):
        if order != q - 1:
            raise SubspaceError(f"orbit {j} is short: stabiliser of order "
                                f"{order}, the construction needs "
                                f"q - 1 = {q - 1}")
    return CosetFamily(tuple(coset for U in code.representatives
                             for coset in _coset_scan(U)))


def _orbit_proof(code, cosets):
    """True when two exact checks per orbit show that no correlation of the
    words exceeds lam = q^(k - d/2), d the code's minimum distance.

    Each orbit a, full-length, must hold t = len(cosets)/r consecutive
    words.  Two bytearray(g) mark residues modulo g = N/(q - 1) as
    _coset_scan does: in_u U_a's classes, marks those and every member's.
    (a) Each word has q^k members, and for its first member x0 and each
    other y, omega^y - omega^x0 = omega^(x0 + h)(1 + omega^(y - x0 + h)),
    h = log(-1), has its class in in_u.  (b) The classes and members number
    g and leave no residue unmarked, so each residue is marked once and all
    members are pairwise distinct.  A word's q^k - 1 differences are then
    distinct nonzero elements, each in U_a^* as its class is (U_a is
    F_q-closed), so they are all of U_a^* and the word is x0 + U_a.
    Two affine cosets meet in nothing or in a coset of the intersection of
    their subspaces, so |X_i ∩ (X_j + tau)| <= |U_a ∩ omega^tau U_b|, which
    the orbit sweep bounds by lam unless omega^tau U_a = U_a, tau a multiple
    of g.  There omega^tau X_j has X_j's residues, so by (b) it misses X_i,
    and X_j itself but at tau = 0.  Nothing here reuses the coset scan, so
    the checks re-prove what it built.
    """
    f, q, reps = code.field, code.ground_q, code.representatives
    N, g, zech = f.N, f.subfield_stride(q), f.zech
    h = 0 if f.p == 2 else N // 2  # -1 = omega^h
    t, rest = divmod(len(cosets), len(reps))
    if rest or any(order != q - 1 for order in code.stabiliser_orders):
        return False
    size = q ** code.dim
    for a, U in enumerate(reps):
        in_u = bytearray(g)
        for r in U.classes:
            in_u[r] = 1
        marks = bytearray(in_u)
        for word in cosets[a * t:(a + 1) * t]:
            if len(word) != size:
                return False
            x0 = word[0]
            if not all(in_u[(x0 + h + zech[(y - x0 + h) % N]) % g]
                       for y in word[1:]):
                return False
            for y in word:
                marks[y % g] = 1
        if len(U.classes) + t * size != g or 0 in marks:
            return False
    return True
