"""F_q-linear subspaces of F_{q^m} and cyclic subspace codes.

Subspaces carry their full span as a frozenset of log indices (-1 for zero),
so scaling by omega^a shifts every nonzero index by a.  The distance sweep
over scalings asks for |U ∩ omega^a V| at each a, and one cyclic difference
count on the nonzero indices answers it for every a at once:
|U ∩ omega^a V| = 1 + #{(u, v) : u - v = a (mod N)}.

One kernel makes every such count in the package: _column_counts adds the
shifts of stacked indicators into bit-sliced counter planes, for sparse and
dense sets alike.  The sweep then reads the planes through masks:
_at_least gives the positions whose count reaches a threshold, and _peak
the largest count in a mask with the lowest position that holds it.
ooc.verify_oos runs the same kernel over the OOC words.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .field import (ExtensionField, factor_prime_power, field_from_descriptor,
                    field_for_prime_power)


class SubspaceError(ValueError):
    """Invalid subspace or code input."""


def _log_exact(size, q):
    d = round(math.log(size, q))
    if q ** d != size:
        raise SubspaceError(f"set of size {size} is not F_{q}-subspace sized")
    return d


def _column_counts(sets, n):
    """Bit-sliced cyclic difference counts, one column of the family at a
    time: for each j, the counter planes of set j against sets 0..j.

    Each set is a collection of distinct members of range(n).  Set i's
    doubled indicator x | x << n sits at bit offset 2n·i of one integer B,
    built up as j grows.  For y in X_j, bits [0, n) of block i of B >> y
    hold the rotation X_i - y, so adding B >> y over all y in X_j leaves
    c[tau] = |X_i ∩ (X_j + tau)| at bit 2n·i + tau: bit k of the count is
    that bit of plane k.  Each addition is a ripple carry over the planes
    that stops once the carry is 0.  Bit positions never interact, so the
    junk in bits [n, 2n) of a block never reaches [0, n), and no count
    exceeds |X_j| < 2^d with d the number of planes.  Every column reuses
    one list of planes, reset in place, so the caller's reference to the
    last column does not keep its counts alive while the next is counted.
    """
    B, planes = 0, []
    for j, X in enumerate(sets):
        x = 0
        for a in X:
            x |= 1 << a
        B |= (x | x << n) << (2 * n * j)
        planes[:] = [0] * len(X).bit_length()
        for y in X:
            carry = B >> y
            for k, P in enumerate(planes):
                planes[k] = P ^ carry
                carry &= P
                if not carry:
                    break
        yield planes


def _peak(planes, mask):
    """The largest count at a bit of mask and the lowest bit that holds it
    (None if mask is 0), by a top-down scan of the planes."""
    cand, value = mask, 0
    for k in range(len(planes) - 1, -1, -1):
        hit = cand & planes[k]
        if hit:
            cand, value = hit, value | 1 << k
    return value, (cand & -cand).bit_length() - 1 if cand else None


def _at_least(planes, v, mask):
    """The bits of mask whose count is at least v, by a top-down compare of
    the planes with the bits of v.  Equality to v is _at_least(v) minus
    _at_least(v + 1)."""
    if v >> len(planes):
        return 0
    above = 0
    for k in range(len(planes) - 1, -1, -1):
        if v >> k & 1:
            mask &= planes[k]
        else:
            above |= mask & planes[k]
    return above | mask


def _nonzero(U):
    return [i for i in U.span_idx if i >= 0]


class Subspace:
    """An F_q-subspace of the ambient field, with cached span."""

    __slots__ = ("field", "ground_q", "basis", "span_idx", "dim")

    def __init__(self, field, ground_q, basis, span_idx):
        self.field = field
        self.ground_q = ground_q
        self.basis = tuple(basis)
        self.span_idx = frozenset(span_idx)
        self.dim = len(self.basis)
        if len(self.span_idx) != ground_q ** self.dim:
            raise SubspaceError(f"span of size {len(self.span_idx)} does "
                                f"not match dimension {self.dim} over "
                                f"F_{ground_q}")

    def __repr__(self):
        return (f"Subspace(dim={self.dim}, q={self.ground_q}, "
                f"ambient=F_{self.field.order})")


def span(field, elements, ground_q):
    """F_q-span of the given elements, with an independent basis extracted.

    Dependent input is reduced, not rejected; the empty set spans {0}.
    """
    scalars = field.subfield(ground_q).elements()
    current = {field.zero().idx}
    basis = []
    for el in elements:
        field._check_same(el)
        if el.idx in current:
            continue
        basis.append(el)
        new = set(current)
        for s_idx in current:
            s = field.from_idx(s_idx)
            for lam in scalars[1:]:
                new.add((s + lam * el).idx)
        current = new
    return Subspace(field, ground_q, basis, current)


def _ground_unit_indices(field, q):
    """Log indices of F_q^* inside the ambient field."""
    stride = field.N // (q - 1)
    return {(stride * i) % field.N for i in range(q - 1)}


@dataclass
class CyclicSubspaceCode:
    """A union of orbits, given by representative subspaces."""

    field: ExtensionField
    ground_q: int
    representatives: tuple

    def __post_init__(self):
        self.representatives = tuple(self.representatives)
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
    def min_distance(self):
        """code_min_distance(self), swept once per code."""
        return code_min_distance(self)

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
    return {"ground_q": U.ground_q, "basis": [b.idx for b in U.basis]}


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
    return span(fld, [fld.from_idx(i) for i in basis], q)


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
    """Minimum subspace distance over the whole union of orbits.

    By cyclic symmetry d(alpha U, beta V) = d(U, alpha^{-1} beta V), so a
    sweep of alpha against fixed representatives is exact.  One pass of
    _column_counts gives c[a] = |U_i ∩ omega^a U_j| - 1 for every orbit
    pair i <= j; on the diagonal, the a with c[a] = |U_i| - 1 give
    omega^a U_i = U_i, the same codeword, and are left out.  Every count
    left must be q^e - 1 for some e, the size of a subspace less zero.
    """
    reps = code.representatives
    q, N, k = code.ground_q, code.field.N, code.dim
    low, stride = (1 << N) - 1, 2 * N
    below, best = 0, None
    for j, planes in enumerate(_column_counts(map(_nonzero, reps), N)):
        diag = low << stride * j
        # no count in column j exceeds |S_j| = q^k - 1
        region = below | diag & ~_at_least(planes, q ** k - 1, diag)
        exact = 0
        for e in range(k + 1):
            v = q ** e - 1
            exact |= (_at_least(planes, v, region)
                      & ~_at_least(planes, v + 1, region))
        bad = region & ~exact
        if bad:  # a span not closed under addition
            # the peak of the complemented planes is the least bad count
            v =(1 << len(planes)) - 1 - _peak([~P for P in planes], bad)[0]
            raise SubspaceError(f"set of size {1 + v} is not "
                                f"F_{q}-subspace sized")
        if region:
            v, _ = _peak(planes, region)
            best = v if best is None else max(best, v)
        below |= diag
    if best is None:  # one orbit of size 1: no pair of distinct codewords
        raise SubspaceError("minimum distance of a single-subspace code "
                            "is undefined")
    return 2 * k - 2 * _log_exact(1 + best, q)


# ---------------------------------------------------------------------------
# explicit constructions via linearized monomials
# ---------------------------------------------------------------------------

def construct_w(fld, q, k, s, mu, xi):
    """The subspace {x + xi * mu * x^(q^s) : x in F_{q^k}}.

    With mu = 0 this is F_{q^k} itself.  A degenerate (xi, mu) pair that
    collapses the dimension below k is a hard error.
    """
    emb = fld.subfield(q ** k)
    c = xi * mu
    qs = q ** s
    # emb.elements() is 0, g^0, g^1, ... for the generator g of F_{q^k}
    images = [x + c * x ** qs for x in emb.elements()]
    span_idx = {y.idx for y in images}
    if len(span_idx) != q ** k:
        raise SubspaceError("degenerate (xi, mu): image has dimension < k")
    # the map is F_q-linear and injective, so it carries the basis
    # 1, g, ..., g^(k-1) of F_{q^k} to a basis of its image
    return Subspace(fld, q, images[1:k + 1], span_idx)


def validate_multi_orbit(fld, q, k, mus, xi):
    """Check the pairwise norm conditions for a multi-orbit construction.

    Requires the ambient field to be F_{q^{2k}}.  Returns (ok, report) where
    report lists every violated pair.
    """
    p, e0 = factor_prime_power(q)
    if fld.p != p or fld.e != e0 * 2 * k:
        raise SubspaceError("ambient field must be F_{q^{2k}}")
    if len(mus) > q - 1:
        raise SubspaceError("at most q - 1 orbits allowed")
    qk = q ** k
    if fld.subfield(qk).contains(xi):
        raise SubspaceError("xi must lie outside F_{q^k}")
    norm = lambda x: fld.rel_norm(x, qk, q)
    xi_norm_factor = xi ** (qk + 1)
    report = []
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            if norm(mus[i]) == norm(mus[j]):
                report.append({"pair": (i, j), "condition": "equal norms"})
            if norm(mus[i] * mus[j] * xi_norm_factor) == fld.one():
                report.append({"pair": (i, j),
                               "condition": "norm(mu_i mu_j xi^(q^k+1)) = 1"})
    return not report, report


def check_g_params(q, k):
    """Reject (q, k) outside the domain of G_{2k,s}: a prime power q >= 3
    and k >= 2."""
    if q < 3:
        raise SubspaceError("construction requires q >= 3")
    if k < 2:
        raise SubspaceError("construction requires k >= 2")
    factor_prime_power(q)


def construct_g(q, k, s):
    """The explicit multi-orbit code G_{2k,s} over F_{q^{2k}}.

    Picks the canonical primitive w of F_{q^k}, the first b (in canonical
    element order) making x^2 + b x + w irreducible over F_{q^k}, the first
    root xi of that quadratic in F_{q^{2k}}, and returns the
    floor((q-1)/2) orbits V_i = {u + u^(q^s) w^i xi : u in F_{q^k}}.
    """
    check_g_params(q, k)
    if s < 1:
        raise SubspaceError(f"construction requires s >= 1, got s={s}")
    if math.gcd(s, k) != 1:
        raise SubspaceError(f"gcd(s, k) must be 1, got s={s}, k={k}")
    m = 2 * k
    fld = field_for_prime_power(q, m)
    qk = q ** k
    emb = fld.subfield(qk)
    w = emb.generator
    # primitive w is never a (q-1)-power for q > 2
    if w ** ((qk - 1) // (q - 1)) == fld.one():
        raise SubspaceError("w is a (q-1)-power")  # cannot happen

    b = next((cand for cand in emb.elements()
              if fld.is_irreducible_quadratic(cand, w, qk)), None)
    if b is None:
        raise SubspaceError("no b makes x^2 + b x + w irreducible")  # cannot happen
    xi = next((t for t in fld.iter_elements()
               if not t.is_zero() and (t * t + b * t + w).is_zero()), None)
    if xi is None:
        raise SubspaceError("quadratic has no root in F_{q^{2k}}")  # cannot happen

    r = (q - 1) // 2
    mus = [w ** i for i in range(r)]
    if r > 1:
        ok, report = validate_multi_orbit(fld, q, k, mus, xi)
        if not ok:
            raise SubspaceError(f"norm conditions violated: {report}")
    reps = [construct_w(fld, q, k, s, mu, xi) for mu in mus]
    return CyclicSubspaceCode(fld, q, tuple(reps))


# ---------------------------------------------------------------------------
# affine coset families
# ---------------------------------------------------------------------------

def _coset_scan(U):
    """Yield (a, log indices of omega^a + U) for each coset representative
    omega^a of F_{q^m}/U: the uncovered a in ascending order, t of them.

    omega^a + U is a and a + zech[u - a] for the nonzero span indices u.
    U is F_q-linear, so lam(omega^a + U) = lam omega^a + U: shifting the
    coset by each log index of F_q^* marks every F_q-multiple covered.
    """
    f, q, N = U.field, U.ground_q, U.field.N
    m = _log_exact(f.order, q)
    if U.dim >= m:
        raise SubspaceError("U must be a proper subspace")
    t = (q ** (m - U.dim) - 1) // (q - 1)
    span_nz = _nonzero(U)
    units = _ground_unit_indices(f, q)
    zech = f.zech
    covered = bytearray(N)
    for i in span_nz:
        covered[i] = 1
    found = 0
    for a in range(N):
        if covered[a]:
            continue
        z = [zech[i - a] for i in span_nz]  # i - a < 0 indexes from the end
        if -1 in z:
            raise SubspaceError("a coset representative lies in U")
        coset = [a] + [(a + j) % N for j in z]
        yield a, coset
        found += 1
        if found == t:
            return
        for s in units:
            for j in coset:
                covered[(j + s) % N] = 1
    raise SubspaceError(f"expected {t} coset representatives, got {found}")


def coset_representatives(U):
    """Log indices a of pairwise non-F_q-proportional representatives omega^a
    of F_{q^m}/U, from the covering scan: exactly t = (q^{m-k} - 1)/(q - 1),
    none in U, no two differing by an F_q-multiple modulo U."""
    return [a for a, _ in _coset_scan(U)]


@dataclass
class CosetFamily:
    """The affine family {U_i + omega^a}: each coset W^* as the frozenset of
    its log indices, grouped by U_i in order, each group in scan order."""

    cosets: tuple


def build_coset_family(code):
    """The cosets U_i + omega^a of every representative U_i, each a from
    one log-domain covering scan, as frozensets of log indices."""
    if not code.orbits_disjoint():
        raise SubspaceError("code orbits are not pairwise disjoint")
    return CosetFamily(tuple(frozenset(coset)
                             for U in code.representatives
                             for _, coset in _coset_scan(U)))
