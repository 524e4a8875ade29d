"""F_q-linear subspaces of F_{q^m} and cyclic subspace codes.

Subspaces carry their full span as a frozenset of log indices (-1 for zero),
which makes scaling by a nonzero field element a cheap index shift.  Every
sweep over scalings alpha = omega^a asks for |U ∩ alpha V| at each a, and
all of them are answered by one cyclic difference count on the nonzero
indices: |U ∩ alpha V| = 1 + #{(u, v) : u - v = a (mod N)}.

The count, difference_counts, takes one of two routes by input size alone.
Sparse pairs (|X|·|Y| <= 16·n, every sweep of the construction) loop over
X x Y.  Dense pairs, as in the sweeps over a dense subspace from a --code
file, are one big-integer product X(z)·Y(z^-1) mod z^n - 1 by Kronecker
substitution, which costs O(n) however few members the sets have.  OOC
verification does not use this count; ooc.verify_oos has its own sweep.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .field import (ExtensionField, FieldElement, factor_prime_power,
                    field_from_descriptor, field_for_prime_power)


class SubspaceError(ValueError):
    """Invalid subspace or code input."""


def _shift_span(span_idx, a, N):
    """Span of alpha*U for alpha = omega^a, as an index set."""
    return frozenset(-1 if i < 0 else (i + a) % N for i in span_idx)


def _log_exact(size, q):
    d = round(math.log(size, q))
    if q ** d != size:
        raise SubspaceError(f"set of size {size} is not F_{q}-subspace sized")
    return d


# Pair steps per slot of c up to which the pair loop beats the product: the
# product costs O(n) in packing and folding however sparse the sets are.
_LOOP_PAIRS_PER_SLOT = 16

_SLOT_FORMAT = {1: "B", 2: "H", 4: "I"}


def difference_counts(X, Y, n):
    """c with c[tau] = |X ∩ (Y + tau)| for every tau in Z_n.

    X and Y hold distinct members of range(n).  Sparse pairs, with
    |X|·|Y| <= _LOOP_PAIRS_PER_SLOT·n, count x - y (mod n) over all pairs
    (x, y) in X x Y; a negative difference indexes c from the end, which is
    the reduction mod n.  Denser pairs take _product_counts.
    """
    if len(X) * len(Y) > _LOOP_PAIRS_PER_SLOT * n:
        return _product_counts(X, Y, n)
    c = [0] * n
    for y in Y:
        for x in X:
            c[x - y] += 1
    return c


def _product_counts(X, Y, n):
    """difference_counts as one integer product X(z)·Y(z^-1) mod z^n - 1.

    Kronecker substitution: X goes in as sum z^x and Y as sum z^(n-1-y),
    with z = 2^(8b) and b bytes per slot, so the product's coefficient at
    n-1+tau counts x - y = tau.  No coefficient exceeds min(|X|, |Y|), so b
    is the smallest width that holds that, and neither the product nor the
    cyclic fold ever carries into the next slot.
    """
    m = min(len(X), len(Y))
    b = 1 if m < 1 << 8 else 2 if m < 1 << 16 else 4
    bits = 8 * b
    xs, ys = bytearray(n * b), bytearray(n * b)
    for x in X:
        xs[x * b] = 1
    for y in Y:
        ys[(n - 1 - y) * b] = 1
    P = int.from_bytes(xs, "little") * int.from_bytes(ys, "little")
    low = (n - 1) * bits
    P = (P >> low) + ((P & ((1 << low) - 1)) << bits)
    # the cast reads slots in native byte order; a big-endian to_bytes also
    # puts slot 0 last
    c = memoryview(P.to_bytes(n * b, sys.byteorder)).cast(
        _SLOT_FORMAT[b]).tolist()
    if sys.byteorder == "big":
        c.reverse()
    return c


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

    def scale(self, alpha):
        """The subspace alpha*U for nonzero alpha."""
        if alpha.is_zero():
            raise SubspaceError("cannot scale a subspace by zero")
        return Subspace(self.field, self.ground_q,
                        [alpha * b for b in self.basis],
                        _shift_span(self.span_idx, alpha.idx, self.field.N))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field is other.field
                and self.ground_q == other.ground_q
                and self.span_idx == other.span_idx)

    def __hash__(self):
        return hash((id(self.field), self.ground_q, self.span_idx))

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


def _check_compatible(U, V):
    if U.field is not V.field or U.ground_q != V.ground_q:
        raise SubspaceError("subspaces live in different ambient fields")


def dim_intersection(U, V):
    """dim_{F_q}(U intersect V) = log_q |U ∩ V| on the cached spans."""
    _check_compatible(U, V)
    return _log_exact(len(U.span_idx & V.span_idx), U.ground_q)


def subspace_distance(U, V):
    """d_s(U, V) = dim U + dim V - 2 dim(U intersect V)."""
    return U.dim + V.dim - 2 * dim_intersection(U, V)


def _ground_unit_indices(field, q):
    """Log indices of F_q^* inside the ambient field."""
    stride = field.N // (q - 1)
    return {(stride * i) % field.N for i in range(q - 1)}


def is_sidon(U):
    """Exhaustive Sidon check: dim(U ∩ alpha U) <= 1 for alpha outside F_q.

    Returns (True, None) or (False, witness_alpha) with the smallest witness
    by log index.
    """
    f, q, N = U.field, U.ground_q, U.field.N
    units = _ground_unit_indices(f, q)
    S = _nonzero(U)
    c = difference_counts(S, S, N)
    # dim(U ∩ alpha U) >= 2  <=>  |U ∩ alpha U| = 1 + c[a] > q
    a = next((a for a in range(1, N) if c[a] >= q and a not in units), None)
    return (True, None) if a is None else (False, f.from_idx(a))


def is_multi_sidon(spaces):
    """Multi-Sidon check on a family of equal-dimension subspaces.

    dim(U_i ∩ alpha U_j) <= 1 must hold for all nonzero alpha when i != j,
    and for alpha outside F_q when i = j.  Returns (True, None) or
    (False, (i, j, alpha)).
    """
    if len(set(spaces)) != len(spaces):
        raise SubspaceError("duplicate subspaces in multi-Sidon input")
    dims = {U.dim for U in spaces}
    if len(dims) != 1:
        raise SubspaceError("multi-Sidon input must have equal dimensions")
    for U in spaces[1:]:
        _check_compatible(spaces[0], U)
    f, q, N = spaces[0].field, spaces[0].ground_q, spaces[0].field.N
    for i, U in enumerate(spaces):
        ok, alpha = is_sidon(U)
        if not ok:
            return False, (i, i, alpha)
    for i in range(len(spaces)):
        for j in range(i + 1, len(spaces)):
            c = difference_counts(_nonzero(spaces[i]), _nonzero(spaces[j]), N)
            a = next((a for a, v in enumerate(c) if v >= q), None)
            if a is not None:
                return False, (i, j, f.from_idx(a))
    return True, None


def orbit_size(U):
    """N / |stabiliser|, the stabiliser being the a with omega^a U = U."""
    S = _nonzero(U)
    stabilizer = difference_counts(S, S, U.field.N).count(len(S))
    return U.field.N // stabilizer


def orbit(U):
    """Distinct subspaces alpha*U, in ascending order of the scaling index.

    The stabiliser is a subgroup of Z_N, so omega^a U for a < orbit_size(U)
    are exactly the distinct scalings.
    """
    return [U.scale(U.field.from_idx(a)) for a in range(orbit_size(U))]


@dataclass
class CyclicSubspaceCode:
    """A union of orbits, given by representative subspaces."""

    field: ExtensionField
    ground_q: int
    representatives: tuple
    min_distance: int | None = None

    def __post_init__(self):
        self.representatives = tuple(self.representatives)
        dims = {U.dim for U in self.representatives}
        if len(dims) != 1:
            raise SubspaceError("representatives must have equal dimension")

    @property
    def dim(self):
        return self.representatives[0].dim

    @property
    def orbit_sizes(self):
        return [orbit_size(U) for U in self.representatives]

    @property
    def size(self):
        return sum(self.orbit_sizes)

    def orbits_disjoint(self):
        N = self.field.N
        reps = [_nonzero(U) for U in self.representatives]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                Si, Sj = reps[i], reps[j]
                if (len(Si) == len(Sj)
                        and len(Si) in difference_counts(Si, Sj, N)):
                    return False
        return True

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
    sweep of alpha against fixed representatives is exact.
    """
    reps = code.representatives
    q, N = code.ground_q, code.field.N
    best = None
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            Si, Sj = _nonzero(reps[i]), _nonzero(reps[j])
            counts = set(difference_counts(Si, Sj, N))
            if i == j:  # alpha U_i = U_i is the same codeword
                counts.discard(len(Si))
            for v in counts:  # |U_i ∩ alpha U_j| = 1 + v
                d = reps[i].dim + reps[j].dim - 2 * _log_exact(1 + v, q)
                if best is None or d < best:
                    best = d
    if best is None:  # one orbit of size 1: no pair of distinct codewords
        raise SubspaceError("minimum distance of a single-subspace code "
                            "is undefined")
    return best


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
    code = CyclicSubspaceCode(fld, q, tuple(reps))
    code.min_distance = code_min_distance(code)
    return code


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
    """Pairwise non-F_q-proportional representatives of F_{q^m}/U, from the
    log-domain covering scan: exactly t = (q^{m-k} - 1)/(q - 1) elements,
    none in U, no two of which differ by an F_q-multiple modulo U."""
    return [U.field.from_idx(a) for a, _ in _coset_scan(U)]


@dataclass
class CosetFamily:
    """The affine family {U_i + d_{i,j}} built from a code's representatives."""

    code: CyclicSubspaceCode
    entries: tuple          # (subspace index, translate) pairs
    cosets: tuple           # matching tuples of field elements
    t: int

    def __len__(self):
        return len(self.entries)


def build_coset_family(code):
    """The cosets U_i + d of every representative U_i, each d from one
    log-domain covering scan, as sorted tuples of field elements."""
    if not code.orbits_disjoint():
        raise SubspaceError("code orbits are not pairwise disjoint")
    f = code.field
    entries = []
    cosets = []
    for i, U in enumerate(code.representatives):
        for a, coset in _coset_scan(U):
            entries.append((i, FieldElement(f, a)))
            cosets.append(tuple([FieldElement(f, j) for j in sorted(coset)]))
    t = len(entries) // len(code.representatives)
    return CosetFamily(code, tuple(entries), tuple(cosets), t)
