"""The one counting kernel: cyclic difference counts of index sets.

_BlockStack counts |X_i ∩ (X + tau)| for every tau and every set X_i stacked
so far, in bit planes; _peak reads the largest count under a mask.  The
subspace sweep (subspaces.py) and the correlation check (ooc.py) both count
through it.  It needs no other module, so a run that only verifies a file
loads it without the field or subspace layers.
"""


class _BlockStack:
    """Bit-sliced cyclic difference counts of a set X against a stack of
    sets: count(X) returns (planes, own, below), push() stacks that X.

    Stacked set i's doubled indicator x | x << n sits at bit offset 2n·i of
    one integer B, and X's at the next offset.  For y in X, bits [0, n) of
    block i of the row B >> y hold the rotation X_i - y, so the sum of the
    rows holds c[tau] = |X_i ∩ (X + tau)| at bit 2n·i + tau: bit k of the
    count is that bit of plane k.  own masks X's block's bits [0, n), below
    the stacked blocks'; callers read counts only through them and first.

    The rows enter four at a time through a carry-save (Harley–Seal) front
    end, which sends one carry of weight four up from plane 2; the 0-3 rows
    left over ripple in from plane 0.  Bits never interact, so the junk in a
    block's bits [n, 2n) never reaches [0, n); no count exceeds |X| < 2^d.

    count keeps nothing: the next count swaps X's block, top, for its own,
    so B is the one stacked integer.  It resets the one planes list in place
    before it counts, and advances the masks after a push only once it has
    counted and dropped its adder temporaries: the caller may hold the last.
    """

    def __init__(self, n):
        self.n, self.B, self.planes, self.offset = n, 0, [], 0
        self.own, self.below, self.top = (1 << n) - 1, 0, None

    def count(self, X):
        rows, planes, n = list(X), self.planes, self.n
        x = sum(1 << a | 1 << a + n for a in rows)  # members are distinct
        self.B = B = self.B ^ (x ^ (self.top or 0)) << self.offset
        planes[:] = [0] * len(rows).bit_length()
        cut = len(rows) & -4
        if cut:
            ones = twos = 0
            for a, b, c, d in zip(*[iter(rows[:cut])] * 4):
                a, b = B >> a, B >> b
                u = ones ^ a  # ones + a + b = ones' + 2 t
                t = ones & a | u & b
                ones = u ^ b
                a, b = B >> c, B >> d  # the first two rows are freed
                u = ones ^ a  # ones + a + b = ones' + 2 h
                h = ones & a | u & b
                ones = u ^ b
                u = twos ^ t  # twos + t + h = twos' + 2 fours
                _ripple(planes, 2, twos & t | u & h)  # |X| >= 4: d >= 3
                twos = u ^ h
            planes[0], planes[1] = ones, twos
            del a, b, u, t, h  # not held while the next masks are made
        for y in rows[cut:]:
            _ripple(planes, 0, B >> y)
        if self.top is None and self.offset:  # pushed since the last count
            self.below, self.own = self.below | self.own, self.own << 2 * n
        self.top = x
        return planes, self.own, self.below

    def push(self):
        if self.top is None:
            raise ValueError("push() needs a count() since the last push")
        self.top, self.offset = None, self.offset + 2 * self.n

    def first(self, bits):
        """(i, tau) of the lowest set bit of bits, a count of block i."""
        return divmod((bits & -bits).bit_length() - 1, 2 * self.n)


def _ripple(planes, k, carry):
    """Add carry into planes from plane k up, until the carry is 0."""
    for k in range(k, len(planes)):
        P = planes[k]
        planes[k] = P ^ carry
        carry &= P
        if not carry:
            return


def _peak(planes, mask):
    """The largest count at a bit of mask and every bit of mask that holds
    it, (0, 0) if mask is 0: a top-down scan of the planes keeps the
    candidates that a plane meets and adds that plane's weight."""
    value = 0
    for k in range(len(planes) - 1, -1, -1):
        hit = mask & planes[k]
        if hit:
            mask, value = hit, value | 1 << k
    return value, mask
