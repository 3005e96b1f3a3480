"""Lattice combinatorics of the cone attached to a coprime pair (p, q).

The surface under study is the affine toric surface of the cone sigma
spanned by (1, 0) and (p, q) in N = Z^2, with 0 < p < q and gcd(p, q) = 1.
This module handles the continued-fraction expansion of q/p, the minimal
generators of the dual cone, cone membership, the contact vectors that
witness prescribed coordinate orders, and two independent counts of the
exceptional divisors on the minimal resolution.  All arithmetic is exact;
nothing here touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from operator import index

from .errors import CoprimalityError, EmbeddingDimensionError, InputRangeError

Vec = tuple[int, int]


def _dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def lattice_point(v) -> Vec:
    """v as a pair of ints; raises InputRangeError unless both entries are
    integers (operator.index accepts int, bool and integer types alone)."""
    try:
        return index(v[0]), index(v[1])
    except TypeError:
        raise InputRangeError(f"a lattice point needs integer entries, got {v!r}") from None


@dataclass(frozen=True)
class ConePair:
    """Coprime pair (p, q) with 0 < p < q; fixes sigma = cone((1,0), (p,q))."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise InputRangeError("p and q must be integers")
        if not 0 < self.p < self.q:
            raise InputRangeError(f"need 0 < p < q, got p={self.p} q={self.q}")
        g = math.gcd(self.p, self.q)
        if g != 1:
            raise CoprimalityError(
                f"gcd(p, q) must be 1, got gcd({self.p}, {self.q}) = {g}"
            )


@dataclass(frozen=True)
class ContinuedFraction:
    """Entries (c_2, ..., c_{e-1}) of the expansion q/p = c_2 - 1/(c_3 - ...)."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "entries", tuple(map(index, self.entries)))
        except TypeError:
            raise InputRangeError(f"entries must be integers, got {self.entries!r}") from None
        if any(c < 2 for c in self.entries):
            raise InputRangeError(f"every entry must be >= 2, got {self.entries}")
        if len(self.entries) < 2:
            raise EmbeddingDimensionError(
                "embedding dimension <= 3 unsupported "
                f"(expansion {list(self.entries)} has fewer than 2 entries)"
            )


@dataclass(frozen=True)
class DualBasis:
    """Minimal generators u_1, ..., u_e of the dual cone, in boundary order.

    The validation is self-contained: q and p are read back off the last
    generator, so a basis produced by any construction is checked against
    the same invariants (endpoints, three-term recursion with some integer
    coefficient >= 2, and non-negative pairing with both rays of sigma).
    """

    generators: tuple[Vec, ...]

    def __post_init__(self) -> None:
        gens = tuple(map(lattice_point, self.generators))
        object.__setattr__(self, "generators", gens)
        if len(gens) < 4:
            raise EmbeddingDimensionError(
                f"need at least 4 generators, got {len(gens)}"
            )
        if gens[0] != (0, 1) or gens[1] != (1, 0):
            raise InputRangeError(f"basis must start (0,1), (1,0), got {gens[:2]}")
        q, neg_p = gens[-1]
        if q <= 0 or neg_p >= 0:
            raise InputRangeError(f"basis must end at (q, -p), got {gens[-1]}")
        p = -neg_p
        for u in gens:
            if u[0] < 0 or p * u[0] + q * u[1] < 0:
                raise InputRangeError(f"generator {u} pairs negatively with a ray")
        for k in range(1, len(gens) - 1):
            w = (gens[k - 1][0] + gens[k + 1][0], gens[k - 1][1] + gens[k + 1][1])
            # w must equal c * u_k for an integer c >= 2
            if _cross(w, gens[k]) != 0:
                raise InputRangeError(f"recursion fails at position {k + 1}")
            pivot = 0 if gens[k][0] else 1
            c, r = divmod(w[pivot], gens[k][pivot])
            if r != 0 or c < 2:
                raise InputRangeError(f"recursion coefficient at {k + 1} is not an integer >= 2")


def _hj_entries(num: int, den: int) -> list[int]:
    """Raw descending continued-fraction entries of num/den, all >= 2."""
    entries = []
    a, b = num, den
    while b:
        c = -(-a // b)  # ceiling without floats
        entries.append(c)
        a, b = b, c * b - a
    return entries


def hj_expand(cone: ConePair) -> ContinuedFraction:
    """Expand q/p into the descending continued fraction with entries >= 2.

    Rejects pairs whose expansion has fewer than two entries: those give a
    surface of embedding dimension 3 or less, outside this package's scope.
    """
    return ContinuedFraction(tuple(_hj_entries(cone.q, cone.p)))


def hj_evaluate(entries) -> tuple[int, int]:
    """Evaluate a descending continued fraction to a reduced (q, p) pair.

    Accepts a ContinuedFraction or any sequence of integer entries >= 2; a
    single entry c evaluates to (c, 1).
    """
    if isinstance(entries, ContinuedFraction):
        entries = entries.entries
    try:
        entries = tuple(map(index, entries))
    except TypeError:
        raise InputRangeError(f"entries must be integers, got {entries!r}") from None
    if not entries:
        raise InputRangeError("cannot evaluate an empty entry list")
    if any(c < 2 for c in entries):
        raise InputRangeError(f"every entry must be >= 2, got {entries}")
    num, den = entries[-1], 1
    for c in reversed(entries[:-1]):
        num, den = c * num - den, num
    g = math.gcd(num, den)
    return (num // g, den // g)


def dual_hilbert_basis(cone: ConePair) -> DualBasis:
    """Generators u_1, ..., u_e by the recursion u_{k+1} = c_k u_k - u_{k-1}."""
    entries = hj_expand(cone).entries
    us: list[Vec] = [(0, 1), (1, 0)]
    for c in entries:
        a, b = us[-2], us[-1]
        us.append((c * b[0] - a[0], c * b[1] - a[1]))
    # landing anywhere else means the expansion or the recursion is broken
    assert us[-1] == (cone.q, -cone.p), us
    return DualBasis(tuple(us))


def dual_hilbert_basis_bruteforce(cone: ConePair, bound: int | None = None) -> DualBasis:
    """Recover the dual-cone generators by exhaustive search in a box.

    Enumerates every nonzero lattice point u with coordinates in
    [-bound, bound] lying in the dual cone (u_1 >= 0 and p u_1 + q u_2 >= 0),
    discards each point expressible as a sum of two nonzero dual-cone points,
    and sorts the survivors along the cone boundary.  Entirely independent of
    the recursion in dual_hilbert_basis, so the two can cross-check each
    other.  The default box, bound = 2q, is comfortably larger than the
    [0, q] x [-p, 1] region every minimal generator lives in.
    """
    p, q = cone.p, cone.q
    if bound is None:
        bound = 2 * q
    if bound < q:
        raise InputRangeError(f"bound must be >= q = {q}, got {bound}")
    pts = [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0) and x >= 0 and p * x + q * y >= 0
    ]
    # The weight below is positive on the dual cone away from the origin, so
    # scanning points by increasing weight lets reducibility be tested against
    # the irreducibles found so far: any decomposition u = a + b refines to
    # one whose parts are irreducible and of strictly smaller weight.
    def weight(u: Vec) -> int:
        return u[0] * (p + 1) + u[1] * q

    pts.sort(key=weight)
    irreducible: list[Vec] = []
    for u in pts:
        for h in irreducible:
            rx, ry = u[0] - h[0], u[1] - h[1]
            if (rx, ry) != (0, 0) and rx >= 0 and p * rx + q * ry >= 0:
                break
        else:
            irreducible.append(u)
    irreducible.sort(key=cmp_to_key(lambda a, b: -1 if _cross(a, b) < 0 else 1))
    return DualBasis(tuple(irreducible))


def cone_contains(cone: ConePair, v) -> bool:
    """Exact test for v in sigma, i.e. v = alpha (1,0) + beta (p,q), alpha, beta >= 0.

    beta = v_2 / q and alpha = v_1 - p v_2 / q; clearing the positive
    denominator q turns both sign conditions into integer comparisons.
    """
    x, y = lattice_point(v)
    return y >= 0 and cone.q * x - cone.p * y >= 0


def contact_vector(surface: "ToricSurface", i: int, s: int, l: int) -> tuple[Vec, bool]:
    """Solve <u_i, v> = s, <u_{i+1}, v> = l for the unique integer v.

    Consecutive dual generators have determinant -1, hence form a Z-basis of
    the dual lattice, so the solution is integral.  Returns (v, inside) with
    inside = cone_contains(v); inside is guaranteed whenever
    s <= l <= (c_i - 1) s.
    """
    if not type(i) is type(s) is type(l) is int:
        raise InputRangeError(f"i, s and l must be integers, got {i!r}, {s!r}, {l!r}")
    e = surface.e
    if not 2 <= i <= e - 1:
        raise InputRangeError(f"i must be in 2..{e - 1}, got {i}")
    if s < 1:
        raise InputRangeError(f"s must be >= 1, got {s}")
    if l < s:
        raise InputRangeError(f"l must be >= s, got l={l} s={s}")
    a = surface.u(i)
    b = surface.u(i + 1)
    det = a[0] * b[1] - a[1] * b[0]
    assert det == -1, (a, b, det)
    v = ((s * b[1] - l * a[1]) // det, (a[0] * l - b[0] * s) // det)
    assert _dot(a, v) == s and _dot(b, v) == l, (a, b, s, l, v)
    return v, cone_contains(surface.cone, v)


def exceptional_count_dual_cf(cone: ConePair) -> int:
    """Exceptional divisors on the minimal resolution, via the fraction q/(q-p).

    Uses the raw expansion because the complementary fraction may well have a
    single entry; the count always equals 1 + sum(c_i - 2).
    """
    return len(_hj_entries(cone.q, cone.q - cone.p))


def exceptional_count_hull(cone: ConePair) -> int:
    """Exceptional divisors counted on the compact face of the lattice hull.

    The boundary of conv(sigma cap N minus {0}) has one compact chain running
    from (1, 0) to (p, q); its lattice points other than the two endpoints
    (mid-edge points included) are in bijection with the exceptional divisors
    of the minimal resolution.  The chain is found as the lower convex hull
    of the cone points on the origin side of the chord joining the endpoints,
    and mid-edge lattice points are recovered from the gcd of each edge
    vector.  Must agree with exceptional_count_dual_cf.

    The chain faces up and to the left, so only the leftmost cone point of
    each row y in 0..q can be one of its vertices: a scan of O(q) points,
    which come out already sorted.
    """
    p, q = cone.p, cone.q
    pts = []
    for y in range(0, q + 1):
        x = -(-p * y // q) or 1  # least x with (x, y) in sigma, (0, 0) excluded
        if (p - 1) * y - q * (x - 1) >= 0:  # not strictly beyond the chord
            pts.append((x, y))
    hull: list[Vec] = []
    for pt in pts:
        while len(hull) >= 2 and _cross(
            (hull[-1][0] - hull[-2][0], hull[-1][1] - hull[-2][1]),
            (pt[0] - hull[-2][0], pt[1] - hull[-2][1]),
        ) >= 0:
            hull.pop()
        hull.append(pt)
    assert hull[0] == (1, 0) and hull[-1] == (p, q), hull
    edge_points = sum(
        math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b in zip(hull, hull[1:])
    )
    return edge_points - 1


@dataclass(frozen=True)
class ToricSurface:
    """A cone pair bundled with its expansion and dual-cone generators.

    Indexing follows the variables x_1, ..., x_e: c(i) is defined for
    i in 2..e-1 and u(i) for i in 1..e.
    """

    cone: ConePair
    entries: tuple[int, ...]
    basis: tuple[Vec, ...]

    @classmethod
    def from_pair(cls, p: int, q: int) -> "ToricSurface":
        cone = ConePair(p, q)
        cf = hj_expand(cone)
        db = dual_hilbert_basis(cone)
        return cls(cone, cf.entries, db.generators)

    @property
    def p(self) -> int:
        return self.cone.p

    @property
    def q(self) -> int:
        return self.cone.q

    @property
    def e(self) -> int:
        """Embedding dimension; the surface sits in affine e-space."""
        return len(self.entries) + 2

    def c(self, i: int) -> int:
        """Continued-fraction entry c_i, defined for i in 2..e-1."""
        if not 2 <= i <= self.e - 1:
            raise InputRangeError(f"c(i) needs i in 2..{self.e - 1}, got {i}")
        return self.entries[i - 2]

    def u(self, i: int) -> Vec:
        """Dual generator u_i, defined for i in 1..e."""
        if not 1 <= i <= self.e:
            raise InputRangeError(f"u(i) needs i in 1..{self.e}, got {i}")
        return self.basis[i - 1]

    def pairing(self, i: int, v) -> int:
        """The pairing <u_i, v>."""
        return _dot(self.u(i), lattice_point(v))
