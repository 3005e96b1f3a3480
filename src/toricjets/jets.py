"""Truncated power-series jets over exact coefficient fields.

A jet of level m holds e coordinate series, each as its sparse row of
(degree, coefficient) pairs up to t^m; the dense m+1 coefficients are built
only when read, so a monomial arc costs O(e) at any m.  Coefficients are
exact rationals or prime-field integers; products are truncated
convolutions computed on the sparse rows.
Membership walks the binomials of equations.minus_walk: for a fixed i the
minus monomials are one running product, grown by one factor per equation,
so a check costs O(e^2) sparse products rather than O(e^3), and it stops at
the first binomial that does not vanish.  It leaves an i as soon as degrees
show that both sides of every binomial left for it truncate: the plus sides
start at o_i + min(o_j, ..., o_e) or later and the minus sides at the
running product's lowest degree plus min(o_(j-1), ..., o_e), o_l being the
order of row l.  On a monomial arc this leaves a few steps per i.  The
steps come from a per-surface plan that keeps each step of minus_walk that
some check has drawn, so repeated checks on one surface do not rebuild the
walk and a single check draws no step it does not use.  That loop
(_vanishes) also decides the oracle's fiber nodes, and contact_profile
reads the orders from the same sparse rows it checks, in one pass.  The
same walk gives oracle._upper_system the coefficients and derivative
series of the one linear system by which the oracle lifts member jets,
each derivative built only when the orders of the rows put its lowest
term inside the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat, tee
from operator import attrgetter

from .equations import BinomialEquation, minus_walk
from .errors import InputRangeError, NonMemberError
from .lattice import ToricSurface, cone_contains, lattice_point


class _AboveM:
    """Order marker for a series that vanishes identically mod t^(m+1)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ABOVE_M"


ABOVE_M = _AboveM()


# Miller-Rabin to the 13 prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin to the bases _MR_BASES,
    so at most 13 modular powers; refuses n >= _MR_BOUND, where those bases
    no longer decide it."""
    if n >= _MR_BOUND:
        raise InputRangeError(
            f"characteristic must be below {_MR_BOUND}, got one of {n.bit_length()} bits")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CoefficientField:
    """Exact rationals (characteristic 0) or the prime field F_p.

    Coefficient arithmetic everywhere in this module is plain Python + and *;
    prime-field values are ints that are only interpreted through is_zero and
    normalize.  Deferring the reduction keeps enumeration loops free of
    per-operation modular arithmetic without changing any answer.
    """

    characteristic: int

    def __post_init__(self) -> None:
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise InputRangeError(
                f"characteristic must be 0 or a prime, got {self.characteristic}"
            )

    def is_zero(self, x) -> bool:
        if self.characteristic:
            return x % self.characteristic == 0
        return x == 0

    def normalize(self, x):
        """Canonical representative of an int or Fraction: a reduced Fraction,
        or an int in 0..p-1, a/b going to a b^(-1) mod p.  Raises
        InputRangeError for any other type and when p divides b."""
        if not isinstance(x, (int, Fraction)):
            raise InputRangeError(f"coefficients must be ints or Fractions, got {x!r}")
        p = self.characteristic
        if not p:
            return Fraction(x)
        if x.denominator % p == 0:
            raise InputRangeError(f"{x} has no value in F_{p}: {p} divides its denominator")
        return x.numerator * pow(x.denominator, -1, p) % p

    def elements(self):
        """All field elements, finite characteristic only."""
        if not self.characteristic:
            raise InputRangeError("cannot enumerate a characteristic 0 field")
        return range(self.characteristic)


RATIONALS = CoefficientField(0)


def prime_field(p: int) -> CoefficientField:
    """The field F_p; rejects a composite or unit characteristic."""
    if not _is_prime(p):
        raise InputRangeError(f"field characteristic must be prime, got {p}")
    return CoefficientField(p)


class TruncatedJet:
    """e coordinate series truncated past t^m: terms, each coordinate's
    nonzero (degree, coefficient) pairs in ascending degree, and coords, the
    dense view of m+1 coefficients each.  The constructor takes dense rows
    of ints or Fractions standing for field elements (build() normalizes
    them first), _from_terms unchecked sparse rows; the other view is built
    on first read and kept.  Equality and hashing read terms, however the
    jet was built; orders and membership read residues through is_zero."""

    __slots__ = ("_field", "_m", "_coords", "_terms")
    _COEFFICIENT_TYPES = frozenset((int, bool, Fraction))

    def __init__(self, field: CoefficientField, m: int, coords) -> None:
        if m < 0:
            raise InputRangeError(f"jet level must be >= 0, got {m}")
        coords = tuple(map(tuple, coords))
        for row in coords:
            if len(row) != m + 1:
                raise InputRangeError(
                    f"every coordinate needs m+1 = {m + 1} coefficients, got {len(row)}"
                )
        if not self._COEFFICIENT_TYPES.issuperset(map(type, chain.from_iterable(coords))):
            bad = set(map(type, chain.from_iterable(coords))) - self._COEFFICIENT_TYPES
            raise InputRangeError(f"coefficients must be ints or Fractions, got {bad}")
        self._field, self._m, self._coords, self._terms = field, m, coords, None

    @classmethod
    def _from_terms(cls, field: CoefficientField, m: int, terms) -> "TruncatedJet":
        jet = object.__new__(cls)
        jet._field, jet._m, jet._coords, jet._terms = field, m, None, terms
        return jet

    @classmethod
    def build(cls, field: CoefficientField, m: int, coords) -> "TruncatedJet":
        rows = tuple(tuple(field.normalize(c) for c in row) for row in coords)
        return cls(field, m, rows)

    field = property(attrgetter("_field"))  # read-only, as the hash reads them
    m = property(attrgetter("_m"))
    e = property(lambda self: len(self.terms))

    @property
    def terms(self) -> tuple[tuple, ...]:
        if self._terms is None:
            self._terms = _sparse_rows(self._coords)
        return self._terms

    @property
    def coords(self) -> tuple[tuple, ...]:
        if self._coords is None:
            degrees = range(self._m + 1)
            self._coords = tuple(
                tuple(map(dict(terms).get, degrees, repeat(0))) for terms in self._terms)
        return self._coords

    def __eq__(self, other):
        if not isinstance(other, TruncatedJet):
            return NotImplemented
        return (self.field, self.m, self.terms) == (other.field, other.m, other.terms)

    def __hash__(self) -> int:
        return hash((self.field, self.m, self.terms))

    def __repr__(self) -> str:
        return f"TruncatedJet(field={self.field!r}, m={self.m!r}, coords={self.coords!r})"


def coordinate_order(jet: TruncatedJet, j: int):
    """Least b with a nonzero t^b coefficient in coordinate j (1-based), else ABOVE_M."""
    if not 1 <= j <= jet.e:
        raise InputRangeError(f"coordinate index must be in 1..{jet.e}, got {j}")
    is_zero = jet.field.is_zero
    for d, c in jet.terms[j - 1]:
        if not is_zero(c):
            return d
    return ABOVE_M


def _sparse_rows(coords) -> tuple[tuple, ...]:
    """Each coordinate as its nonzero (degree, coefficient) pairs, degree ascending."""
    return tuple(tuple(compress(enumerate(row), row)) for row in coords)


_ONE = ((0, 1),)  # the constant series 1, a valid seed in every characteristic


def _times_power(acc, row, a: int, m: int):
    """Sparse terms of acc * row^a, truncated past t^m; () once nothing survives.

    acc holds (degree, coefficient) pairs in any order, row in ascending
    degree.  Reduction is deferred to the caller's is_zero.
    """
    if not a or not acc:
        return acc
    if not row:
        return ()
    if len(row) == 1:
        d2, c2 = row[0]
        shift = d2 * a
        if len(acc) == 1:
            d1, c1 = acc[0]
            return ((d1 + shift, c1 * c2**a),) if d1 + shift <= m else ()
        scale = c2**a
        return tuple((d1 + shift, c1 * scale) for d1, c1 in acc if d1 + shift <= m)
    for _ in range(a):
        merged: dict = {}
        for d1, c1 in acc:
            for d2, c2 in row:
                d = d1 + d2
                if d > m:
                    break  # row degrees ascend
                merged[d] = merged.get(d, 0) + c1 * c2
        if not merged:
            return ()
        acc = tuple(merged.items())
    return acc


def evaluate(eq: BinomialEquation, jet: TruncatedJet) -> tuple:
    """The series of eq along the jet: plus monomial minus minus monomial.

    Returned coefficients are unreduced; test them with jet.field.is_zero.
    """
    if len(eq.plus_exponents) != jet.e:
        raise InputRangeError(
            f"equation has {len(eq.plus_exponents)} variables, jet has {jet.e}"
        )
    m = jet.m
    out = [0] * (m + 1)
    for sign, exponents in ((1, eq.plus_exponents), (-1, eq.minus_exponents)):
        acc = _ONE
        for row, a in zip(jet.terms, exponents):
            acc = _times_power(acc, row, a, m)
        for d, c in acc:
            out[d] += sign * c
    return tuple(out)


def _through(terms, n: int) -> tuple:
    """The sparse terms up to t^n."""
    return tuple((d, c) for d, c in terms if d <= n)


def _derivatives_times_power(running, d_running: dict, row, g: int, b: int, n: int,
                             low: int, orders) -> dict:
    """The derivatives through t^n of R x^b, x the coordinate of row, by the
    product rule: d(R x^b) = dR x^b + b R x^(b-1) dx.

    running holds the sparse terms of R and d_running maps each 0-based
    coordinate to those of dR through t^n; g is the 0-based coordinate of x,
    which must not be a variable of R.  low is the sum of b' o over the
    factors x^b' of R x^b, o the first degree of the factor's row and m+1
    for an empty one, and orders[l] is o for x_(l+1).  The derivative by
    x_(l+1) is one monomial along the rows, so it starts at low - orders[l]
    or is zero, and then that bound is past n; it is built only when the
    bound is at most n, so every derivative left out truncates to zero.
    """
    if not b:
        return d_running
    out = {l: _times_power(terms, row, b, n)
           for l, terms in d_running.items() if low - orders[l] <= n}
    if low - orders[g] <= n:
        out[g] = tuple((d, b * c) for d, c in _through(_times_power(running, row, b - 1, n), n))
    return out


@lru_cache(maxsize=16)
def _binomial_plan(surface: ToricSurface, walk) -> tuple:
    """walk(surface) as (i, memo) per i, memo an itertools.tee of i's steps.

    A check iterates a copy of each memo, never the memo itself: the copies
    share one buffer, so a step any check has drawn is kept for the next,
    and a check draws from walk only the steps past that buffer.  So the
    membership calls on one surface do not restart minus_walk's generators,
    and one check costs no step more than its loop uses.  Built once per
    surface and walk function, in a cache bounded like that of
    equations.generators.  walk is minus_walk as bound in this module when
    the call is made: a replaced minus_walk gets a plan of its own.  A
    generator that raises ends, and its tee would read it as ended from
    then on, so _binomial_series empties the cache when an exception
    passes through it.  tee is not thread-safe, and the package runs no
    check from a second thread.
    """
    return tuple((i, tee(steps, 1)[0]) for i, steps in walk(surface))


def _binomial_series(rows, m: int, surface: ToricSurface, n: int = -1):
    """Yield ((i, j), plus, minus, grad) per binomial, in minus_walk order.

    plus and minus are the sparse terms of the two monomials of binomial
    (i, j) along rows, past t^m dropped; rows are sparse as from
    _sparse_rows.  The steps come from the surface's _binomial_plan of
    minus_walk.  For each i the minus monomials are one running product
    times one closing factor, so each binomial costs a bounded number of
    sparse products and the walk is O(e^2), not O(e^3); a running product
    that has truncated to zero stays zero for that i.  This is the one loop
    over the binomials: _vanishes and oracle._upper_system both read it.

    With n < 0, the membership test's mode, a binomial whose sides have
    equal term lists vanishes without any reduction and is skipped, and grad
    is empty.  So is the rest of an i at step j once o_i + min(o_j, ..., o_e)
    > m and low + min(o_(j-1), ..., o_e) > m, o_l being the first degree of
    row l (m+1 for an empty row) and low the sum of b o_g over the grow
    factors (g, b) so far.  low is the running product's exact lowest degree,
    since the lowest terms of its factors multiply to a nonzero coefficient;
    so a running product that has truncated to () has low > m.  Every
    binomial (i, j') left has plus x_i x_j' with j' >= j and minus the
    running product times x_k^a with k >= j-1 and a >= 1, so both are ().
    With 0 <= n <= m every binomial is yielded, and grad maps
    each 0-based coordinate l to the sparse terms through t^n of the
    binomial's derivative by x_(l+1), a coordinate whose derivative
    truncates to zero being left out.  The running product carries its
    derivatives along; no variable of it recurs in a later factor, the
    closing one included.  No derivative that truncates to zero is built:
    the derivative of a monomial x^B by x_l is one monomial along the rows,
    starting at sum b o - o_l, so each side builds only those with that
    degree at most n, the running product and the closing factor by the
    bound of _derivatives_times_power and x_i x_j its x_j when o_j <= n.
    Membership mode reads none of it.
    """
    derive = n >= 0
    orders = [row[0][0] if row else m + 1 for row in rows]
    tail = list(accumulate(reversed(orders), min))[::-1]
    try:
        for i, memo in _binomial_plan(surface, minus_walk):
            running = _ONE
            low = 0
            d_running: dict = {}
            for j, grow, (k, a) in memo.__copy__():
                if grow:
                    g, b = grow
                    low += b * orders[g - 1]
                    if derive:
                        d_running = _derivatives_times_power(
                            running, d_running, rows[g - 1], g - 1, b, n, low, orders)
                    running = _times_power(running, rows[g - 1], b, m)
                if not derive and orders[i - 1] + tail[j - 1] > m and low + tail[j - 2] > m:
                    break
                plus = _times_power(rows[i - 1], rows[j - 1], 1, m)
                minus = _times_power(running, rows[k - 1], a, m)
                if not derive:
                    if plus != minus:
                        yield (i, j), plus, minus, {}
                    continue
                d_minus = _derivatives_times_power(
                    running, d_running, rows[k - 1], k - 1, a, n, low + a * orders[k - 1], orders)
                grad = {l: tuple((d, -c) for d, c in terms) for l, terms in d_minus.items()}
                for l, other in ((i - 1, j - 1), (j - 1, i - 1)):
                    if orders[other] <= n:
                        grad[l] = _through(rows[other], n)
                yield (i, j), plus, minus, grad
    except GeneratorExit:  # the consumer left early: the plan is intact
        raise
    except BaseException:
        # an exception inside a draw (an interrupt, say) ends that i's
        # generator, and the cached tee would read it as ended from then on
        _binomial_plan.cache_clear()
        raise


def _vanishes(rows, m: int, surface: ToricSurface, is_zero) -> bool:
    """True iff every binomial vanishes along the sparse rows mod t^(m+1).

    Stops at the first binomial with a coefficient that is_zero rejects.
    The one membership loop: is_member and contact_profile read it, and so
    does the oracle's residual test at each node of the fiber, where most
    rejected nodes fail on the first binomial the walk yields.
    """
    for _, plus, minus, _ in _binomial_series(rows, m, surface):
        diff = dict(plus)
        for d, c in minus:
            diff[d] = diff.get(d, 0) - c
        for c in diff.values():
            if not is_zero(c):
                return False
    return True


def _rows_on(jet: TruncatedJet, surface: ToricSurface) -> tuple[tuple, ...]:
    """The jet's sparse rows; raises InputRangeError unless it has e coordinates."""
    if jet.e != surface.e:
        raise InputRangeError(f"surface has {surface.e} coordinates, jet has {jet.e}")
    return jet.terms


def is_member(jet: TruncatedJet, surface: ToricSurface) -> bool:
    """True iff every defining binomial vanishes along the jet mod t^(m+1)."""
    return _vanishes(_rows_on(jet, surface), jet.m, surface, jet.field.is_zero)


def truncate(jet: TruncatedJet, m_target: int) -> TruncatedJet:
    """Drop all coefficients above t^m_target; membership survives truncation."""
    if m_target > jet.m:
        raise InputRangeError(
            f"cannot truncate a level {jet.m} jet up to level {m_target}"
        )
    if m_target < 0:
        raise InputRangeError(f"target level must be >= 0, got {m_target}")
    rows = tuple(_through(terms, m_target) for terms in jet.terms)
    return TruncatedJet._from_terms(jet.field, m_target, rows)


def monomial_arc(
    surface: ToricSurface, v, m: int, field: CoefficientField = RATIONALS
) -> TruncatedJet:
    """The jet whose coordinate j is t^{<u_j, v>}, truncated at level m.

    Requires v in sigma, which makes every pairing non-negative; a pairing
    above m leaves that coordinate identically zero.  The result satisfies
    every defining binomial because the two monomials of a binomial share
    the same dual-lattice degree, hence the same t-order along the arc.
    """
    if m < 0:
        raise InputRangeError(f"jet level must be >= 0, got {m}")
    v = lattice_point(v)
    if not cone_contains(surface.cone, v):
        raise InputRangeError(
            f"v={v} is outside the cone of (p, q) = ({surface.p}, {surface.q})"
        )
    # the int 1 is 1 in every characteristic and keeps witness on native ints
    x, y = v
    rows = tuple(((d, 1),) if (d := a * x + b * y) <= m else () for a, b in surface.basis)
    return TruncatedJet._from_terms(field, m, rows)


def contact_profile(jet: TruncatedJet, surface: ToricSurface):
    """Orders of all e coordinates, plus the fiber flag.

    Returns (profile, over_singular_point): the tuple of coordinate orders
    and True iff no order is 0, i.e. the jet starts at the singular point.
    Raises NonMemberError when the jet fails the surface equations: contact
    loci only make sense inside the jet scheme.  One pass: the sparse rows
    that the membership loop reads also give the orders, each the first
    term that is_zero rejects, as coordinate_order reads it.
    """
    rows = _rows_on(jet, surface)
    is_zero = jet.field.is_zero
    if not _vanishes(rows, jet.m, surface, is_zero):
        raise NonMemberError("jet does not satisfy the surface equations")
    profile = []
    for row in rows:  # a plain loop: a generator per row would cost more
        for d, c in row:
            if not is_zero(c):
                profile.append(d)
                break
        else:
            profile.append(ABOVE_M)
    return tuple(profile), 0 not in profile
