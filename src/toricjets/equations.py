"""Binomial generators of the surface ideal, held as exponent vectors.

The surface in affine e-space is cut out by the binomials
x_i x_j - x_{i+1}^{c_{i+1}-1} (prod_{k=i+2}^{j-2} x_k^{c_k-2}) x_{j-1}^{c_{j-1}-1}
over all pairs 1 <= i < j-1 <= e-1.  For a fixed i the minus monomials are
one running product, grown by one factor per j, times one closing factor;
minus_walk yields each i with its binomials in that form, and membership reads
it.  checked_walk checks each step against that form once: analyze's json and
md and verify's grading_check read it.  generators expands the walk into
dense exponent vectors for jets.evaluate and for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputRangeError
from .lattice import ToricSurface


@dataclass(frozen=True)
class BinomialEquation:
    """The binomial x_i x_j minus the monomial given by minus_exponents.

    Indices are 1-based.  plus_exponents is forced to be exactly the
    exponent vector of x_i x_j, and the minus monomial may only involve
    the variables strictly between i and j.
    """

    i: int
    j: int
    plus_exponents: tuple[int, ...]
    minus_exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "plus_exponents", tuple(self.plus_exponents))
        object.__setattr__(self, "minus_exponents", tuple(self.minus_exponents))
        e = len(self.plus_exponents)
        if len(self.minus_exponents) != e:
            raise InputRangeError("exponent vectors must have equal length")
        if not (1 <= self.i and self.i < self.j - 1 and self.j <= e):
            raise InputRangeError(
                f"need 1 <= i < j-1 <= {e - 1}, got i={self.i} j={self.j}"
            )
        # Whole-vector scans only: generators builds e^2/2 of these.
        plus, minus = self.plus_exponents, self.minus_exponents
        if not (plus.count(0) == e - 2 and plus[self.i - 1] == plus[self.j - 1] == 1):
            raise InputRangeError("plus monomial must be exactly x_i * x_j")
        if min(minus) < 0:
            k, a = next((k, a) for k, a in enumerate(minus, start=1) if a < 0)
            raise InputRangeError(f"negative exponent {a} at position {k}")
        if any(minus[: self.i]) or any(minus[self.j - 1 :]):
            raise InputRangeError(
                f"minus monomial may only use x_{self.i + 1}..x_{self.j - 1}"
            )


def minus_walk(surface: ToricSurface):
    """Yield (i, steps) for i = 1..e-2, steps yielding (j, grow, last) for
    every defining binomial (i, j), in j order.

    The minus monomial of (i, j) is R * x_k^a with last = (k, a), where R is
    the product of every grow factor (k, a) of the steps of i so far:

    - j = i + 2: grow is None (R = 1) and last = (i+1, c_{i+1}), the two end
      factors of the product landing on the same variable;
    - j = i + 3: grow = (i+1, c_{i+1} - 1) and last = (i+2, c_{i+2} - 1);
    - j >= i + 4: grow = (j-2, c_{j-2} - 2) and last = (j-1, c_{j-1} - 1).

    So the minus monomials for a fixed i are built by one running product,
    one factor per step, and a consumer may leave the steps of an i before
    they end.  This is the only place the formula is written.
    """
    c = (0, 0) + surface.entries  # c[k] is c_k for k in 2..e-1
    e = surface.e
    for i in range(1, e - 1):
        yield i, _steps(c, e, i)


def _steps(c, e: int, i: int):
    yield i + 2, None, (i + 1, c[i + 1])
    if i + 3 <= e:
        yield i + 3, (i + 1, c[i + 1] - 1), (i + 2, c[i + 2] - 1)
    for j in range(i + 4, e + 1):
        yield j, (j - 2, c[j - 2] - 2), (j - 1, c[j - 1] - 1)


def checked_walk(surface: ToricSurface):
    """Yield (i, steps) as minus_walk does, with the steps of each i as one
    tuple, each step checked once against the shape minus_walk documents.

    A step off that shape raises InputRangeError.
    """
    e = surface.e
    for i, steps in minus_walk(surface):
        steps = tuple(steps)
        for n, (j, grow, (k, a)) in enumerate(steps):
            if not (0 < i and j == i + 2 + n <= e and k == j - 1 and a >= 0 and (
                    i < grow[0] == j - 2 and grow[1] >= 0 if grow else n == 0)):
                raise InputRangeError(f"step (i={i}, j={j}) of minus_walk is off its shape")
        yield i, steps


@lru_cache(maxsize=16)
def generators(surface: ToricSurface) -> tuple[BinomialEquation, ...]:
    """All (e-1)(e-2)/2 defining binomials, ordered by (i, j), built from
    minus_walk.

    The cache is bounded: a batch over many surfaces keeps only the most
    recently used ones.
    """
    e = surface.e
    eqs = []
    for i, steps in minus_walk(surface):
        running = [0] * e
        for j, grow, (k, a) in steps:
            if grow:
                running[grow[0] - 1] += grow[1]
            plus = [0] * e
            plus[i - 1] = 1
            plus[j - 1] = 1
            minus = list(running)
            minus[k - 1] += a
            eqs.append(BinomialEquation(i, j, tuple(plus), tuple(minus)))
    return tuple(eqs)


def grading_check(surface: ToricSurface) -> tuple[int, bool]:
    """(the number of binomials checked, True iff every one is graded).

    A binomial x_i x_j - R x_k^a is graded when both monomials have the same
    degree in the dual lattice, u_i + u_j = deg R + a u_k; that is what makes
    every monomial arc satisfy it.  The steps come from checked_walk, and for
    each i the running product's degree deg R, the sum of b u_g over its grow
    factors (g, b) so far, grows by one factor per step: each binomial costs
    O(1), and the whole check O(e^2).
    """
    u = ((0, 0),) + surface.basis  # u[k] is u_k
    count, graded = 0, True
    for i, steps in checked_walk(surface):
        (uix, uiy), rx, ry = u[i], 0, 0
        for j, grow, (k, a) in steps:
            if grow:
                g, b = grow
                rx += b * u[g][0]
                ry += b * u[g][1]
            graded &= uix + u[j][0] == rx + a * u[k][0] and uiy + u[j][1] == ry + a * u[k][1]
        count += len(steps)
    return count, graded
