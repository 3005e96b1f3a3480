"""Exhaustive finite-field verification of the component classification.

Everything here accounts for every member jet of a level over a prime field
at desk scale and checks the classification lemmas on all of them:
membership, the fiber over the singular point, order propagation, and, in
one pass over the fiber's order profiles, stratum sizes, minimum orders and
impossible profiles.

The members are found by one lifting mechanism.  Above a member x_low at
level h, the member jets at level m <= 2h+1 are the solutions of one linear
system over F_p in the layers h+1..m: for each binomial f and each k,
r_k + sum over g <= k of D_(k-g) a_g = 0, with r_k the t^k coefficient of f
along x_low and D_d the t^d term of its derivative series, since any
product of two upper layers lands past t^m (Denef-Loeser, Invent. Math.
1999; Ein-Mustata, 2009).  The system is block lower-triangular with the
Jacobian J(x_0) = D_0 on its diagonal, and over the origin J = 0.  Only the
constant layer is nonlinear, and its members are the p^2 points of S(F_p).
Above it a walk doubles its level at each step, 0, 1, 3, 7, ..., and each
member it reaches costs one pass over the binomials and one elimination mod
p.  The torus (F_p^*)^2 acts on every layer and keeps all of this, so the
checks walk one slice: the canonical node of each orbit, which leads its
first nonzero row with 1 and each later one with the least discrete log
that the torus left over can reach, and which stands for its orbit's
size (_orbit_weight).

Over the origin the first step solves nothing: all p^e first layers solve
J a = 0, and only those on the tangent cone, where the t^2 coefficient of
every binomial vanishes, have a member above them at level 2 (Ein-Mustata,
2009).  _first_layers finds those by a search in coordinate order that
checks each binomial as soon as its coordinates are set, so the checks
start from them and never list the others.

check_order_propagation walks the slice of the full space to level s-1
and counts the members at level 2s-1 above each candidate that would
refute the lemma; fiber_profiles walks the slice over the origin to level
m // 2 and counts the layers above it by contact profile.  Both count the
solution families of one elimination per node (_solutions).  The fiber's
residual test is the membership loop, which stops at the first binomial
that does not vanish.  The full walk from the origin, _lift unsliced,
lists every fiber point; it is the reference the tests compare the checks
against.
Point counts over F_p are heuristic evidence for dimensions and are
reported as experimental; the boolean lemma checks are hard.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import index
from typing import NamedTuple

from .components import Label, dimension, valid_labels
from .equations import checked_walk
from .errors import GuardExceededError, InputRangeError, NonMemberError
from .jets import (
    ABOVE_M, TruncatedJet, _binomial_series, _sparse_rows, _vanishes, is_member, prime_field,
)
from .lattice import ToricSurface

DEFAULT_GUARD = 1 << 26


@dataclass(frozen=True)
class OracleConfig:
    """Field characteristic, jet level, and the enumeration size guard.

    A run is rejected unless p^(e(m+1)) <= guard, even when pruning means
    fewer points are actually visited.
    """

    characteristic: int
    m: int
    guard: int = DEFAULT_GUARD

    def __post_init__(self) -> None:
        try:
            for name in ("characteristic", "m", "guard"):
                object.__setattr__(self, name, index(getattr(self, name)))
        except TypeError:
            raise InputRangeError(f"config fields must be integers, got {self}") from None
        prime_field(self.characteristic)  # validates primality
        if self.m < 0:
            raise InputRangeError(f"jet level must be >= 0, got {self.m}")
        if self.guard < 1:
            raise InputRangeError(f"guard must be positive, got {self.guard}")


class StratumStats(NamedTuple):
    """Point count of one stratum over F_p, with the dimension prediction.

    all_orders_ge_s records that no counted point has a finite coordinate
    order below s; since ord x_i = s on the stratum, it says the minimum
    order is exactly s.  It holds vacuously for an empty stratum.
    """

    label: Label
    point_count: int
    predicted_count: int
    all_orders_ge_s: bool


@dataclass(frozen=True)
class CoverageReport:
    """Classification of every fiber point into stratum or closure points.

    impossible_profiles lists (profile, point count) pairs for the order
    profiles that contradict the defining binomials (see
    coverage_spot_check); it is expected to be empty and any entry is a hard
    failure.  strata carries one StratumStats per valid label, in label
    order; disjoint records that strata at a fixed i never overlap, which
    holds exactly when no label is listed twice.
    """

    total_points: int
    stratum_points: int
    closure_points: int
    impossible_profiles: tuple
    disjoint: bool
    strata: tuple


def _full_space(surface: ToricSurface, config: OracleConfig) -> tuple[int, int]:
    """(p, N) with N = e(m+1): the full coefficient space has p^N points."""
    return config.characteristic, surface.e * (config.m + 1)


def required_budget(surface: ToricSurface, config: OracleConfig) -> int:
    """Size of the full coefficient space p^(e(m+1)) charged against the guard."""
    p, n = _full_space(surface, config)
    return p ** n


def _check_guard(surface: ToricSurface, config: OracleConfig) -> None:
    """Raise GuardExceededError, with the exact budget as required, when the
    full space exceeds the guard.  The message writes the budget as p^N:
    its decimal digits can run to thousands, and past 4,300 of them Python
    refuses to convert an int to text."""
    p, n = _full_space(surface, config)
    required = p ** n
    if required > config.guard:
        raise GuardExceededError(
            f"enumeration needs {p}^{n} points but the guard is "
            f"{config.guard}; raise the guard to proceed",
            required=required,
        )


def _row_reduce(rows, ncols: int, p: int) -> list:
    """Gauss-Jordan mod p on the first ncols columns of rows, in place.

    Entries must be reduced into 0..p-1; columns past ncols are carried
    along.  Returns the pivot columns: rows[r] has a 1 at pivots[r] and every
    other row a 0 there, and the rows past the rank are zero on the first
    ncols columns.  The one elimination routine of the oracle.
    """
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        src = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][col]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def _upper_system(surface: ToricSurface, rows, m: int, p: int) -> list:
    """Rows [A | b] of the system A a = b whose solutions are the layers
    h+1..m of the member jets at level m above the member rows at level h,
    for h < m <= 2h+1.

    Unknown (g - h - 1) e + l is the coefficient a_(g, l) of x_(l+1) at t^g.
    Each binomial f gives one equation per k = h+1..m,
    r_k + sum over g = h+1..k and l of D_(k-g)[l] a_(g, l) = 0, with r_k
    the t^k coefficient of f along rows and D_d[l] the t^d term of
    df/dx_(l+1): the Taylor expansion, since a product of two upper layers
    lands at t^(2h+2) or above.  The sparse terms of each binomial go
    straight into its equations: a term (d, c) of either side with d > h
    into b at t^d, one of df/dx_(l+1) into unknown (g - h - 1) e + l at
    t^(g+d).  An equation is made when a first term lands on it, and it is
    kept when an entry is nonzero mod p: the others say nothing, and a kept
    [0 ... 0 | b], b != 0, makes the node inconsistent.  Entries are
    reduced mod p.  _binomial_series builds no derivative series that
    truncates to zero, so a node over the origin makes few terms.
    """
    e, h = surface.e, len(rows[0]) - 1
    width = e * (m - h) + 1
    system = []
    for _, plus, minus, grad in _binomial_series(_sparse_rows(rows), m, surface, m - h - 1):
        block = defaultdict(lambda: [0] * width)  # block[k] is the equation at t^k
        for terms, sign in ((plus, -1), (minus, 1)):
            for d, c in terms:
                if d > h:
                    block[d][-1] += sign * c
        for l, terms in grad.items():
            for d, c in terms:
                for g in range(h + 1, m - d + 1):
                    block[g + d][(g - h - 1) * e + l] += c
        for row in block.values():
            row = [x % p for x in row]
            if any(row):
                system.append(row)
    return system


def _solutions(system, n: int, p: int):
    """Every solution in F_p^n of the rows [A | b], yielded by families;
    reduces system in place.

    After Gauss-Jordan a pivot unknown is its row's b less the row's terms
    in the free unknowns, all right of its pivot.  Each assignment of the
    free unknowns that some pivot row reads yields one family, the n choices
    (v,) of each unknown it fixes and range(p) of each one no pivot row
    reads, such as a layer that no equation holds; its solutions are
    itertools.product(*family).  A pivot that reads no free unknown is set
    once, and each other one sums its own terms alone.
    """
    pivots = _row_reduce(system, n + 1, p)
    if n in pivots:
        return
    choices = [range(p)] * n
    affine = []
    for row, col in zip(system, pivots):
        terms = [(f, c) for f, c in enumerate(row[col + 1:n], col + 1) if c]
        if terms:
            affine.append((col, row[n], terms))
        else:
            choices[col] = (row[n],)
    read = sorted({f for _, _, terms in affine for f, _ in terms})
    for values in itertools.product(range(p), repeat=len(read)):
        for col, v in zip(read, values):
            choices[col] = (v,)
        for col, b, terms in affine:
            choices[col] = ((b - sum(c * choices[f][0] for f, c in terms)) % p,)
        yield tuple(choices)


def _constant_members(surface, field, sliced=False) -> list:
    """Rows of the member jets at level 0: the p^2 points of S(F_p), each
    checked with is_member, so a wrong one raises.

    They are the torus orbits (Fulton, Introduction to Toric Varieties,
    1993, 3.1): x_j = l_1^(a_j) l_2^(b_j) for u_j = (a_j, b_j) and l in
    (F_p^*)^2, with exponents mod p-1, so b_e = -p needs no inverse; x_1
    alone or x_e alone a unit, the orbits of the rays u_1 and u_e; the origin.
    sliced keeps one point of each orbit, l = (1, 1) and the unit 1, which
    is the orbit's canonical node (_orbit_weight).
    """
    p, e = field.characteristic, surface.e
    units = (1,) if sliced else range(1, p)
    points = [tuple(l1 ** (a % (p - 1)) * l2 ** (b % (p - 1)) % p for a, b in surface.basis)
              for l1 in units for l2 in units]
    points += [(c,) + (0,) * (e - 1) for c in units] + [(0,) * (e - 1) + (c,) for c in units]
    points += [(0,) * e]
    members = [tuple((c,) for c in x0) for x0 in points]
    for rows in members:
        if not is_member(TruncatedJet(field, 0, rows), surface):
            raise NonMemberError(f"the constant layer {rows} is not on the surface")
    return members


@functools.cache
def _primitive_root(p: int) -> int:
    """The least primitive root mod p, the base of the discrete logs that
    _orbit_weight reads: the least r with r^((p-1)/q) != 1 for each prime
    q dividing p-1.  Trial division of p-1 costs O(sqrt p) steps and keeps
    no table; only a walk node with a lead other than 1 asks for it."""
    n, rest, primes, q = p - 1, p - 1, [], 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    return next(r for r in range(2, p) if all(pow(r, n // q, p) != 1 for q in primes))


@functools.cache
def _log_below(c: int, g: int, p: int) -> bool:
    """True iff the discrete log of c in F_p^* to _primitive_root(p) is
    below g, read on demand: c is one of r^0, ..., r^(g-1).  At most g - 1
    modular powers, once per (c, g, p) that a walk meets, so nothing is
    kept for a lead no node has; the log of 1 is 0, which needs no root."""
    if c == 1:
        return True
    r = _primitive_root(p)
    return any(pow(r, k, p) == c for k in range(1, g))


def _orbit_weight(rows, surface, p: int) -> int:
    """The size of the torus orbit of the walk node rows if rows is the
    orbit's canonical node, and 0 if it is not.

    l in (F_p^*)^2 acts by x_j -> l^(u_j) x_j and keeps membership, orders
    and the rank of every system of the walk (Ishii, J. Algebra 2004).  In
    discrete logs, n = p-1, it adds <u_j, t> mod n to the log of x_j's
    lead for t in (Z/n)^2.  The nonzero rows are visited by (order, index).
    The first one's u is primitive, so the torus moves its lead anywhere:
    the canonical lead is 1, and the torus left over is t = tau (-b, a),
    u = (a, b), tau in Z/n, which moves a later row j by tau det(u, u_j).
    With the leftover tau running over the multiples of k, that image is
    the multiples of g = gcd(k det(u, u_j), n), of size n/g: the canonical
    lead is the one whose log is least in its coset, below g (_log_below,
    no table), and the leftover narrows to the multiples of k n/g.  The
    weight, n times the image sizes, is the orbit size.  A truncation keeps
    the leads of the rows nonzero at the lower level, and they come first
    in that order, so the canonical nodes are closed under truncation, as
    the walk needs.
    Over F_2 the torus is trivial.
    """
    if p == 2:
        return 1
    n = p - 1
    leads = []
    for j, row in enumerate(rows):
        for o, lead in enumerate(row):
            if lead:
                leads.append((o, j, lead))
                break
    leads.sort()
    weight, k, first = 1, 1, None
    for _, j, lead in leads:
        if first is None:
            first, g = surface.basis[j], 1
        else:
            (a, b), (c, d) = first, surface.basis[j]
            g = math.gcd(k * (a * d - b * c), n)
            k *= n // g
        if not _log_below(lead, g, p):
            return 0
        weight *= n // g
    return weight


def _tangent_cone(surface: ToricSurface) -> list:
    """The t^2 conditions on a first layer a over the origin, grouped by the
    0-based coordinate j that each one is checked at.

    Along x = a t every binomial x_(i+1) x_(j+1) - R starts at t^2 with
    a_i a_j - R(a) if R has degree 2 and a_i a_j if it has more (every
    monomial has degree >= 2), so the condition is kept as (i, j, minus),
    with minus = ((k, n),) for R = x_(k+1) x_(n+1) and () for R of higher
    degree.  The minus monomials are read from equations.checked_walk,
    the running product's variables listed while its degree is at most 2.
    R uses only the variables strictly between i and j, so each condition
    of group j reads coordinates up to j alone.
    """
    groups = [[] for _ in range(surface.e)]
    for i, steps in checked_walk(surface):
        low, degree = [], 0  # the running product's variables while degree <= 2
        for j, grow, (k, a) in steps:
            if grow:
                degree += grow[1]
                if degree <= 2:
                    low += [grow[0] - 1] * grow[1]
            minus = (tuple(low + [k - 1] * a),) if degree + a == 2 else ()
            groups[j - 1].append((i - 1, j - 1, minus))
    return groups


def _first_layers(surface, field) -> list:
    """Rows of the canonical level-1 nodes over the origin that have a
    member above them at level 2: one first layer on the tangent cone per
    torus orbit, each checked with _vanishes through t^2, so a wrong one
    raises.

    Over the origin D_0 = 0, so a node x = a t has member children at
    level 2 exactly when every binomial's t^2 coefficient vanishes along
    it, and then all p^e of them (Ein-Mustata, 2009).  The search sets the
    coordinates in order and drops a partial layer as soon as a condition
    of _tangent_cone checked at its last coordinate fails or, that
    coordinate nonzero, the partial layer is not canonical (_orbit_weight).
    Every row of a first layer has order 1, so _orbit_weight visits them in
    coordinate order and a layer is canonical exactly when each of its
    partial layers is.  The dropped nodes have no member above them at
    level 2, nor at any higher level.
    """
    p = field.characteristic
    layers = [()]
    for l, checks in enumerate(_tangent_cone(surface)):
        layers = [a for a in (x + (v,) for x in layers for v in range(p))
                  if all((a[i] * a[j] - sum(a[k] * a[n] for k, n in minus)) % p == 0
                         for i, j, minus in checks)
                  and (not a[l] or _orbit_weight(tuple((0, c) for c in a), surface, p))]
    members = [tuple((0, c) for c in a) for a in layers]
    for rows in members:
        if not _vanishes(_sparse_rows(rows), 2, surface, field.is_zero):
            raise NonMemberError(f"the first layer {rows} is off the tangent cone")
    return members


def _lift(surface, field, m, coords, sliced=False):
    """Coordinate rows of the member jets at level m above the given members.

    coords holds the rows of members of one level h < m, or empty rows
    (h = -1).  A truncation of a member is a member, so lifting the members
    misses none.  The constant layer is nonlinear, and its members are the
    points of S(F_p) (_constant_members).  Above it the walk doubles: the
    member jets at level u = min(2h+1, m) above a member at level h are the
    solutions of _upper_system in the layers h+1..u, since any product of
    two of those layers lands past t^u.  Each member costs one pass over the
    binomials, with its derivative series through t^(u-h-1), and one
    elimination, and the levels walked are 0, 1, 3, 7, ... up to m.  At
    h = 0 the system is J(x_0) a = 0, the tangent space at the constant
    layer; over the origin J = 0, because every binomial monomial has
    degree >= 2, so the system has rank 0 and its solutions are all p^e
    layers, most of them with no member above them at level 2.  The checks
    therefore start above the origin from _first_layers, and only the
    tests' full walk takes this step.  sliced walks the torus slice: one
    point of each orbit of S(F_p), and at each step only the canonical
    children (_orbit_weight), so no other node is solved.
    """
    p, e = field.characteristic, surface.e
    while coords and (h := len(coords[0][0]) - 1) < m:
        u = min(2 * h + 1, m)
        children = _constant_members(surface, field, sliced) if h < 0 else (
            tuple(row + a[l::e] for l, row in enumerate(rows))
            for rows in coords
            for family in _solutions(_upper_system(surface, rows, u, p), e * (u - h), p)
            for a in itertools.product(*family)
        )
        coords = [rows for rows in children if not sliced or _orbit_weight(rows, surface, p)]
    return coords


def _row_orders(row, layers, p: int) -> tuple:
    """(order, count) pairs of one coordinate, row its coefficients through
    level h and layers its choices above h in a family of _solutions.  Row
    first, a fixed nonzero choice at g ends it at order g with p^(free
    choices after g) completions; a free one gives order g (p-1) times that
    and goes on through zero, and a coordinate that stays zero is ABOVE_M.
    A row nonzero through h thus keeps its order under all p^(free choices).
    """
    free = sum(len(c) > 1 for c in layers)
    out = []
    for g, c in enumerate((*zip(row), *layers)):
        free -= len(c) > 1
        if len(c) > 1:
            out.append((g, (p - 1) * p ** free))
        elif c[0]:
            return (*out, (g, p ** free))
    return (*out, (ABOVE_M, 1))


def fiber_profiles(surface: ToricSurface, config: OracleConfig) -> Counter:
    """Number of fiber points of each contact profile, without listing them.

    Equals the Counter of the profiles of the full walk from the origin to
    level m, a coordinate's order being its first nonzero coefficient or
    ABOVE_M.  The guard is charged for the full p^(e(m+1)) space; the walk
    over the origin then stops at level h = m // 2, keeps one canonical
    node per torus orbit, and counts each node it keeps as the
    _orbit_weight nodes of its orbit.
    At m >= 2 it starts from the first layers on the tangent cone
    (_first_layers): the others have no member above them at level 2 <= m,
    so they add nothing.

    Above a member x at level h, the member jets at level m are the
    solutions of _upper_system in the layers h+1..m, as m <= 2h+1.  Over
    the origin D_0 = 0, so the layer m enters no equation and the equation
    at t^(h+1) is r_(h+1)(x) = 0 alone.  The membership loop tests that
    first on the lifted nodes, h >= 2: it stops at the first binomial that
    does not vanish, so most nodes fail after a binomial or two and are
    never eliminated.  At h = 1 the nodes are the first layers, which
    _first_layers has checked through t^2 already, and at h = 0 the one
    node is the origin, whose residual at t is 0.  At m <= 2 that test is
    the whole system.  The solutions are counted by family (_row_orders),
    and the families of equal (order, count) pairs are grouped before their
    product over the coordinates is expanded into profiles.  At m <= 1 the
    one node is the zero constant layer.
    """
    _check_guard(surface, config)
    e, m, p = surface.e, config.m, config.characteristic
    h = m // 2
    n = e * (m - h)
    field = prime_field(p)
    shapes = Counter()
    start = _first_layers(surface, field) if h else [((0,),) * e]
    for rows in _lift(surface, field, h, start, sliced=True):
        if h > 1 and not _vanishes(_sparse_rows(rows), h + 1, surface, field.is_zero):
            continue
        families = [(range(p),) * n]
        if h + 1 < m:
            families = _solutions(_upper_system(surface, rows, m, p), n, p)
        orbit = _orbit_weight(rows, surface, p)
        for a in families:
            shapes[tuple(_row_orders(row, a[l::e], p) for l, row in enumerate(rows))] += orbit
    profiles = Counter()
    for shape, count in shapes.items():
        for pairs in itertools.product(*shape):
            profile, weights = zip(*pairs)
            profiles[profile] += count * math.prod(weights)
    return profiles


def _zero_pairs(rows) -> list:
    """The i in 2..e-1 with coordinates x_i and x_(i+1) both zero in the
    walk rows, and none when every coordinate is zero."""
    zero = [not any(row) for row in rows]
    return [] if all(zero) else [i for i in range(2, len(zero)) if zero[i - 1] and zero[i]]


def _refuting_counts(surface: ToricSurface, config: OracleConfig, s: int):
    """Yield (rows, i, count) for each candidate and each of its zero pairs.

    A candidate is a member at level s-1 with a finite coordinate order,
    necessarily below s, and some pair x_i, x_(i+1) with 2 <= i <= e-1 zero
    through layer s-1; count is the number of member jets at level 2s-1
    above it with ord x_i = ord x_(i+1) = s.  Those are the solutions of
    _upper_system with both layer-s entries of the pair nonzero, counted
    off its families (_solutions): the layer-s choices of x_i and x_(i+1)
    are a[i-1] and a[i], so a family adds the nonzero values of each times
    the product of the sizes of its other choices.  Every candidate has its
    pair zero at layer 0, so one rule, _zero_pairs, picks the points of
    S(F_p) the walk starts from and the candidates at level s-1; it leaves
    out the origin, zero everywhere.  The walk keeps only the torus slice:
    a count is the same on every node of an orbit, so the candidates are
    the canonical nodes (_orbit_weight), one per orbit, unweighted.  At
    s >= 2 the origin's children are walked, the first layers on the
    tangent cone (_first_layers) in place of all p^e: a candidate above any
    other first layer has no member above it at level 2 <= 2s-1, so its
    count is 0.  config is at level m = 2s-1.
    """
    e, p = surface.e, config.characteristic
    field = prime_field(p)
    start = [rows for rows in _constant_members(surface, field, sliced=True) if _zero_pairs(rows)]
    above_origin = _first_layers(surface, field) if s > 1 else []
    n = e * s
    for rows in itertools.chain(_lift(surface, field, s - 1, start, sliced=True),
                                _lift(surface, field, s - 1, above_origin, sliced=True)):
        pairs = _zero_pairs(rows)
        if not pairs:
            continue
        counts = dict.fromkeys(pairs, 0)
        for a in _solutions(_upper_system(surface, rows, 2 * s - 1, p), n, p):
            size = math.prod(map(len, a))
            for i in pairs:
                x, y = a[i - 1], a[i]
                # a choice is range(p) or (v,): its first value is its only zero
                nonzero = (len(x) - 1 + bool(x[0])) * (len(y) - 1 + bool(y[0]))
                counts[i] += size // (len(x) * len(y)) * nonzero
        yield from ((rows, i, count) for i, count in counts.items())


def check_order_propagation(surface: ToricSurface, config: OracleConfig, s: int) -> bool:
    """At m = 2s-1: members with ord x_i = ord x_{i+1} = s have all orders >= s.

    Covers the members of the full space, constant terms included: the
    order hypothesis can hold while some other coordinate is a unit, and
    exactly those jets must fail membership for the claim to stand.  The
    guard is charged for the full p^(2es) space.  The walk starts from the
    p^2 points of S(F_p), keeps one node of each torus orbit, and stops at
    level s-1, half way: every order up to s-1 is read there, and a member of
    level 2s-1 with ord x_i = ord x_(i+1) = s and a smaller order lies above
    a candidate of _refuting_counts.  The member jets above a candidate are
    the solutions of one linear system, so they are counted by family, not
    listed, and a nonzero count refutes the claim.
    """
    if s < 1:
        raise InputRangeError(f"s must be >= 1, got {s}")
    if config.m != 2 * s - 1:
        raise InputRangeError(
            f"order propagation needs m = 2s-1 = {2 * s - 1}, config has m={config.m}"
        )
    _check_guard(surface, config)
    return not any(count for _, _, count in _refuting_counts(surface, config, s))


def coverage_spot_check(
    surface: ToricSurface, config: OracleConfig, profiles: Counter
) -> CoverageReport:
    """Classify every fiber point as a stratum point or a closure point.

    profiles maps each order profile of the fiber to its number of points,
    as fiber_profiles returns it, so the points are classified one distinct
    profile at a time, never one by one.  A profile has one key
    (i, ord x_i, ord x_{i+1}) per i in 2..e-1, so a dict of valid labels
    buckets it into at most one stratum per i, and the minimum of its finite
    orders is taken once.  One pass over the keys, each with its c_i from
    surface.entries, tests both the labels and the impossible rule below.
    A hit counts its points in that stratum and clears all_orders_ge_s
    when the minimum is below s.  The prediction (p-1)^2 p^(dim-2) models a
    stratum as a 2-torus times an affine space; agreement is experimental
    evidence for the dimension formula, not an identity enforced here.

    Strata at a fixed i can overlap only through a label listed twice, so
    disjoint is exactly "valid_labels names no label twice".  Closure
    points, whose profiles match no valid label, are expected.  What must
    never appear among them is an impossible profile: minimum order s'
    attained at some i in 2..e-1 with ord x_{i+1} = l exactly,
    l > (c_i - 1) s', while c_i s' <= m keeps the forcing coefficient of
    x_i^{c_i} inside the truncation; the binomial x_{i-1} x_{i+1} - x_i^{c_i}
    can then never vanish, so such a point would contradict membership.
    Each is reported with its point count.
    """
    e, m, p = surface.e, config.m, config.characteristic
    entries = surface.entries  # c_i is entries[i - 2]
    labels = valid_labels(surface, m)
    counts = dict.fromkeys(labels, 0)
    ge = dict.fromkeys(labels, True)
    stratum_points = 0
    impossible = []
    for profile, n in profiles.items():
        # None only for a deep closure point, all orders above m
        smin = min([o for o in profile if o is not ABOVE_M], default=None)
        hit = flagged = False
        for c, key in zip(entries, zip(range(2, e), profile[1:], profile[2:])):
            if key in counts:
                hit = True
                counts[key] += n
                if smin < key[1]:
                    ge[key] = False
            elif (key[1] == smin and key[2] is not ABOVE_M
                  and key[2] > (c - 1) * smin and c * smin <= m):
                flagged = True
        if hit:
            stratum_points += n
        elif flagged:
            impossible.append((profile, n))
    strata = tuple(
        StratumStats(
            label, counts[label],
            (p - 1) ** 2 * p ** (dimension(surface, label[1], m) - 2), ge[label],
        )
        for label in labels
    )
    total = sum(profiles.values())
    return CoverageReport(
        total_points=total,
        stratum_points=stratum_points,
        closure_points=total - stratum_points,
        impossible_profiles=tuple(impossible),
        disjoint=len(counts) == len(labels),
        strata=strata,
    )
