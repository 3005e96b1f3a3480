"""Exhaustive finite-field verification of the component classification.

Everything here accounts for every member jet of a level over a prime field
at desk scale and checks the classification lemmas on all of them:
membership, the fiber over the singular point, order propagation, and, in
one pass over the fiber's order profiles, stratum sizes, minimum orders and
impossible profiles.  The members are found by lifting: those at level d
are the members at level d-1 extended by one coefficient layer.  Above the
constant layer the extensions of a member form an affine space over the
Zariski tangent space at its constant layer, or are empty (Mustata, Invent.
Math. 2001), so each member costs one residual evaluation and one linear
solve mod p; over the origin the tangent condition is void and the
extensions are all p^e layers or none.

The checks walk only the lower levels and solve the upper ones.  Above a
member x_low at level h, the member jets at level m <= 2h+1 are the
solutions of one linear system over F_p in the layers h+1..m: for each
binomial f and each k, r_k + sum over g <= k of D_(k-g) a_g = 0, with r_k
the t^k coefficient of f along x_low and D_d the t^d term of its
derivative series, since any product of two upper layers lands past t^m
(Denef-Loeser, Invent. Math. 1999; Ein-Mustata, 2009).  The system is
block lower-triangular with J(x_0) = D_0 on its diagonal.
check_order_propagation walks the full space to level s-1 and counts, by
ranks, the members at level 2s-1 above each candidate that would refute
the lemma; fiber_profiles walks the origin to level m-2 and solves the
layer m-1 from D_1, then counts the top layer by contact profile.
enumerate_fiber still lists every point.  Point counts over F_p are
heuristic evidence for dimensions and are reported as experimental; the
boolean lemma checks are hard.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .components import Label, dimension, valid_labels
from .errors import GuardExceededError, InputRangeError
from .jets import ABOVE_M, TruncatedJet, _taylor, _top_coefficients, is_member, prime_field
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
        prime_field(self.characteristic)  # validates primality
        if self.m < 0:
            raise InputRangeError(f"jet level must be >= 0, got {self.m}")
        if self.guard < 1:
            raise InputRangeError(f"guard must be positive, got {self.guard}")


class FiberPoint(NamedTuple):
    """A member jet over the singular point together with its contact profile."""

    jet: TruncatedJet
    profile: tuple


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


def required_budget(surface: ToricSurface, config: OracleConfig) -> int:
    """Size of the full coefficient space p^(e(m+1)) charged against the guard."""
    return config.characteristic ** (surface.e * (config.m + 1))


def _check_guard(surface: ToricSurface, config: OracleConfig) -> None:
    required = required_budget(surface, config)
    if required > config.guard:
        raise GuardExceededError(
            f"enumeration needs {required} points but the guard is "
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


def _tangent_solver(jac, p: int, e: int):
    """solve(r): every layer a in F_p^e with jac . a = -r (mod p).

    jac maps row keys to rows reduced mod p, and r maps row keys to values,
    a missing key being zero.  Gauss-Jordan on [jac | I] brings jac to
    reduced row echelon form E = T jac, once per matrix.  A right-hand side
    then costs T . (-r): rows past the rank must vanish, and the pivot
    coordinates of a particular solution are read off the rest.  The kernel,
    one layer per assignment of the e - rank free coordinates, is listed
    once and shifted by it.
    """
    keys = list(jac)
    n = len(keys)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(jac.values())]
    pivots = _row_reduce(aug, e, p)
    rank = len(pivots)
    free = [col for col in range(e) if col not in pivots]
    kernel = []
    for values in itertools.product(range(p), repeat=len(free)):
        a = [0] * e
        for col, v in zip(free, values):
            a[col] = v
        for row, col in zip(aug, pivots):
            a[col] = -sum(row[f] * a[f] for f in free) % p
        kernel.append(tuple(a))
    transform = [[(keys[j], t) for j, t in enumerate(row[e:]) if t] for row in aug]

    def solve(r):
        b = [-sum(t * r.get(key, 0) for key, t in row) % p for row in transform]
        if any(b[rank:]):
            return []
        if not any(b):
            return kernel
        shift = [0] * e
        for col, v in zip(pivots, b):
            shift[col] = v
        return [tuple((x + y) % p for x, y in zip(a, shift)) for a in kernel]

    return solve


class _Solvers(dict):
    """Layer c -> _tangent_solver of D_d, built on first lookup.

    D_d is the t^d term of the derivative series along the jet whose layers
    below d are zero and whose layer d is c; d is 0 unless given.  D_0 at the
    constant layer is the Jacobian J(x_0) of the tangent lifting.  Over the
    origin D_1 along a jet depends on its layer 1 alone, every derivative of
    a binomial being a polynomial without constant term.
    """

    def __init__(self, surface: ToricSurface, p: int, d: int = 0):
        super().__init__()
        self.surface, self.p, self.d = surface, p, d

    def __missing__(self, layer):
        d, p = self.d, self.p
        rows = tuple((0,) * d + (c,) for c in layer)
        jac = {ij: [c % p for c in grad[d]]
               for ij, (_, grad) in _taylor(rows, d, d, self.surface).items()}
        solve = self[layer] = _tangent_solver(jac, p, self.surface.e)
        return solve


def _constant_members(surface, field, layers) -> list:
    """Rows of the member jets at level 0 among the given constant layers,
    each checked with is_member."""
    starts = (tuple((c,) for c in x0) for x0 in layers)
    return [rows for rows in starts if is_member(TruncatedJet(field, 0, rows), surface)]


def _lift(surface, field, m, coords):
    """Coordinate rows of the member jets at level m above the given members.

    coords holds the rows of members of one level k < m, or empty rows
    (k = -1).  A truncation of a member is a member, so lifting the members
    one layer at a time misses none.  The constant layer is nonlinear: each
    of its p^e choices is checked with is_member.  Above it the fiber is
    affine, modelled on the tangent space at the constant layer: write x for
    a level k-1 member padded with a zero layer k >= 1.  Along x + a t^k the
    t^k coefficient of each binomial is r(x) + J(x_0) a, with r(x) its t^k
    coefficient along x and J(x_0) the Jacobian at the constant layer, since
    every term of degree >= 2 in a lands at t^(2k) or above; the lower
    coefficients are those along the member x, all zero.  So the member
    children are the solutions of J(x_0) a = -r(x) mod p: one residual per
    node, and one elimination per distinct constant layer.  Over the origin
    J = 0, because every binomial monomial has degree >= 2: all p^e children
    or none, the rank-0 case.
    """
    p, e = field.characteristic, surface.e
    if not coords[0][0]:  # the constant layer, child by child
        coords = _constant_members(surface, field, itertools.product(range(p), repeat=e))
    solvers = _Solvers(surface, p)
    for k in range(len(coords[0][0]), m + 1):
        lifted = []
        for rows in coords:
            solve = solvers[tuple(row[0] for row in rows)]
            for layer in solve(_top_coefficients(rows, k, surface)):
                lifted.append(tuple(row + (c,) for row, c in zip(rows, layer)))
        coords = lifted
    return coords


class _Orders(dict):
    """Row -> coordinate order, filled on first lookup.

    Walk rows hold reduced residues, so c != 0 is the field's zero test.
    """

    def __missing__(self, row):
        order = self[row] = next((b for b, c in enumerate(row) if c), ABOVE_M)
        return order


def enumerate_fiber(surface: ToricSurface, config: OracleConfig) -> list[FiberPoint]:
    """Every member jet over the singular point, with its contact profile.

    The walk starts from the zero constant layer, where each member's
    children are all p^e extensions or none; the guard is still charged for
    the full p^(e(m+1)) space.  Points come sorted by coefficients, in the
    order of an odometer over them flattened coordinate by coordinate.
    """
    _check_guard(surface, config)
    field = prime_field(config.characteristic)
    members = sorted(_lift(surface, field, config.m, [((0,),) * surface.e]))
    orders = _Orders()
    return [
        FiberPoint(TruncatedJet(field, config.m, rows), tuple(orders[row] for row in rows))
        for rows in members
    ]


def fiber_profiles(surface: ToricSurface, config: OracleConfig) -> Counter:
    """Number of fiber points of each contact profile, without listing them.

    Equals Counter(fp.profile for fp in enumerate_fiber(...)).  The guard is
    charged for the full p^(e(m+1)) space; the walk over the origin then
    stops below the top and the top two layers are solved.

    The top layer: over the origin J = 0, so a member x at level m-1 has all
    p^e layers as member children when every t^m coefficient of the
    binomials along x vanishes mod p, and none otherwise.  A child keeps the
    order of every nonzero row of x; a zero row takes order m under each of
    the p-1 nonzero top coefficients and stays above m under zero.  With O
    the zero rows of x, the profile with order m on T within O and above m
    on the rest of O thus has (p-1)^|T| p^(e-|O|) children.  Members are
    grouped by profile, their shape, before this is expanded.

    The layer below it, at m >= 3: the walk stops at level m-2.  Along
    x + a t^(m-1) the t^(m-1) coefficient is r_(m-1)(x), as D_0 = J = 0, and
    the t^m coefficient is r_m(x) + D_1(x) a, with D_1 the t^1 term of the
    derivative series along x; every term of degree >= 2 in a lands at
    t^(2m-2) > t^m.  So a node x whose t^(m-1) residual vanishes has as
    level m-1 members with member children exactly the x + a t^(m-1) with
    D_1(x) a = -r_m(x), and each gives its shape: a zero row of x takes
    order m-1 where a is nonzero.  At m <= 2 the walk stops at level m-1.
    """
    _check_guard(surface, config)
    e, m, p = surface.e, config.m, config.characteristic
    if m == 0:
        return Counter({(ABOVE_M,) * e: 1})
    field = prime_field(p)
    origin = [((0,),) * e]
    orders = _Orders()
    shapes = Counter()
    if m <= 2:
        for rows in _lift(surface, field, m - 1, origin):
            if not any(c % p for c in _top_coefficients(rows, m, surface).values()):
                shapes[tuple(orders[row] for row in rows)] += 1
    else:
        solvers = _Solvers(surface, p, 1)
        for rows in _lift(surface, field, m - 2, origin):
            series = _taylor(rows, m, -1, surface)
            if any(value[m - 1] % p for value, _ in series.values()):
                continue
            shape = [orders[row] for row in rows]
            top = {ij: value[m] for ij, (value, _) in series.items()}
            for a in solvers[tuple(row[1] for row in rows)](top):
                shapes[tuple(m - 1 if o is ABOVE_M and c else o for o, c in zip(shape, a))] += 1
    profiles = Counter()
    for shape, n in shapes.items():
        weight = n * p ** sum(o is not ABOVE_M for o in shape)
        # orders at level m-1 are below m, so order m marks exactly T
        choices = [(ABOVE_M, m) if o is ABOVE_M else (o,) for o in shape]
        for profile in itertools.product(*choices):
            profiles[profile] += weight * (p - 1) ** profile.count(m)
    return profiles


def _zero_pairs(zero) -> list:
    """The i in 2..e-1 with coordinates x_i and x_(i+1) both flagged in zero,
    a sequence of e flags indexed from 0."""
    return [i for i in range(2, len(zero)) if zero[i - 1] and zero[i]]


def _upper_system(surface: ToricSurface, rows, s: int, p: int) -> list:
    """Rows [A | b] of the system A a = b whose solutions are the layers
    s..2s-1 of the member jets above the member rows at level s-1.

    Unknown (g - s) e + l is the coefficient a_(g, l) of x_(l+1) at t^g.
    Each binomial f gives one equation per k = s..2s-1,
    r_k + sum over g = s..k and l of D_(k-g)[l] a_(g, l) = 0, with r_k the
    t^k coefficient of f along rows and D_d[l] the t^d term of df/dx_(l+1):
    the Taylor expansion, since a product of two upper layers lands at
    t^(2s) or above.  Entries are reduced mod p.
    """
    e = surface.e
    system = []
    for value, grad in _taylor(rows, 2 * s - 1, s - 1, surface).values():
        for k in range(s, 2 * s):
            row = [0] * (e * s) + [-value[k] % p]
            for g in range(s, k + 1):
                row[(g - s) * e:(g - s + 1) * e] = [c % p for c in grad[k - g]]
            system.append(row)
    return system


def _solution_count(system, n: int, p: int, fixed=()) -> int:
    """Number of solutions in F_p^n of the rows [A | b] with the unknowns in
    fixed set to zero: p^(n - |fixed| - rank), or 0 when b is a pivot."""
    rows = [[0 if col in fixed else x for col, x in enumerate(row)] for row in system]
    pivots = _row_reduce(rows, n + 1, p)
    return 0 if n in pivots else p ** (n - len(fixed) - len(pivots))


def _refuting_counts(surface: ToricSurface, config: OracleConfig, s: int):
    """Yield (rows, i, count) for each candidate and each of its zero pairs.

    A candidate is a member at level s-1 with a finite coordinate order,
    necessarily below s, and some pair x_i, x_(i+1) with 2 <= i <= e-1 zero
    through layer s-1; count is the number of member jets at level 2s-1
    above it with ord x_i = ord x_(i+1) = s.  Those are the solutions of
    _upper_system with both layer-s entries of the pair nonzero, so by
    inclusion-exclusion count = Z - Z(a_(s,i) = 0) - Z(a_(s,i+1) = 0) +
    Z(both), Z counting solutions.  Every candidate has its pair zero at
    layer 0, and at s = 1 a unit coordinate, so only the constant layers
    with these properties are checked for membership and walked to level
    s-1.  config is at level m = 2s-1.
    """
    e, p = surface.e, config.characteristic

    def may_start(x0):
        zero = [not c for c in x0]
        return _zero_pairs(zero) and (s > 1 or not all(zero))

    field = prime_field(p)
    layers = filter(may_start, itertools.product(range(p), repeat=e))
    start = _constant_members(surface, field, layers)
    if not start:
        return
    n = e * s
    for rows in _lift(surface, field, s - 1, start):
        zero = [not any(row) for row in rows]
        pairs = _zero_pairs(zero)
        if all(zero) or not pairs:
            continue
        system = _upper_system(surface, rows, s, p)
        total = _solution_count(system, n, p)
        for i in pairs:
            yield rows, i, (
                total
                - _solution_count(system, n, p, (i - 1,))
                - _solution_count(system, n, p, (i,))
                + _solution_count(system, n, p, (i - 1, i))
            )


def check_order_propagation(surface: ToricSurface, config: OracleConfig, s: int) -> bool:
    """At m = 2s-1: members with ord x_i = ord x_{i+1} = s have all orders >= s.

    Covers the members of the full space, constant terms included: the
    order hypothesis can hold while some other coordinate is a unit, and
    exactly those jets must fail membership for the claim to stand.  The
    guard is charged for the full p^(2es) space.  The walk stops at level
    s-1, half way: every order up to s-1 is read there, and a member of
    level 2s-1 with ord x_i = ord x_(i+1) = s and a smaller order lies above
    a candidate of _refuting_counts.  The member jets above a candidate are
    the solutions of one linear system, so they are counted, not listed; a
    nonzero count refutes the claim, and a negative one, which only a
    broken count can give, fails it too.
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
    orders is taken once.  A hit counts its points in that stratum and
    clears all_orders_ge_s when the minimum is below s.  The prediction
    (p-1)^2 p^(dim-2) models a stratum as a 2-torus times an affine space;
    agreement is experimental evidence for the dimension formula, not an
    identity enforced here.

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
    labels = valid_labels(surface, m)
    counts = dict.fromkeys(labels, 0)
    ge = dict.fromkeys(labels, True)
    stratum_points = 0
    impossible = []
    for profile, n in profiles.items():
        keys = list(zip(range(2, e), profile[1:], profile[2:]))
        hits = [key for key in keys if key in counts]
        # None only for a deep closure point, all orders above m
        smin = min([o for o in profile if o is not ABOVE_M], default=None)
        for key in hits:
            counts[key] += n
            if smin < key[1]:
                ge[key] = False
        if hits:
            stratum_points += n
        elif any(
            oi == smin and on is not ABOVE_M
            and on > (surface.c(i) - 1) * smin and surface.c(i) * smin <= m
            for i, oi, on in keys
        ):
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
