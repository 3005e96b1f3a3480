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
extensions are all p^e layers or none.  The checks solve the top layer
rather than list it: fiber_profiles counts the children of each member one
level down by their order profiles, and check_order_propagation reads the
orders at s >= 2 from the parents, solving for children only where they
would refute the lemma.  enumerate_fiber still lists every point.  Point
counts over F_p are heuristic evidence for dimensions and are reported as
experimental; the boolean lemma checks are hard.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

from .components import Label, dimension, valid_labels
from .errors import GuardExceededError, InputRangeError
from .equations import generators
from .jets import ABOVE_M, TruncatedJet, _top_coefficients, is_member, prime_field
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


def _jacobian(eqs, x0, p: int) -> dict:
    """d/dx of each binomial x_i x_j - x^b at the constant layer x0, mod p.

    Maps (i, j) to the binomial's row, one column per coordinate.
    """
    rows = {}
    for eq in eqs:
        row = [0] * len(x0)
        for sign, expo in ((1, eq.plus_exponents), (-1, eq.minus_exponents)):
            for l, a in enumerate(expo):
                if a:
                    term = sign * a * x0[l] ** (a - 1)
                    for k, b in enumerate(expo):
                        if b and k != l:
                            term *= x0[k] ** b
                    row[l] += term
        rows[eq.i, eq.j] = [x % p for x in row]
    return rows


def _tangent_solver(jac, p: int, e: int):
    """solve(r): every layer a in F_p^e with jac . a = -r (mod p).

    jac maps row keys to rows, and r maps row keys to values, a missing key
    being zero.  Gauss-Jordan on [jac | I] brings jac to reduced row echelon
    form E = T jac, once per matrix.  A right-hand side then costs T . (-r):
    rows past the rank must vanish, and the pivot coordinates of a
    particular solution are read off the rest.  The kernel, one layer per
    assignment of the e - rank free coordinates, is listed once and shifted
    by it.
    """
    keys = list(jac)
    n = len(keys)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(jac.values())]
    pivots = []
    for col in range(e):
        r = len(pivots)
        src = next((i for i in range(r, n) if aug[i][col]), None)
        if src is None:
            continue
        aug[r], aug[src] = aug[src], aug[r]
        inv = pow(aug[r][col], -1, p)
        aug[r] = [x * inv % p for x in aug[r]]
        for i in range(n):
            f = aug[i][col]
            if f and i != r:
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
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
    """Constant layer -> _tangent_solver of the Jacobian there, built on first lookup."""

    def __init__(self, surface: ToricSurface, p: int):
        super().__init__()
        self.eqs, self.p, self.e = generators(surface), p, surface.e

    def __missing__(self, x0):
        solve = self[x0] = _tangent_solver(_jacobian(self.eqs, x0, self.p), self.p, self.e)
        return solve


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
        starts = (tuple((c,) for c in x0) for x0 in itertools.product(range(p), repeat=e))
        coords = [rows for rows in starts
                  if is_member(TruncatedJet(field, 0, rows), surface)]
    solvers = _Solvers(surface, p)
    for k in range(len(coords[0][0]), m + 1):
        lifted = []
        for rows in coords:
            solve = solvers[tuple(row[0] for row in rows)]
            for layer in solve(_top_coefficients(rows, k, surface)):
                lifted.append(tuple(row + (c,) for row, c in zip(rows, layer)))
        coords = lifted
    return coords


def _enumerate_members(
    surface: ToricSurface, config: OracleConfig, start: list, jobs: int = 1
) -> list[tuple]:
    """Coordinate rows of all member jets at level m above the start members, sorted.

    Lexicographic order on rows is the order of an odometer over the
    coefficients flattened coordinate by coordinate.  With jobs > 1 and
    m >= 2 the walk runs to level 1 here, and the subtrees of the level-1
    members go to a pool of at most one process per CPU and per subtree; the
    sort makes the result independent of how the work was split.  Rows hold
    residues reduced into 0..p-1.
    """
    _check_guard(surface, config)
    field = prime_field(config.characteristic)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or config.m <= 1:  # at m <= 1 the roots are the whole walk
        coords = _lift(surface, field, config.m, start)
    else:
        roots = _lift(surface, field, 1, start)
        subtree = functools.partial(_lift, surface, field, config.m)
        with ProcessPoolExecutor(max_workers=min(jobs, len(roots))) as pool:
            chunks = list(pool.map(subtree, ([rows] for rows in roots)))
        coords = [rows for chunk in chunks for rows in chunk]
    return sorted(coords)


class _Orders(dict):
    """Row -> coordinate order, filled on first lookup.

    Walk rows hold reduced residues, so c != 0 is the field's zero test.
    """

    def __missing__(self, row):
        order = self[row] = next((b for b, c in enumerate(row) if c), ABOVE_M)
        return order


def enumerate_fiber(
    surface: ToricSurface, config: OracleConfig, jobs: int = 1
) -> list[FiberPoint]:
    """Every member jet over the singular point, with its contact profile.

    The walk starts from the zero constant layer, where each member's
    children are all p^e extensions or none; the guard is still charged for
    the full p^(e(m+1)) space.  Points come sorted by coefficients.
    """
    members = _enumerate_members(surface, config, [((0,),) * surface.e], jobs)
    field = prime_field(config.characteristic)
    orders = _Orders()
    return [
        FiberPoint(TruncatedJet(field, config.m, rows), tuple(orders[row] for row in rows))
        for rows in members
    ]


def fiber_profiles(
    surface: ToricSurface, config: OracleConfig, jobs: int = 1
) -> Counter:
    """Number of fiber points of each contact profile, without listing them.

    Equals Counter(fp.profile for fp in enumerate_fiber(...)).  The guard is
    charged for the full p^(e(m+1)) space; the walk over the origin then
    stops at level m-1 and the top layer is solved.  Over the origin J = 0,
    so a member x at level m-1 has all p^e layers as member children when
    every t^m coefficient of the binomials along x vanishes mod p, and none
    otherwise.  A child keeps the order of every nonzero row of x; a zero
    row takes order m under each of the p-1 nonzero top coefficients and
    stays above m under zero.  With O the zero rows of x, the profile with
    order m on T within O and above m on the rest of O thus has
    (p-1)^|T| p^(e-|O|) children.  Members are grouped by profile before
    this is expanded.
    """
    _check_guard(surface, config)
    e, m, p = surface.e, config.m, config.characteristic
    if m == 0:
        return Counter({(ABOVE_M,) * e: 1})
    below = _enumerate_members(surface, replace(config, m=m - 1), [((0,),) * e], jobs)
    orders = _Orders()
    shapes = Counter(
        tuple(orders[row] for row in rows)
        for rows in below
        if not any(c % p for c in _top_coefficients(rows, m, surface).values())
    )
    profiles = Counter()
    for shape, n in shapes.items():
        weight = n * p ** sum(o is not ABOVE_M for o in shape)
        # orders at level m-1 are below m, so order m marks exactly T
        choices = [(ABOVE_M, m) if o is ABOVE_M else (o,) for o in shape]
        for profile in itertools.product(*choices):
            profiles[profile] += weight * (p - 1) ** profile.count(m)
    return profiles


def check_order_propagation(
    surface: ToricSurface, config: OracleConfig, s: int, jobs: int = 1
) -> bool:
    """At m = 2s-1: members with ord x_i = ord x_{i+1} = s have all orders >= s.

    Covers the members of the full space, constant terms included: the
    order hypothesis can hold while some other coordinate is a unit, and
    exactly those jets must fail membership for the claim to stand.  The
    guard is charged for the full p^(2es) space.  At s = 1 the order s is
    the top layer itself, so the members at level 1 are walked and read.
    At s >= 2 every order up to s lies below the top layer t^(2s-1), so a
    member has its parent's orders wherever the claim looks: the walk stops
    at level 2s-2, and only a parent that meets the hypothesis with a
    finite order below s is solved for member children, any one of which
    refutes the claim.
    """
    if s < 1:
        raise InputRangeError(f"s must be >= 1, got {s}")
    if config.m != 2 * s - 1:
        raise InputRangeError(
            f"order propagation needs m = 2s-1 = {2 * s - 1}, config has m={config.m}"
        )
    _check_guard(surface, config)
    e = surface.e
    walked = config if s == 1 else replace(config, m=config.m - 1)
    solvers = _Solvers(surface, config.characteristic)
    row_order = _Orders()
    for rows in _enumerate_members(surface, walked, [((),) * e], jobs):
        orders = [row_order[row] for row in rows]
        if not any(orders[i - 1] == s and orders[i] == s for i in range(2, e)):
            continue
        if not any(o is not ABOVE_M and o < s for o in orders):
            continue
        if s == 1 or solvers[tuple(row[0] for row in rows)](
            _top_coefficients(rows, config.m, surface)
        ):
            return False
    return True


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
