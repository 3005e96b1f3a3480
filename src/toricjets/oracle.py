"""Exhaustive finite-field verification of the component classification.

Everything here enumerates every member jet of a level over a prime field
at desk scale and checks the classification lemmas point by point:
membership, the fiber over the singular point, order propagation, and, in
one pass over the fiber, stratum sizes, minimum orders and impossible
profiles.  The members are found by lifting: those at level d are the
members at level d-1 extended by one coefficient layer, so only members and
their one-layer extensions are visited, and over the origin one check
decides all p^e extensions of a member.  Point counts over F_p are heuristic
evidence for dimensions and are reported as experimental; the boolean lemma
checks are hard.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

from .components import Label, dimension, valid_labels
from .errors import GuardExceededError, InputRangeError
from .jets import ABOVE_M, TruncatedJet, coordinate_order, is_member, prime_field
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

    impossible_profiles lists points whose order profile contradicts the
    defining binomials (see coverage_spot_check); it is expected to be empty
    and any entry is a hard failure.  strata carries one StratumStats per
    valid label, in label order; disjoint records that strata at a fixed i
    never overlap, which holds exactly when no label is listed twice.
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


def _lift(surface, field, m, coords):
    """Coordinate rows of the member jets at level m above the given members.

    coords holds the rows of members of one level k < m, or empty rows
    (k = -1).  Each round extends every member by the p^e coefficient layers
    of the next degree and keeps the members among them; a truncation of a
    member is a member, so none is missed.  Over the origin (constant layer
    zero, k >= 1) every order is >= 1 and every binomial monomial has degree
    >= 2, so the t^k coefficients read only layers 1..k-1: the child with a
    zero layer k is checked and stands for all p^e children.
    """
    layers = list(itertools.product(field.elements(), repeat=surface.e))
    for k in range(len(coords[0][0]), m + 1):
        lifted = []
        for rows in coords:
            exts = (tuple(r + (c,) for r, c in zip(rows, layer)) for layer in layers)
            if k and not any(row[0] for row in rows):
                zero = next(exts)  # the layers start at (0,) * e
                if is_member(TruncatedJet(field, k, zero), surface):
                    lifted += [zero, *exts]
                continue
            for ext in exts:
                if is_member(TruncatedJet(field, k, ext), surface):
                    lifted.append(ext)
        coords = lifted
    return coords


def _enumerate_members(
    surface: ToricSurface, config: OracleConfig, start: list, jobs: int = 1
) -> list[TruncatedJet]:
    """All member jets at level m above the start members, sorted by coords.

    Lexicographic order on coords is the order of an odometer over the
    coefficients flattened coordinate by coordinate.  With jobs > 1 and
    m >= 2 the walk runs to level 1 here, and the subtrees of the level-1
    members go to a pool of at most one process per CPU and per subtree; the
    sort makes the result independent of how the work was split.
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
    return [TruncatedJet(field, config.m, rows) for rows in sorted(coords)]


def enumerate_fiber(
    surface: ToricSurface, config: OracleConfig, jobs: int = 1
) -> list[FiberPoint]:
    """Every member jet over the singular point, with its contact profile.

    The walk starts from the zero constant layer and checks one extension
    per member, keeping all p^e or none; the guard is still charged for the
    full p^(e(m+1)) space.  Points come sorted by coefficients.
    """
    jets = _enumerate_members(surface, config, [((0,),) * surface.e], jobs)
    out = []
    for jet in jets:
        profile = tuple(coordinate_order(jet, j) for j in range(1, surface.e + 1))
        out.append(FiberPoint(jet, profile))
    return out


def check_order_propagation(
    surface: ToricSurface, config: OracleConfig, s: int, jobs: int = 1
) -> bool:
    """At m = 2s-1: members with ord x_i = ord x_{i+1} = s have all orders >= s.

    Walks the members of the full space, constant terms included: the order
    hypothesis can hold while some other coordinate is a unit, and exactly
    those jets must fail membership for the claim to stand.
    """
    if s < 1:
        raise InputRangeError(f"s must be >= 1, got {s}")
    if config.m != 2 * s - 1:
        raise InputRangeError(
            f"order propagation needs m = 2s-1 = {2 * s - 1}, config has m={config.m}"
        )
    e = surface.e
    for jet in _enumerate_members(surface, config, [((),) * e], jobs):
        orders = [coordinate_order(jet, j) for j in range(1, e + 1)]
        if not any(orders[i - 1] == s and orders[i] == s for i in range(2, e)):
            continue
        for o in orders:
            if o is not ABOVE_M and o < s:
                return False
    return True


def coverage_spot_check(
    surface: ToricSurface, config: OracleConfig, points: list[FiberPoint]
) -> CoverageReport:
    """Classify every fiber point as a stratum point or a closure point.

    One pass: each point has one key (i, ord x_i, ord x_{i+1}) per i in
    2..e-1, so a dict of valid labels buckets it into at most one stratum
    per i, and the minimum of its finite orders is taken once.  A hit counts
    the point in that stratum and clears all_orders_ge_s when the minimum is
    below s.  The prediction (p-1)^2 p^(dim-2) models a stratum as a 2-torus
    times an affine space; agreement is experimental evidence for the
    dimension formula, not an identity enforced here.

    Strata at a fixed i can overlap only through a label listed twice, so
    disjoint is exactly "valid_labels names no label twice".  Closure
    points, whose profiles match no valid label, are expected.  What must
    never appear among them is an impossible profile: minimum order s'
    attained at some i in 2..e-1 with ord x_{i+1} = l exactly,
    l > (c_i - 1) s', while c_i s' <= m keeps the forcing coefficient of
    x_i^{c_i} inside the truncation; the binomial x_{i-1} x_{i+1} - x_i^{c_i}
    can then never vanish, so such a point would contradict membership.
    """
    e, m, p = surface.e, config.m, config.characteristic
    labels = valid_labels(surface, m)
    counts = dict.fromkeys(labels, 0)
    ge = dict.fromkeys(labels, True)
    stratum_points = 0
    impossible = []
    for idx, (_, profile) in enumerate(points):
        keys = list(zip(range(2, e), profile[1:], profile[2:]))
        hits = [key for key in keys if key in counts]
        # None only for a deep closure point, all orders above m
        smin = min([o for o in profile if o is not ABOVE_M], default=None)
        for key in hits:
            counts[key] += 1
            if smin < key[1]:
                ge[key] = False
        if hits:
            stratum_points += 1
        elif any(
            oi == smin and on is not ABOVE_M
            and on > (surface.c(i) - 1) * smin and surface.c(i) * smin <= m
            for i, oi, on in keys
        ):
            impossible.append((idx, profile))
    strata = tuple(
        StratumStats(
            label, counts[label],
            (p - 1) ** 2 * p ** (dimension(surface, label[1], m) - 2), ge[label],
        )
        for label in labels
    )
    return CoverageReport(
        total_points=len(points),
        stratum_points=stratum_points,
        closure_points=len(points) - stratum_points,
        impossible_profiles=tuple(impossible),
        disjoint=len(counts) == len(labels),
        strata=strata,
    )
