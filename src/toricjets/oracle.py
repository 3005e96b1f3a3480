"""Exhaustive finite-field verification of the component classification.

Everything here enumerates every member jet of a level over a prime field
at desk scale and checks the classification lemmas point by point:
membership, the fiber over the singular point, order propagation, stratum
non-emptiness and disjointness, and dimension-predicted point counts.  The
members are found by lifting: those at level d are the members at level d-1
extended by one coefficient layer, so only members and their one-layer
extensions are visited, and over the origin one check decides all p^e
extensions of a member.  Point counts over F_p are heuristic evidence for
dimensions and are reported as experimental; the boolean lemma checks are
hard.
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

    all_orders_ge_s and min_order_is_s summarize the speciality check over
    every counted point; both hold vacuously for an empty stratum.
    """

    label: Label
    point_count: int
    predicted_count: int
    all_orders_ge_s: bool
    min_order_is_s: bool


@dataclass(frozen=True)
class CoverageReport:
    """Classification of every fiber point into stratum or closure points.

    impossible_profiles lists points whose order profile contradicts the
    defining binomials (see coverage_spot_check); it is expected to be empty
    and any entry is a hard failure.  per_label carries the stratum sizes in
    label order; disjoint records that strata at a fixed i never overlap.
    """

    total_points: int
    stratum_points: int
    closure_points: int
    impossible_profiles: tuple
    disjoint: bool
    per_label: tuple


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


def stratum_counts(
    surface: ToricSurface,
    config: OracleConfig,
    jobs: int = 1,
    points: list[FiberPoint] | None = None,
) -> list[StratumStats]:
    """Point counts over F_p of every stratum at level m, with predictions.

    The stratum of label (i, s, l) collects the fiber points with
    ord x_i = s and ord x_{i+1} = l.  The prediction (p-1)^2 p^(dim-2)
    models the stratum as a 2-torus times an affine space; agreement is
    experimental evidence for the dimension formula, not an identity this
    function enforces.  Pass points to reuse an enumerated fiber.
    """
    if points is None:
        points = enumerate_fiber(surface, config, jobs=jobs)
    p = config.characteristic
    m = config.m
    e = surface.e
    buckets: dict[Label, list[FiberPoint]] = {}
    for fp in points:
        for i in range(2, e):
            oi, on = fp.profile[i - 1], fp.profile[i]
            if oi is ABOVE_M or on is ABOVE_M:
                continue
            buckets.setdefault((i, oi, on), []).append(fp)
    stats = []
    for label in valid_labels(surface, m):
        i, s, l = label
        hits = buckets.get(label, [])
        ge = True
        min_is_s = True
        for fp in hits:
            finite = [o for o in fp.profile if o is not ABOVE_M]
            if any(o < s for o in finite):
                ge = False
            if min(finite) != s:  # finite is nonempty: ord x_i = s
                min_is_s = False
        predicted = (p - 1) ** 2 * p ** (dimension(surface, s, m) - 2)
        stats.append(StratumStats(label, len(hits), predicted, ge, min_is_s))
    return stats


def coverage_spot_check(
    surface: ToricSurface,
    config: OracleConfig,
    jobs: int = 1,
    points: list[FiberPoint] | None = None,
) -> CoverageReport:
    """Classify every fiber point as a stratum point or a closure point.

    Closure points, whose profiles match no valid label, are expected.  What
    must never appear is an impossible profile: minimum order s' attained at
    some i in 2..e-1 with ord x_{i+1} = l exactly, l > (c_i - 1) s', while
    c_i s' <= m keeps the forcing coefficient of x_i^{c_i} inside the
    truncation; the binomial x_{i-1} x_{i+1} - x_i^{c_i} can then never
    vanish, so such a point would contradict membership.  Disjointness of
    the strata at each fixed i is verified along the way.
    """
    if points is None:
        points = enumerate_fiber(surface, config, jobs=jobs)
    e = surface.e
    m = config.m
    labels = valid_labels(surface, m)
    member_sets: dict[Label, set[int]] = {label: set() for label in labels}
    for idx, fp in enumerate(points):
        for label in labels:
            i, s, l = label
            if fp.profile[i - 1] == s and fp.profile[i] == l:
                member_sets[label].add(idx)

    disjoint = True
    for i in range(2, e):
        at_i = [label for label in labels if label[0] == i]
        for a in range(len(at_i)):
            for b in range(a + 1, len(at_i)):
                if member_sets[at_i[a]] & member_sets[at_i[b]]:
                    disjoint = False

    matched = set().union(*member_sets.values()) if member_sets else set()
    impossible = []
    for idx, fp in enumerate(points):
        if idx in matched:
            continue
        finite = [o for o in fp.profile if o is not ABOVE_M]
        if not finite:
            continue  # deep closure point, all orders above m
        smin = min(finite)
        for i in range(2, e):
            oi, on = fp.profile[i - 1], fp.profile[i]
            if oi is ABOVE_M or on is ABOVE_M:
                continue
            ci = surface.c(i)
            if oi == smin and on > (ci - 1) * smin and ci * smin <= m:
                impossible.append((idx, fp.profile))
                break

    stratum_points = len(matched)
    return CoverageReport(
        total_points=len(points),
        stratum_points=stratum_points,
        closure_points=len(points) - stratum_points,
        impossible_profiles=tuple(impossible),
        disjoint=disjoint,
        per_label=tuple((label, len(member_sets[label])) for label in labels),
    )
