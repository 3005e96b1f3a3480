"""Exhaustive finite-field verification of the component classification.

Everything here enumerates complete coefficient spaces over a prime field at
desk scale and checks the classification lemmas point by point: membership,
the fiber over the singular point, order propagation, stratum non-emptiness
and disjointness, and dimension-predicted point counts.  Point counts over
F_p are heuristic evidence for dimensions and are reported as experimental;
the boolean lemma checks are hard.
"""

from __future__ import annotations

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


def _member_coords(p, q, characteristic, m, fix_origin, prefix, tail_len):
    """Coordinate rows of the member jets in one odometer chunk.

    The coefficient space is flattened to e blocks of digits, one block per
    coordinate, most significant digit first; prefix pins the leading digits.
    Returns plain tuples so chunks can cross process boundaries.
    """
    surface = ToricSurface.from_pair(p, q)
    field = prime_field(characteristic)
    e = surface.e
    per = m if fix_origin else m + 1
    found = []
    for tail in itertools.product(range(characteristic), repeat=tail_len):
        digits = prefix + tail
        rows = []
        base = 0
        for _ in range(e):
            chunk = digits[base : base + per]
            rows.append((0,) + chunk if fix_origin else chunk)
            base += per
        jet = TruncatedJet(field, m, tuple(rows))
        if is_member(jet, surface):
            found.append(tuple(jet.coords))
    return found


def _member_coords_star(args):
    return _member_coords(*args)


def _enumerate_members(
    surface: ToricSurface, config: OracleConfig, fix_origin: bool, jobs: int = 1
) -> list[TruncatedJet]:
    """All member jets, odometer order, optionally chunked across processes
    (at most one per CPU and one per chunk).

    Chunks partition the space by leading digits; concatenating their results
    in prefix order reproduces the sequential order exactly, so parallel runs
    are bit-for-bit identical to sequential ones.
    """
    _check_guard(surface, config)
    char = config.characteristic
    m = config.m
    per = m if fix_origin else m + 1
    total_digits = surface.e * per
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or total_digits == 0:
        coords = _member_coords(
            surface.p, surface.q, char, m, fix_origin, (), total_digits
        )
    else:
        k = 1
        while char**k < jobs and k < total_digits:
            k += 1
        prefixes = itertools.product(range(char), repeat=k)
        args = [
            (surface.p, surface.q, char, m, fix_origin, pre, total_digits - k)
            for pre in prefixes
        ]
        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            chunks = list(pool.map(_member_coords_star, args))
        coords = [rows for chunk in chunks for rows in chunk]
    field = prime_field(char)
    return [TruncatedJet(field, m, rows) for rows in coords]


def enumerate_fiber(
    surface: ToricSurface, config: OracleConfig, jobs: int = 1
) -> list[FiberPoint]:
    """Every member jet over the singular point, with its contact profile.

    Constant terms are pinned to zero up front, so p^(e m) coefficient tuples
    are visited; the guard is still charged for the full p^(e(m+1)) space.
    Output order follows the odometer and is deterministic.
    """
    jets = _enumerate_members(surface, config, fix_origin=True, jobs=jobs)
    out = []
    for jet in jets:
        profile = tuple(coordinate_order(jet, j) for j in range(1, surface.e + 1))
        out.append(FiberPoint(jet, profile))
    return out


def check_order_propagation(
    surface: ToricSurface, config: OracleConfig, s: int, jobs: int = 1
) -> bool:
    """At m = 2s-1: members with ord x_i = ord x_{i+1} = s have all orders >= s.

    Scans the full coefficient space, constant terms included: the order
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
    for jet in _enumerate_members(surface, config, fix_origin=False, jobs=jobs):
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
