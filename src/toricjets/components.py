"""Irreducible components of the jet fiber over the singular point.

Components at level m carry labels (i, s, l): the index i of a distinguished
pair of adjacent coordinates, the common order s = ord x_i, and the order
l = ord x_{i+1}, constrained by s <= l <= m_i^s.  Certain labels describe
the same component; applying those identifications leaves classes that are
counted, measured, and compared against a closed-form count that never
enumerates anything.  class_runs, the one gluing scan, yields the classes
as glued runs and spans of singletons, for enumerate_classes and analyze.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputRangeError
from .lattice import ToricSurface

Label = tuple[int, int, int]


class ComponentClass(NamedTuple):
    """A set of labels identified into one irreducible component."""

    canonical: Label
    members: tuple[Label, ...]
    s: int
    codim: int
    dim: int


def _check_s(s: int, m: int) -> None:
    smax = (m + 1) // 2
    if not 1 <= s <= smax:
        raise InputRangeError(f"s must be in 1..{smax} for m={m}, got {s}")


def m_cap(surface: ToricSurface, i: int, s: int, m: int) -> int:
    """Largest admissible order of x_{i+1}: min((c_i - 1) s, m + 1 - s).

    Always >= s, because 2s <= m + 1 and c_i >= 2.
    """
    _check_s(s, m)
    ci = surface.c(i)  # validates i
    return min((ci - 1) * s, m + 1 - s)


def codimension(surface: ToricSurface, s: int, m: int) -> int:
    """Codimension s e + (m - (2s - 1))(e - 2); depends only on s and m."""
    if m < 1:
        raise InputRangeError(f"jet level must be >= 1, got {m}")
    _check_s(s, m)
    e = surface.e
    return s * e + (m - (2 * s - 1)) * (e - 2)


def dimension(surface: ToricSurface, s: int, m: int) -> int:
    """Dimension inside the ambient affine e(m+1)-space."""
    return surface.e * (m + 1) - codimension(surface, s, m)


def valid_labels(surface: ToricSurface, m: int) -> list[Label]:
    """All labels (i, s, l): i in 2..e-1, 1 <= s <= ceil(m/2), s <= l <= m_i^s."""
    out = []
    for s in range(1, (m + 1) // 2 + 1):
        for i in range(2, surface.e):
            for l in range(s, m_cap(surface, i, s, m) + 1):
                out.append((i, s, l))
    return out


def class_runs(surface: ToricSurface, m: int):
    """The one gluing scan: per s, yield (s, codim, dim, groups) in class order.
    Label (i, s, s) is glued to (i+1, s, m_{i+1}^s) for every i in 2..e-2.
    Gluings only link adjacent indices, so each class is a run of consecutive
    indices, scanned in one pass over i per s: the run through (i, s, s)
    takes in (i+1, s, m_{i+1}^s), and goes on past i+1 exactly when that cap
    collapses to s.  A group is either such a run, as a list of labels, or
    (i, range(s+1, top+1)), standing for the singleton classes (i, s, l).
    """
    if m < 1:
        raise InputRangeError(f"jet level must be >= 1, got {m}")
    for s in range(1, (m + 1) // 2 + 1):
        groups: list[list[Label] | tuple[int, range]] = []
        run: list[Label] | None = None  # the class of (i-1, s, s)
        for i in range(2, surface.e):
            cap = m_cap(surface, i, s, m)
            top = cap
            if run is not None:
                run.append((i, s, cap))
                if cap == s:
                    continue  # (i, s, s) itself joined, so the run goes on
                top = cap - 1
            run = [(i, s, s)]
            groups += [run, (i, range(s + 1, top + 1))]
        yield s, codimension(surface, s, m), dimension(surface, s, m), groups


def enumerate_classes(surface: ToricSurface, m: int) -> list[ComponentClass]:
    """All component classes at level m: class_runs, the one gluing scan,
    expanded into ComponentClasses, sorted by (s, canonical), the canonical
    label being the least member of its class under (s, i, l)."""
    out: list[ComponentClass] = []
    for s, codim, dim, groups in class_runs(surface, m):
        for g in groups:
            runs = [g] if isinstance(g, list) else [[(g[0], s, l)] for l in g[1]]
            out.extend(ComponentClass(r[0], tuple(r), s, codim, dim) for r in runs)
    return out


def count_closed_form(surface: ToricSurface, m: int) -> int:
    """Component count from the counting formula, with no enumeration.

    When every entry is 2 the count is ceil(m/2).  Otherwise, writing
    m = q_c c + r for each entry c != 2, the entry contributes
    N_c^s(m) = s c - (2s - 1) for s <= q_c and m - (2s - 2) for s > q_c;
    per s, the first such entry counts in full and each further one
    contributes N_c^s(m) - 1.
    """
    if m < 1:
        raise InputRangeError(f"jet level must be >= 1, got {m}")
    smax = (m + 1) // 2
    big = [c for c in surface.entries if c != 2]
    if not big:
        return smax
    total = 0
    for s in range(1, smax + 1):
        for pos, c in enumerate(big):
            qc = m // c
            n = s * c - (2 * s - 1) if s <= qc else m - (2 * s - 2)
            total += n if pos == 0 else n - 1
    return total


def main_codim(surface: ToricSurface, m: int) -> int:
    """(m+1)(e-2), the codimension of the closure of the jets over the smooth
    locus; metadata, not one of the classes."""
    return (m + 1) * (surface.e - 2)
