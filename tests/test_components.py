import random

import pytest

from toricjets import (
    ComponentClass,
    InputRangeError,
    ToricSurface,
    codimension,
    count_closed_form,
    dimension,
    enumerate_classes,
    exceptional_count_dual_cf,
    m_cap,
    valid_labels,
)
from conftest import random_wide_surfaces


def _classes(p, q, m):
    return enumerate_classes(ToricSurface.from_pair(p, q), m)


def _s1_count(surf, m):
    return sum(cl.s == 1 for cl in enumerate_classes(surf, m))


def _classes_union_find(surface, m):
    """Reference enumeration: a general union-find over the gluing edges,
    assuming nothing about which labels the edges link."""
    e = surface.e
    entries = surface.entries
    out = []
    for s in range(1, (m + 1) // 2 + 1):
        caps = [min((c - 1) * s, m + 1 - s) for c in entries]  # index i-2 for c_i
        codim = s * e + (m - (2 * s - 1)) * (e - 2)
        dim = e * (m + 1) - codim

        parent = {}

        def find(x):
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:
                parent[x], x = root, parent[x]
            return root

        for i in range(2, e - 1):
            a = find((i, s))
            b = find((i + 1, caps[i - 1]))
            if a != b:
                parent[a] = b

        groups = {}
        slice_classes = []
        for i in range(2, e):
            cap = caps[i - 2]
            for l in range(s, cap + 1):
                # only endpoints of gluing edges can be in a nontrivial class
                if (l == s and i <= e - 2) or (l == cap and i >= 3):
                    groups.setdefault(find((i, l)), []).append((i, s, l))
                else:
                    label = (i, s, l)
                    slice_classes.append(ComponentClass(label, (label,), s, codim, dim))
        for labels in groups.values():
            labels.sort()
            slice_classes.append(ComponentClass(labels[0], tuple(labels), s, codim, dim))
        slice_classes.sort(key=lambda cl: (cl.canonical[0], cl.canonical[2]))
        out.extend(slice_classes)
    return out


def test_classes_match_union_find_reference(family12):
    for surf in family12:
        for m in range(1, 41):
            assert enumerate_classes(surf, m) == _classes_union_find(surf, m), (
                surf.p, surf.q, m)


def test_m_cap_frozen():
    surf = ToricSurface.from_pair(3, 5)  # entries (2, 3)
    assert m_cap(surf, 2, 1, 4) == 1
    assert m_cap(surf, 3, 1, 4) == 2
    assert m_cap(surf, 2, 2, 4) == 2
    assert m_cap(surf, 3, 2, 4) == 3
    assert m_cap(surf, 3, 1, 1) == 1  # m+1-s branch
    with pytest.raises(InputRangeError):
        m_cap(surf, 4, 1, 4)
    with pytest.raises(InputRangeError):
        m_cap(surf, 2, 0, 4)
    with pytest.raises(InputRangeError):
        m_cap(surf, 2, 3, 4)  # s exceeds ceil(m/2)


def test_codimension_dimension_frozen():
    surf = ToricSurface.from_pair(3, 5)  # e = 4
    assert codimension(surf, 1, 1) == 4
    assert codimension(surf, 1, 4) == 10
    assert codimension(surf, 2, 3) == 8
    assert codimension(surf, 2, 4) == 10
    assert dimension(surf, 1, 4) == 4 * 5 - 10
    with pytest.raises(InputRangeError):
        codimension(surf, 1, 0)
    with pytest.raises(InputRangeError):
        codimension(surf, 3, 4)


def test_deep_stratum_codimension_is_se(family30):
    # at m = 2s-1 the formula degenerates to s*e for every surface
    for surf in family30:
        for s in range(1, 6):
            assert codimension(surf, s, 2 * s - 1) == s * surf.e


def test_valid_labels_frozen():
    surf = ToricSurface.from_pair(3, 5)
    assert valid_labels(surf, 2) == [(2, 1, 1), (3, 1, 1), (3, 1, 2)]
    assert valid_labels(surf, 4) == [
        (2, 1, 1), (3, 1, 1), (3, 1, 2),
        (2, 2, 2), (3, 2, 2), (3, 2, 3),
    ]


def test_classes_frozen_3_5_m4():
    cls = _classes(3, 5, 4)
    assert [(c.canonical, c.members, c.s, c.codim, c.dim) for c in cls] == [
        ((2, 1, 1), ((2, 1, 1), (3, 1, 2)), 1, 10, 10),
        ((3, 1, 1), ((3, 1, 1),), 1, 10, 10),
        ((2, 2, 2), ((2, 2, 2), (3, 2, 3)), 2, 10, 10),
        ((3, 2, 2), ((3, 2, 2),), 2, 10, 10),
    ]


def test_classes_frozen_3_5_m2():
    cls = _classes(3, 5, 2)
    assert [(c.canonical, c.members, c.codim) for c in cls] == [
        ((2, 1, 1), ((2, 1, 1), (3, 1, 2)), 6),
        ((3, 1, 1), ((3, 1, 1),), 6),
    ]


def test_classes_frozen_5_7_m3():
    cls = _classes(5, 7, 3)
    assert [(c.canonical, c.members, c.codim, c.dim) for c in cls] == [
        ((2, 1, 1), ((2, 1, 1), (3, 1, 1), (4, 1, 2)), 11, 9),
        ((4, 1, 1), ((4, 1, 1),), 11, 9),
        ((2, 2, 2), ((2, 2, 2), (3, 2, 2), (4, 2, 2)), 10, 10),
    ]


def test_classes_frozen_2_3_m5():
    # all entries 2: one class per s, N = ceil(m/2)
    cls = _classes(2, 3, 5)
    assert [(c.canonical, c.members) for c in cls] == [
        ((2, 1, 1), ((2, 1, 1), (3, 1, 1))),
        ((2, 2, 2), ((2, 2, 2), (3, 2, 2))),
        ((2, 3, 3), ((2, 3, 3), (3, 3, 3))),
    ]
    assert all(c.codim == 12 for c in cls)


def test_classes_frozen_2_5_m2():
    cls = _classes(2, 5, 2)
    assert [(c.canonical, c.members) for c in cls] == [
        ((2, 1, 1), ((2, 1, 1), (3, 1, 1))),
        ((2, 1, 2), ((2, 1, 2),)),
    ]


def test_deep_stratum_merges_across_all_i(family12):
    # at m = 2s-1 the cap equals s everywhere, so one class spans every i
    for surf in family12:
        for s in (1, 2):
            m = 2 * s - 1
            deep = [c for c in enumerate_classes(surf, m) if c.s == s]
            assert len(deep) == 1
            assert deep[0].members == tuple(
                (i, s, s) for i in range(2, surf.e)
            )


def test_class_invariants(family12):
    for surf in family12:
        for m in (1, 2, 3, 5, 8):
            seen = set()
            for c in enumerate_classes(surf, m):
                assert c.canonical == min(c.members)
                assert all(lab[1] == c.s for lab in c.members)
                assert c.codim == codimension(surf, c.s, m)
                assert c.dim == surf.e * (m + 1) - c.codim
                seen.update(c.members)
            assert seen == set(valid_labels(surf, m))


def test_count_closed_form_matches_enumeration(family12):
    for surf in family12:
        for m in range(1, 21):
            assert count_closed_form(surf, m) == len(enumerate_classes(surf, m))


def test_count_closed_form_matches_enumeration_on_wide_surfaces():
    rng = random.Random(20261019)
    surfaces = random_wide_surfaces(rng, 60, 100)
    for surf in surfaces:
        m = rng.randint(1, 200)
        assert count_closed_form(surf, m) == len(enumerate_classes(surf, m)), (surf.p, surf.q, m)
    assert max(surf.q for surf in surfaces) > 5000 and max(surf.e for surf in surfaces) >= 50


def test_count_closed_form_all_twos_branch():
    surf = ToricSurface.from_pair(4, 5)  # entries (2, 2, 2, 2)
    for m in range(1, 30):
        assert count_closed_form(surf, m) == (m + 1) // 2


def test_s1_count_frozen():
    s57 = ToricSurface.from_pair(5, 7)  # max entry 3: m=2 is below the threshold
    assert _s1_count(s57, 2) == 2
    assert _s1_count(s57, 3) == 2
    assert _s1_count(s57, 10) == 2
    s23 = ToricSurface.from_pair(2, 3)
    assert _s1_count(s23, 5) == 1


def test_s1_count_stabilizes_at_divisor_count(family30):
    for surf in family30:
        m = max(surf.entries)
        want = exceptional_count_dual_cf(surf.cone)
        for mm in (m, m + 7):
            assert _s1_count(surf, mm) == want


def test_enumerate_rejects_bad_level():
    surf = ToricSurface.from_pair(3, 5)
    with pytest.raises(InputRangeError):
        enumerate_classes(surf, 0)
    with pytest.raises(InputRangeError):
        count_closed_form(surf, -1)
