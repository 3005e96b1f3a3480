import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricjets import (
    ConePair,
    ContinuedFraction,
    CoprimalityError,
    DualBasis,
    EmbeddingDimensionError,
    InputRangeError,
    ToricSurface,
    cone_contains,
    contact_vector,
    dual_hilbert_basis,
    dual_hilbert_basis_bruteforce,
    exceptional_count_dual_cf,
    exceptional_count_hull,
    hj_evaluate,
    hj_expand,
)
from toricjets.lattice import lattice_point


def test_hj_expand_frozen():
    assert hj_expand(ConePair(2, 3)).entries == (2, 2)
    assert hj_expand(ConePair(3, 5)).entries == (2, 3)
    assert hj_expand(ConePair(5, 7)).entries == (2, 2, 3)
    assert hj_expand(ConePair(2, 5)).entries == (3, 2)
    assert hj_expand(ConePair(4, 7)).entries == (2, 4)
    assert hj_expand(ConePair(7, 10)).entries == (2, 2, 4)


def test_hj_expand_rejects_bad_pairs():
    with pytest.raises(InputRangeError):
        ConePair(0, 3)
    with pytest.raises(InputRangeError):
        ConePair(3, 3)
    with pytest.raises(InputRangeError):
        ConePair(5, 3)
    with pytest.raises(CoprimalityError) as exc:
        ConePair(4, 6)
    assert "gcd" in str(exc.value)
    # p=1 expands to the single entry [q]: embedding dimension 3
    with pytest.raises(EmbeddingDimensionError):
        hj_expand(ConePair(1, 7))


def test_hj_evaluate_inverts_expand():
    for q in range(2, 201):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            try:
                cf = hj_expand(ConePair(p, q))
            except EmbeddingDimensionError:
                continue
            assert hj_evaluate(cf) == (q, p)


# coprime 2 <= p < q <= 10^4: p >= 2 keeps the expansion at two entries or more
COPRIME_PAIRS = st.integers(3, 10**4).flatmap(
    lambda q: st.tuples(st.integers(2, q - 1), st.just(q))
).filter(lambda pq: math.gcd(*pq) == 1)

# bounded and deterministic: the properties stay a fixed, small part of tier-1
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(COPRIME_PAIRS, st.lists(st.integers(2, 40), min_size=2, max_size=8))
def test_hj_round_trip_property(pq, entries):
    p, q = pq
    assert hj_evaluate(hj_expand(ConePair(p, q))) == (q, p)
    q2, p2 = hj_evaluate(entries)
    assert hj_expand(ConePair(p2, q2)).entries == tuple(entries)


@PROPERTY
@given(COPRIME_PAIRS)
def test_exceptional_counts_agree_property(pq):
    cone = ConePair(*pq)
    n = exceptional_count_dual_cf(cone)
    assert n == exceptional_count_hull(cone)
    assert n == 1 + sum(c - 2 for c in hj_expand(cone).entries)


def test_hj_evaluate_single_entry_and_validation():
    assert hj_evaluate([7]) == (7, 1)
    assert hj_evaluate([2, 2]) == (3, 2)
    with pytest.raises(InputRangeError):
        hj_evaluate([])
    with pytest.raises(InputRangeError):
        hj_evaluate([2, 1, 3])
    # math.gcd would raise TypeError on 3.5 and 2.0, and '3' < 2 on strings
    for entries in [(2, 3.5), (2.0, 3), ('3', '2')]:
        with pytest.raises(InputRangeError):
            hj_evaluate(entries)


def test_continued_fraction_entry_validation():
    with pytest.raises(InputRangeError):
        ContinuedFraction((2, 1))
    with pytest.raises(EmbeddingDimensionError):
        ContinuedFraction((5,))


def test_cone_pair_validation():
    with pytest.raises(InputRangeError):
        ConePair(0, 5)
    with pytest.raises(InputRangeError):
        ConePair(5, 5)
    with pytest.raises(CoprimalityError):
        ConePair(6, 9)
    # error classes are distinct so callers can tell the cases apart
    assert not issubclass(CoprimalityError, InputRangeError)


def test_dual_basis_frozen():
    assert dual_hilbert_basis(ConePair(3, 5)).generators == (
        (0, 1), (1, 0), (2, -1), (5, -3))
    assert dual_hilbert_basis(ConePair(5, 7)).generators == (
        (0, 1), (1, 0), (2, -1), (3, -2), (7, -5))
    assert dual_hilbert_basis(ConePair(2, 5)).generators == (
        (0, 1), (1, 0), (3, -1), (5, -2))


def test_dual_basis_recursion_and_endpoint(family30):
    for surf in family30:
        us = surf.basis
        assert us[0] == (0, 1) and us[1] == (1, 0)
        assert us[-1] == (surf.q, -surf.p)
        for k in range(1, len(us) - 1):
            c = surf.c(k + 1)
            assert us[k + 1] == (c * us[k][0] - us[k - 1][0],
                                 c * us[k][1] - us[k - 1][1])


def test_dual_basis_matches_bruteforce_small():
    for q in range(3, 13):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            cone = ConePair(p, q)
            assert dual_hilbert_basis(cone) == dual_hilbert_basis_bruteforce(cone)


def test_bruteforce_bound_validation():
    cone = ConePair(3, 5)
    with pytest.raises(InputRangeError):
        dual_hilbert_basis_bruteforce(cone, bound=4)
    # any bound >= q gives the same basis
    assert dual_hilbert_basis_bruteforce(cone, bound=5) == dual_hilbert_basis(cone)


def test_dual_basis_class_rejects_broken_sequences():
    with pytest.raises(EmbeddingDimensionError):
        DualBasis(((0, 1), (1, 0), (2, -1)))
    with pytest.raises(InputRangeError):
        DualBasis(((1, 0), (0, 1), (2, -1), (5, -3)))
    with pytest.raises(InputRangeError):
        DualBasis(((0, 1), (1, 0), (3, -1), (5, -3)))


def test_lattice_constructors_reject_non_integral_entries():
    # int() would read 2.9 and '2' as 2, the (3,5) basis and a valid entry
    assert DualBasis(((0, 1), (1, 0), (2, -1), (5, -3))).generators[2] == (2, -1)
    with pytest.raises(InputRangeError):
        DualBasis(((0, 1), (1, 0), (2.9, -1), (5, -3)))
    with pytest.raises(InputRangeError):
        DualBasis(((0, 1), (1, 0), ('2', -1), (5, -3)))
    with pytest.raises(InputRangeError):
        ContinuedFraction((2, 3.5))


def test_cone_contains():
    cone = ConePair(3, 5)
    assert cone_contains(cone, (0, 0))
    assert cone_contains(cone, (1, 0))
    assert cone_contains(cone, (3, 5))
    assert cone_contains(cone, (2, 3))
    assert not cone_contains(cone, (1, 2))  # above the (3,5) ray
    assert not cone_contains(cone, (-1, 0))
    assert not cone_contains(cone, (0, -1))


def test_lattice_points_must_be_integral():
    surf = ToricSurface.from_pair(3, 5)
    assert lattice_point((True, 2)) == (1, 2)
    for v in ((1.5, 1), (1.9, 1), (1, 1.0), (Fraction(1), 1)):
        with pytest.raises(InputRangeError):
            cone_contains(surf.cone, v)
        with pytest.raises(InputRangeError):
            surf.pairing(3, v)


def test_contact_vector_frozen():
    surf = ToricSurface.from_pair(3, 5)
    assert contact_vector(surf, 3, 1, 2) == ((1, 1), True)
    assert contact_vector(surf, 3, 1, 1) == ((2, 3), True)
    assert contact_vector(surf, 2, 1, 1) == ((1, 1), True)
    assert contact_vector(surf, 2, 2, 3) == ((2, 1), True)


def test_contact_vector_validation():
    surf = ToricSurface.from_pair(3, 5)
    with pytest.raises(InputRangeError):
        contact_vector(surf, 1, 1, 1)
    with pytest.raises(InputRangeError):
        contact_vector(surf, 4, 1, 1)
    with pytest.raises(InputRangeError):
        contact_vector(surf, 2, 0, 1)
    with pytest.raises(InputRangeError):
        contact_vector(surf, 2, 2, 1)  # l < s


@pytest.mark.parametrize("i,s,l", [(3.0, 1, 2), (3, 1.5, 2), (3, 1, Fraction(5, 2))],
                         ids=["i", "s", "l"])
def test_contact_vector_rejects_a_non_integral_argument(i, s, l):
    # 3.0 would fail tuple indexing and s = 1.5 the pairing check inside
    with pytest.raises(InputRangeError, match="must be integers"):
        contact_vector(ToricSurface.from_pair(3, 5), i, s, l)


def test_contact_vector_solves_the_pairing_system(family12):
    # v is the unique lattice point with <u_i, v> = s and <u_{i+1}, v> = l
    for surf in family12:
        for i in range(2, surf.e):
            for s in range(1, 6):
                for l in range(s, 6):
                    v, inside = contact_vector(surf, i, s, l)
                    assert surf.pairing(i, v) == s
                    assert surf.pairing(i + 1, v) == l
                    assert inside == cone_contains(surf.cone, v)
                    if l <= (surf.c(i) - 1) * s:
                        # slope within the sector spanned by u_i, u_{i+1}
                        assert inside
                        for j in range(1, surf.e + 1):
                            assert surf.pairing(j, v) >= 0


def test_exceptional_counts_frozen():
    for (p, q, want) in [(2, 3, 1), (3, 5, 2), (5, 7, 2), (2, 5, 2), (4, 7, 3)]:
        cone = ConePair(p, q)
        assert exceptional_count_dual_cf(cone) == want
        assert exceptional_count_hull(cone) == want


def test_exceptional_counts_agree(family30):
    for surf in family30:
        n = exceptional_count_dual_cf(surf.cone)
        assert n == exceptional_count_hull(surf.cone)
        assert n == 1 + sum(c - 2 for c in surf.entries)


def _hull_count_box_scan(cone):
    """Reference hull count: the same chain, built from every cone point of
    the p x q box on the origin side of the chord."""
    p, q = cone.p, cone.q
    pts = []
    for x in range(0, p + 1):
        for y in range(0, q + 1):
            if (x, y) == (0, 0):
                continue
            if q * x - p * y < 0:
                continue  # outside sigma
            if (p - 1) * y - q * (x - 1) < 0:
                continue  # strictly beyond the chord
            pts.append((x, y))
    pts.sort()
    hull = []
    for pt in pts:
        while len(hull) >= 2 and (hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1]) - (
            hull[-1][1] - hull[-2][1]
        ) * (pt[0] - hull[-2][0]) >= 0:
            hull.pop()
        hull.append(pt)
    assert hull[0] == (1, 0) and hull[-1] == (p, q), hull
    edge_points = sum(
        math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b in zip(hull, hull[1:])
    )
    return edge_points - 1


def test_hull_count_matches_box_scan():
    pairs = [(p, q) for q in range(2, 81) for p in range(1, q) if math.gcd(p, q) == 1]
    # long pairs (p, a p - 1) of the analyze benchmark, e = 4
    pairs += [(775, 1549), (245, 4899), (239, 5018)]
    for p, q in pairs:
        cone = ConePair(p, q)
        assert exceptional_count_hull(cone) == _hull_count_box_scan(cone), (p, q)


def test_surface_accessors():
    surf = ToricSurface.from_pair(5, 7)
    assert (surf.p, surf.q, surf.e) == (5, 7, 5)
    assert surf.entries == (2, 2, 3)
    assert [surf.c(i) for i in range(2, surf.e)] == [2, 2, 3]
    assert surf.u(1) == (0, 1) and surf.u(5) == (7, -5)
    assert surf.pairing(5, (7, 5)) == 7 * 7 - 5 * 5
    with pytest.raises(InputRangeError):
        surf.c(1)
    with pytest.raises(InputRangeError):
        surf.u(6)
