import time

import pytest

from toricjets import (
    BinomialEquation,
    InputRangeError,
    ToricSurface,
    generators,
    grading_check,
)
from conftest import coprime_family


def _minus_table(surface):
    return {(eq.i, eq.j): eq.minus_exponents for eq in generators(surface)}


def test_generators_frozen_2_3():
    # cone over the twisted cubic: the three 2x2 minors
    t = _minus_table(ToricSurface.from_pair(2, 3))
    assert t == {
        (1, 3): (0, 2, 0, 0),
        (1, 4): (0, 1, 1, 0),
        (2, 4): (0, 0, 2, 0),
    }


def test_generators_frozen_3_5():
    t = _minus_table(ToricSurface.from_pair(3, 5))
    assert t == {
        (1, 3): (0, 2, 0, 0),
        (1, 4): (0, 1, 2, 0),
        (2, 4): (0, 0, 3, 0),
    }


def test_generators_frozen_2_5():
    t = _minus_table(ToricSurface.from_pair(2, 5))
    assert t == {
        (1, 3): (0, 3, 0, 0),
        (1, 4): (0, 2, 1, 0),
        (2, 4): (0, 0, 2, 0),
    }


def test_generators_frozen_5_7():
    t = _minus_table(ToricSurface.from_pair(5, 7))
    assert t == {
        (1, 3): (0, 2, 0, 0, 0),
        (1, 4): (0, 1, 1, 0, 0),
        (1, 5): (0, 1, 0, 2, 0),
        (2, 4): (0, 0, 2, 0, 0),
        (2, 5): (0, 0, 1, 2, 0),
        (3, 5): (0, 0, 0, 3, 0),
    }


def test_generator_count_and_order(family30):
    for surf in family30:
        eqs = generators(surf)
        e = surf.e
        assert len(eqs) == (e - 1) * (e - 2) // 2
        pairs = [(eq.i, eq.j) for eq in eqs]
        assert pairs == sorted(pairs)
        assert pairs == [(i, j) for i in range(1, e - 1) for j in range(i + 2, e + 1)]


def test_plus_side_is_xi_xj(family12):
    for surf in family12:
        for eq in generators(surf):
            plus = [0] * surf.e
            plus[eq.i - 1] = 1
            plus[eq.j - 1] = 1
            assert eq.plus_exponents == tuple(plus)


def test_minus_support_strictly_between(family12):
    for surf in family12:
        for eq in generators(surf):
            for k, a in enumerate(eq.minus_exponents, start=1):
                if a:
                    assert eq.i < k < eq.j
            # adjacent pair collapses to a pure power of the middle variable
            if eq.j == eq.i + 2:
                assert eq.minus_exponents[eq.i] == surf.c(eq.i + 1)
                assert sum(1 for a in eq.minus_exponents if a) == 1


def test_grading_identity(family30):
    for surf in family30:
        assert grading_check(surf) == ((surf.e - 1) * (surf.e - 2) // 2, True)


def _dense_grading(surf):
    """The reference: per equation of generators, each side's dual degree
    summed over all e variables."""
    def degree(exponents):
        return tuple(sum(a * u[n] for a, u in zip(exponents, surf.basis)) for n in (0, 1))

    eqs = generators(surf)
    return len(eqs), all(degree(eq.plus_exponents) == degree(eq.minus_exponents) for eq in eqs)


def test_grading_check_matches_the_dense_reference(family30):
    for surf in family30:
        assert grading_check(surf) == _dense_grading(surf), (surf.p, surf.q)


def test_grading_check_reaches_e502():
    surf = ToricSurface.from_pair(999, 2000)
    t0 = time.monotonic()
    assert surf.e == 502 and grading_check(surf) == (125_250, True)
    assert time.monotonic() - t0 < 1.0


def test_every_monomial_has_degree_at_least_two():
    # The oracle's lifting walk over the origin checks one child per member:
    # with every coordinate of order >= 1, a monomial of degree >= 2 puts
    # the newest coefficient layer k only into degrees above k.
    for surf in coprime_family(60):
        for eq in generators(surf):
            assert sum(eq.plus_exponents) >= 2, (surf.p, surf.q, eq.i, eq.j)
            assert sum(eq.minus_exponents) >= 2, (surf.p, surf.q, eq.i, eq.j)


def test_binomial_equation_validation():
    with pytest.raises(InputRangeError):
        BinomialEquation(1, 2, (1, 1, 0, 0), (0, 2, 0, 0))  # j must exceed i+1
    with pytest.raises(InputRangeError):
        BinomialEquation(1, 3, (1, 0, 1, 0), (2, 0, 0, 0))  # support outside (i, j)
    with pytest.raises(InputRangeError):
        BinomialEquation(1, 3, (1, 0, 1, 0), (0, 2, 0))  # length mismatch
    with pytest.raises(InputRangeError):
        BinomialEquation(1, 3, (1, 1, 0, 0), (0, 2, 0, 0))  # plus side not e_i + e_j


def test_generators_are_cached():
    surf = ToricSurface.from_pair(3, 5)
    assert generators(surf) is generators(surf)


def test_generators_cache_is_bounded():
    # a batch over many surfaces must not keep every generator table alive
    maxsize = generators.cache_info().maxsize
    assert maxsize is not None and maxsize >= 16
