import math

import pytest

from toricjets import EmbeddingDimensionError, ToricSurface, oracle


def coprime_family(qmax):
    """Every surface with 0 < p < q <= qmax, gcd 1, embedding dimension > 3."""
    out = []
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            try:
                out.append(ToricSurface.from_pair(p, q))
            except EmbeddingDimensionError:
                # p=1 is the hypersurface case x1*x3 = x2^q, e=3
                continue
    return out


def random_wide_surfaces(rng, count, emax):
    """count seeded surfaces with 13 <= q <= 10^4 and e <= emax."""
    out = []
    while len(out) < count:
        q = rng.randint(13, 10 ** 4)
        p = rng.randint(2, q - 1)
        if math.gcd(p, q) != 1:
            continue
        try:
            surf = ToricSurface.from_pair(p, q)
        except EmbeddingDimensionError:  # p = q-1, the hypersurface
            continue
        if surf.e <= emax:
            out.append(surf)
    return out


def plant_in_series(monkeypatch, edit):
    """Every ((i, j), plus, minus, grad) that oracle._binomial_series yields
    goes through edit, as edit(plus, minus, grad), before _upper_system
    takes its terms into the Taylor system.  jets._vanishes keeps its own
    binding, so membership is untouched."""
    real = oracle._binomial_series

    def planted(rows, m, surface, n=-1):
        for ij, plus, minus, grad in real(rows, m, surface, n):
            yield (ij, *edit(plus, minus, grad))

    monkeypatch.setattr(oracle, "_binomial_series", planted)


@pytest.fixture(scope="session")
def family30():
    return coprime_family(30)


@pytest.fixture(scope="session")
def family12():
    return coprime_family(12)
