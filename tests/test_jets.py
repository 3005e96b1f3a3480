import random
from fractions import Fraction

import pytest

from toricjets import jets
from toricjets import (
    ABOVE_M,
    RATIONALS,
    CoefficientField,
    InputRangeError,
    NonMemberError,
    ToricSurface,
    TruncatedJet,
    contact_profile,
    cone_contains,
    contact_vector,
    coordinate_order,
    evaluate,
    generators,
    hj_evaluate,
    is_member,
    m_cap,
    monomial_arc,
    prime_field,
    truncate,
    valid_labels,
)
from conftest import coprime_family, random_wide_surfaces


def test_field_validation():
    assert prime_field(2).characteristic == 2
    assert prime_field(97).characteristic == 97
    with pytest.raises(InputRangeError):
        prime_field(1)
    with pytest.raises(InputRangeError):
        prime_field(6)
    with pytest.raises(InputRangeError):
        CoefficientField(4)
    assert RATIONALS.characteristic == 0


def test_primality_is_exact_below_the_bound():
    # trial division below 10^4; strong pseudoprimes to base 2 and to the
    # bases 2..23 (2047, 3825123056546413051) and to 2..37 (the last one)
    # are composite; a prime and a composite with no factor below 10^12
    trial = [n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1)) for n in range(10 ** 4)]
    assert [jets._is_prime(n) for n in range(10 ** 4)] == trial
    for n in [2047, 3825123056546413051, 318665857834031151167461,
              (10 ** 12 + 39) * (10 ** 12 + 61)]:
        assert not jets._is_prime(n), n
    assert jets._is_prime(2 ** 61 - 1) and jets._is_prime(2 ** 80 - 65)
    with pytest.raises(InputRangeError, match="below"):
        prime_field(2 ** 127 - 1)


def test_field_normalize_and_elements():
    f5 = prime_field(5)
    assert f5.normalize(12) == 2
    assert f5.normalize(-1) == 4
    assert f5.is_zero(10) and not f5.is_zero(3)
    assert list(f5.elements()) == [0, 1, 2, 3, 4]
    assert RATIONALS.normalize(3) == Fraction(3)
    assert RATIONALS.is_zero(Fraction(0)) and RATIONALS.is_zero(0)
    with pytest.raises(InputRangeError):
        RATIONALS.elements()


def test_field_normalize_reduces_a_fraction_through_its_inverse():
    f3 = prime_field(3)
    assert f3.normalize(Fraction(1, 2)) == 2  # 2 * 2 = 1 in F_3
    assert f3.normalize(Fraction(3, 2)) == 0
    assert f3.normalize(Fraction(-5, 4)) == 1
    assert TruncatedJet.build(f3, 1, [[Fraction(1, 2), Fraction(3, 2)]]).coords == ((2, 0),)
    for bad in (Fraction(1, 3), 2.7, 2.0, "1"):
        with pytest.raises(InputRangeError):
            f3.normalize(bad)
    with pytest.raises(InputRangeError):
        TruncatedJet.build(f3, 0, [[2.7]])
    with pytest.raises(InputRangeError):
        RATIONALS.normalize(0.5)


def test_jet_construction_validation():
    f = prime_field(3)
    with pytest.raises(InputRangeError):
        TruncatedJet(f, -1, ())
    with pytest.raises(InputRangeError):
        TruncatedJet(f, 2, ((0, 1),))  # needs m+1 = 3 coefficients
    jet = TruncatedJet.build(f, 1, [[4, 5], [1, 2]])
    assert jet.coords == ((1, 2), (1, 2))
    assert jet.e == 2


def test_direct_constructor_rejects_inexact_coefficients():
    # both sides of every binomial have equal term lists on this jet, so a
    # float that got past the constructor would pass is_member
    for bad in (0.5, 1.0, "1", None):
        with pytest.raises(InputRangeError, match="ints or Fractions"):
            TruncatedJet(prime_field(3), 1, ((0, bad),) * 4)
    jet = TruncatedJet(prime_field(3), 1, ((0, Fraction(1, 2)), (0, 1), (0, True), (0, 5)))
    assert jet.e == 4 and coordinate_order(jet, 1) == 1
    for name in ("field", "m", "coords", "terms", "e"):
        with pytest.raises(AttributeError):
            setattr(jet, name, None)


def test_coordinate_order_uses_is_zero():
    f3 = prime_field(3)
    # raw residue 3 represents zero, so the order is 2, not 1
    jet = TruncatedJet(f3, 2, ((0, 3, 1),))
    assert coordinate_order(jet, 1) == 2
    assert coordinate_order(TruncatedJet(f3, 2, ((0, 0, 0),)), 1) is ABOVE_M
    with pytest.raises(InputRangeError):
        coordinate_order(jet, 2)


def test_above_m_is_a_singleton_marker():
    assert repr(ABOVE_M) == "ABOVE_M"
    assert ABOVE_M != 3
    assert ABOVE_M != -1
    assert (ABOVE_M == ABOVE_M) is True


def test_evaluate_frozen_series():
    # x1 = 1+t, x2 = 2t, x3 = t+t^2, x4 = 3+t^2 over F5 at m=2
    surf = ToricSurface.from_pair(2, 3)
    f5 = prime_field(5)
    jet = TruncatedJet.build(f5, 2, [(1, 1, 0), (0, 2, 0), (0, 1, 1), (3, 0, 1)])
    eqs = {(eq.i, eq.j): eq for eq in generators(surf)}
    # x1*x3 - x2^2 = t + 2t^2 - 4t^2
    assert evaluate(eqs[(1, 3)], jet) == (0, 1, -2)
    # x1*x4 - x2*x3 = 3 + 3t + t^2 - 2t^2
    assert evaluate(eqs[(1, 4)], jet) == (3, 3, -1)
    assert not is_member(jet, surf)


def test_evaluate_rejects_arity_mismatch():
    surf = ToricSurface.from_pair(5, 7)  # e = 5
    jet = TruncatedJet.build(prime_field(3), 1, [(0, 1)] * 4)
    with pytest.raises(InputRangeError):
        evaluate(generators(surf)[0], jet)


@pytest.mark.parametrize("e", [3, 5])
def test_membership_rejects_arity_mismatch(e):
    surf = ToricSurface.from_pair(3, 5)  # e = 4
    jet = TruncatedJet.build(prime_field(2), 1, [(0, 0)] * e)
    with pytest.raises(InputRangeError):
        is_member(jet, surf)
    with pytest.raises(InputRangeError):
        contact_profile(jet, surf)


def test_membership_depends_on_characteristic():
    # x1 = x3 = t, x2 = x4 = 2t: every binomial difference is a multiple of 3t^2
    surf = ToricSurface.from_pair(2, 3)
    rows = [(0, 1, 0), (0, 2, 0), (0, 1, 0), (0, 2, 0)]
    assert is_member(TruncatedJet.build(prime_field(3), 2, rows), surf)
    assert not is_member(TruncatedJet.build(prime_field(2), 2, rows), surf)
    assert not is_member(TruncatedJet.build(RATIONALS, 2, rows), surf)


def test_monomial_arc_frozen():
    surf = ToricSurface.from_pair(3, 5)
    arc = monomial_arc(surf, (1, 1), 4)
    assert arc.coords == (
        (0, 1, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
    )
    assert is_member(arc, surf)
    assert contact_profile(arc, surf) == ((1, 1, 1, 2), True)


def test_monomial_arc_censors_high_orders():
    surf = ToricSurface.from_pair(3, 5)
    arc = monomial_arc(surf, (1, 1), 1)  # <u4, v> = 2 exceeds m
    profile, over = contact_profile(arc, surf)
    assert profile == (1, 1, 1, ABOVE_M)
    assert over


def test_monomial_arc_validation():
    surf = ToricSurface.from_pair(3, 5)
    with pytest.raises(InputRangeError):
        monomial_arc(surf, (1, 2), 4)  # outside the cone
    with pytest.raises(InputRangeError):
        monomial_arc(surf, (1, 1), -1)
    with pytest.raises(InputRangeError):
        monomial_arc(surf, (1.5, 1), 4)  # not the arc of (1, 1)


def test_monomial_arc_over_prime_field():
    surf = ToricSurface.from_pair(2, 5)
    arc = monomial_arc(surf, (1, 1), 3, field=prime_field(2))
    assert arc.field.characteristic == 2
    assert is_member(arc, surf)


def test_truncate():
    surf = ToricSurface.from_pair(3, 5)
    arc = monomial_arc(surf, (2, 3), 8)
    assert truncate(arc, 3) == monomial_arc(surf, (2, 3), 3)
    assert truncate(arc, 8) == arc
    with pytest.raises(InputRangeError):
        truncate(arc, 9)
    with pytest.raises(InputRangeError):
        truncate(arc, -1)


def test_membership_survives_truncation():
    surf = ToricSurface.from_pair(5, 7)
    rng = random.Random(7)
    for _ in range(20):
        v = _random_cone_point(rng, surf)
        jet = _scaled_member(surf, v, (rng.randint(-2, 2), rng.randint(-2, 2)),
                             Fraction(rng.randint(1, 5), rng.randint(1, 5)), 6)
        assert is_member(jet, surf)
        for m_target in (4, 2, 0):
            assert is_member(truncate(jet, m_target), surf)


def test_contact_profile_rejects_non_members():
    surf = ToricSurface.from_pair(2, 3)
    rows = [(0, 1, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)]
    jet = TruncatedJet.build(RATIONALS, 2, rows)
    assert not is_member(jet, surf)
    with pytest.raises(NonMemberError):
        contact_profile(jet, surf)


def _random_cone_point(rng, surf):
    while True:
        x = rng.randint(0, 4)
        y = rng.randint(0, 4)
        if (x, y) != (0, 0) and surf.q * x - surf.p * y >= 0:
            return (x, y)


def _scaled_member(surf, v, w, r, m):
    """Coordinate j carries r^<u_j,w> t^<u_j,v>: a member for any w and r != 0,
    because both sides of every binomial have equal total u-degree."""
    rows = []
    for j in range(1, surf.e + 1):
        d = surf.pairing(j, v)
        row = [Fraction(0)] * (m + 1)
        if d <= m:
            row[d] = Fraction(r) ** surf.pairing(j, w)
        rows.append(row)
    return TruncatedJet.build(RATIONALS, m, rows)


def test_scaled_monomial_family_is_member():
    rng = random.Random(20260816)
    family = coprime_family(12)
    for _ in range(100):
        surf = family[rng.randrange(len(family))]
        v = _random_cone_point(rng, surf)
        w = (rng.randint(-3, 3), rng.randint(-3, 3))
        r = Fraction(rng.choice([-5, -2, -1, 1, 2, 3, 7]),
                     rng.choice([1, 2, 3, 4]))
        m = rng.randint(1, 8)
        jet = _scaled_member(surf, v, w, r, m)
        assert is_member(jet, surf)


def test_monomial_arc_realizes_every_valid_label():
    for surf in coprime_family(12):
        for m in (3, 8):
            for (i, s, l) in valid_labels(surf, m):
                v, inside = contact_vector(surf, i, s, l)
                assert inside
                arc = monomial_arc(surf, v, m)
                profile, over = contact_profile(arc, surf)
                assert profile[i - 1] == s
                assert profile[i] == l
                assert over


def test_order_propagation_contrapositive_rationals():
    # at m = 2s-1, no member has ord x_i = ord x_{i+1} = s alongside a
    # coordinate of strictly smaller order; random jets with that shape
    # must all fail membership
    rng = random.Random(99)
    family = coprime_family(10)
    for _ in range(200):
        surf = family[rng.randrange(len(family))]
        e = surf.e
        s = rng.randint(2, 3)
        m = 2 * s - 1
        i = rng.randint(2, e - 1)
        k = rng.choice([kk for kk in range(1, e + 1) if kk not in (i, i + 1)])
        rows = []
        for j in range(1, e + 1):
            row = [Fraction(0)] * (m + 1)
            if j in (i, i + 1):
                row[s] = Fraction(rng.randint(1, 5))
                for b in range(s + 1, m + 1):
                    row[b] = Fraction(rng.randint(-2, 2))
            elif j == k:
                low = rng.randint(0, s - 1)
                row[low] = Fraction(rng.randint(1, 5))
                for b in range(low + 1, m + 1):
                    row[b] = Fraction(rng.randint(-2, 2))
            else:
                for b in range(rng.randint(0, m), m + 1):
                    row[b] = Fraction(rng.randint(-2, 2))
            rows.append(row)
        jet = TruncatedJet.build(RATIONALS, m, rows)
        profile = [coordinate_order(jet, j) for j in range(1, e + 1)]
        assert profile[i - 1] == s and profile[i] == s
        assert profile[k - 1] < s
        assert not is_member(jet, surf)


def _member_by_evaluate(jet, surf):
    """Reference membership: every generator's series vanishes, coefficient
    by coefficient."""
    is_zero = jet.field.is_zero
    return all(all(map(is_zero, evaluate(eq, jet))) for eq in generators(surf))


def _witness_arcs(surf, m):
    for (i, s, l) in valid_labels(surf, m):
        v, _ = contact_vector(surf, i, s, l)
        yield monomial_arc(surf, v, m)


def test_is_member_matches_evaluate_on_witness_arcs(family12):
    # each arc, and the same arc with one coordinate doubled, which breaks
    # every binomial that coordinate enters below t^(m+1)
    seen = set()
    for surf in family12:
        for m in (6, 12):
            for n, arc in enumerate(_witness_arcs(surf, m)):
                k = n % surf.e
                rows = [list(row) for row in arc.coords]
                rows[k] = [2 * c for c in rows[k]]
                for jet in (arc, TruncatedJet(arc.field, m, rows)):
                    want = _member_by_evaluate(jet, surf)
                    assert is_member(jet, surf) == want
                    seen.add(want)
    assert seen == {True, False}


def test_is_member_matches_evaluate_on_random_dense_jets():
    # unreduced residues 0..2p-1; each row is zero below a random degree and
    # half-filled above it, so members and non-members both occur
    rng = random.Random(20261018)
    surfaces = [ToricSurface.from_pair(p, q) for p, q in ((5, 6), (7, 9), (13, 47), (5, 7))]
    assert min(s.e for s in surfaces[:3]) >= 6 and 2 in surfaces[0].entries
    counts = {True: 0, False: 0}
    for _ in range(1500):
        surf = rng.choice(surfaces)
        char = rng.choice((2, 3, 5))
        m = rng.randint(0, 5)
        rows = []
        for _ in range(surf.e):
            low = rng.randint(0, m + 1)
            rows.append([
                rng.randrange(2 * char) if b >= low and rng.random() < 0.5 else 0
                for b in range(m + 1)
            ])
        jet = TruncatedJet(prime_field(char), m, rows)
        want = _member_by_evaluate(jet, surf)
        assert is_member(jet, surf) == want
        counts[want] += 1
    assert min(counts.values()) >= 100, counts


def _random_coefficient(rng, field):
    if field.characteristic:
        return rng.randrange(2 * field.characteristic)  # unreduced residues too
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def test_is_member_matches_evaluate_on_seeded_random_jets(family12):
    # the membership loop also decides the oracle's fiber nodes, so it is
    # checked over F_2, F_3, F_5 and Q at e = 4..12 and m <= 4: monomial arcs
    # (members), the same arcs with one random term added, and rows that are
    # zero below a random order and random above it
    rng = random.Random(20261019)
    fields = (prime_field(2), prime_field(3), prime_field(5), RATIONALS)
    seen = {(field, want): 0 for field in fields for want in (True, False)}
    for _ in range(1200):
        surf = rng.choice(family12)
        field = rng.choice(fields)
        m = rng.randint(0, 4)
        kind = rng.randrange(3)
        if kind < 2:
            y = rng.randint(0, 2)
            x = -(-surf.p * y // surf.q) + rng.randint(0, 2)  # (x, y) in the cone
            rows = [list(row) for row in monomial_arc(surf, (x, y), m, field).coords]
            if kind == 1:
                rows[rng.randrange(surf.e)][rng.randint(0, m)] += _random_coefficient(rng, field)
        else:
            rows = []
            for _ in range(surf.e):
                low = rng.randint(0, m + 1)
                rows.append([_random_coefficient(rng, field) if b >= low and rng.random() < 0.5
                             else 0 for b in range(m + 1)])
        jet = TruncatedJet(field, m, rows)
        want = _member_by_evaluate(jet, surf)
        assert is_member(jet, surf) == want, (surf.p, surf.q, field, rows)
        seen[field, want] += 1
    assert {surf.e for surf in family12} >= set(range(4, 13))
    assert min(seen.values()) >= 20, seen


def _plant_grow_off_by_one(monkeypatch, at):
    """The grow factor of binomial at, one too high, in jets.minus_walk."""
    walk = jets.minus_walk

    def bump(i, steps):  # i bound per call: the plan draws every i before any step
        for j, grow, last in steps:
            yield j, (grow[0], grow[1] + 1) if (i, j) == at else grow, last

    def planted(surface):
        for i, steps in walk(surface):
            yield i, bump(i, steps)

    monkeypatch.setattr(jets, "minus_walk", planted)


@pytest.mark.parametrize("at", [(1, 4), (1, 5), (2, 6)])
def test_is_member_rejects_a_wrong_grow_exponent(monkeypatch, family12, at):
    # plant one grow factor off by one: some witness arc must fail the check
    _plant_grow_off_by_one(monkeypatch, at)
    arcs = [(surf, arc) for surf in family12 if surf.e >= at[1]
            for arc in _witness_arcs(surf, 12)]
    assert arcs
    assert not all(is_member(arc, surf) for surf, arc in arcs)


def test_a_plan_built_before_a_plant_does_not_hide_it(monkeypatch, family12):
    # each surface's binomial plan is built and cached by unplanted checks
    # of its witness arcs; the same plant must then still fail some arc
    caught = 0
    for surf in family12:
        arcs = list(_witness_arcs(surf, 12))
        assert all(is_member(arc, surf) for arc in arcs)
        with monkeypatch.context() as planted:
            _plant_grow_off_by_one(planted, (1, 4))
            caught += not all(is_member(arc, surf) for arc in arcs)
    assert caught


def test_a_draw_that_raises_leaves_no_cut_plan(monkeypatch, family12):
    # an exception inside a draw (an interrupt, say) ends that i's step
    # generator; the next check on the surface must walk i = 1 in full, not
    # read the ended generator as an i = 1 with no binomials
    walk, raised = jets.minus_walk, []

    def once(i, steps):
        for step in steps:
            if i == 1 and not raised:
                raised.append(step)
                raise RuntimeError("interrupted draw")
            yield step

    def flaky(surface):
        for i, steps in walk(surface):
            yield i, once(i, steps)

    def doubled_x1(arc):  # x_1 enters only the binomials (1, j)
        rows = [list(row) for row in arc.coords]
        rows[0] = [2 * c for c in rows[0]]
        return TruncatedJet(arc.field, arc.m, rows)

    surf, jet = next((surf, doubled_x1(arc)) for surf in family12
                     for arc in _witness_arcs(surf, 6)
                     if not _member_by_evaluate(doubled_x1(arc), surf))
    monkeypatch.setattr(jets, "minus_walk", flaky)
    with pytest.raises(RuntimeError):
        is_member(jet, surf)
    assert raised and not is_member(jet, surf)


def _check_is_member_on_wide_surfaces(seed):
    """is_member against evaluate, and contact_profile against
    coordinate_order, on seeded surfaces with q up to 10^4, over F_2..F_7 at
    m = 2..4: the monomial arc of a random valid label (a member), the same
    arc moved by a random torus element, which scales x_j by
    l_1^(a_j) l_2^(b_j) for u_j = (a_j, b_j) (a member), that one with a
    random term added, and rows that are zero below a random order, with
    unreduced residues."""
    rng = random.Random(seed)
    seen = {True: 0, False: 0}
    surfaces = random_wide_surfaces(rng, 50, 16)  # evaluate costs O(e^3) per member jet
    for surf in surfaces:
        for _ in range(6):
            field = prime_field(rng.choice((2, 3, 5, 7)))
            ch, m = field.characteristic, rng.randint(2, 4)
            kind = rng.randrange(4)
            if kind < 3:
                v, _ = contact_vector(surf, *rng.choice(valid_labels(surf, m)))
                rows = [list(row) for row in monomial_arc(surf, v, m, field).coords]
                if kind:
                    l1, l2 = rng.randrange(1, ch), rng.randrange(1, ch)
                    for row, (a, b) in zip(rows, surf.basis):
                        scale = l1 ** (a % (ch - 1)) * l2 ** (b % (ch - 1))
                        row[:] = [c * scale % ch for c in row]
                if kind == 2:
                    rows[rng.randrange(surf.e)][rng.randint(0, m)] += rng.randrange(1, ch)
            else:
                rows = []
                for _ in range(surf.e):
                    low = rng.randint(0, m + 1)
                    rows.append([rng.randrange(2 * ch) if b >= low and rng.random() < 0.5 else 0
                                 for b in range(m + 1)])
            jet = TruncatedJet(field, m, rows)
            want = _member_by_evaluate(jet, surf)
            assert is_member(jet, surf) == want, (surf.p, surf.q, ch, rows)
            seen[want] += 1
            # contact_profile reads its orders from the membership loop's rows
            if want:
                profile = tuple(coordinate_order(jet, j) for j in range(1, surf.e + 1))
                over = all(o is ABOVE_M or o >= 1 for o in profile)
                assert contact_profile(jet, surf) == (profile, over), (surf.p, surf.q, ch, rows)
            else:
                with pytest.raises(NonMemberError):
                    contact_profile(jet, surf)
    assert max(surf.q for surf in surfaces) > 5000 and max(surf.e for surf in surfaces) >= 10
    assert min(seen.values()) >= 60, seen


def test_is_member_matches_evaluate_on_wide_surfaces():
    _check_is_member_on_wide_surfaces(20261020)


def test_wide_surface_check_catches_a_wrong_end_exponent(monkeypatch):
    # x_i x_(i+2) = x_(i+1)^(c_(i+1) + 1) in the membership loop alone
    walk = jets.minus_walk

    def bump(i, steps):  # i bound per call: the plan draws every i before any step
        for j, grow, (k, a) in steps:
            yield j, grow, (k, a + (j == i + 2))

    def planted(surface):
        for i, steps in walk(surface):
            yield i, bump(i, steps)

    monkeypatch.setattr(jets, "minus_walk", planted)
    with pytest.raises(AssertionError):
        _check_is_member_on_wide_surfaces(20261020)


def _sparse_orders(jet):
    """The first degree of each sparse row, unreduced coefficients counted,
    and m+1 for an empty row: the orders the membership loop reads."""
    return [next((d for d, c in enumerate(row) if c), jet.m + 1) for row in jet.coords]


def _running_order(eq, orders):
    """Order of the running product of binomial (i, j): its minus monomial
    without the closing factor x_(j-1), or the product 1 at j = i + 2."""
    if eq.j == eq.i + 2:
        return 0
    return sum(a * o for k, (a, o) in enumerate(zip(eq.minus_exponents, orders))
               if a and k != eq.j - 2)


def _tails(orders):
    """tail[l] = min(orders[l:]), the least order from coordinate l+1 on."""
    return [min(orders[l:]) for l in range(len(orders))]


def _check_dead_i_skip(surf, jet, seen):
    """Every binomial whose series along the jet is nonzero is yielded by the
    membership loop, and is_member agrees with evaluate.  seen counts the
    nonzero binomials that only their plus side keeps alive after the
    running product has truncated ("past"), and those whose plus side starts
    at t^m ("edge").  It also counts the nonzero binomials (i, j) that only
    their minus side keeps alive, o_i + min(o_j, ..., o_e) > m ("minus"):
    those whose running order plus min(o_j, ..., o_e) is past m too, so that
    only the closing x_(j-1) brings the minus side to t^m ("closing"), and
    those whose running order plus min(o_(j-1), ..., o_e) is m ("at_m")."""
    rows = jets._sparse_rows(jet.coords)
    yielded = {ij for ij, _, _, _ in jets._binomial_series(rows, jet.m, surf)}
    is_zero = jet.field.is_zero
    live = [eq for eq in generators(surf) if not all(map(is_zero, evaluate(eq, jet)))]
    assert {(eq.i, eq.j) for eq in live} <= yielded, (surf.p, surf.q, jet)
    assert is_member(jet, surf) == (not live)
    orders = _sparse_orders(jet)
    tail = _tails(orders)
    for eq in live:
        low = _running_order(eq, orders)
        if low > jet.m:
            seen["past"] += 1
            seen["edge"] += orders[eq.i - 1] + orders[eq.j - 1] == jet.m
        if orders[eq.i - 1] + tail[eq.j - 1] > jet.m:
            seen["minus"] += 1
            seen["closing"] += low + tail[eq.j - 1] > jet.m
            seen["at_m"] += low + tail[eq.j - 2] == jet.m


def _minus_side_term(rng, eq, orders, m):
    """(l, d): a coordinate l of the minus monomial of eq, the closing x_(j-1)
    or a grow factor, and a degree d below its order at which a planted term
    brings the minus side to t^m or below; None when no such d >= 0."""
    low = _running_order(eq, orders)
    a = eq.minus_exponents[eq.j - 2]
    grow = [k + 1 for k, b in enumerate(eq.minus_exponents) if b and k != eq.j - 2]
    if grow and rng.random() < 0.5:
        l = rng.choice(grow)
        b = eq.minus_exponents[l - 1]
        # lowering o_l by ceil(excess / b) brings low + a o_(j-1) down to m
        excess = low + a * orders[eq.j - 2] - m
        d = orders[l - 1] - -(-excess // b) - rng.choice((0, 0, 1))
    else:
        l, d = eq.j - 1, (m - low) // a - rng.choice((0, 0, 1))
    return (l, d) if d >= 0 else None


def _skip_surfaces(rng):
    """(surface, m): seeded surfaces with e = 4..40, entries 2 but a fifth 3
    or 4, at m = 12..24, and one wide surface of e = 100, entries 2 but one
    end entry 3, at m = 12."""
    out = []
    for e in (4, 5, 6, 8, 12, 16, 24, 40):
        entries = [rng.choice((2, 2, 2, 2, 3, 4)) for _ in range(e - 2)]
        q, p = hj_evaluate(entries)
        out.append((ToricSurface.from_pair(p, q), rng.randint(12, 24)))
    entries = [2] * 98
    entries[rng.choice((0, -1))] = 3
    q, p = hj_evaluate(entries)
    out.append((ToricSurface.from_pair(p, q), 12))
    return out


def test_membership_loop_skips_only_vanishing_binomials():
    rng = random.Random(20261021)
    plant = random.Random(20261024)  # the minus-side terms, apart from rng's draws
    seen = dict.fromkeys(("past", "edge", "minus", "closing", "at_m"), 0)
    for surf, m in _skip_surfaces(rng):
        labels = valid_labels(surf, m)
        for label in rng.sample(labels, min(len(labels), 3 if surf.e < 100 else 1)):
            v, _ = contact_vector(surf, *label)
            arc = monomial_arc(surf, v, m)
            _check_dead_i_skip(surf, arc, seen)
            orders = _sparse_orders(arc)
            # one extra term in the minus monomial of a binomial (i, j) whose
            # plus side and every one after it for that i is past t^m, while
            # its running product is still alive; not on the e = 100 surface,
            # where each check evaluates 4,851 binomials
            tail = _tails(orders)
            alive = [] if surf.e == 100 else [
                eq for eq in generators(surf)
                if orders[eq.i - 1] + tail[eq.j - 1] > m and _running_order(eq, orders) <= m]
            for eq in plant.sample(alive, min(len(alive), 2)):
                term = _minus_side_term(plant, eq, orders, m)
                if term is None:
                    continue
                l, d = term
                for field in (RATIONALS, prime_field(plant.choice((2, 3, 5)))):
                    ch = field.characteristic
                    rows = [list(row) for row in arc.coords]
                    rows[l - 1][d] += plant.randint(1, 4) if not ch else plant.randrange(1, ch)
                    _check_dead_i_skip(surf, TruncatedJet(field, m, rows), seen)
            # one extra term in a coordinate l at or past the step where the
            # running product of some i truncates, at degree m - o_i or below
            dead = [(eq.i, eq.j) for eq in generators(surf)
                    if orders[eq.i - 1] <= m and _running_order(eq, orders) > m]
            if not dead:
                continue
            i, j = rng.choice(dead)
            l, d = rng.randint(j, surf.e), m - orders[i - 1] - rng.choice((0, 0, 1))
            for field in (RATIONALS, prime_field(rng.choice((2, 3, 5)))):
                ch = field.characteristic
                rows = [list(row) for row in arc.coords]
                rows[l - 1][max(d, 0)] += rng.randint(1, 4) if not ch else rng.randrange(1, ch)
                _check_dead_i_skip(surf, TruncatedJet(field, m, rows), seen)
                if ch:
                    # unreduced multiples of p: a zero term below the extra
                    # one, and a coefficient 1 written as 1 + p
                    k = rng.randrange(surf.e)
                    rows[k][rng.randint(0, min(orders[k], m))] += ch * rng.randint(1, 3)
                    rows[i - 1] = [c * (1 + ch) for c in rows[i - 1]]
                    _check_dead_i_skip(surf, TruncatedJet(field, m, rows), seen)
    assert seen["past"] >= 20 and seen["edge"] >= 5, seen
    assert seen["minus"] >= 50 and seen["closing"] >= 20 and seen["at_m"] >= 5, seen


def _expected_steps(surf, arc):
    """Steps the membership loop takes on a member: for each i, those up to
    and including the first j with o_i + min(o_j, ..., o_e) > m and low +
    min(o_(j-1), ..., o_e) > m, low the order of the running product of
    (i, j), or every step of i when no j qualifies."""
    orders = _sparse_orders(arc)
    tail = _tails(orders)
    steps, left = 0, set()
    for eq in generators(surf):
        if eq.i in left:
            continue
        steps += 1
        if (orders[eq.i - 1] + tail[eq.j - 1] > arc.m
                and _running_order(eq, orders) + tail[eq.j - 2] > arc.m):
            left.add(eq.i)
    return steps


@pytest.mark.parametrize("entries, m, label, steps", [
    ((2, 3, 2, 4, 2, 2), 24, (3, 3, 6), 16),
    ((2, 2, 2, 2, 2, 3, 2, 2, 2, 2, 4, 2, 2, 2), 14, (10, 4, 4), 42),
    ((2, 2, 3, 2, 2, 2, 2, 4, 2, 2) * 3 + (2, 3, 2, 2, 2, 2, 4, 2), 12, (16, 3, 3), 80),
])
def test_membership_loop_leaves_each_i_at_its_first_degree_bound(monkeypatch, entries, m, label, steps):
    # on a monomial arc every i is left at the first step whose degree
    # bounds hold, counted on the steps the loop draws from minus_walk; the
    # spy is a new walk function, so the check starts from an empty plan,
    # and later checks on the surface, one of them left early, draw no step
    # from minus_walk again
    q, p = hj_evaluate(list(entries))
    surf = ToricSurface.from_pair(p, q)
    arc = monomial_arc(surf, contact_vector(surf, *label)[0], m)
    walk, drawn = jets.minus_walk, []

    def spy(surface):
        for i, walk_steps in walk(surface):
            yield i, (drawn.append(step) or step for step in walk_steps)

    monkeypatch.setattr(jets, "minus_walk", spy)
    assert is_member(arc, surf)
    assert len(drawn) == _expected_steps(surf, arc) == steps < len(generators(surf))
    rows = [list(row) for row in arc.coords]
    rows[label[0] - 1] = [2 * c for c in rows[label[0] - 1]]
    assert not is_member(TruncatedJet(arc.field, m, rows), surf)
    assert is_member(arc, surf) and contact_profile(arc, surf)
    assert len(drawn) == steps


def _check_two_representations(jet, surf):
    """The jet, its copy through the dense constructor and its copy from the
    sparse rows are one jet: equal, with one hash, one membership answer
    and one contact profile.  Returns the membership answer."""
    dense = TruncatedJet(jet.field, jet.m, jet.coords)
    sparse = TruncatedJet._from_terms(jet.field, jet.m, jet.terms)
    member = is_member(jet, surf)
    for copy in (dense, sparse):
        assert copy == jet and hash(copy) == hash(jet) and copy.coords == jet.coords
        assert is_member(copy, surf) == member
        if member:
            assert contact_profile(copy, surf) == contact_profile(jet, surf)
        else:
            with pytest.raises(NonMemberError):
                contact_profile(copy, surf)
    return member


def _check_arcs_against_pairings(surfaces, m):
    """Every witness arc at level m is the dense jet with the coefficient 1
    at t^<u_j, v> in coordinate j (none when <u_j, v> > m), in both
    representations."""
    for surf in surfaces:
        for (i, s, l) in valid_labels(surf, m):
            v, _ = contact_vector(surf, i, s, l)
            arc = jets.monomial_arc(surf, v, m)
            rows = [[0] * (m + 1) for _ in range(surf.e)]
            for j, row in enumerate(rows, start=1):
                if (d := surf.pairing(j, v)) <= m:
                    row[d] = 1
            want = TruncatedJet(arc.field, m, rows)
            assert arc == want and hash(arc) == hash(want)
            assert _check_two_representations(arc, surf)


def test_arcs_and_dense_jets_agree_in_both_representations(family12):
    for m in (2, 6, 12):
        _check_arcs_against_pairings(family12, m)
    # seeded dense jets over F_2, F_3, F_5 and Q, unreduced residues and
    # Fraction zeros included, and their truncations, which are sparse-built
    rng = random.Random(20261026)
    fields = (prime_field(2), prime_field(3), prime_field(5), RATIONALS)
    seen = set()
    for _ in range(600):
        surf = rng.choice(family12)
        field = rng.choice(fields)
        m = rng.randint(0, 4)
        if rng.random() < 0.5:
            y = rng.randint(0, 2)
            x = -(-surf.p * y // surf.q) + rng.randint(0, 2)  # (x, y) in the cone
            rows = [list(row) for row in monomial_arc(surf, (x, y), m, field).coords]
            if rng.random() < 0.5:
                rows[rng.randrange(surf.e)][rng.randint(0, m)] += _random_coefficient(rng, field)
        else:
            zero = Fraction(0) if field is RATIONALS else 0
            rows = [[_random_coefficient(rng, field) if rng.random() < 0.3 else zero
                     for _ in range(m + 1)] for _ in range(surf.e)]
        jet = TruncatedJet(field, m, rows)
        seen.add(_check_two_representations(jet, surf))
        k = rng.randint(0, m)
        low = truncate(jet, k)
        assert low == TruncatedJet(field, k, [row[: k + 1] for row in rows])
        _check_two_representations(low, surf)
    assert seen == {True, False}


def test_an_arc_term_one_degree_high_is_caught(monkeypatch, family12):
    # monomial_arc planted to put each term at t^(d+1): a valid-looking jet,
    # equal to its own dense copy, but not the arc of v
    real = jets.monomial_arc

    def planted(surface, v, m, field=RATIONALS):
        terms = real(surface, v, m, field).terms
        return TruncatedJet._from_terms(field, m, tuple(
            tuple((d + 1, c) for d, c in row if d < m) for row in terms))

    monkeypatch.setattr(jets, "monomial_arc", planted)
    with pytest.raises(AssertionError):
        _check_arcs_against_pairings(family12, 6)


def test_contact_profile_of_an_arc_builds_no_dense_rows(monkeypatch, family12):
    # the arc carries its sparse rows: neither the dense view nor the
    # dense-to-sparse conversion runs, at any level
    def fail(*args):
        pytest.fail("the arc path built or converted dense rows")

    monkeypatch.setattr(TruncatedJet, "coords", property(fail))
    monkeypatch.setattr(jets, "_sparse_rows", fail)
    for surf in family12:
        for n, (i, s, l) in enumerate(valid_labels(surf, 12)):
            v, _ = contact_vector(surf, i, s, l)
            for m in (12, 10 ** 7) if n == 0 else (12,):
                arc = monomial_arc(surf, v, m)
                assert is_member(arc, surf)
                profile, over = contact_profile(arc, surf)
                assert over and (profile[i - 1], profile[i]) == (s, l)
                assert coordinate_order(arc, i) == s
    with pytest.raises(pytest.fail.Exception):  # the spies are live
        TruncatedJet(RATIONALS, 0, ((1,),)).terms


def test_evaluate_reads_the_cached_sparse_rows(monkeypatch):
    # one conversion per jet, not one per binomial
    calls = []
    real = jets._sparse_rows
    monkeypatch.setattr(jets, "_sparse_rows", lambda coords: calls.append(1) or real(coords))
    surf = ToricSurface.from_pair(5, 7)
    jet = TruncatedJet(RATIONALS, 4, [list(row) for row in monomial_arc(surf, (3, 4), 4).coords])
    assert all(not any(evaluate(eq, jet)) for eq in generators(surf))
    assert is_member(jet, surf) and len(generators(surf)) > 1
    assert len(calls) == 1


def test_contact_profile_reads_orders_through_the_field():
    # over F_3 an unreduced 3 or 6 below a coordinate's first true term is
    # zero: the jet is the same member and has the same profile as the arc
    surf = ToricSurface.from_pair(5, 7)
    f3 = prime_field(3)
    arc = monomial_arc(surf, (3, 4), 6, f3)
    rows = [list(row) for row in arc.coords]
    for row, c in zip(rows, (3, 6, 3, 6, 3)):
        row[row.index(1) - 1] = c
    jet = TruncatedJet(f3, 6, rows)
    assert is_member(jet, surf)
    assert contact_profile(jet, surf) == contact_profile(arc, surf) == ((4, 3, 2, 1, 1), True)


def test_contact_vector_solves_the_pairing_system_on_wide_surfaces():
    # the label's arc realizes (s, l) at (i, i+1) and is a member over the
    # origin, on seeded surfaces with 13 <= q <= 10^4
    rng = random.Random(20261022)
    surfaces = random_wide_surfaces(rng, 60, 100)
    for surf in surfaces:
        m = rng.randint(6, 24)
        for i, s, l in rng.sample(valid_labels(surf, m), 5):
            v, inside = contact_vector(surf, i, s, l)
            assert (surf.pairing(i, v), surf.pairing(i + 1, v)) == (s, l)
            assert inside and cone_contains(surf.cone, v)
            profile, over = contact_profile(monomial_arc(surf, v, m), surf)
            assert over and (profile[i - 1], profile[i]) == (s, l)
    assert max(surf.q for surf in surfaces) > 5000 and max(surf.e for surf in surfaces) >= 50
