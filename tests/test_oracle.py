import dataclasses
import inspect
import itertools
import math
import random
import textwrap
from collections import Counter

import pytest

from toricjets import jets, oracle
from toricjets import (
    ABOVE_M,
    GuardExceededError,
    InputRangeError,
    NonMemberError,
    OracleConfig,
    ToricSurface,
    TruncatedJet,
    check_order_propagation,
    coverage_spot_check,
    is_member,
    monomial_arc,
    prime_field,
    required_budget,
)
from conftest import plant_in_series
from test_acceptance import ORACLE_GRID


def _fiber(surf, ch, m):
    """The full walk from the origin: every fiber point's rows, sorted."""
    return sorted(oracle._lift(surf, prime_field(ch), m, [((0,),) * surf.e]))


def _profile(rows):
    """Each coordinate's order: its first nonzero coefficient, or ABOVE_M."""
    return tuple(next((b for b, c in enumerate(row) if c), ABOVE_M) for row in rows)


def test_config_validation():
    OracleConfig(3, 2)
    with pytest.raises(InputRangeError):
        OracleConfig(4, 2)
    with pytest.raises(InputRangeError):
        OracleConfig(3, -1)
    with pytest.raises(InputRangeError):
        OracleConfig(3, 2, guard=0)
    # non-integral fields, which would otherwise fail deep in the walk or,
    # for the guard, be compared as they are
    for args in [(2, 1.5), (2.0, 1), (3, 2, 2.5), ('3', 2), (3, '2')]:
        with pytest.raises(InputRangeError):
            OracleConfig(*args)


def test_required_budget():
    surf = ToricSurface.from_pair(2, 3)  # e = 4
    assert required_budget(surf, OracleConfig(3, 2)) == 3 ** 12
    assert required_budget(surf, OracleConfig(2, 1)) == 2 ** 8


def test_guard_rejection_carries_required_count():
    surf = ToricSurface.from_pair(2, 3)
    cfg = OracleConfig(3, 2, guard=100)
    with pytest.raises(GuardExceededError) as exc:
        oracle.fiber_profiles(surf, cfg)
    assert exc.value.required == 3 ** 12
    assert "3^12 points" in str(exc.value)
    assert "raise the guard" in str(exc.value)


def test_fiber_counts_frozen():
    cases = [
        (2, 3, 1, 3, 81),
        (2, 3, 1, 2, 16),
        (3, 5, 2, 2, 96),
        (2, 5, 2, 3, 1215),
    ]
    for p, q, m, ch, want in cases:
        assert len(_fiber(ToricSurface.from_pair(p, q), ch, m)) == want


def test_fiber_points_are_members_over_the_origin():
    surf = ToricSurface.from_pair(3, 5)
    for rows in _fiber(surf, 2, 2):
        assert is_member(TruncatedJet(prime_field(2), 2, rows), surf)
        for row in rows:
            assert row[0] == 0
        assert all(o is ABOVE_M or o >= 1 for o in _profile(rows))


def test_fiber_at_level_zero_is_the_origin():
    surf = ToricSurface.from_pair(2, 3)
    points = _fiber(surf, 5, 0)
    assert len(points) == 1
    assert _profile(points[0]) == (ABOVE_M,) * 4


def test_order_propagation_frozen():
    for (p, q) in [(2, 3), (3, 5), (2, 5)]:
        surf = ToricSurface.from_pair(p, q)
        assert check_order_propagation(surf, OracleConfig(2, 1), 1)
        assert check_order_propagation(surf, OracleConfig(2, 3), 2)
        assert check_order_propagation(surf, OracleConfig(3, 1), 1)
    with pytest.raises(InputRangeError):
        check_order_propagation(ToricSurface.from_pair(2, 3), OracleConfig(2, 2), 1)


def _odometer_members(surf, ch, m, over_origin):
    """Reference: every coefficient tuple, most significant digit first and
    coordinate by coordinate, kept when it is a member jet.  Over the origin
    the constant terms are pinned to zero."""
    field = prime_field(ch)
    head = (0,) if over_origin else ()
    per = m + 1 - len(head)
    out = []
    for digits in itertools.product(range(ch), repeat=surf.e * per):
        rows = tuple(head + digits[k * per:(k + 1) * per] for k in range(surf.e))
        if is_member(TruncatedJet(field, m, rows), surf):
            out.append(rows)
    return out


def _odometer_propagation(surf, ch, s):
    """Reference verdict of check_order_propagation from the odometer's
    members at level 2s-1 over the full space."""
    for rows in _odometer_members(surf, ch, 2 * s - 1, over_origin=False):
        orders = [next((b for b, c in enumerate(row) if c), None) for row in rows]
        if any(orders[i - 1] == orders[i] == s for i in range(2, surf.e)) and any(
            o is not None and o < s for o in orders
        ):
            return False
    return True


def _may_start(x0, s):
    """A constant layer below a candidate of order propagation at s: some
    pair x_i, x_(i+1) with 2 <= i <= e-1 is zero, and at s = 1 some
    coordinate is a unit."""
    zero = [not c for c in x0]
    return any(zero[i - 1] and zero[i] for i in range(2, len(x0))) and (s > 1 or not all(zero))


def _orbit(surf, ch, rows):
    """The torus orbit of the walk node rows, by brute force: its images
    under every (l_1, l_2) in (F_ch^*)^2 acting by
    x_j -> l_1^(a_j) l_2^(b_j) x_j, for u_j = (a_j, b_j), as a set."""
    units = range(1, ch)
    return {
        tuple(tuple(c * pow(l1, a, ch) * pow(l2, b, ch) % ch for c in row)
              for row, (a, b) in zip(rows, surf.basis))
        for l1 in units for l2 in units
    }


def _unslice(surf, ch, nodes):
    """The sorted orbits of every slice node: the full walk, if the slice
    holds one node of each orbit and no other."""
    return sorted(image for rows in nodes for image in _orbit(surf, ch, rows))


def _orbit_count(surf, ch, nodes):
    """The number of torus orbits that nodes meet."""
    return len({min(_orbit(surf, ch, rows)) for rows in nodes})


def _check_against_odometer(monkeypatch, p, q, ch, m):
    surf = ToricSurface.from_pair(p, q)
    cfg = OracleConfig(ch, m)
    assert required_budget(surf, cfg) <= 1 << 16
    assert _fiber(surf, ch, m) == _odometer_members(surf, ch, m, over_origin=True)
    if m % 2:  # order propagation runs at m = 2s-1 over the full space
        s = (m + 1) // 2
        walked = []
        real = oracle._lift

        def spy(*args, **kwargs):
            rows = real(*args, **kwargs)
            walked.extend(rows)
            return rows

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_lift", spy)
            verdict = check_order_propagation(surf, cfg, s)
        # the walk stops at level s-1, from the constant layers that may
        # start a candidate, one node of each torus orbit; the layers
        # s..2s-1 above it are solved.  At s <= 2, the s of these cells, it
        # walks only the nodes with a member above them at level s: over
        # the origin the first layers off the tangent cone are never walked
        assert s <= 2
        lifting = {tuple(row[:s] for row in rows)
                   for rows in _odometer_members(surf, ch, s, over_origin=False)}
        assert _unslice(surf, ch, walked) == [
            rows for rows in _odometer_members(surf, ch, s - 1, over_origin=False)
            if _may_start([row[0] for row in rows], s) and rows in lifting
        ]
        assert verdict == _odometer_propagation(surf, ch, s)
        assert verdict


# every e = 4 cell with p^(e(m+1)) <= 2^16, and (5,7) at F_2 for m <= 2
ODOMETER_CELLS = [
    *((p, q, ch, m) for p, q in [(2, 3), (3, 5), (2, 5)]
      for ch, mtop in [(2, 3), (3, 1), (5, 0)] for m in range(mtop + 1)),
    *((5, 7, 2, m) for m in range(3)),
]


@pytest.mark.parametrize("p,q,ch,m", ODOMETER_CELLS)
def test_lifting_walk_matches_the_odometer(monkeypatch, p, q, ch, m):
    _check_against_odometer(monkeypatch, p, q, ch, m)


def test_odometer_check_catches_a_kept_non_member(monkeypatch):
    # the first node without member children gets its zero layers anyway
    real = oracle._solutions
    kept = []

    def leaky(system, n, p):
        families = list(real(system, n, p))
        if not families and not kept:
            kept.append(n)
            return [((0,),) * n]
        return families

    monkeypatch.setattr(oracle, "_solutions", leaky)
    with pytest.raises(AssertionError):
        _check_against_odometer(monkeypatch, 3, 5, 2, 2)
    assert kept


def _per_child_levels(surface, field, m):
    """Reference: the lifting walk with one is_member call per child and no
    linear solve, from the empty rows.  Returns the sorted members of
    every level 0..m over the full space."""
    layers = list(itertools.product(field.elements(), repeat=surface.e))
    coords = [((),) * surface.e]
    levels = []
    for k in range(m + 1):
        lifted = []
        for rows in coords:
            for layer in layers:
                ext = tuple(row + (c,) for row, c in zip(rows, layer))
                if is_member(TruncatedJet(field, k, ext), surface):
                    lifted.append(ext)
        coords = lifted
        levels.append(sorted(coords))
    return levels


def _check_shortcut_against_per_child(p, q, ch, mtop):
    surf = ToricSurface.from_pair(p, q)
    field = prime_field(ch)
    e = surf.e
    for k, members in enumerate(_per_child_levels(surf, field, mtop)):
        key = (p, q, ch, k)
        assert sorted(oracle._lift(surf, field, k, [((),) * e])) == members, key
        over_origin = [rows for rows in members if not any(row[0] for row in rows)]
        assert sorted(oracle._lift(surf, field, k, [((0,),) * e])) == over_origin, key


# beyond the odometer's reach: e = 5 (the bench's (5,12) cell), 6 and 7; and
# F_5, the smallest field where a nonzero pivot need not be its own inverse
SHORTCUT_CELLS = [(5, 12, 3, 2), (5, 7, 3, 2), (7, 9, 2, 3), (19, 30, 2, 2), (3, 5, 5, 1)]


@pytest.mark.parametrize("p,q,ch,mtop", SHORTCUT_CELLS)
def test_origin_shortcut_matches_per_child_lift(p, q, ch, mtop):
    _check_shortcut_against_per_child(p, q, ch, mtop)


def _plant_void_derivative_term(monkeypatch, d):
    """The t^d term of every derivative series is dropped."""
    plant_in_series(monkeypatch, lambda plus, minus, grad: (plus, minus, {
        l: [(k, c) for k, c in terms if k != d] for l, terms in grad.items()}))


def test_shortcut_check_catches_a_shortcut_off_the_origin(monkeypatch):
    # every node treated as over the origin: J = D_0 = 0, all children or none
    _plant_void_derivative_term(monkeypatch, 0)
    with pytest.raises(AssertionError):
        _check_shortcut_against_per_child(19, 30, 2, 2)


@pytest.mark.parametrize("p,q", [(5, 12), (5, 7)])
def test_shortcut_check_catches_a_residual_of_the_wrong_sign(monkeypatch, p, q):
    # b = plus - minus in place of minus - plus.  Over F_2, -1 = 1, and the
    # F_5 cell stops at m = 1, where no residual along a constant layer is
    # nonzero, so only the F_3 cells can see this fault
    plant_in_series(monkeypatch, lambda plus, minus, grad: (minus, plus, grad))
    with pytest.raises(AssertionError):
        _check_shortcut_against_per_child(p, q, 3, 2)


def test_shortcut_check_catches_a_derivative_term_one_equation_too_high(monkeypatch):
    # D_d read at t^(g+d+1) in place of t^(g+d)
    plant_in_series(monkeypatch, lambda plus, minus, grad: (plus, minus, {
        l: [(d + 1, c) for d, c in terms] for l, terms in grad.items()}))
    with pytest.raises(AssertionError):
        _check_shortcut_against_per_child(7, 9, 2, 3)


def test_per_child_check_catches_a_pivot_used_as_its_own_inverse(monkeypatch):
    # over F_2 and F_3 every nonzero pivot is its own inverse, so only the
    # F_5 cell can see this fault
    monkeypatch.setattr(oracle, "pow", lambda x, _n, _p: x, raising=False)
    with pytest.raises(AssertionError):
        _check_shortcut_against_per_child(3, 5, 5, 1)


def _constant_scan(surf, field):
    """Reference: every constant layer of F_p^e, kept when it is a member."""
    layers = (tuple((c,) for c in x0) for x0 in itertools.product(field.elements(), repeat=surf.e))
    return [rows for rows in layers if is_member(TruncatedJet(field, 0, rows), surf)]


# the surface and field of every odometer and shortcut cell, and F_7, where
# l^(-p) and l^p differ on (5,7) and (7,9)
CONSTANT_CELLS = sorted({
    *((p, q, ch) for p, q, ch, _ in ODOMETER_CELLS + SHORTCUT_CELLS), (5, 7, 7), (7, 9, 7)})


def _check_constant_members(cells, constant_members):
    for p, q, ch in cells:
        surf, field = ToricSurface.from_pair(p, q), prime_field(ch)
        got = constant_members(surf, field)
        assert len(got) == ch ** 2, (p, q, ch)
        assert sorted(got) == _constant_scan(surf, field), (p, q, ch)


@pytest.mark.parametrize("p,q,ch", CONSTANT_CELLS)
def test_constant_members_are_the_points_of_the_surface(p, q, ch):
    _check_constant_members([(p, q, ch)], oracle._constant_members)


def test_constant_member_check_catches_a_dropped_ray_orbit():
    # the orbit where x_e alone is a unit is missing
    def planted(surf, field):
        return [rows for rows in oracle._constant_members(surf, field)
                if any(row[0] for row in rows[:-1]) or not rows[-1][0]]

    with pytest.raises(AssertionError):
        _check_constant_members(CONSTANT_CELLS, planted)


def test_constant_member_check_catches_a_flipped_exponent():
    # u_e = (q, p) in place of (q, -p): a wrong point of the open orbit, which
    # is_member refuses; over F_3 l^p = l^(-p), so only F_5 and F_7 see it
    def planted(surf, field):
        (q, neg_p), = surf.basis[-1:]
        flipped = dataclasses.replace(surf, basis=surf.basis[:-1] + ((q, -neg_p),))
        return oracle._constant_members(flipped, field)

    with pytest.raises(NonMemberError):
        _check_constant_members(CONSTANT_CELLS, planted)


def _check_sliced_constant_layer(ch):
    """The sliced constant layer, picked by hand, against the canonical
    points (_orbit_weight) among all p^2 points of S(F_p), in order, on
    every criterion-5 surface."""
    field = prime_field(ch)
    for p, q in sorted({pq for pq, _, _, _ in ORACLE_GRID}):
        surf = ToricSurface.from_pair(p, q)
        canonical = [rows for rows in oracle._constant_members(surf, field)
                     if oracle._orbit_weight(rows, surf, ch) > 0]
        assert oracle._constant_members(surf, field, sliced=True) == canonical, (p, q, ch)


@pytest.mark.parametrize("ch", [3, 5, 7, 11])
def test_sliced_constant_layer_is_the_canonical_points(ch):
    _check_sliced_constant_layer(ch)


def test_sliced_constant_layer_check_catches_an_unnormalized_first_row(monkeypatch):
    _plant_in_orbit_weight(monkeypatch, *UNNORMALIZED_FIRST_ROW)
    with pytest.raises(AssertionError):
        for ch in [3, 5, 7, 11]:
            _check_sliced_constant_layer(ch)


def _check_orbit_stabilizer(p, q, ch, full, origin):
    """The sliced walk against the full walk at each level k up to full
    from the empty rows, and up to origin from the origin: each slice
    node's weight is the size of its orbit, the weights sum to the full
    walk's node count, and the orbits of the slice nodes are disjoint and
    cover the full walk."""
    surf, field = ToricSurface.from_pair(p, q), prime_field(ch)
    for start, top in [(((),) * surf.e, full), (((0,),) * surf.e, origin)]:
        for k in range(top + 1):
            key = (p, q, ch, k, start)
            walk = sorted(oracle._lift(surf, field, k, [start]))
            sliced = oracle._lift(surf, field, k, [start], sliced=True)
            weights = [oracle._orbit_weight(rows, surf, ch) for rows in sliced]
            assert weights == [len(_orbit(surf, ch, rows)) for rows in sliced], key
            assert sum(weights) == len(walk), key
            assert _unslice(surf, ch, sliced) == walk, key


@pytest.mark.parametrize("p,q,ch,mtop", [
    cell for cell in ODOMETER_CELLS + SHORTCUT_CELLS if cell[2] >= 3])
def test_sliced_walk_expands_to_the_full_walk(p, q, ch, mtop):
    _check_orbit_stabilizer(p, q, ch, mtop, mtop)


# the levels each criterion-5 cell walks, order propagation from the empty
# rows to s-1 and the fiber from the origin to m // 2, and the F_2 odometer
# and shortcut cells, where the torus is trivial, to their top level
ORBIT_CELLS = list(dict.fromkeys([
    *((p, q, ch, (mtop + 1) // 2 - 1, mtop // 2) for (p, q), ch, mtop, _ in ORACLE_GRID),
    *((p, q, ch, mtop, mtop) for p, q, ch, mtop in ODOMETER_CELLS + SHORTCUT_CELLS if ch == 2),
]))


@pytest.mark.parametrize("p,q,ch,full,origin", ORBIT_CELLS)
def test_slice_weights_are_orbit_sizes(p, q, ch, full, origin):
    _check_orbit_stabilizer(p, q, ch, full, origin)


def _check_first_layers(cells):
    """The tangent-cone search against the level-1 walk from the origin:
    the orbits of its layers are the nodes there whose t^2 residual
    vanishes, and every canonical node it drops has no member above it at
    level 2."""
    for p, q, ch in cells:
        surf, field = ToricSurface.from_pair(p, q), prime_field(ch)
        got = oracle._first_layers(surf, field)
        origin = [((0,),) * surf.e]
        kept = [rows for rows in oracle._lift(surf, field, 1, origin)
                if jets._vanishes(jets._sparse_rows(rows), 2, surf, field.is_zero)]
        assert _unslice(surf, ch, got) == sorted(kept), (p, q, ch)
        for rows in set(oracle._lift(surf, field, 1, origin, sliced=True)) - set(got):
            assert not oracle._lift(surf, field, 2, [rows]), (p, q, ch, rows)


# the surface and field of every criterion-5, odometer and shortcut cell
FIRST_LAYER_CELLS = sorted({
    *((p, q, ch) for (p, q), ch, _, _ in ORACLE_GRID),
    *((p, q, ch) for p, q, ch, _ in ODOMETER_CELLS + SHORTCUT_CELLS)})


@pytest.mark.parametrize("p,q,ch", FIRST_LAYER_CELLS)
def test_first_layers_are_the_slice_nodes_on_the_tangent_cone(p, q, ch):
    _check_first_layers([(p, q, ch)])


def _plant_in_tangent_cone(monkeypatch, edit, recheck=False):
    """The groups of conditions that _tangent_cone returns go through edit.
    Unless recheck, the search's own re-check through t^2 is off, so only
    the comparison with the walk can catch a wrong layer."""
    real = oracle._tangent_cone
    monkeypatch.setattr(oracle, "_tangent_cone", lambda surface: edit(real(surface)))
    if not recheck:
        monkeypatch.setattr(oracle, "_vanishes", lambda rows, m, surface, is_zero: True)


def test_first_layer_check_catches_a_binomial_checked_one_coordinate_early(monkeypatch):
    # binomial (i, j) checked once x_(j-1) is set, reading x_j as 0: the
    # condition a_i a_j - R(a) becomes R(a) = 0 if R = x_k x_n, as (k, n, ()),
    # and vacuous if R has higher degree
    _plant_in_tangent_cone(monkeypatch, lambda groups: [
        [(k, n, ()) for _, _, minus in group for k, n in minus] for group in groups[1:]] + [[]])
    with pytest.raises(AssertionError):
        _check_first_layers(FIRST_LAYER_CELLS)


def test_first_layer_check_catches_an_ignored_degree_2_minus_monomial(monkeypatch):
    # a_i a_j = 0 for every binomial, as if no minus monomial had degree 2
    _plant_in_tangent_cone(monkeypatch, lambda groups: [
        [(i, j, ()) for i, j, _ in group] for group in groups])
    with pytest.raises(AssertionError):
        _check_first_layers([(5, 12, 3)])


def _plant_in_orbit_weight(monkeypatch, line, planted):
    """oracle._orbit_weight rebuilt from its source with line replaced by
    planted, so the fault reaches every reader of the one function: the
    first-layer search, the sliced walk and so the candidates, and the
    fiber's weights."""
    source = textwrap.dedent(inspect.getsource(oracle._orbit_weight))
    assert source.count(line) == 1, line
    scope = {}
    exec(source.replace(line, planted), vars(oracle), scope)
    monkeypatch.setattr(oracle, "_orbit_weight", scope["_orbit_weight"])


# the first nonzero row keeps every lead, with image size 1
UNNORMALIZED_FIRST_ROW = ("first, g = surface.basis[j], 1", "first, g = surface.basis[j], n")

# faults in the canonical form: p-1 in place of a later row's image size;
# the leftover torus never narrowed after a row, so every later row sees
# the image of the first row's stabilizer; a later row normalized by the
# whole torus, its lead 1 like the first row's
ORBIT_FAULTS = {
    "image-size-p-1": ("weight *= n // g", "weight *= n"),
    "leftover-not-narrowed": ("k *= n // g", "k *= 1"),
    "whole-torus-later-row": ("g = math.gcd(k * (a * d - b * c), n)", "g = 1"),
}


@pytest.mark.parametrize("fault", ORBIT_FAULTS)
def test_orbit_check_catches_a_planted_fault(monkeypatch, fault):
    _plant_in_orbit_weight(monkeypatch, *ORBIT_FAULTS[fault])
    with pytest.raises(AssertionError):
        for p, q, ch, mtop in ODOMETER_CELLS + SHORTCUT_CELLS:
            _check_orbit_stabilizer(p, q, ch, mtop, mtop)


def test_first_layer_check_catches_an_unnormalized_first_row(monkeypatch):
    # the search keeps p-1 layers of some orbits; the weights of those
    # layers still sum to the orbit's size, so no profile count moves
    _plant_in_orbit_weight(monkeypatch, *UNNORMALIZED_FIRST_ROW)
    with pytest.raises(AssertionError):
        _check_first_layers(FIRST_LAYER_CELLS)


def test_first_layer_recheck_refuses_a_layer_off_the_cone(monkeypatch):
    # no condition checked: every slice node is found, and the t^2 re-check
    # of the first one off the cone raises
    _plant_in_tangent_cone(monkeypatch, lambda groups: [[] for _ in groups], recheck=True)
    with pytest.raises(NonMemberError):
        oracle._first_layers(ToricSurface.from_pair(3, 5), prime_field(2))


def test_fiber_solves_only_the_first_layers_on_the_tangent_cone(monkeypatch):
    # (19,30) F_7 m=3: 8 of the 22,974 torus orbits of level-1 nodes over
    # the origin are on the tangent cone, and the fiber solves one system
    # above each; order propagation at s = 2 solves 37 systems, lifts
    # and candidates
    surf = ToricSurface.from_pair(19, 30)
    cfg = OracleConfig(7, 3, guard=7 ** 28)
    assert len(oracle._first_layers(surf, prime_field(7))) == 8
    solves = []
    real = oracle._upper_system
    monkeypatch.setattr(oracle, "_upper_system", lambda *args: solves.append(args[2]) or real(*args))
    oracle.fiber_profiles(surf, cfg)
    assert solves == [3] * 8
    solves.clear()
    assert check_order_propagation(surf, cfg, 2)
    assert len(solves) == 37


# the first layers on the tangent cone, one per torus orbit; over F_2
# every orbit is one node
@pytest.mark.parametrize("p,q,ch,layers", [
    (5, 12, 3, 8), (2, 3, 3, 4), (5, 7, 7, 6), (19, 30, 7, 8), (3, 5, 2, 6)])
def test_first_layers_and_candidates_are_one_per_orbit(p, q, ch, layers):
    surf, field = ToricSurface.from_pair(p, q), prime_field(ch)
    assert len(oracle._first_layers(surf, field)) == layers
    # the candidates of order propagation at s = 1: x_e alone and x_1 alone
    zero = ((0,),) * (surf.e - 1)
    candidates = {rows for rows, _, _ in oracle._refuting_counts(surf, OracleConfig(ch, 1), 1)}
    assert sorted(candidates) == [zero + ((1,),), ((1,),) + zero]


@pytest.mark.parametrize("p,q,ch,m", [(5, 12, 3, 2), (19, 30, 7, 3), (3, 5, 2, 3), (5, 7, 7, 2)])
def test_fiber_tests_no_first_layer_twice(monkeypatch, p, q, ch, m):
    # at m = 2 and 3 the nodes of the fiber are the first layers, which the
    # search has checked through t^2: one _vanishes call each, the search's
    surf = ToricSurface.from_pair(p, q)
    layers = len(oracle._first_layers(surf, prime_field(ch)))
    calls = []
    real = oracle._vanishes
    monkeypatch.setattr(oracle, "_vanishes", lambda *args: calls.append(args[1]) or real(*args))
    oracle.fiber_profiles(surf, OracleConfig(ch, m, guard=ch ** (surf.e * (m + 1))))
    assert calls == [2] * layers


def _random_systems(p, seed):
    """Seeded (n, rows [A | b]) over F_p for n = 0..5 unknowns and up to
    three random rows; each system with two rows or more comes again with a
    combination of its first two rows added, rank-deficient, and with that
    combination's b shifted by one, inconsistent."""
    rng = random.Random(seed)
    for n in range(6):
        for _ in range(12):
            rows = [[rng.randrange(p) for _ in range(n + 1)] for _ in range(rng.randrange(4))]
            yield n, rows
            if len(rows) >= 2:
                c, d = rng.randrange(1, p), rng.randrange(p)
                combo = [(c * x + d * y) % p for x, y in zip(rows[0], rows[1])]
                yield n, rows + [combo]
                yield n, rows + [combo[:n] + [(combo[n] + 1) % p]]


def _scan(system, n, p):
    """Every vector of F_p^n that satisfies every row [A | b], in order."""
    return [a for a in itertools.product(range(p), repeat=n) if all(
        (sum(c * x for c, x in zip(row, a)) - row[n]) % p == 0 for row in system)]


def _check_solutions_against_scan(p):
    """Each solution listing, and the sum of its family sizes, against the
    scan."""
    empty = 0
    for n, system in _random_systems(p, seed=p):
        want = _scan(system, n, p)
        families = list(oracle._solutions([row[:] for row in system], n, p))
        assert sorted(a for fam in families for a in itertools.product(*fam)) == want, (n, system)
        assert sum(math.prod(map(len, fam)) for fam in families) == len(want), (n, system)
        empty += not want
    assert empty


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solutions_match_a_brute_force_scan(p):
    _check_solutions_against_scan(p)


def test_solution_check_catches_a_pivot_without_its_free_terms(monkeypatch):
    # each pivot unknown set to its row's b, as if no free unknown were read
    monkeypatch.setattr(oracle, "sum", lambda terms: 0, raising=False)
    with pytest.raises(AssertionError):
        _check_solutions_against_scan(3)


def test_solution_check_catches_a_constant_pivot_left_free(monkeypatch):
    # a pivot unknown whose row reads no free unknown left at range(p), as
    # if it were never set before the families are walked: it is the one
    # fixed choice that no family changes
    real = oracle._solutions

    def planted(system, n, p):
        families = list(real(system, n, p))
        constant = {col for col, choices in enumerate(zip(*families))
                    if len(choices[0]) == 1 and len(set(choices)) == 1}
        for family in families:
            yield tuple(range(p) if col in constant else c for col, c in enumerate(family))

    monkeypatch.setattr(oracle, "_solutions", planted)
    with pytest.raises(AssertionError):
        _check_solutions_against_scan(3)


def _check_refuting_counts(p, q, ch, s):
    """Every candidate of order propagation at s and each of its zero pairs,
    read off the full-space walk to level s-1; each count of solutions
    against the members listed above the candidate at level 2s-1.  The
    walk drops the first layers over the origin with no member above them
    at level 2, which at s <= 2 are the candidates with no member above
    them at level s; a dropped candidate must have a count of 0."""
    assert s <= 2
    surf = ToricSurface.from_pair(p, q)
    field = prime_field(ch)
    e = surf.e
    want, dropped = [], []
    for rows in oracle._lift(surf, field, s - 1, [((),) * e]):
        zero = [not any(row) for row in rows]
        if not all(zero):
            pairs = [(rows, i) for i in range(2, e) if zero[i - 1] and zero[i]]
            if oracle._lift(surf, field, s, [rows]):
                want += pairs
            else:
                dropped += pairs
    got = list(oracle._refuting_counts(surf, OracleConfig(ch, 2 * s - 1), s))
    # one candidate of each torus orbit
    images = [(image, i) for rows, i, _ in got for image in _orbit(surf, ch, rows)]
    assert sorted(images) == sorted(want), (p, q, ch, s)

    def both(rows, i):
        above = oracle._lift(surf, field, 2 * s - 1, [rows])
        return sum(bool(jet[i - 1][s] and jet[i][s]) for jet in above)

    for rows, i, count in got:
        assert count == both(rows, i), (rows, i)
    for rows, i in dropped:
        assert both(rows, i) == 0, (rows, i)


# every s with 2s-1 <= m of the odometer and shortcut cells
REFUTING_CELLS = sorted({
    *((p, q, ch, (m + 1) // 2) for p, q, ch, m in ODOMETER_CELLS if m % 2),
    *((p, q, ch, s) for p, q, ch, mtop in SHORTCUT_CELLS for s in range(1, (mtop + 3) // 2)),
})


@pytest.mark.parametrize("p,q,ch,s", REFUTING_CELLS)
def test_refuting_counts_match_the_listing(p, q, ch, s):
    _check_refuting_counts(p, q, ch, s)


def test_refuting_count_check_catches_a_prefilter_that_skips_the_last_pair(monkeypatch):
    # the pair x_(e-1), x_e is never looked at, at layer 0 or at level s-1
    real = oracle._zero_pairs
    monkeypatch.setattr(oracle, "_zero_pairs", lambda rows: [
        i for i in real(rows) if i != len(rows) - 1])
    with pytest.raises(AssertionError):
        _check_refuting_counts(3, 5, 2, 2)


def test_fiber_walk_checks_one_child_per_member(monkeypatch):
    # the bench's e = 5 cell: one system solved per member below level 2
    # and no is_member call, where child by child made 59,292 checks
    surf = ToricSurface.from_pair(5, 12)
    below = len(_fiber(surf, 3, 1))
    solves, checks = [], []
    real_system, real_member = oracle._upper_system, oracle.is_member

    def system(surface, rows, m, p):
        solves.append(m)
        return real_system(surface, rows, m, p)

    def member(jet, surface):
        checks.append(jet.m)
        return real_member(jet, surface)

    monkeypatch.setattr(oracle, "_upper_system", system)
    monkeypatch.setattr(oracle, "is_member", member)
    assert len(_fiber(surf, 3, 2)) == 5103
    assert solves == [1] + [2] * below
    assert len(solves) == 244
    assert checks == []


def _check_profiles_against_listing(surf, cfg):
    listed = Counter(map(_profile, _fiber(surf, cfg.characteristic, cfg.m)))
    assert oracle.fiber_profiles(surf, cfg) == listed, (surf.p, surf.q, cfg)


# m >= 3, where the layers above floor(m/2) up to m-1 are solved, D_1 and
# higher terms included: e = 4 and 5 up to m = 5, and F_3 and F_5, where a
# nonzero pivot need not be its own inverse
SOLVED_LAYER_CELLS = [(2, 3, 2, 5), (3, 5, 2, 4), (5, 7, 2, 3), (5, 7, 2, 4), (3, 5, 3, 3),
                      (2, 3, 5, 3)]


@pytest.mark.parametrize("p,q,ch,m", [
    *ODOMETER_CELLS,
    *((p, q, ch, m) for p, q, ch, mtop in SHORTCUT_CELLS for m in range(mtop + 1)),
    *SOLVED_LAYER_CELLS,
])
def test_profile_counts_match_the_listing(p, q, ch, m):
    # the F_5 cell needs 5^16 > 2^26 of guard, though it lists 765,625 points
    cfg = OracleConfig(ch, m, guard=1 << 40)
    _check_profiles_against_listing(ToricSurface.from_pair(p, q), cfg)


def test_profile_count_check_catches_a_void_second_layer_condition(monkeypatch):
    # D_1 = 0: every node whose t^(m-1) residual vanishes gets all p^e
    # layers m-1 or none, as if the t^m coefficient were r_m alone.  The
    # listing shares _upper_system with the counts, so the fault is planted
    # once the fiber is listed, or both sides would be equally wrong
    surf = ToricSurface.from_pair(3, 5)
    listed = Counter(map(_profile, _fiber(surf, 2, 3)))
    _plant_void_derivative_term(monkeypatch, 1)
    assert oracle.fiber_profiles(surf, OracleConfig(2, 3)) != listed


def _check_fiber_solves(monkeypatch, surf, cfg):
    """The profile counts against the listing, and the fiber's solves at
    level m against its level-h nodes, h = m // 2: one per torus orbit of
    the nodes over the origin whose residual at t^(h+1) vanishes, and none
    at m <= 2.  A node whose residual does not vanish makes an inconsistent
    system, so a weaker residual test costs solves but moves no count."""
    _check_profiles_against_listing(surf, cfg)
    ch, h, m = cfg.characteristic, cfg.m // 2, cfg.m
    field = prime_field(ch)
    kept = _orbit_count(surf, ch, [
        rows for rows in oracle._lift(surf, field, h, [((0,),) * surf.e])
        if jets._vanishes(jets._sparse_rows(rows), h + 1, surf, field.is_zero)])
    solves = []
    real = oracle._upper_system

    def system(surface, rows, level, p):
        solves.append(level)
        return real(surface, rows, level, p)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_upper_system", system)
        oracle.fiber_profiles(surf, cfg)
    assert solves.count(m) == (kept if h + 1 < m else 0), (surf.p, surf.q, cfg)


# m = 4 and 5, where the residual at t^3 is tested on the level-2 nodes
# above the first layers
RESIDUAL_CELLS = [(3, 5, 2, 4), (2, 5, 2, 4), (2, 3, 2, 5), (5, 7, 2, 4)]


@pytest.mark.parametrize("p,q,ch,m", RESIDUAL_CELLS)
def test_fiber_solves_the_nodes_whose_residual_vanishes(monkeypatch, p, q, ch, m):
    _check_fiber_solves(monkeypatch, ToricSurface.from_pair(p, q), OracleConfig(ch, m))


def _check_residual_cells(monkeypatch):
    for p, q, ch, m in RESIDUAL_CELLS:
        _check_fiber_solves(monkeypatch, ToricSurface.from_pair(p, q), OracleConfig(ch, m))


def test_profile_count_check_catches_a_dropped_residual_filter(monkeypatch):
    # the residual test keeps every node, so every level-h node is solved
    monkeypatch.setattr(oracle, "_vanishes", lambda rows, m, surface, is_zero: True)
    with pytest.raises(AssertionError):
        _check_residual_cells(monkeypatch)


def _keep_at_first_zero(rows, m, surface, is_zero):
    """The residual test with a planted early exit: a node is kept as soon
    as one binomial vanishes, so only the first binomial walked decides."""
    for _, plus, minus, _ in jets._binomial_series(rows, m, surface):
        diff = dict(plus)
        for d, c in minus:
            diff[d] = diff.get(d, 0) - c
        for c in diff.values():
            if not is_zero(c):
                return False
        return True
    return True


def test_profile_count_check_catches_an_early_exit_on_a_vanishing_binomial(monkeypatch):
    # the first binomial walked decides, so nodes that a later binomial
    # rejects are solved
    monkeypatch.setattr(oracle, "_vanishes", _keep_at_first_zero)
    with pytest.raises(AssertionError):
        _check_residual_cells(monkeypatch)


def test_profile_count_check_catches_a_dropped_slice_weight(monkeypatch):
    # each sliced node counted once, not once per node of its orbit
    real = oracle._orbit_weight
    monkeypatch.setattr(oracle, "_orbit_weight", lambda rows, surface, p: min(
        real(rows, surface, p), 1))
    with pytest.raises(AssertionError):
        _check_profiles_against_listing(ToricSurface.from_pair(5, 7), OracleConfig(3, 2))


@pytest.mark.parametrize("fault", ORBIT_FAULTS)
def test_profile_count_check_catches_a_planted_orbit_fault(monkeypatch, fault):
    # every canonical first layer of the tested cells leads each row with
    # 1, so none of these faults moves a first layer; the fiber's weights
    # catch them
    _plant_in_orbit_weight(monkeypatch, *ORBIT_FAULTS[fault])
    with pytest.raises(AssertionError):
        _check_profiles_against_listing(ToricSurface.from_pair(5, 7), OracleConfig(3, 2))


def test_fiber_counts_families_not_solutions(monkeypatch):
    # (5,7) F_2 m=7: the listing of every solution drew 73,248 of them from
    # the 289 solves of the walk from the origin.  Walked from the 6 first
    # layers on the tangent cone, it makes 262 solves with 1,433 families.
    # 1,425 families are the fiber's, in layers 4..7, each with its top
    # layer free, and each is read once per coordinate
    real_solutions, real_orders = oracle._solutions, oracle._row_orders
    solves, families, reads = [], [], []

    def solutions(system, n, p):
        solves.append(n)
        for family in real_solutions(system, n, p):
            families.append(family)
            yield family

    def orders(row, layers, p):
        reads.append(layers)
        return real_orders(row, layers, p)

    monkeypatch.setattr(oracle, "_solutions", solutions)
    monkeypatch.setattr(oracle, "_row_orders", orders)
    oracle.fiber_profiles(ToricSurface.from_pair(5, 7), OracleConfig(2, 7, guard=2 ** 40))
    assert (len(solves), len(families)) == (262, 1433)
    fiber = [family for family in families if len(family) == 20]
    assert len(fiber) == 1425
    assert {family[-5:] for family in fiber} == {(range(2),) * 5}
    assert len(reads) == 5 * len(fiber)


def _plant_in_row_orders(monkeypatch, edit):
    """Each finite (order, count) pair of _row_orders goes through edit, as
    edit(count, p, choice, lower), with choice the coordinate's choice at
    that order, as a 1-tuple when it is fixed, and lower whether the order
    is at or below h."""
    real = oracle._row_orders

    def planted(row, layers, p):
        choices = (*zip(row), *layers)
        return tuple((g, count if g is ABOVE_M else edit(count, p, choices[g], g < len(row)))
                     for g, count in real(row, layers, p))

    monkeypatch.setattr(oracle, "_row_orders", planted)


def test_profile_count_check_catches_a_kept_order_without_its_free_layers(monkeypatch):
    # a row nonzero through h counted once, not under all p^(free) layers
    _plant_in_row_orders(monkeypatch, lambda count, p, choice, lower: 1 if lower else count)
    with pytest.raises(AssertionError):
        _check_profiles_against_listing(ToricSurface.from_pair(3, 5), OracleConfig(2, 2))


def test_profile_count_check_catches_p_nonzero_values_of_a_free_layer(monkeypatch):
    # a free layer that starts a row counted under p values, zero included
    _plant_in_row_orders(monkeypatch, lambda count, p, choice, lower: (
        count * p // (p - 1) if len(choice) > 1 else count))
    with pytest.raises(AssertionError):
        _check_profiles_against_listing(ToricSurface.from_pair(3, 5), OracleConfig(2, 1))


def test_profile_count_check_catches_a_fixed_layer_without_the_free_ones_after_it(monkeypatch):
    # a fixed nonzero layer that starts a row counted once, not under the
    # p^(free layers after it)
    _plant_in_row_orders(monkeypatch, lambda count, p, choice, lower: (
        1 if not lower and len(choice) == 1 else count))
    with pytest.raises(AssertionError):
        _check_profiles_against_listing(ToricSurface.from_pair(3, 5), OracleConfig(2, 3))


def test_profile_counts_at_level_zero_are_the_origin():
    surf = ToricSurface.from_pair(5, 7)
    assert oracle.fiber_profiles(surf, OracleConfig(3, 0)) == {(ABOVE_M,) * 5: 1}


def test_profile_counts_charge_the_full_space():
    # the walks stop below level m, but the guard is charged for level m
    surf = ToricSurface.from_pair(2, 3)
    with pytest.raises(GuardExceededError) as exc:
        oracle.fiber_profiles(surf, OracleConfig(3, 2, guard=3 ** 12 - 1))
    assert exc.value.required == 3 ** 12
    with pytest.raises(GuardExceededError) as exc:
        check_order_propagation(surf, OracleConfig(3, 3, guard=3 ** 16 - 1), 2)
    assert exc.value.required == 3 ** 16


# (2,5) has entries (c_2, c_3) = (3, 2), which differ: the profile at
# i = e-1 is impossible with c_3 = 2 but not with c_2 = 3, so an entry
# read one place off, or a key left unread, fails a case
@pytest.mark.parametrize("bad", [
    # ord x2 = 1 = the minimum, ord x3 = 3 > (c_2 - 1) * 1, c_2 * 1 <= m
    (ABOVE_M, 1, 3, ABOVE_M),
    # ord x3 = 1 = the minimum, ord x4 = 2 > (c_3 - 1) * 1, c_3 * 1 <= m
    (ABOVE_M, ABOVE_M, 1, 2),
], ids=["i=2", "i=e-1"])
def test_coverage_reports_impossible_profiles_with_point_counts(bad):
    surf = ToricSurface.from_pair(2, 5)
    cfg = OracleConfig(2, 3)
    profiles = oracle.fiber_profiles(surf, cfg)
    assert bad not in profiles
    profiles[bad] = 3
    cov = coverage_spot_check(surf, cfg, profiles)
    assert cov.impossible_profiles == ((bad, 3),)
    assert cov.total_points == 515
    assert cov.closure_points == 291


def _coverage(surf, cfg):
    return coverage_spot_check(surf, cfg, oracle.fiber_profiles(surf, cfg))


def test_stratum_counts_frozen_2_3():
    surf = ToricSurface.from_pair(2, 3)
    stats = _coverage(surf, OracleConfig(3, 1)).strata
    assert [(st.label, st.point_count, st.predicted_count) for st in stats] == [
        ((2, 1, 1), 36, 36),
        ((3, 1, 1), 36, 36),
    ]
    assert all(st.all_orders_ge_s for st in stats)


def test_stratum_counts_frozen_3_5():
    surf = ToricSurface.from_pair(3, 5)
    stats = _coverage(surf, OracleConfig(2, 2)).strata
    assert [(st.label, st.point_count, st.predicted_count) for st in stats] == [
        ((2, 1, 1), 16, 16),
        ((3, 1, 1), 16, 16),
        ((3, 1, 2), 16, 16),
    ]


def test_coverage_frozen():
    surf = ToricSurface.from_pair(3, 5)
    cov = _coverage(surf, OracleConfig(2, 2))
    assert cov.total_points == 96
    # strata of the identified labels (2,1,1) and (3,1,2) share 8 points,
    # so the union is 40, not 48
    assert cov.stratum_points == 40
    assert cov.closure_points == 56
    assert cov.impossible_profiles == ()
    assert cov.disjoint
    assert [(st.label, st.point_count) for st in cov.strata] == [
        ((2, 1, 1), 16), ((3, 1, 1), 16), ((3, 1, 2), 16)]


def test_coverage_counts_every_point_once():
    surf = ToricSurface.from_pair(2, 5)
    cov = _coverage(surf, OracleConfig(3, 2))
    assert cov.stratum_points + cov.closure_points == cov.total_points == 1215
    assert not cov.impossible_profiles


def test_monomial_arcs_appear_in_the_fiber():
    surf = ToricSurface.from_pair(2, 5)
    arc = monomial_arc(surf, (1, 1), 2, field=prime_field(2))
    assert arc.coords in _fiber(surf, 2, 2)
