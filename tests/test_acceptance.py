"""Contract-level acceptance checks, one test per criterion, and mutation
checks showing that criteria 1, 3 and 8 catch known-wrong formulas.

Every test prints a single [PASS]/[FAIL] line (run with -s to see them all)
and enforces its runtime budget.  The exhaustive enumeration grid is shared
between criteria 5 and 6 through a module-level cache, so the fibers are
counted once.
"""

import time

import pytest

from toricjets import components, oracle
from toricjets import (
    DualBasis,
    OracleConfig,
    ToricSurface,
    check_order_propagation,
    codimension,
    contact_profile,
    contact_vector,
    count_closed_form,
    coverage_spot_check,
    dual_hilbert_basis,
    dual_hilbert_basis_bruteforce,
    enumerate_classes,
    exceptional_count_dual_cf,
    exceptional_count_hull,
    grading_check,
    hj_expand,
    m_cap,
    monomial_arc,
    valid_labels,
)
from conftest import coprime_family

FAMILY = coprime_family(30)

# ((p, q), characteristic, largest m, guard): e = 4 to 8.  The guard is the
# default unless the cell's full space p^(e(m+1)) exceeds it, as (5,7) at
# F_2 up to m = 9 (2^50) and at F_5 up to m = 3 (5^20), and (7,9) at F_3 up
# to m = 5 (3^36) do; the walks there reach far fewer points than that.
GUARD = oracle.DEFAULT_GUARD
ORACLE_GRID = [
    *((pq, ch, mtop, GUARD) for pq in [(2, 3), (3, 5), (2, 5)] for ch, mtop in [(2, 3), (3, 2)]),
    ((5, 7), 2, 9, 2 ** 50),
    ((5, 7), 3, 2, GUARD),
    ((5, 7), 5, 3, 5 ** 20),
    ((7, 9), 2, 3, GUARD),
    ((7, 9), 3, 5, 3 ** 36),
    ((19, 30), 2, 2, GUARD),
    ((15, 34), 2, 2, GUARD),
]

_ORACLE: dict = {}


def _oracle_matrix():
    """One record per (surface, field, m) cell: fiber profile counts,
    propagation verdicts, stratum stats, coverage.  Computed once, reused by
    criteria 5 and 6."""
    if "runs" in _ORACLE:
        return _ORACLE["runs"]
    runs = []
    for (p, q), ch, mtop, guard in ORACLE_GRID:
        surf = ToricSurface.from_pair(p, q)
        for m in range(1, mtop + 1):
            cfg = OracleConfig(ch, m, guard)
            profiles = oracle.fiber_profiles(surf, cfg)
            propagation = all(
                check_order_propagation(surf, OracleConfig(ch, 2 * s - 1, guard), s)
                for s in range(1, (m + 1) // 2 + 1)
            )
            coverage = coverage_spot_check(surf, cfg, profiles)
            runs.append((surf, ch, m, profiles, propagation, coverage.strata, coverage))
    _ORACLE["runs"] = runs
    return runs


def _check_count_formula(family):
    """Criterion 1's comparison; returns the number of (surface, m) cases."""
    checked = 0
    for surf in family:
        for m in range(1, 61):
            assert count_closed_form(surf, m) == len(enumerate_classes(surf, m)), (
                surf.p, surf.q, m)
            checked += 1
    return checked


def test_criterion_1_count_formula():
    t0 = time.monotonic()
    try:
        checked = _check_count_formula(FAMILY)
        dt = time.monotonic() - t0
        assert dt < 30.0, f"budget 30s exceeded: {dt:.1f}s"
    except BaseException:
        print("[FAIL] criterion 1: closed-form count vs enumerated classes")
        raise
    print(f"[PASS] criterion 1: closed-form count equals enumeration on "
          f"{checked} (surface, m) cases ({dt:.1f}s)")


def test_criterion_2_resolution_correspondence():
    t0 = time.monotonic()
    try:
        for surf in FAMILY:
            want = exceptional_count_dual_cf(surf.cone)
            assert want == exceptional_count_hull(surf.cone), (surf.p, surf.q)
            for m in (max(surf.entries), max(surf.entries) + 7):
                count = sum(cl.s == 1 for cl in enumerate_classes(surf, m))
                assert count == want, (surf.p, surf.q, m, count, want)
        dt = time.monotonic() - t0
        assert dt < 10.0, f"budget 10s exceeded: {dt:.1f}s"
    except BaseException:
        print("[FAIL] criterion 2: s=1 classes vs exceptional divisors")
        raise
    print(f"[PASS] criterion 2: s=1 class count equals both exceptional divisor "
          f"counts on {len(FAMILY)} surfaces ({dt:.1f}s)")


def _check_codimension_identities(family):
    """Criterion 3's identities on the family, then equidimensionality."""
    for surf in family:
        e = surf.e
        for m in range(1, 21):
            for s in range(1, (m + 1) // 2 + 1):
                # at m = 2s-1 the class is cut out by the s*e coefficients
                # x_j^(b), 1 <= j <= e, 0 <= b < s
                assert codimension(surf, s, 2 * s - 1) == s * e
                c = codimension(surf, s, m)
                assert c + s * (e - 4) == (m + 1) * (e - 2)
                assert c <= (m + 1) * (e - 2)
                assert (c == (m + 1) * (e - 2)) == (e == 4)
    # equidimensionality holds exactly for e=4: every class codim equals
    # the main-component codim there, and fails on an e=5 surface
    for cl in enumerate_classes(ToricSurface.from_pair(3, 5), 4):
        assert cl.codim == 10
    codims = {cl.codim for cl in enumerate_classes(ToricSurface.from_pair(5, 7), 3)}
    assert codims == {10, 11}


def test_criterion_3_codimension_identities():
    t0 = time.monotonic()
    try:
        _check_codimension_identities(FAMILY)
        dt = time.monotonic() - t0
        assert dt < 1.0, f"budget 1s exceeded: {dt:.1f}s"
    except BaseException:
        print("[FAIL] criterion 3: codimension formula identities")
        raise
    print(f"[PASS] criterion 3: deep-stratum codim s*e and slack identity hold "
          f"({dt:.1f}s)")


def test_criterion_4_witness_suite():
    t0 = time.monotonic()
    try:
        m = 16
        total = 0
        for surf in FAMILY:
            for (i, s, l) in valid_labels(surf, m):
                if s > 8 or l > 8:
                    continue
                v, inside = contact_vector(surf, i, s, l)
                assert inside, (surf.p, surf.q, i, s, l)
                arc = monomial_arc(surf, v, m)
                profile, over = contact_profile(arc, surf)  # raises on a non-member
                assert profile[i - 1] == s and profile[i] == l, (
                    surf.p, surf.q, i, s, l, profile)
                assert over
                total += 1
        dt = time.monotonic() - t0
        assert dt < 30.0, f"budget 30s exceeded: {dt:.1f}s"
    except BaseException:
        print("[FAIL] criterion 4: monomial arc witness suite")
        raise
    print(f"[PASS] criterion 4: {total} contact labels realized by member arcs "
          f"({dt:.1f}s)")


def test_criterion_5_oracle_hard_checks():
    t0 = time.monotonic()
    try:
        runs = _oracle_matrix()
        assert len(runs) == 41
        for surf, ch, m, profiles, propagation, strata, coverage in runs:
            key = (surf.p, surf.q, ch, m)
            assert propagation, key
            assert strata, key
            for st in strata:
                assert st.point_count >= 1, (key, st.label)
                assert st.all_orders_ge_s, (key, st.label)
            assert coverage.disjoint, key
        dt = time.monotonic() - t0
        assert dt < 300.0, f"budget 300s exceeded: {dt:.1f}s"
    except BaseException:
        print("[FAIL] criterion 5: exhaustive oracle hard checks")
        raise
    points = sum(sum(profiles.values()) for _, _, _, profiles, _, _, _ in runs)
    print(f"[PASS] criterion 5: propagation, non-emptiness, disjointness, and "
          f"minimum order hold over {points} fiber points in {len(runs)} runs "
          f"({dt:.1f}s)")


def test_criterion_6_oracle_count_prediction():
    try:
        runs = _oracle_matrix()
        checked = 0
        for surf, ch, m, profiles, propagation, strata, coverage in runs:
            for st in strata:
                assert st.point_count == st.predicted_count, (
                    surf.p, surf.q, ch, m, st.label, st.point_count,
                    st.predicted_count)
                checked += 1
        surf = ToricSurface.from_pair(2, 3)
        cfg = OracleConfig(3, 1)
        stats = coverage_spot_check(surf, cfg, oracle.fiber_profiles(surf, cfg)).strata
        by_label = {st.label: st.point_count for st in stats}
        assert by_label[(2, 1, 1)] == 36
    except BaseException:
        print("[FAIL] criterion 6: stratum counts vs dimension prediction")
        raise
    print(f"[PASS] criterion 6: all {checked} stratum counts equal "
          f"(p-1)^2 p^(dim-2), including 36 at (2,3) F3 m=1 (2,1,1)")


def test_criterion_7_grading_identity():
    t0 = time.monotonic()
    try:
        checked = 0
        for surf in FAMILY:
            count, graded = grading_check(surf)
            assert graded, (surf.p, surf.q)
            checked += count
        dt = time.monotonic() - t0
        assert dt < 5.0, f"budget 5s exceeded: {dt:.1f}s"
    except BaseException:
        print("[FAIL] criterion 7: generator grading identity")
        raise
    print(f"[PASS] criterion 7: {checked} generators are graded ({dt:.1f}s)")


def _check_dual_basis(family):
    """Criterion 8's comparison: the recursion against brute force."""
    for surf in family:
        assert dual_hilbert_basis(surf.cone) == dual_hilbert_basis_bruteforce(
            surf.cone), (surf.p, surf.q)


def test_criterion_8_dual_basis_oracle():
    t0 = time.monotonic()
    try:
        _check_dual_basis(FAMILY)
        dt = time.monotonic() - t0
        assert dt < 10.0, f"budget 10s exceeded: {dt:.1f}s"
    except BaseException:
        print("[FAIL] criterion 8: dual basis recursion vs brute force")
        raise
    print(f"[PASS] criterion 8: recursion equals brute-force minimal generators "
          f"on {len(FAMILY)} cones ({dt:.1f}s)")


# Mutation checks: each known-wrong variant is planted where its criterion
# reads it, and the criterion's comparison must fail.


def _codimension_slack_negated(surface, s, m):
    e = surface.e
    return s * e - (m - (2 * s - 1)) * (e - 2)


def _count_closed_form_branches_swapped(surface, m):
    smax = (m + 1) // 2
    big = [c for c in surface.entries if c != 2]
    if not big:
        return smax
    total = 0
    for s in range(1, smax + 1):
        for pos, c in enumerate(big):
            qc = m // c
            n = m - (2 * s - 2) if s <= qc else s * c - (2 * s - 1)
            total += n if pos == 0 else n - 1
    return total


def _enumerate_classes_glued_to_i_plus_2(surface, m):
    """Each (i, s, s) glued to (i+2, s, m_{i+2}^s) instead of index i+1."""
    classes = []
    for s in range(1, (m + 1) // 2 + 1):
        owner = {label: {label} for label in valid_labels(surface, m) if label[1] == s}
        for i in range(2, surface.e - 2):
            a = owner[(i, s, s)]
            b = owner[(i + 2, s, m_cap(surface, i + 2, s, m))]
            if a is not b:
                a |= b
                owner.update(dict.fromkeys(b, a))
        classes += {id(cl): tuple(sorted(cl)) for cl in owner.values()}.values()
    return classes


def _dual_hilbert_basis_coefficients_reversed(cone):
    """u_{k+1} = c u_k - u_{k-1} with c read from the mirrored position."""
    us = [(0, 1), (1, 0)]
    for c in reversed(hj_expand(cone).entries):
        a, b = us[-2], us[-1]
        us.append((c * b[0] - a[0], c * b[1] - a[1]))
    return DualBasis(tuple(us))


def test_criterion_3_catches_a_negated_slack_term(monkeypatch):
    _check_codimension_identities(coprime_family(12))
    monkeypatch.setitem(globals(), "codimension", _codimension_slack_negated)
    monkeypatch.setattr(components, "codimension", _codimension_slack_negated)
    with pytest.raises(AssertionError):
        _check_codimension_identities(coprime_family(12))


def test_criterion_1_catches_swapped_count_branches(monkeypatch):
    family = coprime_family(12)
    _check_count_formula(family)
    monkeypatch.setitem(globals(), "count_closed_form", _count_closed_form_branches_swapped)
    with pytest.raises(AssertionError):
        _check_count_formula(family)


def test_criterion_1_catches_a_gluing_to_i_plus_2(monkeypatch):
    family = coprime_family(12)
    _check_count_formula(family)
    monkeypatch.setitem(globals(), "enumerate_classes", _enumerate_classes_glued_to_i_plus_2)
    with pytest.raises(AssertionError):
        _check_count_formula(family)


def test_criterion_8_catches_a_wrong_recursion_coefficient(monkeypatch):
    family = coprime_family(12)
    _check_dual_basis(family)
    monkeypatch.setitem(
        globals(), "dual_hilbert_basis", _dual_hilbert_basis_coefficients_reversed)
    with pytest.raises(AssertionError):
        _check_dual_basis(family)
