import pytest

from toricjets import oracle
from toricjets import (
    ABOVE_M,
    GuardExceededError,
    InputRangeError,
    OracleConfig,
    ToricSurface,
    check_order_propagation,
    coverage_spot_check,
    enumerate_fiber,
    is_member,
    monomial_arc,
    prime_field,
    required_budget,
    stratum_counts,
)


def test_config_validation():
    OracleConfig(3, 2)
    with pytest.raises(InputRangeError):
        OracleConfig(4, 2)
    with pytest.raises(InputRangeError):
        OracleConfig(3, -1)
    with pytest.raises(InputRangeError):
        OracleConfig(3, 2, guard=0)


def test_required_budget():
    surf = ToricSurface.from_pair(2, 3)  # e = 4
    assert required_budget(surf, OracleConfig(3, 2)) == 3 ** 12
    assert required_budget(surf, OracleConfig(2, 1)) == 2 ** 8


def test_guard_rejection_carries_required_count():
    surf = ToricSurface.from_pair(2, 3)
    cfg = OracleConfig(3, 2, guard=100)
    with pytest.raises(GuardExceededError) as exc:
        enumerate_fiber(surf, cfg)
    assert exc.value.required == 3 ** 12
    assert "531441" in str(exc.value)
    assert "raise the guard" in str(exc.value)


def test_fiber_counts_frozen():
    cases = [
        (2, 3, 1, 3, 81),
        (2, 3, 1, 2, 16),
        (3, 5, 2, 2, 96),
        (2, 5, 2, 3, 1215),
    ]
    for p, q, m, ch, want in cases:
        surf = ToricSurface.from_pair(p, q)
        points = enumerate_fiber(surf, OracleConfig(ch, m))
        assert len(points) == want


def test_fiber_points_are_members_over_the_origin():
    surf = ToricSurface.from_pair(3, 5)
    for fp in enumerate_fiber(surf, OracleConfig(2, 2)):
        assert is_member(fp.jet, surf)
        for row in fp.jet.coords:
            assert row[0] == 0
        assert all(o is ABOVE_M or o >= 1 for o in fp.profile)


def test_fiber_at_level_zero_is_the_origin():
    surf = ToricSurface.from_pair(2, 3)
    points = enumerate_fiber(surf, OracleConfig(5, 0))
    assert len(points) == 1
    assert points[0].profile == (ABOVE_M,) * 4


def test_order_propagation_frozen():
    for (p, q) in [(2, 3), (3, 5), (2, 5)]:
        surf = ToricSurface.from_pair(p, q)
        assert check_order_propagation(surf, OracleConfig(2, 1), 1)
        assert check_order_propagation(surf, OracleConfig(2, 3), 2)
        assert check_order_propagation(surf, OracleConfig(3, 1), 1)
    with pytest.raises(InputRangeError):
        check_order_propagation(ToricSurface.from_pair(2, 3), OracleConfig(2, 2), 1)


def test_stratum_counts_frozen_2_3():
    surf = ToricSurface.from_pair(2, 3)
    stats = stratum_counts(surf, OracleConfig(3, 1))
    assert [(st.label, st.point_count, st.predicted_count) for st in stats] == [
        ((2, 1, 1), 36, 36),
        ((3, 1, 1), 36, 36),
    ]
    assert all(st.all_orders_ge_s and st.min_order_is_s for st in stats)


def test_stratum_counts_frozen_3_5():
    surf = ToricSurface.from_pair(3, 5)
    stats = stratum_counts(surf, OracleConfig(2, 2))
    assert [(st.label, st.point_count, st.predicted_count) for st in stats] == [
        ((2, 1, 1), 16, 16),
        ((3, 1, 1), 16, 16),
        ((3, 1, 2), 16, 16),
    ]


def test_stratum_counts_reuse_points():
    surf = ToricSurface.from_pair(3, 5)
    cfg = OracleConfig(2, 2)
    points = enumerate_fiber(surf, cfg)
    direct = stratum_counts(surf, cfg)
    reused = stratum_counts(surf, cfg, points=points)
    assert direct == reused


def test_coverage_frozen():
    surf = ToricSurface.from_pair(3, 5)
    cov = coverage_spot_check(surf, OracleConfig(2, 2))
    assert cov.total_points == 96
    # strata of the identified labels (2,1,1) and (3,1,2) share 8 points,
    # so the union is 40, not 48
    assert cov.stratum_points == 40
    assert cov.closure_points == 56
    assert cov.impossible_profiles == ()
    assert cov.disjoint
    assert cov.per_label == (((2, 1, 1), 16), ((3, 1, 1), 16), ((3, 1, 2), 16))


def test_coverage_counts_every_point_once():
    surf = ToricSurface.from_pair(2, 5)
    cfg = OracleConfig(3, 2)
    cov = coverage_spot_check(surf, cfg)
    assert cov.stratum_points + cov.closure_points == cov.total_points == 1215
    assert not cov.impossible_profiles


def test_monomial_arcs_appear_in_the_fiber():
    surf = ToricSurface.from_pair(2, 5)
    cfg = OracleConfig(2, 2)
    fiber_coords = {fp.jet.coords for fp in enumerate_fiber(surf, cfg)}
    arc = monomial_arc(surf, (1, 1), 2, field=prime_field(2))
    assert arc.coords in fiber_coords


def test_parallel_matches_sequential():
    surf = ToricSurface.from_pair(3, 5)
    cfg = OracleConfig(2, 2)
    seq = enumerate_fiber(surf, cfg, jobs=1)
    par = enumerate_fiber(surf, cfg, jobs=2)
    assert [fp.jet.coords for fp in seq] == [fp.jet.coords for fp in par]
    assert [fp.profile for fp in seq] == [fp.profile for fp in par]
    assert check_order_propagation(surf, OracleConfig(2, 3), 2, jobs=2)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap in a fake pool that records its size and maps in-process: no
    worker starts.  Yields the list of recorded sizes."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", FakePool)
    yield sizes


def test_jobs_are_clamped_to_the_cpu_count(monkeypatch, pool_sizes):
    surf = ToricSurface.from_pair(3, 5)
    cfg = OracleConfig(2, 2)
    seq = [fp.jet.coords for fp in enumerate_fiber(surf, cfg)]
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    assert [fp.jet.coords for fp in enumerate_fiber(surf, cfg, jobs=64)] == seq
    assert pool_sizes == [3]
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)  # unknown: one worker
    assert [fp.jet.coords for fp in enumerate_fiber(surf, cfg, jobs=64)] == seq
    assert pool_sizes == [3]


def test_jobs_are_clamped_to_the_chunk_count(monkeypatch, pool_sizes):
    # (2,3) at F_2, m = 1 over the origin has 4 free digits: at most 2^4 chunks
    surf = ToricSurface.from_pair(2, 3)
    cfg = OracleConfig(2, 1)
    seq = [fp.jet.coords for fp in enumerate_fiber(surf, cfg)]
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    assert [fp.jet.coords for fp in enumerate_fiber(surf, cfg, jobs=64)] == seq
    assert pool_sizes == [16]
    assert [fp.jet.coords for fp in enumerate_fiber(surf, cfg, jobs=5)] == seq
    assert pool_sizes == [16, 5]
