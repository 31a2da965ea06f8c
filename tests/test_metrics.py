"""Dominance filtering and hypervolume metrics."""

import numpy as np
import pytest

from moso_kit.metrics import (
    ParetoArchive,
    hypervolume,
    nondominated_filter,
    pct_hv_improvement,
)

from helpers import brute_force_nondominated


def two_point_hv_oracle(a, b, ref):
    """Inclusion-exclusion over two boxes, valid for any overlap."""
    a, b, ref = np.asarray(a), np.asarray(b), np.asarray(ref)
    va = np.prod(np.maximum(ref - a, 0))
    vb = np.prod(np.maximum(ref - b, 0))
    vab = np.prod(np.maximum(ref - np.maximum(a, b), 0))
    return va + vb - vab


def test_filter_simple_front():
    pts = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
    assert nondominated_filter(pts).tolist() == [0, 1]


def test_filter_single_point():
    assert nondominated_filter(np.array([[3.0, 4.0]])).tolist() == [0]


def test_filter_keeps_first_duplicate_only():
    pts = np.array([[1.0, 1.0], [2.0, 0.5], [1.0, 1.0]])
    assert nondominated_filter(pts).tolist() == [0, 1]
    # -0.0 <= 0.0 and 0.0 <= -0.0, so the second vector repeats the first.
    assert nondominated_filter(np.array([[0.0, 1.0], [-0.0, 1.0]])).tolist() == [0]


def test_filter_matches_brute_force_randomized():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        n = int(rng.integers(1, 40))
        o = int(rng.integers(1, 5))
        pts = rng.integers(0, 6, size=(n, o)).astype(float)  # ties likely
        got = nondominated_filter(pts).tolist()
        want = brute_force_nondominated(pts)
        assert got == want, f"trial {trial}"
    for trial in range(40):
        # Archive-sized continuous fronts with injected exact duplicates.
        n = int(rng.integers(1, 301))
        o = int(rng.integers(1, 6))
        pts = rng.uniform(0.0, 1.0, size=(n, o))
        pts[rng.integers(0, n, n // 5)] = pts[rng.integers(0, n, n // 5)]
        got = nondominated_filter(pts).tolist()
        want = brute_force_nondominated(pts)
        assert got == want, f"continuous trial {trial}"


def test_hv_single_point_box_volume():
    hv = hypervolume(np.array([[0.5, 0.5, 0.5]]), np.array([1.0, 1.0, 1.0]))
    assert hv == pytest.approx(0.125, abs=1e-12)


def test_hv_two_point_front():
    pts = np.array([[0.2, 0.8], [0.8, 0.2]])
    ref = np.array([1.0, 1.0])
    assert hypervolume(pts, ref) == pytest.approx(0.28, abs=1e-12)
    assert hypervolume(pts, ref) == pytest.approx(two_point_hv_oracle(*pts, ref))


def test_hv_one_objective():
    assert hypervolume(np.array([[0.3], [0.7]]), np.array([2.0])) == pytest.approx(1.7)


def test_hv_points_beyond_ref_are_dropped(caplog):
    pts = np.array([[0.5, 0.5], [2.0, 0.1]])
    with caplog.at_level("WARNING"):
        hv = hypervolume(pts, np.array([1.0, 1.0]))
    assert hv == pytest.approx(0.25)
    assert any("dropped" in r.message for r in caplog.records)


def test_hv_empty_front_is_zero():
    assert hypervolume(np.empty((0, 3)), np.array([1.0, 1.0, 1.0])) == 0.0


def test_hv_two_point_inclusion_exclusion_randomized():
    rng = np.random.default_rng(99)
    for o in (2, 3, 4):
        for _ in range(200):
            pts = rng.random((2, o))
            ref = np.ones(o)
            want = two_point_hv_oracle(pts[0], pts[1], ref)
            assert hypervolume(pts, ref) == pytest.approx(want, abs=1e-12)


def test_hv_monotone_under_added_points():
    rng = np.random.default_rng(5)
    ref = np.ones(3)
    pts = rng.random((30, 3))
    hv_prev = 0.0
    for n in range(1, 31):
        hv = hypervolume(pts[:n], ref)
        assert hv >= hv_prev - 1e-12
        hv_prev = hv


def test_hv_invariant_to_dominated_points():
    rng = np.random.default_rng(6)
    ref = np.ones(3)
    pts = rng.random((25, 3))
    keep = nondominated_filter(pts)
    assert hypervolume(pts, ref) == pytest.approx(hypervolume(pts[keep], ref), abs=1e-12)


def test_hv_sweep_within_3_sigma_of_monte_carlo():
    from moso_kit.metrics import _hv_monte_carlo

    rng = np.random.default_rng(11)
    for o in (2, 3, 4):
        pts = rng.random((15, o))
        ref = np.ones(o)
        exact = hypervolume(pts, ref)
        keep = nondominated_filter(pts)
        n = 1_000_000
        mc = _hv_monte_carlo(pts[keep], ref, seed=3, n_samples=n)
        box = np.prod(ref - pts.min(axis=0))
        p = exact / box
        sigma = box * np.sqrt(p * (1 - p) / n)
        assert abs(mc - exact) <= 3 * sigma


def test_hv_many_objectives_uses_seeded_monte_carlo():
    pts = np.array([[0.5] * 5])
    ref = np.ones(5)
    a = hypervolume(pts, ref, mc_seed=0)
    b = hypervolume(pts, ref, mc_seed=0)
    assert a == b  # deterministic under a fixed seed
    assert a == pytest.approx(0.5 ** 5, rel=0.02)


def test_dense_sphere_front_hv_near_analytic_volume():
    # Octant of the unit sphere; dominated volume of the exact front is
    # the cube minus the eighth-ball: 1 - pi/6.
    n = 3000
    i = np.arange(n)
    # Fibonacci-style spread over the octant in angle space
    u = (i + 0.5) / n
    v = (i * 0.6180339887498949) % 1.0
    theta = u * (np.pi / 2)
    phi = v * (np.pi / 2)
    pts = np.column_stack([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ])
    hv = hypervolume(pts, np.array([1.0, 1.0, 1.0]))
    # A finite sample dominates strictly less volume than the continuum
    # front, so hv converges to the analytic value from below; at n=3000
    # the boundary sliver left uncovered is a bit over 0.01 thick.
    assert hv <= 1 - np.pi / 6 + 1e-12
    assert hv == pytest.approx(1 - np.pi / 6, abs=2.5e-2)


def test_pct_improvement_modes():
    assert pct_hv_improvement(0.3, 0.2, mode="relative_to_initial") == pytest.approx(50.0)
    assert pct_hv_improvement(0.2, 0.2, mode="relative_to_initial") == 0.0
    assert pct_hv_improvement(0.2, 0.2, mode="relative_to_gap", hv_max=0.5) == 0.0
    assert pct_hv_improvement(0.5, 0.2, mode="relative_to_gap", hv_max=0.5) == pytest.approx(100.0)


def test_pct_improvement_degenerate_baselines():
    with pytest.raises(ValueError):
        pct_hv_improvement(0.3, 0.0, mode="relative_to_initial")
    with pytest.raises(ValueError):
        pct_hv_improvement(0.3, 0.2, mode="relative_to_gap", hv_max=0.2)
    with pytest.raises(ValueError):
        pct_hv_improvement(0.3, 0.2, mode="relative_to_gap")


class Rec:
    def __init__(self, f, feasible, design=None):
        self.design = design or {"x": 0.0}
        self.objectives = np.asarray(f, dtype=float)
        self.feasible = feasible


def test_archive_from_records_filters_infeasible_and_dominated():
    records = [Rec([1, 2], True), Rec([0, 0], False), Rec([2, 1], True), Rec([3, 3], True)]
    archive = ParetoArchive.from_records(records)
    assert len(archive) == 2
    assert archive.objectives.tolist() == [[1, 2], [2, 1]]


def test_archive_update_in_chunks_matches_from_records_on_every_prefix():
    rng = np.random.default_rng(31)
    for trial in range(60):
        o = int(rng.integers(2, 4))
        records = []
        for i in range(int(rng.integers(1, 80))):
            if records and rng.random() < 0.2:  # an exact repeat of an earlier vector
                f = records[int(rng.integers(len(records)))].objectives
            else:
                f = rng.integers(0, 8, size=o).astype(float)
            records.append(Rec(f, bool(rng.random() < 0.8), {"i": i}))
        archive, n = ParetoArchive(), 0
        while n < len(records):
            n = min(len(records), n + int(rng.integers(1, 12)))
            archive.update(records[:n])
            want = ParetoArchive.from_records(records[:n])
            assert archive.seen == want.seen == n
            assert archive.designs == want.designs, f"trial {trial}, prefix {n}"
            assert np.array_equal(archive.objectives, want.objectives)
            feasible = [r for r in records[:n] if r.feasible]
            if feasible:
                keep = brute_force_nondominated(np.vstack([r.objectives for r in feasible]))
                assert want.designs == [feasible[j].design for j in keep]
            else:
                assert len(want) == 0
