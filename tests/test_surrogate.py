"""Gaussian RBF surrogates, trust regions, and model improvement."""

import numpy as np
import pytest

from moso_kit import _blas
from moso_kit.problem import latent_key
from moso_kit.surrogate import (
    IMPROVE_TRIES,
    RbfSurrogate,
    SurrogateError,
    TrustRegion,
    trust_region,
)


def fit_random(rng, n=25, dim=4, m=2):
    pts = rng.random((n, dim))
    vals = np.column_stack(
        [np.sin(pts @ np.linspace(1, 2, dim)) + pts[:, 0] ** 2,
         np.cos(pts).sum(axis=1)])[:, :m]
    return pts, vals, RbfSurrogate.fit(pts, vals)


def test_single_point_model_interpolates():
    z = np.array([[0.3, 0.7]])
    vals = np.array([[2.5, -1.0]])
    model = RbfSurrogate.fit(z, vals)
    assert np.allclose(model.evaluate(z[0]), vals[0], atol=1e-9)


def test_interpolation_at_centers():
    rng = np.random.default_rng(1)
    for trial in range(20):
        pts, vals, model = fit_random(rng)
        for p, v in zip(pts, vals):
            assert np.abs(model.evaluate(p) - v).max() <= 1e-6, f"trial {trial}"


def test_linear_data_midpoint_prediction():
    rng = np.random.default_rng(3)
    pts = rng.random((40, 3))
    w = np.array([1.0, -2.0, 0.5])
    vals = (pts @ w)[:, None]
    model = RbfSurrogate.fit(pts, vals)
    mid = np.full(3, 0.5)
    assert model.evaluate(mid)[0] == pytest.approx(float(mid @ w), abs=5e-2)


def test_far_from_data_decays_to_zero():
    rng = np.random.default_rng(4)
    pts, vals, model = fit_random(rng)
    far = np.full(4, 40.0)
    assert np.abs(model.evaluate(far)).max() <= 1e-8


def test_symmetric_two_center_cancellation():
    pts = np.array([[0.2, 0.5], [0.8, 0.5]])
    vals = np.array([[1.0], [-1.0]])
    model = RbfSurrogate.fit(pts, vals)
    mid = np.array([0.5, 0.5])
    assert model.evaluate(mid)[0] == pytest.approx(0.0, abs=1e-12)
    g = model.gradient(mid)
    assert abs(g[0, 1]) <= 1e-12  # gradient only along the center axis
    assert abs(g[0, 0]) > 0


def kernel_model(model):
    """``model`` with identity coefficients: its predictions are the kernel rows."""
    n = model.n_points
    return RbfSurrogate(model.centers, np.eye(n), model.eps, model.nugget, model._cho,
                        np.ones(n), np.eye(n))


@pytest.mark.parametrize("n, dim, m", [(200, 10, 3), (100, 13, 198), (1000, 10, 3)])
def test_evaluate_rows_matches_the_difference_form(n, dim, m):
    rng = np.random.default_rng(n + dim + m)
    pts = rng.random((n, dim))
    vals = np.sin(pts @ rng.uniform(-2.0, 2.0, (dim, m))) + rng.normal(0.0, 0.1, (n, m))
    model = RbfSurrogate.fit(pts, vals)
    rows = np.vstack([rng.random((40, dim)), pts[rng.choice(n, 10, replace=False)],
                      pts[:5] + 1e-9])
    diffs = rows[:, None, :] - pts[None, :, :]
    k_ref = np.exp(-(model.eps ** 2) * np.einsum("bij,bij->bi", diffs, diffs))

    k = kernel_model(model).evaluate_rows(rows)
    assert not np.isnan(k).any()
    assert (k >= 0.0).all() and (k <= 1.0).all()
    np.testing.assert_allclose(k, k_ref, rtol=1e-12, atol=1e-12)
    for b in range(40, 50):  # rows placed exactly on a center
        assert np.isclose(k[b], 1.0, rtol=0.0, atol=1e-12).sum() >= 1

    # The predictions agree up to the kernel's rounding times the
    # coefficients, which reach 1e4 at N = 1000.
    want = k_ref @ model.coef
    amplified = np.finfo(float).eps * np.abs(model.coef).sum(axis=0)
    assert (np.abs(model.evaluate_rows(rows) - want)
            <= 1e-12 + 1e-12 * np.abs(want) + amplified).all()


def test_evaluate_is_the_one_row_case_of_evaluate_rows():
    rng = np.random.default_rng(5)
    _, _, model = fit_random(rng)
    rows = rng.random((7, 4))
    for z in rows:
        np.testing.assert_array_equal(model.evaluate(z), model.evaluate_rows(z[None])[0])


def test_duplicate_centers_rejected():
    pts = np.array([[0.1, 0.1], [0.1, 0.1]])
    with pytest.raises(SurrogateError):
        RbfSurrogate.fit(pts, np.zeros((2, 1)))


def test_one_blas_thread_restores_the_thread_count():
    def threads():
        return _blas._get_threads() if _blas._get_threads else None

    before = threads()
    with _blas.one_thread():
        assert threads() in (None, 1)
    assert threads() == before
    # 150 centers: a size OpenBLAS would factor in parallel.
    pts, vals, model = fit_random(np.random.default_rng(3), n=150)
    assert threads() == before
    for p, v in zip(pts[:10], vals[:10]):
        np.testing.assert_allclose(model.evaluate(p), v, atol=1e-5)


def test_gradient_zero_for_single_center_model():
    model = RbfSurrogate.fit(np.array([[0.4, 0.6]]), np.array([[3.0]]))
    assert np.allclose(model.gradient(np.array([0.4, 0.6])), 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    pts, vals, model = fit_random(rng, n=30)
    h = 1e-6
    for _ in range(20):
        z = rng.random(4)
        g = model.gradient(z)
        fd = np.empty_like(g)
        for d in range(4):
            zp, zm = z.copy(), z.copy()
            zp[d] += h
            zm[d] -= h
            fd[:, d] = (model.evaluate(zp) - model.evaluate(zm)) / (2 * h)
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(g - fd).max() / denom <= 1e-4


def test_uncertainty_zero_at_data_and_prior_far_away():
    rng = np.random.default_rng(9)
    pts, vals, model = fit_random(rng)
    for p in pts:
        assert np.all(model.uncertainty(p) <= 1e-6)
    far = np.full(4, 30.0)
    assert np.allclose(model.uncertainty(far), vals.std(axis=0), rtol=1e-9)


def test_uncertainty_decreases_toward_nearest_center():
    rng = np.random.default_rng(10)
    pts, vals, model = fit_random(rng)
    target = pts[3]
    start = np.clip(target + 0.35, 0, 3)
    prev = np.inf
    for t in np.linspace(0, 1, 30):
        u = model.uncertainty(start + t * (target - start)).max()
        assert u <= prev + 1e-9
        prev = u


def test_refit_fixes_misprediction():
    rng = np.random.default_rng(12)
    pts = rng.random((15, 3))
    f = lambda z: np.array([np.sin(3 * z[..., 0]) + z[..., 1] ** 2])
    vals = np.vstack([f(p) for p in pts])
    model = RbfSurrogate.fit(pts, vals)
    probe = np.array([0.123, 0.456, 0.789])
    true_val = f(probe)
    assert np.abs(model.evaluate(probe) - true_val).max() > 1e-6
    refit = RbfSurrogate.fit(np.vstack([pts, probe]), np.vstack([vals, true_val]))
    assert np.abs(refit.evaluate(probe) - true_val).max() <= 1e-6


def test_trust_region_radius_ordering_example():
    center = np.zeros(2)
    pts = np.vstack([center,
                     [0.1, 0.0], [0.0, 0.2], [0.3, 0.0], [0.0, 0.4]])
    region = trust_region(center, pts, n_design=2)
    assert region.radius == pytest.approx(0.3)


def test_trust_region_ignores_coincident_points():
    center = np.zeros(2)
    pts = np.vstack([np.tile(center, (4, 1)), [[0.5, 0.0]]])
    region = trust_region(center, pts, n_design=0)
    assert region.radius == pytest.approx(0.5)


def test_trust_region_grid_matches_knn_oracle():
    # uniform grid: brute-force k-NN distance is the oracle
    xs = np.linspace(0, 1, 5)
    grid = np.array([[a, b] for a in xs for b in xs])
    center = grid[12]  # middle point (0.5, 0.5)
    n = 3
    d = np.sort(np.linalg.norm(grid - center, axis=1))
    d = d[d > 0]
    region = trust_region(center, grid, n_design=n)
    assert region.radius == pytest.approx(d[n])


def test_trust_region_fallback_when_few_points():
    region = trust_region(np.zeros(2), np.zeros((1, 2)), n_design=5)
    assert region.radius == 1.0


def test_trust_region_bounds_clip_to_cube():
    region = TrustRegion(center=np.array([0.05, 0.95]), radius=0.2)
    lo, hi = region.bounds()
    assert np.allclose(lo, [0.0, 0.75])
    assert np.allclose(hi, [0.25, 1.0])


def test_set_center_local_refit_stays_interpolating():
    rng = np.random.default_rng(14)
    pts = rng.random((60, 3))
    vals = (pts ** 2).sum(axis=1, keepdims=True)
    model = RbfSurrogate.fit(pts, vals)
    center = pts[0]
    region = trust_region(center, pts, n_design=3)
    local = model.set_center(region, local=True)
    assert 2 <= local.n_points < model.n_points
    assert np.abs(local.evaluate(center) - vals[0]).max() <= 1e-6


def test_set_center_global_or_whole_cube_reuses_model():
    pts = np.random.default_rng(18).random((20, 2))
    model = RbfSurrogate.fit(pts, pts[:, :1].copy())
    assert model.set_center(trust_region(pts[0], pts, n_design=2), local=False) is model
    assert model.set_center(TrustRegion(center=pts[0], radius=1.0)) is model


def unused(points):
    """Acceptance test that rejects the latent keys of ``points``."""
    taken = {latent_key(p) for p in points}
    return lambda z: z if latent_key(z) not in taken else None


def test_improve_explores_low_variance_direction():
    # data spans dimension 0 only; improvement should move along dim 1
    rng = np.random.default_rng(15)
    pts = np.column_stack([np.linspace(0.2, 0.8, 12), np.full(12, 0.5)])
    vals = pts[:, :1].copy()
    model = RbfSurrogate.fit(pts, vals)
    region = TrustRegion(center=np.array([0.5, 0.5]), radius=0.3)
    hits = 0
    for _ in range(1000):
        z = model.improve(region, pts, rng, unused(pts))
        if abs(z[1] - 0.5) > abs(z[0] - 0.5):
            hits += 1
    assert hits >= 900


def test_improve_one_dimensional_region():
    rng = np.random.default_rng(16)
    pts = np.array([[0.4], [0.6]])
    model = RbfSurrogate.fit(pts, pts.copy())
    region = TrustRegion(center=np.array([0.5]), radius=0.1)
    z = model.improve(region, pts, rng, unused(pts))
    assert 0.4 <= z[0] <= 0.6
    assert latent_key(z) not in {latent_key(p) for p in pts}


def test_improve_zero_radius_falls_back_to_cube_sample():
    rng = np.random.default_rng(17)
    pts = np.array([[0.5, 0.5]])
    model = RbfSurrogate.fit(pts, np.ones((1, 1)))
    region = TrustRegion(center=np.array([0.5, 0.5]), radius=0.0)
    z = model.improve(region, pts, rng, unused(pts))
    assert z.shape == (2,)
    assert (z >= 0).all() and (z <= 1).all()
    assert latent_key(z) != latent_key(pts[0])


def test_improve_returns_first_accepted_draw():
    pts = np.array([[0.4, 0.4], [0.6, 0.6], [0.4, 0.6]])
    model = RbfSurrogate.fit(pts, np.ones((3, 1)))
    region = TrustRegion(center=np.array([0.5, 0.5]), radius=0.2)
    seen = []

    def third(z):
        seen.append(z)
        return ("picked", z) if len(seen) == 3 else None

    tag, z = model.improve(region, pts, np.random.default_rng(19), third)
    assert tag == "picked" and z is seen[-1]
    assert len(seen) == 3


def test_improve_returns_none_when_every_draw_is_rejected():
    pts = np.array([[0.5, 0.5]])
    model = RbfSurrogate.fit(pts, np.ones((1, 1)))
    region = TrustRegion(center=np.array([0.5, 0.5]), radius=0.1)
    calls = []
    assert model.improve(region, pts, np.random.default_rng(20),
                         lambda z: calls.append(z)) is None
    assert len(calls) == 12 * IMPROVE_TRIES
