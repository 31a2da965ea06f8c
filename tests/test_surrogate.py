"""Gaussian RBF surrogates, trust regions, and model improvement."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from moso_kit import _blas, surrogate
from moso_kit.embedding import build_plan, pairwise_distances
from moso_kit.problem import DesignVariable, EvaluationDatabase, latent_key
from moso_kit.surrogate import (
    IMPROVE_TRIES,
    NUGGET_SCALE,
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


@pytest.mark.parametrize("points, values, message", [
    ([[0.1, 0.1], [0.2, 0.1]], np.zeros((3, 1)), "disagree on length"),
    (np.empty((0, 2)), np.empty((0, 1)), "empty data set"),
    ([[0.1, np.nan], [0.2, 0.1]], np.zeros((2, 1)), "must be finite"),
    ([[0.1, 0.1], [np.inf, 0.1]], np.zeros((2, 1)), "must be finite"),
    ([[0.1, 0.1], [0.2, 0.1]], [[0.0], [np.nan]], "must be finite"),
    ([[0.1, 0.1], [0.2, 0.1]], [[-np.inf, 1.0], [0.0, 1.0]], "must be finite"),
])
def test_fit_rejects_bad_data_at_once(points, values, message):
    with pytest.raises(SurrogateError, match=message):
        RbfSurrogate.fit(np.asarray(points), values)


def test_fit_rejects_distances_of_the_wrong_shape():
    pts = np.random.default_rng(2).random((4, 2))
    with pytest.raises(SurrogateError, match="distances of shape"):
        RbfSurrogate.fit(pts, np.zeros((4, 1)), cdist(pts[:3], pts[:3]))


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_a_shape_parameter_out_of_range_raises_at_the_first_prediction(scale):
    # Points this close (or far) square the shape parameter to inf (or
    # 0), which would put NaN into the kernel system.
    pts = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    model = RbfSurrogate.fit(pts, np.ones((3, 1)))
    with pytest.raises(SurrogateError, match="shape parameter"):
        model.evaluate(pts[0])


def eager_model(pts, vals):
    """The kernel system of ``fit``, solved at once and handed to the constructor."""
    d = cdist(pts, pts)
    eps = 1.0 / (np.sqrt(2.0) * (d.sum() / (len(pts) * (len(pts) - 1))))
    kernel = np.exp(-(eps ** 2) * d ** 2)
    nugget = NUGGET_SCALE * np.trace(kernel) / len(pts)
    with _blas.one_thread():
        cho = cho_factor(kernel + nugget * np.eye(len(pts)), lower=True)
        coef = cho_solve(cho, vals)
    return RbfSurrogate(pts, coef, eps, nugget, cho, vals.std(axis=0), vals)


@pytest.mark.blas_threads
@pytest.mark.parametrize("n, dim", [(1, 3), (2, 1), (40, 4), (400, 10)])
def test_kernel_system_built_in_place_matches_the_plain_expression(n, dim):
    # The build squares, scales, exponentiates and adds the nugget inside
    # the distance matrix and factors it in place; the factor must equal
    # the one of the plain expression to the last bit, on one BLAS thread.
    rng = np.random.default_rng(n)
    pts = rng.random((n, dim))
    model = RbfSurrogate.fit(pts, np.zeros((n, 1)))
    if n == 1:
        eps, dist2 = 1.0, np.zeros((1, 1))
    else:
        d = cdist(pts, pts)
        eps = 1.0 / (np.sqrt(2.0) * (d.sum() / (n * (n - 1))))
        dist2 = d ** 2
    kernel = np.exp(-(eps ** 2) * dist2)
    nugget = NUGGET_SCALE * np.trace(kernel) / n
    with _blas.one_thread():
        want, lower = cho_factor(kernel + nugget * np.eye(n), lower=True)
    (got, got_lower), got_eps, got_nugget = model._factor()
    assert got_lower == lower and got_eps == eps and got_nugget == nugget
    np.testing.assert_array_equal(got, want)


@pytest.mark.blas_threads
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13, 20])
def test_pairwise_distances_are_cdist_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    for n, k in [(2, 2), (9, 4), (150, 150), (333, 17)]:
        a, b = rng.random((k, dim)), rng.random((n, dim))
        np.testing.assert_array_equal(pairwise_distances(a, b), cdist(a, b))
        np.testing.assert_array_equal(pairwise_distances(b, b), cdist(b, b))
    # Coordinates of every magnitude, equal coordinates and -0.0.
    pts = rng.normal(size=(60, dim)) * 10.0 ** rng.integers(-150, 150, (60, 1))
    pts[::7, 0] = pts[1, 0]
    pts[::11, -1] = -0.0
    np.testing.assert_array_equal(pairwise_distances(pts, pts), cdist(pts, pts))
    assert pairwise_distances(np.empty((3, 0)), np.empty((2, 0))).tolist() == [[0.0] * 2] * 3


def point_database(dim):
    """An empty database whose records' latent points are their designs.

    Each variable is continuous on [0, 1], so it embeds as itself.
    """
    return EvaluationDatabase(build_plan(
        [DesignVariable(f"x{i}", "continuous", 0.0, 1.0) for i in range(dim)]))


def add_points(database, pts):
    for p in pts:
        database.add({f"x{i}": v for i, v in enumerate(p.tolist())}, [], [0.0], [], 0)
    return database


@pytest.mark.blas_threads
@pytest.mark.parametrize("dim", [1, 4, 13])
def test_kept_distances_are_cdist_across_growth_and_as_submatrices(dim):
    # The database keeps its latent distances and computes the rows of
    # the records added since the last call.
    rng = np.random.default_rng(40 + dim)
    pts = rng.random((300, dim))
    database, views, added = point_database(dim), [], 0
    # Past the doubling boundaries at 64, 128 and 256.
    for n in (10, 10, 64, 65, 72, 128, 200, 257, 300):
        add_points(database, pts[added:n])
        added = n
        view = database.latent_distances()
        np.testing.assert_array_equal(database.latent_matrix(), pts[:n])
        want = cdist(pts[:n], pts[:n])
        np.testing.assert_array_equal(view, want)
        assert not view.flags.writeable
        # The matrix has the capacity of the database's fields.
        assert view.base.shape == (len(database.latent_matrix().base),) * 2
        views.append((view, want))
        nearby = rng.random(n) < 0.4
        np.testing.assert_array_equal(view[np.ix_(nearby, nearby)],
                                      cdist(pts[:n][nearby], pts[:n][nearby]))
    for view, want in views:  # later calls leave earlier views as they were
        np.testing.assert_array_equal(view, want)
    assert point_database(dim).latent_distances().shape == (0, 0)


@pytest.mark.blas_threads
def test_models_on_kept_distances_match_models_that_compute_their_own():
    rng = np.random.default_rng(23)
    pts = rng.random((90, 3))
    vals = np.column_stack([np.sin(4.0 * pts).sum(axis=1), (pts ** 2).sum(axis=1)])
    kept = RbfSurrogate.fit(pts, vals, add_points(point_database(3), pts).latent_distances())
    own = RbfSurrogate.fit(pts, vals)
    region = trust_region(pts[5], pts, n_design=3)
    local_kept, local_own = kept.set_center(region), own.set_center(region)
    assert 2 <= local_kept.n_points < kept.n_points
    assert local_own._distances is None
    # A refit of a refit takes the submatrix of the kept matrix's rows too.
    inner = local_kept.set_center(trust_region(local_kept.centers[0], local_kept.centers, 1))
    inner_own = local_own.set_center(trust_region(local_own.centers[0], local_own.centers, 1))
    assert 2 <= inner.n_points < local_kept.n_points
    rows = rng.random((5, 3))
    for a, b in [(kept, own), (local_kept, local_own), (inner, inner_own)]:
        system, want = a._system()[0], b._system()[0]
        assert system.flags.c_contiguous
        np.testing.assert_array_equal(system, want)
        for call in predictions(rows).values():
            np.testing.assert_array_equal(call(a), call(b))
        assert a.eps == b.eps and a.nugget == b.nugget


@pytest.mark.blas_threads
def test_direct_lapack_calls_match_scipy_linalg():
    rng = np.random.default_rng(24)
    for n, m in [(1, 1), (7, 3), (150, 198)]:
        x = rng.random((n, 5))
        system = np.exp(-cdist(x, x) ** 2) + 1e-8 * np.eye(n)
        b = rng.random((n, m))
        with _blas.one_thread():
            c, lower = _blas.cho_factor(np.array(system.T, order="F"))
            want_c, want_lower = cho_factor(system, lower=True)
            got, want = _blas.cho_solve((c, lower), b), cho_solve((want_c, want_lower), b)
            got1, want1 = _blas.cho_solve((c, lower), b[:, 0]), cho_solve((want_c, True), b[:, 0])
        assert lower == want_lower
        np.testing.assert_array_equal(c, want_c)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got1, want1)
        assert got.flags.f_contiguous and got.shape == (n, m) and got1.shape == (n,)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        _blas.cho_factor(np.asfortranarray(np.diag([1.0, -1.0])))


@pytest.mark.blas_threads
def test_without_the_lapack_entry_points_models_use_scipy_linalg_to_the_same_bits(monkeypatch):
    if _blas._potrf is None:
        pytest.skip("scipy's bundled OpenBLAS is not found: scipy.linalg is the only path")
    rng = np.random.default_rng(25)
    pts = rng.random((120, 6))
    vals = np.sin(pts @ rng.uniform(-2.0, 2.0, (6, 4)))
    direct = RbfSurrogate.fit(pts, vals)
    rows = rng.random((5, 6))
    want = {name: call(direct) for name, call in predictions(rows).items()}
    (want_c, _), _, _ = direct._factor()

    monkeypatch.setattr(_blas, "_potrf", None)
    monkeypatch.setattr(_blas, "_potrs", None)
    fallback = RbfSurrogate.fit(pts, vals)
    (c, lower), _, _ = fallback._factor()
    assert lower is True
    np.testing.assert_array_equal(c, want_c)
    np.testing.assert_array_equal(fallback.coef, direct.coef)
    for name, call in predictions(rows).items():
        np.testing.assert_array_equal(call(fallback), want[name])


def test_the_outputs_spread_is_built_only_for_the_uncertainty():
    pts, vals, model = fit_random(np.random.default_rng(26), n=30)
    model.evaluate_rows(pts[:3])
    model.vjp_rows(pts[:3], np.ones((3, 2)))
    assert "out_std" not in vars(model) and "_cho" not in vars(model)
    model.uncertainty(pts[0] + 0.01)
    np.testing.assert_array_equal(model.out_std, vals.std(axis=0))


def predictions(rows):
    """Every prediction kind at ``rows``, by name."""
    return {
        "evaluate_rows": lambda m: m.evaluate_rows(rows),
        "gradient": lambda m: np.array([m.gradient(z) for z in rows]),
        "vjp_rows": lambda m: m.vjp_rows(rows, np.ones((len(rows), m.output_dim))),
        "uncertainty": lambda m: np.array([m.uncertainty(z) for z in rows]),
        "uncertainty_gradient": lambda m: np.array([m.uncertainty_gradient(z) for z in rows]),
    }


@pytest.mark.blas_threads
@pytest.mark.parametrize("first", list(predictions(None)))
def test_a_fitted_model_predicts_bitwise_as_one_built_at_once(first):
    rng = np.random.default_rng(21)
    pts, vals, model = fit_random(rng, n=40)
    assert "coef" not in vars(model)  # not built until the first prediction
    eager = eager_model(pts, vals)
    calls = predictions(rng.random((6, 4)))
    np.testing.assert_array_equal(calls[first](model), calls[first](eager))
    # The build keeps no Cholesky factor; the uncertainty factors again.
    assert ("_cho" in vars(model)) == first.startswith("uncertainty")
    for call in calls.values():
        np.testing.assert_array_equal(call(model), call(eager))
    assert model.eps == eager.eps and model.nugget == eager.nugget


@pytest.mark.blas_threads
@pytest.mark.parametrize("m", [1, 3, 198])
@pytest.mark.parametrize("built", ["fit", "constructor"])
def test_vjp_rows_is_the_weighted_jacobian(m, built):
    rng = np.random.default_rng(m)
    pts = rng.random((60, 5))
    vals = np.sin(pts @ rng.uniform(-2.0, 2.0, (5, m))) + rng.normal(0.0, 0.1, (60, m))
    model = RbfSurrogate.fit(pts, vals) if built == "fit" else eager_model(pts, vals)
    for n_rows in (1, 7):
        rows = rng.random((n_rows, 5))
        weights = rng.normal(size=(n_rows, m))
        want = np.einsum("bm,bml->bl", weights, np.array([model.gradient(z) for z in rows]))
        got = model.vjp_rows(rows, weights)
        assert got.shape == (n_rows, 5)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        np.testing.assert_array_equal(model.vjp_rows(rows, np.zeros((n_rows, m))), 0.0)


def test_a_singular_system_raises_at_the_first_prediction(monkeypatch):
    # Two centers 1e-9 apart share a kernel row to the last bit, and no
    # nugget separates them.
    monkeypatch.setattr(surrogate, "NUGGET_SCALE", 0.0)
    pts = np.array([[0.0, 0.0], [1e-9, 0.0], [1.0, 0.0]])
    model = RbfSurrogate.fit(pts, np.ones((3, 1)))
    # Localizing and improvement draws read only the data.
    region = TrustRegion(center=pts[2], radius=0.6)
    assert model.set_center(region).n_points == 3
    assert model.improve(region, pts, np.random.default_rng(22), unused(pts)) is not None
    assert "coef" not in vars(model)
    for predict in predictions(pts[:1]).values():
        with pytest.raises(SurrogateError, match="singular kernel system"):
            predict(model)


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
