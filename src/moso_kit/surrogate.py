"""Gaussian radial basis function surrogates over the latent cube.

One model per simulation: shared kernel matrix, one coefficient column
per output.  The kernel is phi(r) = exp(-(eps*r)**2) with the shape
parameter tied to the data spacing, plus a small trace-scaled nugget so
the system stays positive definite.  ``fit`` checks and keeps the data;
the kernel system (shape parameter, nugget, coefficients and the cached
expansion terms below) is built at the model's first prediction,
Jacobian or uncertainty and kept from then on, so a model that is only
localized or asked for improvement points never factors its kernel.
The build does not keep the Cholesky factor: only the uncertainty reads
it, and factors the system again at its first call.  A model does not
change after its build; trust-region localization returns a new model
fitted on nearby data.

Predictions take a block of latent rows at once (``evaluate_rows``) and
expand the kernel exponent as ``-eps**2 * (|z|**2 - 2 z.c + |c|**2)``
with the center norms cached at the build: one matrix product, one ``exp``
and one product with the coefficients per block.  The exponent is
clipped at zero, where cancellation near a center could make it
positive.  This is the one kernel formula (``_kernel_rows``):
``evaluate`` is its one-row case, and the Jacobian and the uncertainty
take their kernel values from it at one point, with the differences
``z - c`` only for the derivative.  The inner solve needs only
vector-Jacobian products, and ``vjp_rows`` gives them at a block of
rows without forming any Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from ._blas import one_thread
from .problem import MosoError

NUGGET_SCALE = 1e-8
IMPROVE_TRIES = 100


class SurrogateError(MosoError):
    """Fitting or evaluation failed."""


@dataclass(frozen=True)
class TrustRegion:
    """A max-norm box around a latent center, clipped to the unit cube."""

    center: np.ndarray
    radius: float

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.clip(self.center - self.radius, 0.0, 1.0)
        hi = np.clip(self.center + self.radius, 0.0, 1.0)
        return lo, hi


def trust_region(center: np.ndarray, points: np.ndarray, n_design: int) -> TrustRegion:
    """Region radius = latent distance to the (n_design+1)-th nearest neighbor.

    The center's own entry (distance zero) does not count as a neighbor.
    With fewer than n_design+1 neighbors the region falls back to the
    whole cube (radius 1).
    """
    center = np.asarray(center, dtype=float)
    d = np.linalg.norm(points - center, axis=1)
    d = np.sort(d[d > 0.0])
    if len(d) < n_design + 1:
        return TrustRegion(center=center, radius=1.0)
    return TrustRegion(center=center, radius=float(d[n_design]))


#: The kernel system: what ``RbfSurrogate._build`` sets on a model from
#: ``fit``, and the Cholesky factor, which only the uncertainty reads.
_SYSTEM = frozenset({"coef", "eps", "nugget", "_cho", "out_std", "_e2", "_scaled_t",
                     "_scaled_sq"})


class RbfSurrogate:
    """Interpolating Gaussian RBF model for one vector-valued simulation."""

    def __init__(self, centers, coef, eps, nugget, cho, out_std, values):
        self.centers = centers          # (N, latent_dim)
        self.values = values            # (N, m), kept for refits
        self._cho = cho
        self._set_system(coef, eps, nugget, out_std)

    def _set_system(self, coef, eps, nugget, out_std):
        self.coef = coef                # (N, m)
        self.eps = eps
        self.nugget = nugget
        self.out_std = out_std          # (m,)
        # The kernel exponent -eps**2 * |z - c|**2 is expanded as
        # z . (2 eps**2 c) - eps**2 |c|**2 - eps**2 |z|**2.
        e2 = eps ** 2
        self._e2 = e2
        self._scaled_t = np.ascontiguousarray((2.0 * e2) * self.centers.T)        # (l, N)
        self._scaled_sq = e2 * np.einsum("ij,ij->i", self.centers, self.centers)  # (N,)

    def __getattr__(self, name):
        # Reached only for an attribute that is not set: a model from
        # ``fit`` builds its kernel system at the first read of any part.
        # The build does not keep the Cholesky factor, which only the
        # uncertainty reads: an iteration keeps every refit of its slots
        # alive, and the factor would add N**2 floats to each.
        if name not in _SYSTEM:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name == "_cho":
            self._cho = self._factor()[0]
        else:
            self._build()
        return self.__dict__[name]

    @property
    def n_points(self) -> int:
        return len(self.centers)

    @property
    def output_dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def fit(cls, points, values) -> "RbfSurrogate":
        """A model of latent points (N, l) and outputs (N, m).

        The data is checked and kept here; the kernel system is built at
        the model's first prediction (``_build``) and kept from then on.
        """
        pts = np.asarray(points, dtype=float)
        val = np.asarray(values, dtype=float)
        if val.ndim == 1:
            val = val[:, None]
        if pts.ndim != 2 or len(pts) != len(val):
            raise SurrogateError("points and values disagree on length")
        if len(pts) == 0:
            raise SurrogateError("cannot fit to an empty data set")
        if len({p.tobytes() for p in pts}) != len(pts):
            raise SurrogateError("duplicate centers")
        model = cls.__new__(cls)
        model.centers, model.values = pts, val
        return model

    def _system(self):
        """The data's kernel system ``K + nugget I``, its shape parameter and its nugget.

        The shape parameter is 1/(sqrt(2) * mean pairwise distance);
        the nugget is ``NUGGET_SCALE * trace(K)/N``.  The pairwise mean
        tracks the overall extent of the data, so the kernel keeps a
        useful lengthscale even after an optimizer has clustered many
        evaluations into small neighborhoods (a nearest-neighbor
        statistic collapses there, degrading the model into a lookup
        table of the data with spurious zeros between clusters).  The
        system is assembled inside the distance matrix, so the build
        holds one N x N array.
        """
        pts = self.centers
        n = len(pts)
        system = cdist(pts, pts)
        eps = 1.0
        if n > 1:
            mean_pair = system.sum() / (n * (n - 1))
            if mean_pair > 0:
                eps = 1.0 / (np.sqrt(2.0) * mean_pair)
        np.square(system, out=system)
        system *= -(eps ** 2)
        np.exp(system, out=system)
        nugget = NUGGET_SCALE * np.trace(system) / n
        system.flat[::n + 1] += nugget
        return system, eps, nugget

    def _factor(self):
        """The Cholesky factor, shape parameter and nugget of the data's kernel system.

        The system is factored in place through its transpose, the
        Fortran-ordered view LAPACK works on: ``cdist`` computes each
        pair's distance the same way in both orders, so the transpose is
        the same system to the last bit.
        """
        system, eps, nugget = self._system()
        try:
            with one_thread():
                cho = cho_factor(system.T, lower=True, overwrite_a=True)
        except np.linalg.LinAlgError as err:
            raise SurrogateError(
                f"singular kernel system (cond ~ {np.linalg.cond(self._system()[0]):.3g})"
            ) from err
        return cho, eps, nugget

    def _build(self) -> None:
        """Solve the kernel system of the data ``fit`` kept."""
        cho, eps, nugget = self._factor()
        with one_thread():
            coef = cho_solve(cho, self.values)
        self._set_system(coef, eps, nugget, self.values.std(axis=0))

    def _kvec(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kernel values (N,) at one latent point, and its differences ``z - c`` (N, l)."""
        z = np.asarray(z, dtype=float)
        return self._kernel_rows(z[None])[0], z - self.centers

    def _kernel_rows(self, z: np.ndarray) -> np.ndarray:
        """Kernel values (B, N) at the rows of ``z``: the one kernel formula."""
        arg = z @ self._scaled_t
        arg -= self._scaled_sq
        arg -= self._e2 * np.vecdot(z, z)[:, None]
        np.minimum(arg, 0.0, out=arg)
        return np.exp(arg, out=arg)

    def evaluate_rows(self, points: np.ndarray) -> np.ndarray:
        """Predicted outputs (B, m) at the latent rows of ``points`` (B, l)."""
        return self._kernel_rows(np.asarray(points, dtype=float)) @ self.coef

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Predicted outputs at a latent point."""
        return self.evaluate_rows(np.asarray(z, dtype=float)[None])[0]

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """Jacobian (output_dim, latent_dim) of the prediction."""
        k, diffs = self._kvec(z)
        return self.coef.T @ ((-2.0 * self.eps ** 2) * (k[:, None] * diffs))

    def vjp_rows(self, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``weights[b] @ gradient(points[b])`` for every row: (B, latent_dim).

        ``weights`` (B, output_dim) are contracted with the coefficients
        before the kernel derivative, so no Jacobian is formed: with
        ``a = k * (weights @ coef.T)`` the product is
        ``-2 eps**2 * (sum(a) z - a @ centers)``.
        """
        z = np.asarray(points, dtype=float)
        a = self._kernel_rows(z)
        a *= np.asarray(weights, dtype=float) @ self.coef.T
        return (-2.0 * self._e2) * (a.sum(axis=1)[:, None] * z - a @ self.centers)

    def uncertainty(self, z: np.ndarray) -> np.ndarray:
        """Per-output model uncertainty at a latent point.

        The kernel power function 1 - k(z)' (K + nugget I)^-1 k(z),
        clipped at zero and scaled by each output's data spread: zero at
        the centers, approaching the data spread far from all of them.
        """
        k, _ = self._kvec(z)
        power = max(0.0, 1.0 - float(k @ cho_solve(self._cho, k)))
        return power * self.out_std

    def uncertainty_gradient(self, z: np.ndarray) -> np.ndarray:
        """Jacobian (output_dim, latent_dim) of ``uncertainty``."""
        k, diffs = self._kvec(z)
        power = 1.0 - float(k @ cho_solve(self._cho, k))
        if power <= 0.0:
            return np.zeros((self.output_dim, len(z)))
        dk = (-2.0 * self.eps ** 2) * (k[:, None] * diffs)
        dpower = -2.0 * (dk.T @ cho_solve(self._cho, k))
        return self.out_std[:, None] * dpower[None, :]

    def set_center(self, region: TrustRegion, local: bool = True) -> "RbfSurrogate":
        """The model to use inside ``region``.

        When ``local`` the model is refitted on its own data within twice
        the region radius of the center (its shape parameter recalibrates
        to the local spacing); otherwise, or when the region is the whole
        cube or holds fewer than two centers, self is reused.
        """
        if not local or region.radius >= 1.0:
            return self
        nearby = np.linalg.norm(self.centers - region.center, axis=1) <= 2.0 * region.radius
        if nearby.sum() < 2:
            return self
        return RbfSurrogate.fit(self.centers[nearby], self.values[nearby])

    def improve(self, region: TrustRegion, points, rng: np.random.Generator,
                accept: Callable[[np.ndarray], Any]) -> Any:
        """First accepted latent point that refines the model inside the region.

        Draws are displaced from the region center along the principal
        axes of the data ``points`` inside the region, with magnitudes
        inversely proportional to the data variance, so poorly covered
        directions are favored.  After IMPROVE_TRIES such draws come
        IMPROVE_TRIES uniform draws in the region, then 10 * IMPROVE_TRIES
        in the whole cube.  Returns ``accept(z)`` for the first draw ``z``
        where it is not None, or None when every draw is rejected.

        Reads no model state: ``MoopSolver.iterate`` calls it as
        ``RbfSurrogate.improve(None, ...)``, so a problem with no
        simulations, hence no model, gets improvement points too.  It
        stays a method so that ``perfbench/recorder.py`` can time it.
        """
        pts = np.asarray(points, dtype=float)
        dim = len(region.center)
        lo, hi = region.bounds()

        inside = np.abs(pts - region.center).max(axis=1) <= region.radius
        local = pts[inside] if inside.sum() >= dim + 1 else pts
        if len(local) >= 2:
            evals, evecs = np.linalg.eigh(np.cov(local.T).reshape(dim, dim))
            evals = np.maximum(evals, 0.0)
        else:
            evals, evecs = np.ones(dim), np.eye(dim)
        sigma = 1.0 / (evals + 1e-8)
        sigma /= sigma.max()

        def draws():
            for _ in range(IMPROVE_TRIES):
                g = rng.standard_normal(dim) * sigma
                yield np.clip(region.center + region.radius * (evecs @ g), lo, hi)
            for _ in range(IMPROVE_TRIES):
                yield lo + rng.random(dim) * (hi - lo)
            for _ in range(10 * IMPROVE_TRIES):
                yield rng.random(dim)

        for z in draws():
            found = accept(z)
            if found is not None:
                return found
        return None
