"""Filtered drifts, innovation processes and second-level regressions.

The filtered drift is the conditional expectation of the drift rate given
the observation history.  Models whose drift already reads only the
observation get it for free; the linear-Gaussian hidden model has an exact
Kalman filter; a single Gaussian factor has a conjugate closed form; the
uniform-seed head of the iterated-fractional-part model has a truncated
normal posterior.  Every built-in model has one of these exact filters.

The second-level machinery regresses filtered drift values on features of
the innovation history under ensemble weights.  Projecting on a feature
span instead of the full history can only lose conditional mass, so the
resulting entropy estimate is biased downward; callers treat it as a
conservative lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TimeGrid
from .errors import ConfigurationError, NumericalError, ShapeError, StabilityError, UsageError
from .models import DriftModel, EnsembleSimulation, IndependentDrift, KalmanBucy, Tsirelson

__all__ = [
    "EnsembleFilter",
    "BasisSpec",
    "FeatureBuilder",
    "riccati_sequence",
    "ensemble_conditional_drift",
    "innovation_values",
    "weighted_ridge_fit",
]


@dataclass(frozen=True)
class EnsembleFilter:
    """Stacked filtered drift for an ensemble: values shape (m, N)."""

    values: np.ndarray
    method: str


def riccati_sequence(beta: float, sigma: float, grid: TimeGrid,
                     p0: Optional[float] = None) -> np.ndarray:
    """Error variances P_0..P_N of the discrete filter recursion.

    P_{k+1} = P_k + (sigma^2 - 2 beta P_k - P_k^2) dt, started from the
    stationary value sigma^2 / (2 beta) unless p0 is given.  A negative
    iterate means the grid is too coarse for these parameters.
    """
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    if p0 is None:
        if beta <= 0:
            raise ConfigurationError("stationary prior undefined for beta <= 0; pass p0")
        p0 = sigma**2 / (2 * beta)
    dt = grid.dt
    P = np.empty(grid.steps + 1)
    P[0] = p0
    for k in range(grid.steps):
        P[k + 1] = P[k] + (sigma**2 - 2 * beta * P[k] - P[k] ** 2) * dt
        if P[k + 1] < 0:
            raise StabilityError(
                f"error variance went negative at step {k + 1}; refine the grid "
                f"(dt = {dt:g} is too coarse for beta = {beta:g}, sigma = {sigma:g})"
            )
    return P


def _kalman_values(dU: np.ndarray, beta: float, sigma: float, grid: TimeGrid,
                   p0: Optional[float] = None) -> np.ndarray:
    """Vectorized filter mean over stacked observation increments (m, N)."""
    P = riccati_sequence(beta, sigma, grid, p0)
    dt = grid.dt
    m, N = dU.shape
    xhat = np.zeros(m)
    out = np.empty((m, N))
    for k in range(N):
        out[:, k] = xhat
        xhat = xhat - beta * xhat * dt + P[k] * (dU[:, k] - xhat * dt)
    return out


def _independent_values(dU: np.ndarray, g_left: np.ndarray, dt: float) -> np.ndarray:
    """Posterior-mean drift for u' = theta g(t), theta ~ N(0,1): stacked (m, N).

    The running sums sum_{j<k} g_j dU_j are built in the output array
    itself, so the filter needs no (m, N) temporary next to the simulation.
    """
    out = np.zeros(dU.shape)
    num = out[:, 1:]
    np.multiply(g_left[:-1], dU[:, :-1], out=num)
    np.cumsum(num, axis=1, out=num)
    den = 1.0 + np.concatenate([[0.0], np.cumsum(g_left**2 * dt)])
    out /= den[:-1]
    out *= g_left
    return out


def _truncnorm_mean01(mu: np.ndarray, sigma: float) -> np.ndarray:
    """Mean of N(mu, sigma^2) truncated to [0, 1]."""
    # imported here: scipy.special is the largest part of importing the
    # package, and only the tsirelson filter needs it
    from scipy.special import ndtr

    a = (0.0 - mu) / sigma
    b = (1.0 - mu) / sigma
    phi = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    den = ndtr(b) - ndtr(a)
    safe = den > 1e-300
    mean = np.where(safe, mu + sigma * (phi(a) - phi(b)) / np.where(safe, den, 1.0),
                    np.clip(mu, 0.0, 1.0))
    return mean


def _tsirelson_values(model: Tsirelson, sim: EnsembleSimulation) -> np.ndarray:
    """Exact filtered drift: truncated-normal posterior mean on the seed
    segment, the drift itself afterwards (it is observation-adapted there)."""
    grid = sim.grid
    n0 = round(model.level_times()[0] * grid.steps)
    out = sim.drift.copy()
    out[:, 0] = 0.5
    for k in range(1, n0):
        t = k * grid.dt
        out[:, k] = _truncnorm_mean01(sim.U[:, k] / t, 1.0 / np.sqrt(t))
    return out


def ensemble_conditional_drift(model: DriftModel, sim: EnsembleSimulation) -> EnsembleFilter:
    """Filtered drift for a whole ensemble, via the model's exact filter."""
    if model.observation_adapted:
        return EnsembleFilter(sim.drift, "identity-feedback")
    if isinstance(model, KalmanBucy):
        vals = _kalman_values(sim.dU, model.beta, model.sigma, sim.grid, p0=model.x0_var)
        return EnsembleFilter(vals, "exact-kalman")
    if isinstance(model, IndependentDrift):
        g_left = model.g(sim.grid.left_times)
        return EnsembleFilter(_independent_values(sim.dU, g_left, sim.grid.dt), "exact-gaussian")
    if isinstance(model, Tsirelson):
        return EnsembleFilter(_tsirelson_values(model, sim), "exact-head")
    raise UsageError(f"no exact filter for model {model.name}")


def innovation_values(U: np.ndarray, uhat: np.ndarray, dt: float) -> np.ndarray:
    """Innovation paths Z = U - int uhat ds: U (m, N+1), uhat (m, N)."""
    m = U.shape[0]
    if U.ndim != 2 or uhat.shape != (m, U.shape[1] - 1):
        raise ShapeError(f"filtered drift {uhat.shape} does not fit observation {U.shape}")
    prim = np.concatenate([np.zeros((m, 1)), np.cumsum(uhat * dt, axis=1)], axis=1)
    return U - prim


@dataclass(frozen=True)
class BasisSpec:
    """Feature set for innovation-history regressions.

    Features at step k: an intercept, the last min(k, window) innovation
    increments, the current innovation level, optionally exponential moving
    averages of past increments at the given per-unit-time decay rates, and
    (optionally) squares and cubes of all of those.  `ridge` is the relative
    penalty on non-intercept coefficients.

    The default (window 8, level, squares) is deliberately lean: projecting
    on few features can only lower the entropy estimate.  The EMA rates are
    for oracle-agreement runs on linear models, whose filters have
    geometric kernels that a short window cannot span.
    """

    window: int = 8
    include_squares: bool = True
    include_cubes: bool = False
    ema_rates: tuple = ()
    ridge: float = 1e-8

    def describe(self) -> str:
        parts = [f"intercept+{self.window} increments+level"]
        if self.ema_rates:
            parts.append(f"ema{list(self.ema_rates)}")
        if self.include_squares:
            parts.append("squares")
        if self.include_cubes:
            parts.append("cubes")
        return ",".join(parts)


class FeatureBuilder:
    """Streaming feature matrices over an innovation ensemble.

    EMA features are accumulated recursively, so `features_at` must be
    called with nondecreasing step indices; going backwards resets the
    accumulators and replays (cheap for test-sized ensembles).
    """

    def __init__(self, Z: np.ndarray, dt: float, spec: BasisSpec):
        self.Z = Z
        self.dZ = np.diff(Z, axis=1)
        self.dt = dt
        self.spec = spec
        self._reset()

    def _reset(self):
        m = self.Z.shape[0]
        self._ema = [np.zeros(m) for _ in self.spec.ema_rates]
        self._next = 0

    def _advance_to(self, k: int):
        if k < self._next:
            self._reset()
        for j in range(self._next, k):
            for ema, rate in zip(self._ema, self.spec.ema_rates):
                lam = 1.0 - rate * self.dt
                ema *= lam
                ema += self.dZ[:, j]
        self._next = k

    def features_at(self, k: int) -> np.ndarray:
        spec = self.spec
        self._advance_to(k)
        m = self.Z.shape[0]
        w = min(k, spec.window)
        base = np.column_stack([self.dZ[:, k - w: k], self.Z[:, k], *self._ema])
        feats = [np.ones((m, 1)), base]
        if spec.include_squares:
            feats.append(base**2)
        if spec.include_cubes:
            feats.append(base**3)
        return np.concatenate(feats, axis=1)


def weighted_ridge_fit(F: np.ndarray, y: np.ndarray, weights: np.ndarray,
                       ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares with a relative ridge on non-intercept terms.

    Returns (coefficients, fitted values).  The intercept is unpenalized,
    which preserves the weighted mean of the response exactly.
    """
    w = weights / weights.sum()
    Fw = F * w[:, None]
    A = F.T @ Fw
    b = Fw.T @ y
    lam = ridge
    for _ in range(4):
        Areg = A.copy()
        diag = np.diag(A).copy()
        scale = np.where(diag > 0, diag, 1.0)
        Areg[np.arange(1, len(diag)), np.arange(1, len(diag))] += lam * scale[1:]
        try:
            coef = np.linalg.solve(Areg, b)
        except np.linalg.LinAlgError:
            lam *= 100.0
            continue
        if np.all(np.isfinite(coef)):
            return coef, F @ coef
        lam *= 100.0
    raise NumericalError("normal equations singular beyond ridge rescue")

