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
from scipy.special import ndtr

from .core import AdaptedSamples, Path, TimeGrid
from .errors import (
    ConfigurationError,
    DegeneracyError,
    NumericalError,
    ShapeError,
    StabilityError,
    UsageError,
)
from .models import DriftModel, EnsembleSimulation, IndependentDrift, KalmanBucy, Tsirelson

__all__ = [
    "FilterEstimate",
    "EnsembleFilter",
    "BasisSpec",
    "FeatureBuilder",
    "SecondLevelFit",
    "riccati_sequence",
    "kalman_bucy_filter",
    "identity_feedback",
    "ensemble_conditional_drift",
    "innovation",
    "innovation_values",
    "step_features",
    "weighted_ridge_fit",
    "second_level_conditional",
]


@dataclass(frozen=True)
class FilterEstimate:
    """Estimated conditional drift for one path.

    values row k depends only on the observation up to t_k.
    """

    values: AdaptedSamples
    method: str


@dataclass(frozen=True)
class EnsembleFilter:
    """Stacked filtered drift for an ensemble: values shape (m, N, d)."""

    grid: TimeGrid
    values: np.ndarray
    method: str

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def path(self, i: int) -> FilterEstimate:
        return FilterEstimate(AdaptedSamples(self.grid, self.values[i]), self.method)


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


def kalman_bucy_filter(U: Path, beta: float, sigma: float,
                       p0: Optional[float] = None) -> FilterEstimate:
    """Exact conditional drift for the hidden Ornstein-Uhlenbeck model.

    Valid when U was generated by the kalman-bucy family with matching
    parameters (the caller's responsibility).
    """
    if beta < 0:
        raise ConfigurationError(f"beta must be >= 0, got {beta}")
    if U.dimension != 1:
        raise ShapeError("kalman_bucy_filter handles one-dimensional observations")
    vals = _kalman_values(U.increments()[:, 0][None, :], beta, sigma, U.grid, p0)
    return FilterEstimate(AdaptedSamples(U.grid, vals[0]), "exact-kalman")


def _independent_values(dU: np.ndarray, g_left: np.ndarray, dt: float) -> np.ndarray:
    """Posterior-mean drift for u' = theta g(t), theta ~ N(0,1): stacked (m, N)."""
    num = np.concatenate([np.zeros((dU.shape[0], 1)), np.cumsum(g_left * dU, axis=1)], axis=1)
    den = 1.0 + np.concatenate([[0.0], np.cumsum(g_left**2 * dt)])
    theta_hat = num[:, :-1] / den[:-1]
    return theta_hat * g_left


def _truncnorm_mean01(mu: np.ndarray, sigma: float) -> np.ndarray:
    """Mean of N(mu, sigma^2) truncated to [0, 1]."""
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
    out = sim.drift[:, :, 0].copy()
    U = sim.U[:, :, 0]
    out[:, 0] = 0.5
    for k in range(1, n0):
        t = k * grid.dt
        out[:, k] = _truncnorm_mean01(U[:, k] / t, 1.0 / np.sqrt(t))
    return out[:, :, None]


def identity_feedback(record: AdaptedSamples) -> FilterEstimate:
    """Conditional drift of an observation-adapted drift is the drift itself."""
    return FilterEstimate(record, "identity-feedback")


def ensemble_conditional_drift(model: DriftModel, sim: EnsembleSimulation) -> EnsembleFilter:
    """Filtered drift for a whole ensemble, via the model's exact filter."""
    if model.observation_adapted:
        return EnsembleFilter(sim.grid, sim.drift, "identity-feedback")
    if isinstance(model, KalmanBucy):
        vals = _kalman_values(sim.dU[:, :, 0], model.beta, model.sigma, sim.grid,
                              p0=model.x0_var)
        return EnsembleFilter(sim.grid, vals[:, :, None], "exact-kalman")
    if isinstance(model, IndependentDrift):
        g_left = model.g(sim.grid.left_times)
        vals = _independent_values(sim.dU[:, :, 0], g_left, sim.grid.dt)
        return EnsembleFilter(sim.grid, vals[:, :, None], "exact-gaussian")
    if isinstance(model, Tsirelson):
        return EnsembleFilter(sim.grid, _tsirelson_values(model, sim), "exact-head")
    raise UsageError(f"no exact filter for model {model.name}")


def innovation_values(U: np.ndarray, uhat: np.ndarray, dt: float) -> np.ndarray:
    """Innovation paths Z = U - int uhat ds over stacked arrays."""
    m = U.shape[0]
    prim = np.concatenate(
        [np.zeros((m, 1) + U.shape[2:]), np.cumsum(uhat * dt, axis=1)], axis=1
    )
    return U - prim


def innovation(U: Path, filtered: FilterEstimate) -> Path:
    """Innovation process Z = U - int_0^. filtered drift ds."""
    fv = filtered.values
    if fv.grid != U.grid or fv.dimension != U.dimension:
        raise ShapeError("observation and filtered drift live on different grids")
    return Path(U.grid, innovation_values(U.values[None], fv.values[None], U.grid.dt)[0])


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
        m, _, d = self.Z.shape
        self._ema = [np.zeros((m, d)) for _ in self.spec.ema_rates]
        self._next = 0

    def _advance_to(self, k: int):
        if k < self._next:
            self._reset()
        for j in range(self._next, k):
            for ema, rate in zip(self._ema, self.spec.ema_rates):
                lam = 1.0 - rate * self.dt
                ema *= lam
                ema += self.dZ[:, j, :]
        self._next = k

    def features_at(self, k: int) -> np.ndarray:
        spec = self.spec
        self._advance_to(k)
        m, _, d = self.Z.shape
        w = min(k, spec.window)
        blocks = []
        if w > 0:
            blocks.append(self.dZ[:, k - w: k, :].reshape(m, w * d))
        blocks.append(self.Z[:, k, :])
        blocks.extend(e.copy() for e in self._ema)
        base = np.concatenate(blocks, axis=1)
        feats = [np.ones((m, 1)), base]
        if spec.include_squares:
            feats.append(base**2)
        if spec.include_cubes:
            feats.append(base**3)
        return np.concatenate(feats, axis=1)


@dataclass(frozen=True)
class SecondLevelFit:
    """One step of the second-level regression under ensemble weights."""

    step: int
    basis: str
    coefficients: np.ndarray
    fitted: np.ndarray


def step_features(Z: np.ndarray, k: int, spec: BasisSpec, dt: float = 1.0) -> np.ndarray:
    """Feature matrix (m, p) built from the innovation history up to t_k.

    Z is the stacked innovation array (m, N+1, d).  One-shot convenience
    around FeatureBuilder; pass dt when the spec carries EMA rates.
    """
    return FeatureBuilder(Z, dt, spec).features_at(k)


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


def second_level_conditional(z_paths: np.ndarray, uhat_values: np.ndarray,
                             weights: np.ndarray, k: int,
                             basis: BasisSpec = BasisSpec(),
                             dt: float = 1.0) -> SecondLevelFit:
    """Weighted regression of the filtered drift at step k on innovation features.

    z_paths: stacked innovation values (m, N+1, d); uhat_values: stacked
    filtered drift (m, N, d); weights: nonnegative ensemble weights.  The
    fitted values estimate the second-level conditional expectation of the
    filtered drift given the innovation history, under the weighted law.
    """
    m = z_paths.shape[0]
    if uhat_values.shape[0] != m or len(weights) != m:
        raise UsageError("ensemble sizes disagree")
    if np.any(weights < 0) or not np.any(weights > 0):
        raise DegeneracyError("weights must be nonnegative and not all zero")
    F = step_features(z_paths, k, basis, dt)
    if m < 10 * F.shape[1]:
        raise UsageError(
            f"ensemble of {m} too small for {F.shape[1]} basis functions "
            "(need at least a factor 10)"
        )
    d = uhat_values.shape[2]
    coefs = np.empty((F.shape[1], d))
    fitted = np.empty((m, d))
    for j in range(d):
        coefs[:, j], fitted[:, j] = weighted_ridge_fit(F, uhat_values[:, k, j], weights, basis.ridge)
    return SecondLevelFit(k, basis.describe(), coefs, fitted)
