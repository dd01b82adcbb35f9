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

import math
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
    "WeightedGram",
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


def riccati_sequence(beta: float, sigma: float, grid: TimeGrid, p0: float) -> np.ndarray:
    """Error variances P_0..P_N of the discrete filter recursion.

    P_{k+1} = P_k + (sigma^2 - 2 beta P_k - P_k^2) dt, started from the
    prior variance p0 (`KalmanBucy.x0_var`, which owns the stationary
    default).  A negative iterate means the grid is too coarse for these
    parameters.
    """
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
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
                   p0: float, out: np.ndarray) -> np.ndarray:
    """Vectorized filter mean over stacked observation increments (m, N)."""
    P = riccati_sequence(beta, sigma, grid, p0)
    dt = grid.dt
    xhat = np.zeros(len(dU))
    for k in range(dU.shape[1]):
        out[:, k] = xhat
        xhat = xhat - beta * xhat * dt + P[k] * (dU[:, k] - xhat * dt)
    return out


def _independent_values(dU: np.ndarray, g_left: np.ndarray, dt: float,
                        out: np.ndarray) -> np.ndarray:
    """Posterior-mean drift for u' = theta g(t), theta ~ N(0,1): stacked (m, N).

    The running sums sum_{j<k} g_j dU_j are built in the output array
    itself, one step at a time in np.cumsum's order, so the filter needs no
    (m, N) temporary next to the simulation.
    """
    out[:, 0] = 0.0
    num = out[:, 1:]
    np.multiply(g_left[:-1], dU[:, :-1], out=num)
    for k in range(1, num.shape[1]):
        num[:, k] += num[:, k - 1]
    den = 1.0 + np.concatenate([[0.0], np.cumsum(g_left**2 * dt)])
    out /= den[:-1]
    out *= g_left
    return out


def _truncnorm_mean01(mu: np.ndarray, sigma: float) -> np.ndarray:
    """Mean of N(mu, sigma^2) truncated to [0, 1].

    The mass of [a, b] is a difference of two tails: the lower tails
    Phi(b) - Phi(a), or, when a > 0, the upper ones, so that it is never a
    difference of two numbers near 1.
    """
    a = (0.0 - mu) / sigma
    b = (1.0 - mu) / sigma
    phi = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    side = np.where(a > 0, 1.0, -1.0)  # upper tails, or lower ones
    tail = lambda x: 0.5 * np.vectorize(math.erfc, otypes=[float])(side * x / np.sqrt(2.0))
    den = side * (tail(a) - tail(b))
    safe = den > 1e-300
    mean = np.where(safe, mu + sigma * (phi(a) - phi(b)) / np.where(safe, den, 1.0),
                    np.clip(mu, 0.0, 1.0))
    return mean


def _tsirelson_values(model: Tsirelson, sim: EnsembleSimulation,
                      out: np.ndarray) -> np.ndarray:
    """Exact filtered drift: truncated-normal posterior mean on the seed
    segment, the drift itself afterwards (it is observation-adapted there)."""
    grid = sim.grid
    n0 = round(model.level_times()[0] * grid.steps)
    out[:] = sim.drift
    out[:, 0] = 0.5
    for k in range(1, n0):
        t = k * grid.dt
        out[:, k] = _truncnorm_mean01(sim.U[:, k] / t, 1.0 / np.sqrt(t))
    return out


def ensemble_conditional_drift(model: DriftModel, sim: EnsembleSimulation,
                               out: Optional[np.ndarray] = None) -> EnsembleFilter:
    """Filtered drift for an ensemble, via the model's exact filter.

    The values fill `out` (m, N) when given, else a new column-major
    array, so that a caller's rows need no copy next to the simulation.
    Each filter acts row by row, like a drift rule: row i of the output is
    the same function of row i of the simulation whatever the other rows,
    so `harness.continuous_front_end` may filter each block of rows alone.
    """
    out = np.empty(sim.drift.shape, order="F") if out is None else out
    if model.observation_adapted:
        out[:] = sim.drift
        return EnsembleFilter(out, "identity-feedback")
    if isinstance(model, KalmanBucy):
        vals = _kalman_values(sim.dU, model.beta, model.sigma, sim.grid, model.x0_var, out)
        return EnsembleFilter(vals, "exact-kalman")
    if isinstance(model, IndependentDrift):
        g_left = model.g(sim.grid.left_times)
        return EnsembleFilter(_independent_values(sim.dU, g_left, sim.grid.dt, out),
                              "exact-gaussian")
    if isinstance(model, Tsirelson):
        return EnsembleFilter(_tsirelson_values(model, sim, out), "exact-head")
    raise UsageError(f"no exact filter for model {model.name}")


def innovation_values(U: np.ndarray, uhat: np.ndarray, dt: float) -> np.ndarray:
    """Innovation paths Z = U - int uhat ds: U (m, N+1), uhat (m, N); row
    by row, like the filters.  Z has U's memory layout; the integral is
    summed one step at a time, in np.cumsum's order."""
    if U.ndim != 2 or uhat.shape != (U.shape[0], U.shape[1] - 1):
        raise ShapeError(f"filtered drift {uhat.shape} does not fit observation {U.shape}")
    Z = U.copy(order="K")
    for k in range(uhat.shape[1]):
        step = uhat[:, k] * dt
        integral = integral + step if k else step
        Z[:, k + 1] -= integral
    return Z


@dataclass(frozen=True)
class BasisSpec:
    """Feature set for innovation-history regressions.

    Features at step k: an intercept, the last min(k, window) innovation
    increments, the current innovation level, optionally exponential moving
    averages of past increments at the given per-unit-time decay rates, and
    (optionally) cubes of all of those.  `ridge` is the relative penalty on
    non-intercept coefficients; it must be finite and positive, since the
    singular-system rescue multiplies it.

    The default (window 8, level) is deliberately lean: projecting on few
    features can only lower the entropy estimate.  The EMA rates are
    for oracle-agreement runs on linear models, whose filters have
    geometric kernels that a short window cannot span.
    """

    window: int = 8
    include_cubes: bool = False
    ema_rates: tuple = ()
    ridge: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.ridge) and self.ridge > 0):
            raise ConfigurationError(f"ridge must be finite and positive, got {self.ridge}")
        if self.window < 0:
            raise ConfigurationError(f"basis window must be >= 0, got {self.window}")

    def describe(self) -> str:
        parts = [f"intercept+{self.window} increments+level"]
        if self.ema_rates:
            parts.append(f"ema{list(self.ema_rates)}")
        if self.include_cubes:
            parts.append("cubes")
        return ",".join(parts)


class FeatureBuilder:
    """Streaming feature matrices over an innovation ensemble, feature-major.

    `features_at(k)` returns a C-contiguous (p, m) array: one row per
    feature (intercept, increments, level, EMAs, then their cubes), one
    column per path.  The rows are read from the step rows of `Z.T`; with
    `Z` (m, N+1) column-major, as the continuous front end returns it,
    each is contiguous, and the builder holds no copy of `Z`.

    EMA features are accumulated one increment per step, so the steps are
    served in order: k = 0, 1, 2, ...; any other k is a usage error.

    Most rows of one step are rows of the step before: `carry_map(k)` says
    which, so that a `WeightedGram` forms only the new rows' products.
    """

    def __init__(self, Z: np.ndarray, dt: float, spec: BasisSpec):
        self.Z = Z
        self.dt = dt
        self.spec = spec
        self._ema = [np.zeros(Z.shape[0]) for _ in spec.ema_rates]
        self._next = 0

    def features_at(self, k: int) -> np.ndarray:
        if k != self._next:
            raise UsageError(f"features are built in step order: expected step "
                             f"{self._next}, got {k}")
        self._next = k + 1
        spec = self.spec
        steps = self.Z.T
        if k and self._ema:
            inc = steps[k] - steps[k - 1]
            for ema, rate in zip(self._ema, spec.ema_rates):
                ema *= 1.0 - rate * self.dt
                ema += inc
        w, n_base = self._rows(k)
        G = np.empty((1 + (1 + spec.include_cubes) * n_base, steps.shape[1]))
        G[0] = 1.0
        base = G[1:1 + n_base]
        np.subtract(steps[k - w + 1:k + 1], steps[k - w:k], out=base[:w])
        base[w] = steps[k]
        for r, ema in enumerate(self._ema):
            base[w + 1 + r] = ema
        if spec.include_cubes:
            np.power(base, 3, out=G[1 + n_base:])
        return G

    def _rows(self, k: int) -> tuple[int, int]:
        """Row layout of step k: the number w of window increments and the
        number n_base of base rows.  Row 0 is the intercept, rows 1..w the
        increments (oldest first), row w + 1 the level, then the EMAs; the
        cubes of the n_base base rows follow from row 1 + n_base."""
        w = min(k, self.spec.window)
        return w, w + 1 + len(self.spec.ema_rates)

    def carry_map(self, k: int) -> np.ndarray:
        """For each row of `features_at(k)`, the row of `features_at(k - 1)`
        that it repeats bit for bit, or -1 for a row formed anew.

        The intercept, the increments still in the window and their cubes
        carry.  The newest increment, the level, the EMAs and their cubes
        are new, and so is every row at k = 0.  While k <= window the
        increment block grows and keeps its rows; after that it drops its
        oldest row and each increment moves up by one.
        """
        w, n_base = self._rows(k)
        carry = np.full(1 + (1 + self.spec.include_cubes) * n_base, -1)
        if k == 0:
            return carry
        w_prev, n_prev = self._rows(k - 1)
        kept = np.arange(max(w - 1, 0))  # every increment but the newest
        prev = 1 + (w_prev - w + 1) + kept
        carry[0] = 0
        carry[1 + kept] = prev
        if self.spec.include_cubes:
            carry[1 + n_base + kept] = prev + n_prev
        return carry


class WeightedGram:
    """Weighted Gram matrices A_s = G diag(w_s) G^T of S weight sets, kept
    from one step's features to the next.

    The weights (S, m) are normalized once, here.  `update(G, carry)`
    copies the entries between carried rows (`FeatureBuilder.carry_map`)
    from the previous step and forms the new rows' entries from one thin
    product per set, (new rows of G ∘ w_s) G^T; with no carried rows, as
    on a first or one-step call, that product is the whole Gram.  Each set
    is formed by itself: BLAS picks its kernel by size, so a product over
    all sets at once would make a set's numbers depend on how many sets
    share it.
    """

    def __init__(self, weights: np.ndarray):
        self.weights = weights / weights.sum(axis=1, keepdims=True)
        self.A = np.empty((len(self.weights), 0, 0))

    def update(self, G: np.ndarray, carry: Optional[np.ndarray] = None) -> np.ndarray:
        p = len(G)
        carry = np.full(p, -1) if carry is None else np.asarray(carry)
        if carry.shape != (p,) or carry.max(initial=-1) >= self.A.shape[1]:
            raise UsageError(f"carry map {carry.tolist()} does not fit {p} feature rows "
                             f"after {self.A.shape[1]}")
        new = np.flatnonzero(carry < 0)
        kept = np.flatnonzero(carry >= 0)
        A = np.empty((len(self.weights), p, p))
        A[:, kept[:, None], kept] = self.A[:, carry[kept, None], carry[kept]]
        G_new = G[new]
        for A_s, w in zip(A, self.weights):
            cross = (G_new * w) @ G.T
            A_s[new] = cross
            A_s[:, new] = cross.T
        self.A = A
        return A


def _ridge_solve(A: np.ndarray, b: np.ndarray, ridge: float) -> tuple[np.ndarray, int]:
    """Solve (A + ridge diag(A)) x = b, intercept unpenalized.

    A singular or non-finite solve multiplies the ridge by 100 and retries,
    at most three times; returns the solution and how many times the ridge
    was raised.
    """
    diag = np.diag(A).copy()
    scale = np.where(diag > 0, diag, 1.0)
    inner = np.arange(1, len(diag))
    lam = ridge
    for escalations in range(4):
        Areg = A.copy()
        Areg[inner, inner] += lam * scale[1:]
        try:
            coef = np.linalg.solve(Areg, b)
        except np.linalg.LinAlgError:
            lam *= 100.0
            continue
        if np.all(np.isfinite(coef)):
            return coef, escalations
        lam *= 100.0
    raise NumericalError("normal equations singular beyond ridge rescue")


def weighted_ridge_fit(G: np.ndarray, y: np.ndarray, gram: WeightedGram, ridge: float,
                       carry: Optional[np.ndarray] = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted least squares with a relative ridge on non-intercept terms.

    G: features, feature-major (p, m); y: response (m,); gram: the S weight
    sets' `WeightedGram`, which this call updates to G, carrying the rows
    that `carry` maps to the previous call's G (none when omitted).  Like
    the Gram matrices, the right-hand sides G (w_s ∘ y) and the fitted
    values are formed one set at a time, so a set's numbers do not depend
    on how many sets share the call.

    Returns (coefficients, fitted values, ridge escalations), shaped
    (S, p), (S, m), (S,).  The intercept is unpenalized, which preserves
    the weighted mean of the response exactly.
    """
    A = gram.update(G, carry)
    S, (p, m) = len(A), G.shape
    coef = np.empty((S, p))
    fitted = np.empty((S, m))
    escalations = np.empty(S, dtype=int)
    for s, w in enumerate(gram.weights):
        coef[s], escalations[s] = _ridge_solve(A[s], G @ (w * y), ridge)
        fitted[s] = coef[s] @ G
    return coef, fitted, escalations
