"""Filtered drifts, innovation processes and second-level regressions.

The filtered drift is the conditional expectation of the drift rate given
the observation history.  Models whose drift already reads only the
observation get it for free; the hidden Ornstein-Uhlenbeck model has the
discrete Kalman filter of its Euler scheme; a single Gaussian factor has a
conjugate closed form; the uniform-seed head of the iterated-fractional-part
model has a truncated normal posterior.  Each is exact on any grid.

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
from .errors import ConfigurationError, NumericalError, ShapeError, UsageError
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
    """Variances P_k of X_k given dU_{<k} for the simulated system
    X_{k+1} = (1 - beta dt) X_k + sigma dV_k, dU_k = X_k dt + dB_k:
    P_{k+1} = (1 - beta dt)^2 P_k / (1 + P_k dt) + sigma^2 dt, the update
    then the prediction, from the prior variance p0 (`KalmanBucy.x0_var`,
    which owns the stationary default and the parameter checks).
    """
    dt = grid.dt
    P = np.empty(grid.steps + 1)
    P[0] = p0
    for k in range(grid.steps):
        P[k + 1] = (1.0 - beta * dt) ** 2 * P[k] / (1.0 + P[k] * dt) + sigma**2 * dt
    return P


def _kalman_values(dU: np.ndarray, beta: float, sigma: float, grid: TimeGrid,
                   p0: float, out: np.ndarray) -> np.ndarray:
    """E[X_k | dU_{<k}] over stacked observation increments (m, N): the gain
    P_k / (1 + P_k dt) acts on the innovation, then 1 - beta dt predicts."""
    P = riccati_sequence(beta, sigma, grid, p0)
    dt = grid.dt
    gain = P / (1.0 + P * dt)
    xhat = np.zeros(len(dU))
    for k in range(dU.shape[1]):
        out[:, k] = xhat
        xhat = (1.0 - beta * dt) * (xhat + gain[k] * (dU[:, k] - xhat * dt))
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
    if out is not sim.drift:
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
    `out` may be `sim.drift` itself: every filter reads the drift record
    before it writes the values over it.
    Each filter acts row by row, like a drift rule: row i of the output is
    the same function of row i of the simulation whatever the other rows,
    so `harness.continuous_front_end` may filter each block of rows alone.
    """
    out = np.empty(sim.drift.shape, order="F") if out is None else out
    if model.observation_adapted:
        if out is not sim.drift:
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


def innovation_values(U: np.ndarray, uhat: np.ndarray, dt: float,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Innovation paths Z = U - int uhat ds: U (m, N+1), uhat (m, N); row
    by row, like the filters.  Z fills `out` (m, N+1) when given, which
    may be U itself, else a copy of U in U's memory layout; the integral is
    summed one step at a time, in np.cumsum's order."""
    if U.ndim != 2 or uhat.shape != (U.shape[0], U.shape[1] - 1):
        raise ShapeError(f"filtered drift {uhat.shape} does not fit observation {U.shape}")
    if out is None:
        Z = U.copy(order="K")
    else:
        Z = out
        if out is not U:
            Z[:] = U
    step, integral = np.empty((2, U.shape[0]))
    for k in range(uhat.shape[1]):
        np.multiply(uhat[:, k], dt, out=step if k else integral)
        if k:
            integral += step
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
    which, so that a `WeightedGram` forms only the new rows' products.  The
    builder writes the steps into two (p_max, m) buffers by turns and
    copies those rows from the step before; so the array of step k is a
    view that stays valid until step k + 2 is built.
    """

    def __init__(self, Z: np.ndarray, dt: float, spec: BasisSpec):
        self.Z = Z
        self.dt = dt
        self.spec = spec
        self._ema = [np.zeros(Z.shape[0]) for _ in spec.ema_rates]
        _, n_base = self._rows(spec.window)
        shape = (1 + (1 + spec.include_cubes) * n_base, Z.shape[0])
        self._buffers = (np.empty(shape), np.empty(shape))
        for buffer in self._buffers:
            buffer[0] = 1.0  # the intercept row of every step
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
        G = self._buffers[k % 2][:1 + (1 + spec.include_cubes) * n_base]
        base = G[1:1 + n_base]
        kept = max(w - 1, 0)  # the increments of step k - 1 still in the window
        if kept:
            w_prev, n_prev = self._rows(k - 1)
            previous = self._buffers[(k - 1) % 2]
            first = 2 + w_prev - w  # the oldest one's row at step k - 1
            base[:kept] = previous[first:first + kept]
            if spec.include_cubes:
                G[1 + n_base:1 + n_base + kept] = previous[first + n_prev:first + n_prev + kept]
        if w:
            np.subtract(steps[k], steps[k - 1], out=base[w - 1])
        base[w] = steps[k]
        for r, ema in enumerate(self._ema):
            base[w + 1 + r] = ema
        if spec.include_cubes:
            np.power(base[kept:], 3, out=G[1 + n_base + kept:])
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
    """The weighted Gram matrix A = G diag(w) G^T of one weight set, kept
    from one step's features to the next, and the work vectors of the
    fits on that set.

    The weights (m,) are normalized once, here.  `update(G, carry)` copies
    the entries between carried rows (`FeatureBuilder.carry_map`) from the
    previous step and forms the new rows' entries from one thin product,
    (new rows of G ∘ w) G^T; with no carried rows, as on a first or
    one-step call, that product is the whole Gram.  The weighted new rows
    are formed in a buffer held from call to call, and the kept and new
    row indices of each distinct carry map are worked out once.
    """

    def __init__(self, weights: np.ndarray):
        self.weights = weights / weights.sum()
        self.A = np.empty((0, 0))
        self._weighted_rows = np.empty((0, len(weights)))
        self._indices: dict = {}
        # weighted_ridge_fit's response w y and fitted values
        self.wy, self.fitted = np.empty((2, len(weights)))

    def update(self, G: np.ndarray, carry: Optional[np.ndarray] = None) -> np.ndarray:
        p = len(G)
        carry = np.full(p, -1) if carry is None else np.asarray(carry)
        if carry.shape != (p,) or carry.max(initial=-1) >= len(self.A):
            raise UsageError(f"carry map {carry.tolist()} does not fit {p} feature rows "
                             f"after {len(self.A)}")
        key = carry.tobytes()
        if key not in self._indices:
            kept = np.flatnonzero(carry >= 0)
            self._indices[key] = (np.flatnonzero(carry < 0), kept[:, None], kept,
                                  carry[kept, None], carry[kept])
        new, rows, cols, from_rows, from_cols = self._indices[key]
        if len(self._weighted_rows) < len(new):
            self._weighted_rows = np.empty((len(new), G.shape[1]))
        weighted = self._weighted_rows[:len(new)]
        for row, i in zip(weighted, new):
            np.multiply(G[i], self.weights, out=row)
        A = np.empty((p, p))
        A[rows, cols] = self.A[from_rows, from_cols]
        cross = weighted @ G.T
        A[new] = cross
        A[:, new] = cross.T
        self.A = A
        return A


def _ridge_solve(A: np.ndarray, b: np.ndarray, ridge: float) -> tuple[np.ndarray, int]:
    """Solve (A + ridge diag(A)) x = b, intercept unpenalized.

    A singular or non-finite solve multiplies the ridge by 100 and retries,
    at most three times; returns the solution and how many times the ridge
    was raised.
    """
    p = len(A)
    diag = A.diagonal()[1:]
    scale = np.where(diag > 0, diag, 1.0)
    lam = ridge
    for escalations in range(4):
        Areg = A.copy()
        Areg.reshape(-1)[p + 1::p + 1] += lam * scale  # the diagonal after the intercept
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
                       ) -> tuple[np.ndarray, np.ndarray, int]:
    """Weighted least squares with a relative ridge on non-intercept terms.

    G: features, feature-major (p, m); y: response (m,); gram: the weight
    set's `WeightedGram`, which this call updates to G, carrying the rows
    that `carry` maps to the previous call's G (none when omitted).

    Returns the coefficients (p,), the fitted values (m,) and the number of
    ridge escalations.  The intercept is unpenalized, which preserves the
    weighted mean of the response exactly.  The fitted values are the
    gram's vector `fitted`, valid until its next fit.
    """
    A = gram.update(G, carry)
    np.multiply(gram.weights, y, out=gram.wy)
    coef, escalations = _ridge_solve(A, G @ gram.wy, ridge)
    return coef, np.matmul(coef, G, out=gram.fitted), escalations
