"""Closed-form Gaussian path laws for the linear model family.

For the linear models (zero, deterministic, linear-feedback, kalman-bucy,
independent) every discrete quantity of the pipeline -- drift, observation,
filtered drift, innovation -- is an affine function of a primitive Gaussian
vector, and the tilting exponential is the exponential of a quadratic form.
The innovation increments are therefore exactly Gaussian both under the
sampling measure and under the tilted measure, and relative entropies
against the reference law of independent N(0, dt) increments reduce to
finite-dimensional Gaussian algebra.

The affine maps are not re-derived here: they are read off by running the
pipeline's own Euler recursion (`models.run_euler`) and filter
(`filtering.ensemble_conditional_drift`) on the zero vector and the unit
vectors of the primitive basis.  The numbers are therefore exact for the
simulated system rather than for its continuous-time limit.  A filter
changes the oracle with it, so `tests/test_filtering.py` checks every
filter against Gaussian conditioning on the past observation increments.

`gaussian_tilt` forms that algebra once for one model on one grid and
keeps it in a `GaussianTilt`.  Each exact functional -- `innovation_kl`,
`observation_kl`, `energy_under_nu`, `energy_under_p`, `rho_mean` -- is a
method of the tilt, evaluated only by the callers that read it.  A run
records only `gaussian_path_kl`, the innovation side, and keeps no tilt.

Products with the primitive vector's diagonal covariance scale columns.
Every log-determinant is read off the diagonal of a `numpy.linalg` Cholesky
factor, log det(I + C A) as log det C + log det(C^-1 + A); a covariance
that is not positive definite fails its factorization with `NumericalError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid
from .errors import NumericalError, UnsupportedModelError
from .filtering import ensemble_conditional_drift
from .models import (
    DeterministicDrift,
    DriftModel,
    IndependentDrift,
    KalmanBucy,
    LinearFeedback,
    ZeroDrift,
    run_euler,
)

__all__ = ["GaussianTilt", "gaussian_tilt", "gaussian_path_kl", "is_linear_model"]

LINEAR_MODELS = (ZeroDrift, DeterministicDrift, LinearFeedback, KalmanBucy, IndependentDrift)


def is_linear_model(model: DriftModel) -> bool:
    return isinstance(model, LINEAR_MODELS)


@dataclass(frozen=True, eq=False)  # a generated == would compare arrays, which raises
class GaussianTilt:
    """The Gaussian algebra of one linear model on one grid; each exact
    functional is a method.

    The primitive vector G has independent coordinates of variances `var`,
    the observation increments are dU = dU_rows G + dU_const and the
    filtered drift uhat_rows G + uhat_const.  Over the innovation
    increments S, which are N(0, C) under sampling, the filtered drift is
    uhat = a S + uhat_const and the tilting exponential is
    rho = exp(-1/2 S'AS - c'S - r).  Under the tilted measure S is
    N(m_nu, Sigma_nu), with K = Sigma_nu^-1 = C^-1 + A.  C_U is the
    observation increments' covariance under sampling, and the log-dets
    are read off the Cholesky factors of C, K and C_U.

    C_U is formed and factored with the rest although only `observation_kl`
    reads it: its factorization is the one that fails when the grid takes
    the observation law out of double precision's reach.  On linear feedback
    a = -20 over 128 steps C and K still factor, and `innovation_kl` would
    read 98.85 where the exact value is 99.22.
    """

    dt: float
    var: np.ndarray
    dU_rows: np.ndarray
    dU_const: np.ndarray
    uhat_rows: np.ndarray
    uhat_const: np.ndarray
    a: np.ndarray
    c: np.ndarray
    r: float
    Sigma_nu: np.ndarray
    m_nu: np.ndarray
    C_U: np.ndarray
    logdet_C: float
    logdet_K: float
    logdet_CU: float

    def innovation_kl(self) -> float:
        """Relative entropy of the innovation-increment law under the tilted
        measure against independent N(0, dt) increments."""
        N, dt = len(self.m_nu), self.dt
        return float(0.5 * (np.trace(self.Sigma_nu) / dt - N + N * np.log(dt) + self.logdet_K
                            + float(self.m_nu @ self.m_nu) / dt))

    def observation_kl(self) -> float:
        """Relative entropy of the observation-increment law under sampling
        against the same reference."""
        N, dt = len(self.dU_const), self.dt
        return float(0.5 * (np.trace(self.C_U) / dt - N + N * np.log(dt) - self.logdet_CU
                            + float(self.dU_const @ self.dU_const) / dt))

    def energy_under_nu(self) -> float:
        """Half the expected filtered-drift energy under the tilted measure."""
        mean = self.a @ self.m_nu + self.uhat_const
        return 0.5 * self.dt * float(np.sum(
            np.einsum("ki,ki->k", self.a @ self.Sigma_nu, self.a) + mean**2))

    def energy_under_p(self) -> float:
        """The same under the sampling measure."""
        return 0.5 * self.dt * float(np.sum(np.einsum(
            "ki,ki->k", self.uhat_rows * self.var, self.uhat_rows) + self.uhat_const**2))

    def rho_mean(self) -> float:
        """E_P[rho], the Gaussian integral of the quadratic tilt: exactly 1 in
        the continuum limit, and finite grids leave an O(dt) gap."""
        return float(np.exp(-self.r - 0.5 * (self.logdet_C + self.logdet_K)
                            + 0.5 * float(self.c @ (self.Sigma_nu @ self.c))))


def _affine_rows(model, grid):
    """Every pipeline quantity as an affine function of the primitive vector.

    A linear model is affine in G = (aux draws, hidden noise, dB), whose
    coordinates are independent with variances (1, dt, dt).  Pushing G = 0
    and each unit vector through `run_euler` and `ensemble_conditional_drift`
    as one ensemble gives, per quantity, the constant (member 0) and the
    coefficient rows (member j minus member 0) over G.

    Returns the (rows (N, n), const (N,)) pairs of the observation
    increments and the filtered drift, the variances of G, and the slice of
    G holding the Brownian increments.
    """
    N, dt = grid.steps, grid.dt
    hidden_n = N if model.needs_hidden() else 0
    n = model.aux_dim + hidden_n + N
    basis = np.vstack([np.zeros(n), np.eye(n)])
    aux = basis[:, :model.aux_dim]
    hidden = basis[:, model.aux_dim:model.aux_dim + hidden_n] if hidden_n else None
    iB = slice(model.aux_dim + hidden_n, n)
    sim = run_euler(model, grid, basis[:, iB], aux, hidden)
    filt = ensemble_conditional_drift(model, sim)
    var = np.concatenate([np.ones(model.aux_dim), np.full(hidden_n + N, dt)])

    def split(x):
        x = np.ascontiguousarray(x)  # the tilt's einsums add in the row-major order
        return (x[1:] - x[0]).T, x[0]

    return split(sim.dU), split(filt.values), var, iB


def _logdet(matrix) -> float:
    """log det of a positive definite matrix, off the diagonal of its Cholesky
    factor; a matrix that is not fails with `NumericalError`."""
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gaussian algebra lost positivity: {exc}")
    return 2.0 * float(np.sum(np.log(np.diag(factor))))


def gaussian_tilt(model: DriftModel, grid: TimeGrid) -> GaussianTilt:
    """The Gaussian tilt of the discretized linear model."""
    if not is_linear_model(model):
        raise UnsupportedModelError(f"model {model.name} is not in the linear family")
    dt = grid.dt
    (dU_rows, dU_const), (uhat_rows, uhat_const), var, iB = _affine_rows(model, grid)
    dZ_rows = dU_rows - dt * uhat_rows
    if np.any(dU_const - dt * uhat_const):  # the algebra below takes the innovation to be centred
        raise NumericalError(f"model {model.name}: the innovation is not centred")

    C = (dZ_rows * var) @ dZ_rows.T
    C = 0.5 * (C + C.T)
    # the filtered drift reads only the observation, which the innovation
    # determines through a unit lower-triangular map: on the Brownian block
    # uhat_B = a dZ_B, so the rows in terms of the innovation are a; the
    # innovation is centred, so uhat = a S + uhat_const
    a = np.linalg.solve(dZ_rows[:, iB].T, uhat_rows[:, iB].T).T
    # tilt: -log rho = 1/2 S'AS + c'S + r over S = innovation increments
    A = a.T + a + dt * (a.T @ a)
    c = uhat_const + dt * (a.T @ uhat_const)
    logdet_C = _logdet(C)
    K = np.linalg.inv(C) + A  # Sigma_nu^-1
    logdet_K = _logdet(K)  # = -log det Sigma_nu
    C_U = (dU_rows * var) @ dU_rows.T
    logdet_CU = _logdet(C_U)
    Sigma_nu = np.linalg.inv(K)
    return GaussianTilt(dt, var, dU_rows, dU_const, uhat_rows, uhat_const, a, c,
                        0.5 * dt * float(uhat_const @ uhat_const), 0.5 * (Sigma_nu + Sigma_nu.T),
                        np.linalg.solve(K, -c), C_U, logdet_C, logdet_K, logdet_CU)


def gaussian_path_kl(model: DriftModel, grid: TimeGrid) -> float:
    """The tilt's `innovation_kl`, which a linear run records; the tilt's
    matrices are freed when this returns."""
    return gaussian_tilt(model, grid).innovation_kl()
