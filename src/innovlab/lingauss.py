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
simulated system rather than for its continuous-time limit, and a change
to a filter changes the oracle with it.

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

__all__ = ["LinearGaussianSummary", "linear_gaussian_summary", "is_linear_model"]

LINEAR_MODELS = (ZeroDrift, DeterministicDrift, LinearFeedback, KalmanBucy, IndependentDrift)


def is_linear_model(model: DriftModel) -> bool:
    return isinstance(model, LINEAR_MODELS)


@dataclass(frozen=True)
class LinearGaussianSummary:
    """Exact Gaussian functionals of one linear model on one grid.

    innovation_kl: relative entropy of the innovation-increment law under
        the tilted measure against independent N(0, dt) increments.
    observation_kl: relative entropy of the observation-increment law under
        the sampling measure against the same reference.
    energy_under_nu: half the expected filtered-drift energy under the
        tilted measure.
    energy_under_p: the same under the sampling measure.
    rho_mean: expectation of the raw tilting exponential under sampling
        (exactly 1 in the continuum limit; finite grids leave an O(dt) gap).
    """

    innovation_kl: float
    observation_kl: float
    energy_under_nu: float
    energy_under_p: float
    rho_mean: float


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
        x = np.ascontiguousarray(x)  # the einsums below add in the row-major order
        return (x[1:] - x[0]).T, x[0]

    return split(sim.dU), split(filt.values), var, iB


def _expected_square(rows, cov_rows, mean):
    """E[(rows G)^2] rowwise, given cov_rows = rows Cov(G) and mean = E[rows G]."""
    return np.einsum("ki,ki->k", cov_rows, rows) + mean**2


def _logdet(matrix) -> float:
    """log det of a positive definite matrix, off the diagonal of its Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(matrix)))))


def linear_gaussian_summary(model: DriftModel, grid: TimeGrid) -> LinearGaussianSummary:
    """Exact Gaussian functionals of the discretized linear model."""
    if not is_linear_model(model):
        raise UnsupportedModelError(f"model {model.name} is not in the linear family")
    N = grid.steps
    dt = grid.dt

    (dU_rows, dU_const), (uhat_rows, uhat_const), var, iB = _affine_rows(model, grid)
    dZ_rows = dU_rows - dt * uhat_rows
    dZ_const = dU_const - dt * uhat_const
    if np.any(dZ_const):  # the algebra below takes the innovation to be centred
        raise NumericalError(f"model {model.name}: the innovation is not centred")

    C = (dZ_rows * var) @ dZ_rows.T
    C = 0.5 * (C + C.T)

    # the filtered drift reads only the observation, which the innovation
    # determines through a unit lower-triangular map: on the Brownian block
    # uhat_B = a dZ_B, so the rows in terms of the innovation are a
    a_rows = np.linalg.solve(dZ_rows[:, iB].T, uhat_rows[:, iB].T).T
    b = uhat_const  # the innovation is centred, so uhat = a S + uhat_const

    # tilt: -log rho = 1/2 S'AS + c'S + r over S = innovation increments
    M = a_rows.T
    A = M + M.T + dt * (a_rows.T @ a_rows)
    c = b + dt * (a_rows.T @ b)
    r = 0.5 * dt * float(b @ b)

    C_U = (dU_rows * var) @ dU_rows.T
    try:
        logdet_C = _logdet(C)
        K = np.linalg.inv(C) + A  # Sigma_nu^-1
        logdet_K = _logdet(K)  # = -log det Sigma_nu
        logdet_CU = _logdet(C_U)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gaussian algebra lost positivity: {exc}")
    Sigma_nu = np.linalg.inv(K)
    Sigma_nu = 0.5 * (Sigma_nu + Sigma_nu.T)
    m_nu = np.linalg.solve(K, -c)

    innovation_kl = 0.5 * (
        np.trace(Sigma_nu) / dt - N + N * np.log(dt) + logdet_K
        + float(m_nu @ m_nu) / dt
    )
    observation_kl = 0.5 * (
        np.trace(C_U) / dt - N + N * np.log(dt) - logdet_CU
        + float(dU_const @ dU_const) / dt
    )

    energy_under_nu = 0.5 * dt * float(np.sum(
        _expected_square(a_rows, a_rows @ Sigma_nu, a_rows @ m_nu + b)))
    energy_under_p = 0.5 * dt * float(np.sum(
        _expected_square(uhat_rows, uhat_rows * var, uhat_const)))

    # E_P[rho] by the Gaussian integral of the quadratic tilt
    logdet_IpCA = logdet_C + logdet_K
    rho_mean = float(np.exp(-r - 0.5 * logdet_IpCA + 0.5 * float(c @ (Sigma_nu @ c))))

    return LinearGaussianSummary(
        innovation_kl=float(innovation_kl),
        observation_kl=float(observation_kl),
        energy_under_nu=float(energy_under_nu),
        energy_under_p=float(energy_under_p),
        rho_mean=rho_mean,
    )
