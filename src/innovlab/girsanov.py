"""Girsanov reweighting of simulated ensembles.

The drift-removal exponential of a filtered drift against the innovation,

    log rho = - sum_k uhat_k dZ_k - 1/2 sum_k uhat_k^2 dt,

defines the tilted measure under which the observation plays the role of
the driving noise.  Because the exponential need not integrate to one
(that hypothesis can fail, and with quantized noise it simply is false),
all downstream estimators use self-normalized weights, and a diagnostic
reports how far the raw mean is from one.  Localization caps the filtered
energy at a threshold by freezing the drift at the first grid time the
running energy exceeds it, which restores integrability for any bounded
threshold.

Log-domain arithmetic with max subtraction throughout: raw weights span
hundreds of nats on fine grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import path_energies
from .errors import DegeneracyError, NumericalError, ShapeError, UsageError

__all__ = [
    "WeightedEnsemble",
    "NormalizationDiagnostic",
    "log_weights_ensemble",
    "stop_indices",
    "active_mask",
    "normalization_diagnostic",
    "reweight",
    "MIN_DIAGNOSTIC_MEMBERS",
]

# fewest ensemble members the normalization diagnostic accepts
MIN_DIAGNOSTIC_MEMBERS = 100


@dataclass(frozen=True)
class NormalizationDiagnostic:
    """Sample mean and standard error of exp(log-weight) with a pass flag.

    Passing means the mean is within three standard errors of one; a fail
    is the cue to run the localized pipeline instead of trusting raw
    weights.
    """

    mean: float
    se: float
    passed: bool


@dataclass(frozen=True)
class WeightedEnsemble:
    """Self-normalized importance weights over ensemble members."""

    weights: np.ndarray
    ess: float

    @property
    def size(self) -> int:
        return len(self.weights)


def log_weights_ensemble(uhat: np.ndarray, Z: np.ndarray, dt: float) -> np.ndarray:
    """Stacked log rho over an ensemble: uhat (m, N), Z (m, N+1)."""
    if uhat.ndim != 2 or Z.shape != (uhat.shape[0], uhat.shape[1] + 1):
        raise ShapeError(f"filtered drift {uhat.shape} does not fit innovation {Z.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        dZ = np.diff(Z, axis=1)
        ito = np.einsum("mk,mk->m", uhat, dZ)
        en = path_energies(uhat, dt)
        out = -ito - 0.5 * en
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite log-weight encountered")
    return out


def stop_indices(uhat: np.ndarray, dt: float, thresholds: Sequence[float]) -> np.ndarray:
    """Per-member stopping index for each threshold n: the first k with
    sum_{j<k} uhat_j^2 dt > n, or N when the running energy never exceeds n.

    Returns a (len(thresholds), m) array; the running energy is summed once
    for all thresholds.
    """
    m, N = uhat.shape
    step_energy = np.einsum("mk,mk->mk", uhat, uhat) * dt
    before = np.zeros((m, N))  # energy before step k, k = 0..N-1
    np.cumsum(step_energy[:, :-1], axis=1, out=before[:, 1:])
    out = np.empty((len(thresholds), m), dtype=np.intp)
    for i, threshold in enumerate(thresholds):
        exceeded = before > threshold
        out[i] = np.where(exceeded.any(axis=1), exceeded.argmax(axis=1), N)
    return out


def active_mask(stop_idx: np.ndarray, steps: int) -> np.ndarray:
    """Boolean (m, N) mask of steps strictly before each stopping index."""
    return np.arange(steps)[None, :] < stop_idx[:, None]


def normalization_diagnostic(log_weights: np.ndarray) -> NormalizationDiagnostic:
    """Check the unit-mean property of the raw Girsanov exponential."""
    lw = np.asarray(log_weights, dtype=float)
    if lw.size < MIN_DIAGNOSTIC_MEMBERS:
        raise UsageError(f"normalization diagnostic needs >= {MIN_DIAGNOSTIC_MEMBERS} members, "
                         f"got {lw.size}")
    top = np.max(lw)
    scaled = np.exp(lw - top)
    mean = float(np.exp(top) * scaled.mean())
    se = float(np.exp(top) * scaled.std(ddof=1) / np.sqrt(lw.size))
    passed = bool(np.isfinite(mean) and np.isfinite(se) and abs(mean - 1.0) <= 3.0 * se)
    return NormalizationDiagnostic(mean, se, passed)


def reweight(log_weights: np.ndarray) -> WeightedEnsemble:
    """Self-normalized weights w_i = exp(l_i - max l) / sum_j exp(l_j - max l)."""
    lw = np.asarray(log_weights, dtype=float)
    if lw.size < 2:
        raise UsageError(f"need at least two members, got {lw.size}")
    if np.any(np.isnan(lw)):
        raise NumericalError("NaN log-weight")
    top = np.max(lw)
    if not np.isfinite(top):
        raise DegeneracyError("all log-weights are -inf")
    w = np.exp(lw - top)
    w = w / w.sum()
    ess = float(1.0 / np.sum(w**2))
    return WeightedEnsemble(w, ess)
