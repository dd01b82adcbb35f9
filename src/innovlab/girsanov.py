"""Girsanov reweighting of simulated ensembles.

The drift-removal exponential of a filtered drift against the innovation,

    log rho = - sum_k uhat_k dZ_k - 1/2 sum_k uhat_k^2 dt,

defines the tilted measure under which the observation plays the role of
the driving noise.  Because the exponential need not integrate to one
(that hypothesis can fail, and with quantized noise it simply is false),
all downstream estimators use self-normalized weights, and a diagnostic
reports how far the raw mean is from one.  Localization caps the filtered
energy at a threshold, which restores integrability for any bounded
threshold: `stop_indices` finds the first grid time the running energy
exceeds it, and `localize` sets the drift to zero from there on.

`stop_indices` and `log_weights_ensemble` read an ensemble one row block
of `core.PATH_BLOCK` rows at a time: every quantity they form is a row's
own sum or running sum, so the blocks move no bit, and their (m, N)
temporaries (step energies, increments dZ, a level's stopped drift) never
cover more than one block.  `log_weights_ensemble` returns the per-path
energies sum_k uhat_k^2 dt together with the log-weights that contain
them, so a level's energy estimate averages exactly the energies inside
its weights and nothing sums them twice.  `reweight` is the one place a
log-weight vector is shifted by its maximum and exponentiated (raw
weights span hundreds of nats on fine grids); the normalization
diagnostic and the oracle's plug-in entropies read that one exponential
from the `WeightedEnsemble` it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import PATH_BLOCK, path_energies
from .errors import DegeneracyError, NumericalError, ShapeError, UsageError

__all__ = [
    "WeightedEnsemble",
    "NormalizationDiagnostic",
    "log_weights_ensemble",
    "stop_indices",
    "localize",
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
    """Importance weights over ensemble members, held as the shifted
    exponential scaled = exp(l - top) of log-weights l with top = max l.

    `weights` normalizes it on each access; only `scaled` is stored.
    """

    top: float
    scaled: np.ndarray
    ess: float

    @property
    def weights(self) -> np.ndarray:
        return self.scaled / self.scaled.sum()

    @property
    def size(self) -> int:
        return len(self.scaled)


def log_weights_ensemble(uhat: np.ndarray, Z: np.ndarray, dt: float,
                         stop: Optional[np.ndarray] = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked log rho over an ensemble, uhat (m, N) and Z (m, N+1), and the
    per-path energies sum_k uhat_k^2 dt that it contains: two (m,) arrays.

    With (m,) stopping indices `stop` the drift is the stopped one,
    `localize(uhat, stop)`.  Each block of PATH_BLOCK rows forms its own
    increments dZ and stopped drift.
    """
    if uhat.ndim != 2 or Z.shape != (uhat.shape[0], uhat.shape[1] + 1):
        raise ShapeError(f"filtered drift {uhat.shape} does not fit innovation {Z.shape}")
    m = len(uhat)
    if stop is not None and np.shape(stop) != (m,):
        raise ShapeError(f"stopping indices {np.shape(stop)} do not fit "
                         f"filtered drift {uhat.shape}")
    ito, en = np.empty(m), np.empty(m)
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, m, PATH_BLOCK):
            rows = slice(lo, lo + PATH_BLOCK)
            x = uhat[rows] if stop is None else localize(uhat[rows], stop[rows])
            ito[rows] = np.einsum("mk,mk->m", x, np.diff(Z[rows], axis=1))
            en[rows] = path_energies(x, dt)
        out = -ito - 0.5 * en
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite log-weight encountered")
    return out, en


def stop_indices(uhat: np.ndarray, dt: float, thresholds: Sequence[float]) -> np.ndarray:
    """Per-member stopping index for each threshold n: the first k with
    sum_{j<k} uhat_j^2 dt > n, or N when the running energy never exceeds n.

    Returns a (len(thresholds), m) array.  Each block of PATH_BLOCK rows
    sums its running energy once for all thresholds.
    """
    m, N = uhat.shape
    out = np.empty((len(thresholds), m), dtype=np.intp)
    for lo in range(0, m, PATH_BLOCK):
        rows = slice(lo, lo + PATH_BLOCK)
        x = uhat[rows]
        step_energy = np.einsum("mk,mk->mk", x, x) * dt
        before = np.zeros(x.shape)  # energy before step k, k = 0..N-1
        np.cumsum(step_energy[:, :-1], axis=1, out=before[:, 1:])
        for i, threshold in enumerate(thresholds):
            exceeded = before > threshold
            out[i, rows] = np.where(exceeded.any(axis=1), exceeded.argmax(axis=1), N)
    return out


def localize(uhat: np.ndarray, stop_idx: np.ndarray) -> np.ndarray:
    """The stopped drift: uhat (m, N) with each member's steps from its
    stopping index on set to zero."""
    return uhat * (np.arange(uhat.shape[1]) < stop_idx[:, None])


def normalization_diagnostic(ens: WeightedEnsemble) -> NormalizationDiagnostic:
    """Check the unit-mean property of the raw Girsanov exponential."""
    if ens.size < MIN_DIAGNOSTIC_MEMBERS:
        raise UsageError(f"normalization diagnostic needs >= {MIN_DIAGNOSTIC_MEMBERS} members, "
                         f"got {ens.size}")
    mean = float(np.exp(ens.top) * ens.scaled.mean())
    se = float(np.exp(ens.top) * ens.scaled.std(ddof=1) / np.sqrt(ens.size))
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
    scaled = np.exp(lw - top)
    w = scaled / scaled.sum()
    return WeightedEnsemble(float(top), scaled, float(1.0 / np.sum(w**2)))
