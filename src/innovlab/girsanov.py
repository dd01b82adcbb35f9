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

`stop_indices` and `log_weights_ensemble` read an ensemble one chunk of
rows (`core.row_chunks`) at a time, copied row-major: every quantity they
form is a row's own sum or running sum, so neither the chunks nor the
ensemble's layout move a bit, and their (m, N) temporaries (step
energies, increments dZ, a level's stopped drift) never cover more than
one chunk.  `log_weights_ensemble` returns the per-path
energies sum_k uhat_k^2 dt together with the log-weights that contain
them, so a level's energy estimate averages exactly the energies inside
its weights and nothing sums them twice.  `reweight` is the one place a
log-weight vector is shifted by its maximum and exponentiated (raw
weights span hundreds of nats on fine grids); the normalization
diagnostic and the oracle's plug-in entropies read that one exponential
from the `WeightedEnsemble` it returns.  Given each atom's member count,
it exponentiates one log-weight per atom, and a sum over the members is
the count-weighted sum over the atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import path_energies, row_chunks
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
    exponential scaled = exp(l - top) of log-weights l with top = max l,
    and its sum over the members, `total`.

    With `counts`, `scaled` holds one value per atom and counts[a] is the
    number of members on atom a; without, each member is its own atom.
    `weights` normalizes `scaled` on each access, one weight per atom.
    """

    top: float
    scaled: np.ndarray
    total: float
    ess: float
    counts: Optional[np.ndarray] = None

    @property
    def weights(self) -> np.ndarray:
        return self.scaled / self.total

    @property
    def size(self) -> int:
        return len(self.scaled) if self.counts is None else int(self.counts.sum())

    def member_sum(self, values: np.ndarray):
        """Sum over the members of per-atom values along the last axis."""
        return _member_sum(values, self.counts)

    def member_std(self, values: np.ndarray):
        """Standard deviation (ddof=1) over the members of per-atom values
        along the last axis, the deviations from the mean formed once per
        atom."""
        mean = self.member_sum(values) / self.size
        return np.sqrt(self.member_sum((values - mean[..., None]) ** 2) / (self.size - 1))


def log_weights_ensemble(uhat: np.ndarray, Z: np.ndarray, dt: float,
                         stop: Optional[np.ndarray] = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked log rho over an ensemble, uhat (m, N) and Z (m, N+1), and the
    per-path energies sum_k uhat_k^2 dt that it contains: two (m,) arrays.

    With stopping indices `stop` (m,), the drift is the stopped one,
    `localize(uhat, stop)`.  Each chunk of rows (`core.row_chunks`) is
    copied row-major once.
    """
    if uhat.ndim != 2 or Z.shape != (uhat.shape[0], uhat.shape[1] + 1):
        raise ShapeError(f"filtered drift {uhat.shape} does not fit innovation {Z.shape}")
    m, N = uhat.shape
    stop = np.full(m, N) if stop is None else np.asarray(stop)
    if stop.shape != (m,):
        raise ShapeError(f"stopping indices {stop.shape} do not fit filtered drift {uhat.shape}")
    ito, en = np.empty(m), np.empty(m)
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in row_chunks(m, N):
            # an einsum over column-major rows would add in another order
            x = np.ascontiguousarray(uhat[rows])
            if stop[rows].min() < N:  # x * True is x: a chunk never stopped keeps its drift
                x = localize(x, stop[rows])
            dZ = np.diff(np.ascontiguousarray(Z[rows]), axis=1)
            ito[rows] = np.einsum("mk,mk->m", x, dZ)
            en[rows] = path_energies(x, dt)
        out = -ito - 0.5 * en
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite log-weight encountered")
    return out, en


def stop_indices(uhat: np.ndarray, dt: float, thresholds: Sequence[float]) -> np.ndarray:
    """Per-member stopping index for each threshold n: the first k with
    sum_{j<k} uhat_j^2 dt > n, or N when the running energy never exceeds n.

    Returns a (len(thresholds), m) array.  A running energy never falls,
    so only rows whose energy before step N-1 (summed step by step, in
    np.cumsum's order) exceeds some threshold, or is NaN, form theirs, a
    chunk of rows at a time, once for all thresholds.
    """
    m, N = uhat.shape
    last = np.zeros(m)
    for k in range(N - 1):
        last += uhat[:, k] * uhat[:, k] * dt
    out = np.full((len(thresholds), m), N, dtype=np.intp)
    live = np.flatnonzero(~(last <= min(thresholds, default=np.inf)))
    for chunk in row_chunks(len(live), N):
        x = uhat[live[chunk]]
        step_energy = np.einsum("mk,mk->mk", x, x) * dt
        before = np.zeros(x.shape)  # energy before step k, k = 0..N-1
        np.cumsum(step_energy[:, :-1], axis=1, out=before[:, 1:])
        for i, threshold in enumerate(thresholds):
            exceeded = before > threshold
            out[i, live[chunk]] = np.where(exceeded.any(axis=1), exceeded.argmax(axis=1), N)
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
    mean = float(np.exp(ens.top) * (ens.total / ens.size))
    se = float(np.exp(ens.top) * ens.member_std(ens.scaled) / np.sqrt(ens.size))
    passed = bool(np.isfinite(mean) and np.isfinite(se) and abs(mean - 1.0) <= 3.0 * se)
    return NormalizationDiagnostic(mean, se, passed)


def reweight(log_weights: np.ndarray, counts: Optional[np.ndarray] = None) -> WeightedEnsemble:
    """Self-normalized weights w_i = exp(l_i - max l) / sum_j exp(l_j - max l).

    With `counts`, log_weights holds one value per atom and counts[a] is
    the number of members on atom a, at least one.  The checks count
    members.
    """
    lw = np.asarray(log_weights, dtype=float)
    if counts is not None:
        counts = np.asarray(counts)
        if counts.shape != lw.shape or counts.min(initial=1) < 1:
            raise UsageError(f"member counts {counts.shape} must give each of the "
                             f"{lw.size} atoms at least one member")
    size = lw.size if counts is None else int(counts.sum())
    if size < 2:
        raise UsageError(f"need at least two members, got {size}")
    if np.any(np.isnan(lw)):
        raise NumericalError("NaN log-weight")
    top = np.max(lw)
    if not np.isfinite(top):
        raise DegeneracyError("all log-weights are -inf")
    scaled = np.exp(lw - top)
    total = float(_member_sum(scaled, counts))
    ess = float(1.0 / _member_sum((scaled / total) ** 2, counts))
    return WeightedEnsemble(float(top), scaled, total, ess, counts)


def _member_sum(values: np.ndarray, counts: Optional[np.ndarray]):
    """Sum over the members of per-atom values along the last axis: each
    atom's value times its member count, summed over the atoms;
    `values.sum(axis=-1)` without counts."""
    return values.sum(axis=-1) if counts is None else (values * counts).sum(axis=-1)
