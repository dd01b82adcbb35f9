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
from the `WeightedEnsemble` it returns.  Given each member's atom, it
exponentiates one log-weight per atom, and a sum over the members is the
sum of the atoms' values gathered member by member: numpy's pairwise
order over the members fixes its bits, which a count-weighted sum would
not keep.  The sum follows that order one leaf of at most CHUNK_VALUES
gathered values at a time (`_gathered_sum`), so no per-member vector is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import CHUNK_VALUES, chunked_bincount, path_energies, row_chunks
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

    With `rows`, `scaled` holds one value per atom, member i is on atom
    rows[i], and `counts` holds each atom's number of members; without,
    each member is its own atom.  `weights` normalizes `scaled` on each
    access, one weight per atom.  A sum over the members holds one leaf
    of gathered values at a time (`_gathered_sum`).
    """

    top: float
    scaled: np.ndarray
    total: float
    ess: float
    rows: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None

    @property
    def weights(self) -> np.ndarray:
        return self.scaled / self.total

    @property
    def size(self) -> int:
        return len(self.scaled if self.rows is None else self.rows)

    def member_sum(self, values: np.ndarray):
        """Sum over the members of per-atom values along the last axis,
        `values[..., rows].sum(axis=-1)` bit for bit."""
        return _gathered_sum(values, self.rows)

    def member_std(self, values: np.ndarray):
        """`np.std(values[..., rows], axis=-1, ddof=1)`, the deviations from
        the mean formed once per atom."""
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


def reweight(log_weights: np.ndarray, rows: Optional[np.ndarray] = None) -> WeightedEnsemble:
    """Self-normalized weights w_i = exp(l_i - max l) / sum_j exp(l_j - max l).

    With `rows`, log_weights holds one value per atom and member i is on
    atom rows[i]; every atom needs a member.  The checks count members.
    """
    lw = np.asarray(log_weights, dtype=float)
    size = lw.size if rows is None else len(rows)
    if size < 2:
        raise UsageError(f"need at least two members, got {size}")
    counts = None if rows is None else chunked_bincount(rows, lw.size)
    if counts is not None and (len(counts) > lw.size or not counts.all()):
        raise UsageError(f"members must lie on the {lw.size} atoms, each atom on a member")
    if np.any(np.isnan(lw)):
        raise NumericalError("NaN log-weight")
    top = np.max(lw)
    if not np.isfinite(top):
        raise DegeneracyError("all log-weights are -inf")
    scaled = np.exp(lw - top)
    total = float(_gathered_sum(scaled, rows))
    ess = float(1.0 / _gathered_sum((scaled / total) ** 2, rows))
    return WeightedEnsemble(float(top), scaled, total, ess, rows, counts)


def _gathered_sum(values: np.ndarray, rows: Optional[np.ndarray]):
    """`values[..., rows].sum(axis=-1)` bit for bit, one leaf of the gather
    at a time; `values.sum(axis=-1)` without rows.

    numpy sums n > 128 float64 values along a contiguous axis as the sum
    of the first n2 = n // 2 - (n // 2) % 8 and the sum of the other
    n - n2, each formed the same way.  Down that tree, a part whose gather
    holds at most CHUNK_VALUES values (or 128 members, below which numpy
    does not split) is a leaf: numpy sums its gather, and the leaves are
    added back up the tree.  Each leaf's rows are widened once into an
    intp buffer, which numpy gathers from faster than from narrow indices,
    and every row of values gathers from it.
    """
    if rows is None:
        return values.sum(axis=-1)
    leaf = max(CHUNK_VALUES // math.prod(values.shape[:-1]), 128)
    index = np.empty(min(len(rows), leaf), dtype=np.intp)
    return _tree_sum(values, rows, index, 0, len(rows))


def _tree_sum(values: np.ndarray, rows: np.ndarray, index: np.ndarray, lo: int, n: int):
    """`_gathered_sum` over the members lo..lo + n, a part of numpy's tree
    whose leaves have at most len(index) members."""
    if n <= len(index):
        index[:n] = rows[lo:lo + n]
        return values.take(index[:n], axis=-1).sum(axis=-1)
    n2 = n // 2 - n // 2 % 8
    return (_tree_sum(values, rows, index, lo, n2)
            + _tree_sum(values, rows, index, lo + n2, n - n2))
