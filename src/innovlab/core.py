"""Discretized Wiener space: grids, paths, random streams, Ito sums.

Conventions used throughout the package:

* uniform grids on [0, horizon] with N steps, t_k = k * horizon / N;
* paths carry one value per grid point, (N+1, d) arrays starting at 0;
* adapted integrands carry one value per subinterval, (N, d) arrays,
  row k being the value on [t_k, t_{k+1}) (left-point convention);
* every stochastic integral is the non-anticipating left-point sum.

Randomness follows a counter-based contract: a (seed, substream) pair maps
to an independent Philox stream, substream index = path index, so ensembles
are reproducible bit-for-bit regardless of how paths are partitioned over
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ShapeError

__all__ = [
    "TimeGrid",
    "Path",
    "AdaptedSamples",
    "RandomStream",
    "sample_brownian",
    "ito_integral",
    "energy",
    "path_energies",
    "primitive",
    "cumsum0",
]

# Lane indices carving one substream into independent channels.  Lane 3 is
# unused; renumbering would move every quantized draw.
LANE_AUX = 0
LANE_BROWNIAN = 1
LANE_HIDDEN = 2
LANE_NOISE = 4
_LANES = 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with `steps` subintervals of [0, horizon]."""

    steps: int
    horizon: float = 1.0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"grid needs at least one step, got {self.steps}")
        if not (self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0 = 0, ..., t_N = horizon, length steps + 1."""
        return np.linspace(0.0, self.horizon, self.steps + 1)

    @property
    def left_times(self) -> np.ndarray:
        """Left endpoints t_0, ..., t_{N-1}, one per subinterval."""
        return self.times[:-1]


@dataclass(frozen=True)
class Path:
    """Grid values of a continuous path started at 0; shape (N+1, d)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.steps + 1:
            raise ShapeError(
                f"path needs {self.grid.steps + 1} grid values, got {v.shape[0]}"
            )
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def increments(self) -> np.ndarray:
        """Per-step increments, shape (N, d)."""
        return np.diff(self.values, axis=0)

    def terminal(self) -> np.ndarray:
        return self.values[-1]


@dataclass(frozen=True)
class AdaptedSamples:
    """Left-point samples of an adapted process; shape (N, d).

    Row k may depend only on information available at t_k; that property is
    guaranteed by the constructors in `models` and `filtering`, not checked
    here.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.steps:
            raise ShapeError(
                f"adapted samples need {self.grid.steps} rows, got {v.shape[0]}"
            )
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RandomStream:
    """Pure (seed, substream) -> byte stream map built on Philox counters.

    Substreams are mutually independent; `lane` splits one substream into
    independent channels (aux draws, Brownian increments, hidden noise, ...)
    so that the draw order inside one channel never perturbs another.
    """

    seed: int
    substream: int = 0
    lane_index: int = LANE_BROWNIAN

    def lane(self, lane_index: int) -> "RandomStream":
        if not 0 <= lane_index < _LANES:
            raise ConfigurationError(f"lane must be in [0, {_LANES}), got {lane_index}")
        return RandomStream(self.seed, self.substream, lane_index)

    def generator(self) -> np.random.Generator:
        """Fresh generator; same (seed, substream, lane) -> same draws."""
        bg = np.random.Philox(key=np.uint64(self.seed))
        return np.random.Generator(bg.jumped(self.substream * _LANES + self.lane_index))


def cumsum0(increments: np.ndarray) -> np.ndarray:
    """Prefix sums with a leading zero row: increments (N, d) -> values (N+1, d)."""
    inc = np.asarray(increments, dtype=float)
    out = np.zeros((inc.shape[0] + 1,) + inc.shape[1:])
    np.cumsum(inc, axis=0, out=out[1:])
    return out


def sample_brownian(grid: TimeGrid, d: int, stream: RandomStream) -> Path:
    """Sample a d-dimensional Brownian path on the grid.

    Increments are independent N(0, dt) per coordinate; the path starts at 0.
    """
    if d < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {d}")
    rng = stream.lane(LANE_BROWNIAN).generator()
    dB = rng.normal(0.0, np.sqrt(grid.dt), size=(grid.steps, d))
    return Path(grid, cumsum0(dB))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ShapeError(f"grid mismatch: {a.grid} vs {b.grid}")
    if a.dimension != b.dimension:
        raise ShapeError(f"dimension mismatch: {a.dimension} vs {b.dimension}")


def ito_integral(integrand: AdaptedSamples, integrator: Path) -> float:
    """Left-point stochastic sum  sum_k <a_k, X_{t_{k+1}} - X_{t_k}>."""
    _check_same_grid(integrand, integrator)
    return float(np.sum(integrand.values * integrator.increments()))


def energy(drift: AdaptedSamples) -> float:
    """Discrete Cameron-Martin energy  sum_k |a_k|^2 dt."""
    return float(np.sum(drift.values**2) * drift.grid.dt)


def path_energies(x: np.ndarray, dt: float, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-member energy  sum_k |x_k|^2 dt  of stacked integrands (m, N, d).

    mask, when given, is a boolean (m, N) array selecting the steps that count.
    """
    if mask is None:
        return np.einsum("mkd,mkd->m", x, x) * dt
    return np.einsum("mkd,mkd,mk->m", x, x, mask.astype(float)) * dt


def primitive(drift: AdaptedSamples) -> Path:
    """Cumulative left-point integral t -> int_0^t a ds as a Path."""
    return Path(drift.grid, cumsum0(drift.values * drift.grid.dt))
