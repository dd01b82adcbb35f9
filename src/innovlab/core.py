"""Discretized Wiener space: grids, counter-based random streams, energies.

Conventions used throughout the package:

* uniform grids on [0, horizon] with N steps, t_k = k * horizon / N;
* observations are scalar, and an ensemble of m paths is stacked: path
  values are (m, N+1) arrays whose column 0 is 0, one value per grid
  point; a single path is m = 1;
* adapted integrands are (m, N) arrays, one value per subinterval,
  column k being the value on [t_k, t_{k+1}) (left-point convention);
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

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "RandomStream",
    "path_energies",
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


def path_energies(x: np.ndarray, dt: float, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-member energy  sum_k x_k^2 dt  of stacked integrands (m, N).

    mask, when given, is a boolean (m, N) array selecting the steps that count.
    """
    if mask is None:
        return np.einsum("mk,mk->m", x, x) * dt
    return np.einsum("mk,mk,mk->m", x, x, mask.astype(float)) * dt

