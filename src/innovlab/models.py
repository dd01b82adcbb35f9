"""Drift models defining adapted perturbations of identity U = B + int u' ds.

Each model produces, step by step, the drift rate u'_k from the histories
available at the left endpoint t_k (observation values up to and
including t_k, auxiliary randomness independent of B, and any hidden
state).  One Euler recursion

    U_{k+1} = U_k + u'_k dt + dB_k

is shared by the Gaussian sampler, the quantized-noise sampler and the
exact enumeration oracle, so that all pipelines integrate the very same
discrete dynamics.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import LANE_AUX, LANE_BROWNIAN, LANE_HIDDEN, RandomStream, TimeGrid, row_chunks
from .errors import ConfigurationError, ShapeError

__all__ = [
    "DriftModel",
    "EnsembleSimulation",
    "simulate_ensemble",
    "run_euler",
    "make_model",
    "list_models",
    "time_function",
    "MODEL_NAMES",
]


# each time profile's coefficients, with their defaults
TIME_PROFILES = {
    "constant": {"value": 1.0},
    "linear": {"intercept": 0.0, "slope": 1.0},
    "sine": {"amplitude": 1.0, "frequency": 1.0},
}


def _number(key: str, value, whole: bool = False):
    """A model parameter's value: a finite real number, an int when `whole`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    if whole and value != int(value):
        raise ConfigurationError(f"{key} must be a whole number, got {value!r}")
    return int(value) if whole else float(value)


def time_function(shape: str = "constant", **coef) -> Callable[[np.ndarray], np.ndarray]:
    """Small expression set for deterministic time profiles h(t); a shape
    takes only its own coefficients, TIME_PROFILES[shape]."""
    if shape not in TIME_PROFILES:
        raise ConfigurationError(f"unknown time profile {shape!r}")
    known = TIME_PROFILES[shape]
    for key in coef:
        if key not in known:
            raise ConfigurationError(f"time profile {shape!r} has no coefficient {key!r}; "
                                     f"known: {', '.join(known)}")
    c = {key: _number(key, coef.get(key, default)) for key, default in known.items()}
    if shape == "constant":
        return lambda t: np.full_like(np.asarray(t, dtype=float), c["value"])
    if shape == "linear":
        return lambda t: c["intercept"] + c["slope"] * np.asarray(t, dtype=float)
    return lambda t: c["amplitude"] * np.sin(2.0 * np.pi * c["frequency"]
                                             * np.asarray(t, dtype=float))


class DriftModel:
    """Base class; subclasses fill in the per-step drift rule.

    A drift rule acts row by row: row i of its output and state depends
    only on row i of U, aux, hidden and state, so that
    `harness.continuous_front_end` may simulate each block of rows alone.

    Attributes:
        name: registry identifier.
        kind: one of "exogenous", "feedback", "hidden-signal".
        aux_dim: number of auxiliary draws independent of B (0 if none).
        reads_observation: whether the drift rule looks at U's history.
        observation_adapted: whether u' is a function of U's history alone,
            in which case the conditional drift equals the drift itself.
    """

    name = "abstract"
    kind = "exogenous"
    aux_dim = 0
    reads_observation = False
    observation_adapted = False

    def parameters(self) -> dict:
        return {}

    def validate(self, grid: TimeGrid) -> None:
        pass

    def sample_aux(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """Draw the auxiliary inputs, shape (m, aux_dim)."""
        return np.empty((m, 0))

    def needs_hidden(self) -> bool:
        return False

    def sample_hidden(self, rng: np.random.Generator, grid: TimeGrid) -> np.ndarray:
        """Hidden driving noise of one path, shape (N,); only if needs_hidden."""
        raise NotImplementedError

    def start(self, grid: TimeGrid, aux: np.ndarray, hidden: Optional[np.ndarray]) -> dict:
        """Initialize the mutable state of the Euler loop for the given rows."""
        return {}

    def drift(self, k: int, grid: TimeGrid, U: np.ndarray, aux: np.ndarray,
              hidden: Optional[np.ndarray], state: dict) -> np.ndarray:
        """Drift rate on [t_k, t_{k+1}), shape (m,).

        U is the observation value array (m, N+1); only columns 0..k may
        be read (adaptedness by construction).  The Brownian path is not
        passed: a drift may depend on it only through U.
        """
        raise NotImplementedError


class ZeroDrift(DriftModel):
    """u' = 0: the observation is the Brownian motion itself."""

    name = "zero"
    kind = "exogenous"
    observation_adapted = True

    def drift(self, k, grid, U, aux, hidden, state):
        return np.zeros(U.shape[0])


class DeterministicDrift(DriftModel):
    """u'_t = h(t) for a deterministic profile h."""

    name = "deterministic"
    kind = "exogenous"
    observation_adapted = True

    def __init__(self, shape="constant", **coef):
        self._shape = shape
        self._coef = dict(coef)
        self._h = time_function(shape, **coef)

    def parameters(self):
        return {"shape": self._shape, **self._coef}

    def drift(self, k, grid, U, aux, hidden, state):
        return np.full(U.shape[0], self._h(grid.left_times[k]))


class LinearFeedback(DriftModel):
    """u'_t = -a U_t: mean-reverting feedback on the observation."""

    name = "linear-feedback"
    kind = "feedback"
    reads_observation = True
    observation_adapted = True

    def __init__(self, a=1.0):
        self.a = _number("a", a)

    def parameters(self):
        return {"a": self.a}

    def drift(self, k, grid, U, aux, hidden, state):
        return -self.a * U[:, k]


class KalmanBucy(DriftModel):
    """Hidden Ornstein-Uhlenbeck signal: dX = -beta X dt + sigma dV, u' = X.

    V is a Brownian motion independent of B; X_0 is drawn from the
    stationary law N(0, sigma^2 / (2 beta)) unless `x0_var` is given.
    """

    name = "kalman-bucy"
    kind = "hidden-signal"
    aux_dim = 1

    def __init__(self, beta=1.0, sigma=1.0, x0_var=None):
        beta, sigma = _number("beta", beta), _number("sigma", sigma)
        x0_var = None if x0_var is None else _number("x0_var", x0_var)
        if beta < 0:
            raise ConfigurationError(f"needs beta >= 0, got {beta}")
        if sigma <= 0:
            raise ConfigurationError(f"needs sigma > 0, got {sigma}")
        if beta == 0 and x0_var is None:
            raise ConfigurationError("beta = 0 needs an explicit x0_var")
        if x0_var is not None and x0_var < 0:
            raise ConfigurationError(f"needs x0_var >= 0, got {x0_var}")
        self.beta = beta
        self.sigma = sigma
        self.x0_var = x0_var if x0_var is not None else sigma**2 / (2 * beta)

    def parameters(self):
        return {"beta": self.beta, "sigma": self.sigma, "x0_var": self.x0_var}

    def sample_aux(self, rng, m):
        return rng.normal(size=(m, 1))

    def needs_hidden(self):
        return True

    def sample_hidden(self, rng, grid):
        return rng.normal(0.0, np.sqrt(grid.dt), size=grid.steps)

    def start(self, grid, aux, hidden):
        return {"X": np.sqrt(self.x0_var) * aux[:, 0]}

    def drift(self, k, grid, U, aux, hidden, state):
        u = state["X"]
        # propagate the hidden signal past t_k once its drift value is out
        state["X"] = state["X"] * (1.0 - self.beta * grid.dt) + self.sigma * hidden[:, k]
        return u


class IndependentDrift(DriftModel):
    """u'_t = theta * g(t) with theta a standard Gaussian independent of B."""

    name = "independent"
    kind = "hidden-signal"
    aux_dim = 1

    def __init__(self, g_shape="constant", **coef):
        self._g_shape = g_shape
        self._coef = dict(coef)
        self._g = time_function(g_shape, **coef)

    def parameters(self):
        return {"g_shape": self._g_shape, **self._coef}

    def g(self, t):
        return self._g(t)

    def sample_aux(self, rng, m):
        return rng.normal(size=(m, 1))

    def drift(self, k, grid, U, aux, hidden, state):
        return aux[:, 0] * self._g(grid.left_times[k])


class Tsirelson(DriftModel):
    """Iterated fractional-part feedback over geometric level times.

    Level times t_j = 2^{-(K-j)}, j = 0..K.  On (t_j, t_{j+1}] the drift is
    the fractional part of the previous segment's observed slope; on the
    first segment (0, t_0] it is an independent uniform seed, standing in
    for the infinite past of the classical construction.
    """

    name = "tsirelson"
    kind = "hidden-signal"
    aux_dim = 1
    reads_observation = True

    def __init__(self, levels=8):
        levels = _number("levels", levels, whole=True)
        if levels < 1:
            raise ConfigurationError(f"needs at least one level, got {levels}")
        self.levels = levels

    def parameters(self):
        return {"levels": self.levels}

    def level_times(self):
        return [2.0 ** -(self.levels - j) for j in range(self.levels + 1)]

    def validate(self, grid):
        if grid.horizon != 1.0:
            raise ConfigurationError("tsirelson is defined on horizon 1")
        if grid.steps % 2**self.levels != 0:
            raise ConfigurationError(
                f"grid with {grid.steps} steps cannot represent level times "
                f"2^-{self.levels}; use a multiple of {2**self.levels}"
            )

    def sample_aux(self, rng, m):
        return rng.uniform(size=(m, 1))

    def start(self, grid, aux, hidden):
        # segment boundaries as step indices; t_{-1} := 0
        bounds = [0] + [round(t * grid.steps) for t in self.level_times()]
        return {"bounds": bounds, "slope": np.mod(aux[:, 0], 1.0)}

    def drift(self, k, grid, U, aux, hidden, state):
        bounds = state["bounds"]
        # entering a new segment: refresh the slope from the finished one
        if k in bounds[1:-1]:
            j = bounds.index(k)
            lo, hi = bounds[j - 1], bounds[j]
            span = (hi - lo) * grid.dt
            state["slope"] = np.mod((U[:, hi] - U[:, lo]) / span, 1.0)
        return state["slope"]


class WitnessDrift(DriftModel):
    """One-sided feedback: no drift on the first step, a unit kick on the
    second step when the first observed increment was positive.

    Observation-adapted, so the filtered drift is the drift itself and the
    tilt density is a function of the observation path.
    """

    name = "witness-one-sided"
    kind = "feedback"
    reads_observation = True
    observation_adapted = True

    def __init__(self, kick=1.0):
        self.kick = _number("kick", kick)

    def parameters(self):
        return {"kick": self.kick}

    def drift(self, k, grid, U, aux, hidden, state):
        if k == 0:
            return np.zeros(U.shape[0])
        return self.kick * (U[:, 1] > 0).astype(float)


@dataclass(frozen=True)
class EnsembleSimulation:
    """Stacked simulation of m scalar paths: arrays indexed (path, step).

    U is (m, N+1); dB, dU and drift are (m, N); aux is (m, aux_dim).  The
    Brownian path is not stored; it is the prefix sum of dB.  Hidden
    driving noise is an input of `run_euler` and is not stored either: no
    later stage reads it, and a hidden-signal model's drift record already
    holds the signal it drives.
    """

    grid: TimeGrid
    dB: np.ndarray
    dU: np.ndarray
    drift: np.ndarray
    aux: np.ndarray
    U: np.ndarray

    @property
    def size(self) -> int:
        return self.dB.shape[0]


def run_euler(model: DriftModel, grid: TimeGrid, dB: np.ndarray,
              aux: np.ndarray, hidden: Optional[np.ndarray] = None) -> EnsembleSimulation:
    """Integrate U = B + int u' ds for given noise increments and aux draws.

    dB has shape (m, N); aux has shape (m, aux_dim); hidden, when the
    model needs it, has shape (m, N).  hidden is read by the drift rule
    only; the returned simulation does not keep it.  One `model.start` and
    one step loop cover all m rows.
    """
    model.validate(grid)
    if dB.ndim != 2:
        raise ShapeError(f"noise increments must be (m, N), got shape {dB.shape}")
    if model.needs_hidden() and hidden is None:
        raise ConfigurationError(f"model {model.name} needs hidden driving noise")
    m, N = dB.shape
    dt = grid.dt
    U = np.zeros((m, N + 1), order="F")
    drift = np.empty((m, N), order="F")
    dU = np.empty((m, N), order="F")
    state = model.start(grid, aux, hidden)
    for k in range(N):
        u = model.drift(k, grid, U, aux, hidden, state)
        drift[:, k] = u
        dU[:, k] = u * dt + dB[:, k]
        U[:, k + 1] = U[:, k] + dU[:, k]
    return EnsembleSimulation(grid, dB, dU, drift, aux, U)


def simulate_ensemble(model: DriftModel, grid: TimeGrid, size: int,
                      stream: RandomStream) -> EnsembleSimulation:
    """Simulate `size` paths; path i draws from substream stream.substream + i.

    A single path is the ensemble of size 1.
    """
    model.validate(grid)
    N = grid.steps
    dB = np.empty((size, N), order="F")
    aux = np.empty((size, model.aux_dim))
    hidden = np.empty((size, N), order="F") if model.needs_hidden() else None
    # one generator, re-seated at each (path, lane): local to this call, so
    # concurrent calls never share it.  It fills contiguous rows only, so a
    # chunk of paths draws into row-major buffers, copied over at once
    rng = stream.generator()
    for rows in row_chunks(size, N):
        noise, hidden_noise = np.empty((2, rows.stop - rows.start, N))
        for j, i in enumerate(range(rows.start, rows.stop)):
            stream.seat(rng, LANE_BROWNIAN, i).standard_normal(out=noise[j])
            if model.aux_dim:
                aux[i] = model.sample_aux(stream.seat(rng, LANE_AUX, i), 1)[0]
            if hidden is not None:
                hidden_noise[j] = model.sample_hidden(stream.seat(rng, LANE_HIDDEN, i), grid)
        dB[rows] = noise
        if hidden is not None:
            hidden[rows] = hidden_noise
    dB *= np.sqrt(grid.dt)
    return run_euler(model, grid, dB, aux, hidden)


_REGISTRY = {
    "zero": ZeroDrift,
    "deterministic": DeterministicDrift,
    "linear-feedback": LinearFeedback,
    "kalman-bucy": KalmanBucy,
    "independent": IndependentDrift,
    "tsirelson": Tsirelson,
    WitnessDrift.name: WitnessDrift,
}

MODEL_NAMES = tuple(_REGISTRY)


def make_model(name: str, **params) -> DriftModel:
    """The registered model `name` built from `params`; a parameter the
    model does not take, or a value it rejects, is a ConfigurationError
    naming the model."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}"
        ) from None
    signature = inspect.signature(cls)
    try:
        signature.bind(**params)
    except TypeError as exc:  # the binding's own error: no model code has run
        raise ConfigurationError(f"model {name!r}: {exc}; parameters: "
                                 f"{', '.join(signature.parameters) or 'none'}") from None
    try:
        return cls(**params)
    except ConfigurationError as exc:
        raise ConfigurationError(f"model {name!r}: {exc}") from None


def list_models() -> list[dict]:
    """Descriptors of the built-in models (name, kind, default parameters)."""
    out = []
    for name, cls in _REGISTRY.items():
        inst = cls()
        out.append(
            {
                "name": name,
                "kind": inst.kind,
                "aux_dimension": inst.aux_dim,
                "observation_adapted": inst.observation_adapted,
                "parameters": inst.parameters(),
            }
        )
    return out
