"""Filtered drifts and innovation processes.

The filtered drift is the conditional expectation of the drift rate given
the observation so far.  The hidden Ornstein-Uhlenbeck model has an exact
Kalman recursion and a single hidden Gaussian factor a conjugate closed
form; subtracting the filtered primitive from the observation leaves the
innovation process, a Brownian motion in its own filtration.
"""

import numpy as np

from innovlab import (
    RandomStream,
    TimeGrid,
    ensemble_conditional_drift,
    make_model,
    simulate_ensemble,
)
from innovlab.filtering import innovation_values, riccati_sequence

grid = TimeGrid(steps=128)
model = make_model("kalman-bucy", beta=1.0, sigma=1.0)
one = simulate_ensemble(model, grid, 1, RandomStream(seed=41, substream=0))

# Exact filter: the discrete Kalman predict/update of the simulated Euler
# scheme, started from the stationary prior.
exact = ensemble_conditional_drift(model, one)
P = riccati_sequence(1.0, 1.0, grid, p0=0.5)
print(f"Kalman error variance at t=1: {P[-1]:.5f} (continuum limit sqrt(2)-1 = "
      f"{np.sqrt(2)-1:.5f})")

# Over an ensemble, the filter's mean-square error is that error variance.
sim = simulate_ensemble(model, grid, 5_000, RandomStream(seed=42))
filt = ensemble_conditional_drift(model, sim)
mse = np.mean((sim.drift[:, -1] - filt.values[:, -1]) ** 2)
print(f"filter mean-square error at the last step over 5000 paths: {mse:.5f} "
      f"(Kalman {P[grid.steps - 1]:.5f})")

# The innovation: observation minus the integrated filtered drift.
Z = innovation_values(one.U, exact.values, grid.dt)
print(f"hidden-state path vs filter estimate at t=1: "
      f"X={one.drift[0, -1]:+.4f}, Xhat={exact.values[0, -1]:+.4f}")
print(f"innovation terminal: {Z[0, -1]:+.4f}")

# Statistically the innovation increments look like fresh Brownian noise.
M = 3000
ens = simulate_ensemble(model, grid, M, RandomStream(seed=100))
Z = innovation_values(ens.U, ensemble_conditional_drift(model, ens).values, grid.dt)
zvar = np.diff(Z, axis=1)
print(f"innovation increment variance / dt over {M} paths: {zvar.var() / grid.dt:.4f}")

# For a single hidden Gaussian the posterior mean is conjugate and exact.
ind = make_model("independent")
o = simulate_ensemble(ind, grid, 1, RandomStream(seed=9))
post = ensemble_conditional_drift(ind, o)
closed = o.U[0, :-1] / (1.0 + grid.left_times)
gap = np.max(np.abs(post.values[0] - closed))
print(f"independent model ({post.method}): filter vs posterior mean "
      f"U_t/(1+t) sup-gap {gap:.2e}")
