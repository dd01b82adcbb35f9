"""Girsanov reweighting, normalization diagnostics, and localization.

Tilting the ensemble by exp(-int uhat dZ - 1/2 int uhat^2 ds) makes the
observation play the role of the driving noise.  The raw exponential
should have unit mean; when it does not (heavy drift, coarse grid), the
stopping-time localization caps the filtered energy and restores it.
"""

import numpy as np

from innovlab import RandomStream, TimeGrid, make_model, normalization_diagnostic, reweight, simulate_ensemble
from innovlab.core import path_energies
from innovlab.filtering import ensemble_conditional_drift, innovation_values
from innovlab.girsanov import localize, log_weights_ensemble, stop_indices

grid = TimeGrid(steps=128)
M = 50_000

# Deterministic drift against a Brownian path: the discrete exponential is
# an exact unit-mean martingale, and reweighting shifts the terminal law.
sim = simulate_ensemble(make_model("zero"), grid, M, RandomStream(seed=21))
h = np.ones((M, grid.steps))
lw, _ = log_weights_ensemble(h, sim.U, grid.dt)
ens = reweight(lw)
diag = normalization_diagnostic(ens)
print(f"unit drift: mean exp(logw) = {diag.mean:.4f} +- {diag.se:.4f} pass={diag.passed}")
print(f"tilted mean of U(1): {float(ens.weights @ sim.U[:, -1]):+.4f} (expect -1)")
print(f"effective sample size: {ens.ess:.0f} of {M}")

# Localization: stop the drift (set it to zero) once its running energy
# crosses n.
model = make_model("linear-feedback", a=2.0)
sim = simulate_ensemble(model, grid, 20_000, RandomStream(seed=23))
filt = ensemble_conditional_drift(model, sim)
Z = innovation_values(sim.U, filt.values, grid.dt)
levels = (0.5, 2.0, 8.0)
for n, idx in zip(levels, stop_indices(filt.values, grid.dt, levels)):
    loc = localize(filt.values, idx)
    d = normalization_diagnostic(reweight(log_weights_ensemble(loc, Z, grid.dt)[0]))
    stopped = int((idx < grid.steps).sum())
    print(f"n={n:4}: stopped {stopped:5d} paths, norm mean {d.mean:.4f} +- {d.se:.4f} "
          f"pass={d.passed}")

# The one-path view of the same thing: an ensemble of size 1.
one = filt.values[:1]
capped = localize(one, stop_indices(one, grid.dt, [0.5])[0])
print(f"one path: raw energy {path_energies(one, grid.dt)[0]:.3f}, "
      f"localized {path_energies(capped, grid.dt)[0]:.3f}")
