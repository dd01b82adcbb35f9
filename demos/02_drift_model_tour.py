"""Tour of the built-in drift models.

Every model produces an observation U = B + int u' ds through the same
Euler recursion; they differ in where the drift gets its information:
deterministic profiles, feedback on the observation, a hidden
Ornstein-Uhlenbeck signal, a single hidden Gaussian, or the iterated
fractional-part construction with an independent uniform seed.
"""

import numpy as np

from innovlab import RandomStream, TimeGrid, list_models, make_model, simulate_ensemble
from innovlab.core import path_energies

for desc in list_models():
    print(f"{desc['name']:18s} kind={desc['kind']:14s} aux={desc['aux_dimension']} "
          f"adapted-to-observation={desc['observation_adapted']}")

grid = TimeGrid(steps=256)
stream = RandomStream(seed=5, substream=0)

print("\nterminal values on one shared noise stream:")
for name, params in [
    ("zero", {}),
    ("deterministic", {"shape": "sine", "amplitude": 1.0, "frequency": 2.0}),
    ("linear-feedback", {"a": 2.0}),
    ("kalman-bucy", {"beta": 1.0, "sigma": 1.0}),
    ("independent", {}),
    ("tsirelson", {"levels": 4}),
]:
    out = simulate_ensemble(make_model(name, **params), grid, 1, stream)
    drift_energy = path_energies(out.drift, grid.dt)[0]
    print(f"  {name:16s} U(1)={out.U[0, -1]:+.4f} "
          f"B(1)={out.dB[0].sum():+.4f} |u|_H^2={drift_energy:.4f}")

# The defining identity holds bit-exactly on the stored increments.
sim = simulate_ensemble(make_model("kalman-bucy"), grid, 100, stream)
exact = np.array_equal(sim.dU, sim.drift * grid.dt + sim.dB)
print(f"\ndU = u' dt + dB bit-exact over an ensemble: {exact}")

# Feedback keeps the observation mean-reverting; compare variances.
for a in (0.0, 1.0, 4.0):
    model = make_model("linear-feedback", a=a)
    ens = simulate_ensemble(model, grid, 4000, RandomStream(seed=11))
    print(f"feedback a={a}: Var U(1) = {ens.U[:, -1].var():.4f}")
