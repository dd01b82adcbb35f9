"""The exact finite oracle and the information-erasing witness.

Quantized noise makes the pipeline exhaustively enumerable.  Two facts
show up immediately:

1. on a discrete grid the innovation map is invertible, so any system
   filtered exactly satisfies the entropy equality, to machine precision;
2. a strict gap needs an observation that genuinely erases information --
   the bundled witness forgets the sign of the terminal innovation of a
   one-sided feedback drift, and the enumerated gap is matched by the
   Monte Carlo pipeline on the same lattice.
"""

import numpy as np

from innovlab import ExperimentConfig, FiniteLaw, RandomStream, TimeGrid, dpi_verdict, enumerate_atoms, gauss_quantized, make_model, run_experiment, witness_space
from innovlab.oracle import (
    WitnessDrift,
    filter_deviation,
    finite_bayes_filter,
    sample_quantized_ensemble,
    system_battery,
)

# A three-point quantization matches Gaussian moments up to order five.
qn = gauss_quantized(3, dt=0.25)
print("nodes:", np.round(qn.values, 4), "probs:", np.round(qn.probs, 4))

# Enumerate a feedback model: 2^N atoms, exact conditional drift by
# grouping, and the equality holds exactly.
grid = TimeGrid(steps=3)
space = enumerate_atoms(make_model("linear-feedback", a=1.0), grid, gauss_quantized(2, grid.dt))
v = dpi_verdict(space.system())
print(f"\nfeedback enumeration: {space.atoms} atoms, gap = {v.gap:.2e}, "
      f"density measurable: {v.density_z_measurable}")

# A hidden Gaussian factor becomes a finite law too (values in any order,
# uniform unless probabilities are given).  The Bayes filter of sampled
# paths reproduces the enumerated conditional drift on their atoms.
model = make_model("independent")
noise, aux = gauss_quantized(3, grid.dt), FiniteLaw([1.5, -1.5], [0.25, 0.75])
space = enumerate_atoms(model, grid, noise, aux)
sim = sample_quantized_ensemble(model, grid, 2000, RandomStream(seed=1), noise, aux)
filt = finite_bayes_filter(model, sim, noise, aux)
dev = filter_deviation(space, sim, filt.values)
print(f"independent model, aux {aux.values} w.p. {aux.probs}: {space.atoms} atoms, "
      f"filter vs enumeration max deviation {dev:.1e}")

# The witness: same machinery, but observed only through |Z(1)|.
space, system = witness_space()
v = dpi_verdict(system)
print(f"\nwitness: base entropy {v.base_entropy:.6f}, erased-observation entropy "
      f"{v.pushforward_entropy:.6f}")
print(f"         strict gap {v.gap:.6f} nats; observation recoverable: "
      f"{v.u_recoverable_from_z}")

# Monte Carlo on the same lattice reproduces the enumerated gap, and the
# run checks its estimates against the enumeration itself.
cfg = ExperimentConfig(model=WitnessDrift.name, mode="crosscheck", grid_n=2,
                       paths=50_000, noise_nodes=2, erasure="sign-terminal",
                       seed=3, outdir="runs/demo-witness")
rec = run_experiment(cfg, persist=False)
row = rec.levels[0]
cc = rec.diagnostics["crosscheck"]
print(f"MC mirror: gap {row['gap']:.6f} +- {row['gap_se']:.6f} -> {rec.verdict}; "
      f"crosscheck entropy rel. error {cc['entropy_rel_error']:.3f}, passed {cc['passed']}")

# A battery of random finite systems: the data-processing inequality and
# the equality-iff-measurable equivalence, checked exactly.
battery = system_battery(60, seed=7)
strict = sum(dpi_verdict(s).gap > 1e-12 for s in battery)
print(f"\nbattery of 60 random systems: {strict} strict, {60 - strict} equalities, "
      "data processing exact on all")
