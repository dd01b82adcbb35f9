"""Discretized Wiener space in five minutes.

Grids, Brownian paths from reproducible counter-based streams, left-point
Ito sums, and the Cameron-Martin energy functional.  Paths are scalar and
stacked into ensembles: values (m, N+1), rates (m, N); a single path is
m = 1.
"""

import numpy as np

from innovlab import RandomStream, TimeGrid, make_model, simulate_ensemble
from innovlab.core import path_energies
from innovlab.filtering import innovation_values
from innovlab.girsanov import log_weights_ensemble

# A grid is just [0, horizon] cut into N steps.
grid = TimeGrid(steps=256)
print(f"grid: N={grid.steps}, dt={grid.dt:.5f}, t_N={grid.times[-1]}")

# Brownian paths are the observations of the zero-drift model.  Streams are
# pure functions of (seed, substream): same pair, same path.
zero = make_model("zero")
stream = RandomStream(seed=2024, substream=0)
B = simulate_ensemble(zero, grid, 2, stream).U
B_again = simulate_ensemble(zero, grid, 2, stream).U
print("bit-identical resampling:", np.array_equal(B, B_again))

# Row i of an ensemble draws from substream i, and substreams are independent;
# that is what makes ensembles reproducible no matter how they are chunked
# over workers.
dB = np.diff(B, axis=1)
print(f"cross-substream increment correlation: {np.corrcoef(dB)[0, 1]:+.4f}")

# The Ito sum uses the left endpoint of each step:  sum a_k (X_{k+1} - X_k).
# It is the stochastic part of the Girsanov log-weight
# log rho = -sum a_k dX_k - 1/2 sum a_k^2 dt.
ones = np.ones((1, grid.steps))
ito = -(log_weights_ensemble(ones, B[:1], grid.dt) + 0.5 * path_energies(ones, grid.dt))
print(f"int 1 dB = {ito[0]:+.5f} vs B(1) = {B[0, -1]:+.5f}")

# Energy is the squared Cameron-Martin norm of the primitive.
ramp = grid.left_times[None, :]  # a'(t) = t
print(f"energy of a'(t)=t: {path_energies(ramp, grid.dt)[0]:.5f} (continuum value 1/3)")

# The innovation subtracts the integrated rate from a path: Z = X - int a ds.
Z = innovation_values(B[:1], ramp, grid.dt)
print(f"X(1) - Z(1) = int_0^1 t dt: {B[0, -1] - Z[0, -1]:.5f} (continuum value 1/2)")

# Monte Carlo sanity: terminal variance equals the horizon.
M = 20_000
terminal = simulate_ensemble(zero, grid, M, RandomStream(seed=7)).U[:, -1]
print(f"terminal variance over {M} paths: {terminal.var():.4f} (expect 1.0)")
