"""innovlab: a Monte Carlo laboratory for innovation filtrations.

The package simulates drifted Brownian observations U = B + int u' ds,
computes filtered drifts and innovation processes, reweights ensembles by
Girsanov exponentials, and estimates both sides of the entropy-energy
criterion that characterizes when the observation filtration coincides
with the innovation filtration.  A quantized finite oracle provides exact
reference values for every estimator.

Module map:

* ``core``      -- grids, counter-based random streams (a vectorized
                   Philox4x64-10 kernel for uniform lanes), path energies
* ``models``    -- the drift-model registry, the shared Euler recursion and
                   the stacked ensemble (m scalar paths; a single path is m = 1)
* ``filtering`` -- exact filters, innovations, second-level regressions
* ``girsanov``  -- log-weights, stopping-time localization, reweighting
* ``criterion`` -- entropy and energy estimators, verdicts
* ``lingauss``  -- the Gaussian tilt of a linear model on its grid and
                   its exact functionals (relative entropies, energies)
* ``oracle``    -- finite laws (quantized noise, finite aux), exact atom
                   enumeration, entropy identities, the witness
* ``harness``   -- configs, experiment runs, persistence, suites
* ``cli``       -- the ``innovlab`` command (run, report, suite, list-models)
"""

__version__ = "0.1.0"

from .core import RandomStream, TimeGrid
from .criterion import (
    EQUALITY_CONSISTENT,
    INCONCLUSIVE,
    POSITIVE_GAP,
    LevelReport,
    criterion_levels,
    criterion_verdict,
)
from .filtering import BasisSpec, ensemble_conditional_drift
from .girsanov import WeightedEnsemble, normalization_diagnostic, reweight
from .harness import ExperimentConfig, report, run_experiment, suite
from .models import list_models, make_model, simulate_ensemble
from .oracle import (
    AtomSpace,
    FiniteLaw,
    dpi_verdict,
    enumerate_atoms,
    exact_relative_entropy,
    gauss_quantized,
    witness_space,
)

__all__ = [
    "__version__",
    "RandomStream", "TimeGrid",
    "EQUALITY_CONSISTENT", "INCONCLUSIVE", "POSITIVE_GAP",
    "LevelReport", "criterion_levels", "criterion_verdict",
    "BasisSpec", "ensemble_conditional_drift",
    "WeightedEnsemble", "normalization_diagnostic", "reweight",
    "ExperimentConfig", "report", "run_experiment", "suite",
    "list_models", "make_model", "simulate_ensemble",
    "AtomSpace", "FiniteLaw", "dpi_verdict", "enumerate_atoms",
    "exact_relative_entropy", "gauss_quantized", "witness_space",
]
