"""Entropy and energy estimators for the innovation-filtration criterion.

For each localization level the pipeline estimates two numbers under the
self-normalized tilted measure:

* energy: half the expected localized filtered-drift energy;
* entropy: half the expected squared second-level fit, i.e. the energy of
  the projection of the filtered drift onto innovation-history features.

When the filtered drift is measurable with respect to the innovation
history the two agree (up to the feature-projection bias, whose direction
is downward on the entropy side, making equality verdicts conservative).
On the grid it always is: U, and with it the filtered drift, is rebuilt
from Z step by step, so a continuous gap is the basis's projection
residual.  tsirelson's POSITIVE-GAP (levels 8, N = 512, 4000 paths) is
0.04107 nats with the default basis and 3.3e-9 with the filtered drift as
one more feature row; a true gap needs an observation coarser than Z,
such as the quantized lattice's sign erasure.  Exact reference values
for the linear family come from `lingauss`, which the estimators here do
not depend on.  On the quantized lattice,
`plugin_level` estimates level infinity by plug-in instead: the base
relative entropy E_nu[log rho] against the pushforward relative entropy
over the observation classes, whose exact values `oracle` enumerates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import TimeGrid, fork_map
from .errors import UsageError
from .filtering import BasisSpec, FeatureBuilder, WeightedGram, weighted_ridge_fit
from .girsanov import (
    MIN_DIAGNOSTIC_MEMBERS,
    log_weights_ensemble,
    normalization_diagnostic,
    reweight,
    stop_indices,
)

__all__ = [
    "EQUALITY_CONSISTENT",
    "POSITIVE_GAP",
    "INCONCLUSIVE",
    "GAP_FLOOR",
    "LevelReport",
    "inequality_check",
    "classify_level",
    "criterion_verdict",
    "criterion_levels",
    "plugin_level",
    "DEFAULT_LEVELS",
]

EQUALITY_CONSISTENT = "EQUALITY-CONSISTENT"
POSITIVE_GAP = "POSITIVE-GAP"
INCONCLUSIVE = "INCONCLUSIVE"

# absolute floor (nats) below which a gap is treated as numerically void;
# absorbs the feature-projection residual at desk scale, which the module
# docstring shows is the whole of a continuous gap on the grid
GAP_FLOOR = 0.02

DEFAULT_LEVELS = (0.5, 1.0, 2.0, 4.0, 8.0, math.inf)


@dataclass(frozen=True)
class LevelReport:
    """Both sides of the criterion at one localization level.

    `ridge_escalations` counts how often the level's per-step fits had to
    raise the ridge to solve a singular system.
    """

    level: float
    entropy: float
    entropy_se: float
    energy: float
    energy_se: float
    gap: float
    gap_se: float
    ess: float
    norm_mean: float
    norm_se: float
    norm_passed: bool
    verdict: str
    ridge_escalations: int = 0


def _exact_sum(x: np.ndarray) -> float:
    """`math.fsum` of x, which reads a list of floats faster than numpy
    scalars one at a time; lists of 2048 values at a time, as one whole-array
    list would hold 32 bytes per value at once.  fsum is exactly rounded,
    so neither moves a bit."""
    return math.fsum(itertools.chain.from_iterable(
        x[lo:lo + 2048].tolist() for lo in range(0, len(x), 2048)))


def _weighted_mean_se(weights: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Self-normalized mean and delta-method standard error.  The mean is
    the exactly rounded sum of the products: a BLAS dot product may split
    a long sum over threads, so its last bit would depend on their count."""
    mean = _exact_sum(weights * values)
    se = float(np.sqrt(np.sum(weights**2 * (values - mean) ** 2)))
    return mean, se


def inequality_check(entropy: float, entropy_se: float, energy: float,
                     energy_se: float) -> bool:
    """Entropy below energy within three combined standard errors.

    A few ulps of absolute slack cover the case where both sides are the
    same number reached through different reduction orders.
    """
    return entropy <= energy + 3.0 * math.hypot(entropy_se, energy_se) + 1e-12


def classify_level(gap: float, gap_se: float, ess: float, floor: float = GAP_FLOOR) -> str:
    """Classify one level's gap.

    POSITIVE-GAP needs the gap to clear both the statistical band and the
    absolute floor.  EQUALITY-CONSISTENT needs the gap inside the band and
    the band itself narrow enough (3 se <= 2 floor) to mean something.
    Everything else, and any level with fewer effective samples `ess` than
    `MIN_DIAGNOSTIC_MEMBERS`, whose band may be empty, is INCONCLUSIVE.
    """
    if ess < MIN_DIAGNOSTIC_MEMBERS:
        return INCONCLUSIVE
    band = 3.0 * gap_se
    if gap > max(band, floor):
        return POSITIVE_GAP
    if abs(gap) <= max(band, floor) and band <= 2.0 * floor:
        return EQUALITY_CONSISTENT
    return INCONCLUSIVE


def criterion_verdict(reports: Sequence[LevelReport]) -> str:
    """Aggregate verdict: a gap at any level wins; equality needs all levels."""
    if not reports:
        raise UsageError("need at least one level report")
    verdicts = [r.verdict for r in reports]
    if POSITIVE_GAP in verdicts:
        return POSITIVE_GAP
    if all(v == EQUALITY_CONSISTENT for v in verdicts):
        return EQUALITY_CONSISTENT
    return INCONCLUSIVE


def criterion_levels(Z: np.ndarray, uhat: np.ndarray, grid: TimeGrid,
                     levels: Sequence[float] = DEFAULT_LEVELS,
                     basis: BasisSpec = BasisSpec(),
                     floor: float = GAP_FLOOR,
                     forks: Optional[dict] = None) -> list[LevelReport]:
    """Run the per-level criterion over a filtered ensemble.

    Z: stacked innovation values (m, N+1); uhat: stacked filtered drift
    (m, N).  For each level the filtered drift is localized, weights are
    rebuilt, and the second-level regression is re-solved under those
    weights (the response is the unlocalized drift; the localization
    indicator, being an innovation functional, multiplies the fit).  Every
    level runs the normalization diagnostic, so fewer than
    `girsanov.MIN_DIAGNOSTIC_MEMBERS` paths is a usage error.

    Levels whose stopping indices agree share one weight set.  The
    distinct sets are dealt over one process per CPU (`core.fork_map`),
    and one process runs each set's whole chain, `_weight_set`, which
    returns only the set's means and diagnostics; so no number depends on
    how many processes share the sets.  `forks`, when given, receives the
    record `fork_map` returns; a child's `stages` there is empty.

    The stopping times and each set's stopped log-weights are formed by
    the Girsanov layer in row chunks, and the feature builder reads Z in
    place, so beside Z and uhat each process holds (m,) vectors per set
    and the builder's two (p, m) feature buffers.
    """
    levels = list(levels)
    if not levels:
        raise UsageError("need at least one localization level")

    # per level: (m,) stopping indices, N where never stopped (every path at
    # level inf)
    stops = stop_indices(uhat, grid.dt, levels)
    slots: dict = {}
    slot_of = [slots.setdefault(stop.tobytes(), len(slots)) for stop in stops]
    sets, record = fork_map(
        lambda run, _: [_weight_set(Z, uhat, grid.dt, stop, basis) for stop in run],
        stops[[slot_of.index(s) for s in range(len(slots))]])
    if forks is not None:
        forks.update(record)

    reports = []
    for lv, s in zip(levels, slot_of):
        (energy, energy_se), (entropy, entropy_se), (gap, gap_se), diag, ess, raised = sets[s]
        reports.append(
            LevelReport(
                level=lv,
                entropy=entropy,
                entropy_se=entropy_se,
                energy=energy,
                energy_se=energy_se,
                gap=gap,
                gap_se=gap_se,
                ess=ess,
                norm_mean=diag.mean,
                norm_se=diag.se,
                norm_passed=diag.passed,
                verdict=classify_level(gap, gap_se, ess, floor),
                ridge_escalations=raised,
            )
        )
    return reports


def _weight_set(Z: np.ndarray, uhat: np.ndarray, dt: float, stop: np.ndarray,
                basis: BasisSpec) -> tuple:
    """The levels of one stopping rule `stop` (m,): the means and standard
    errors of the energy, the entropy and the gap, the normalization
    diagnostic, the ESS and the ridge escalations of the N per-step fits.

    E_hat averages exactly the energies inside the rule's log-weights.
    Each step's fit keeps the set's Gram from the step before and forms
    only the entries of the feature rows that step did not have.  The
    step's energy term is formed in one held vector, and masked by the
    stopping rule only from the first step at which a path stops: before
    that the mask would multiply by 1.0, which is exact.
    """
    log_weights, energies = log_weights_ensemble(uhat, Z, dt, stop)
    ens = reweight(log_weights)
    diag = normalization_diagnostic(ens)
    weights = ens.weights
    gram = WeightedGram(weights)
    q, term = np.zeros((2, len(weights)))
    first_stop = stop.min(initial=uhat.shape[1])
    escalations = 0
    builder = FeatureBuilder(Z, dt, basis)
    for k in range(uhat.shape[1]):
        G = builder.features_at(k)
        _, fitted, raised = weighted_ridge_fit(G, uhat[:, k], gram, basis.ridge,
                                               builder.carry_map(k))
        np.multiply(fitted, fitted, out=term)
        term *= dt
        if k >= first_stop:
            term *= k < stop
        q += term
        escalations += raised
    return (_weighted_mean_se(weights, 0.5 * energies), _weighted_mean_se(weights, 0.5 * q),
            _weighted_mean_se(weights, 0.5 * (energies - q)), diag, ens.ess, escalations)


def _multiplicity_sum(x: np.ndarray, counts: np.ndarray) -> float:
    """The exactly rounded sum of each x[a] repeated counts[a] times,
    `math.fsum(np.repeat(x, counts))`, from 2 len(x) terms: each x splits
    into its top 27 significant bits and the rest (at most 26), so a count
    below 2**26 times either half is exact, barring overflow.  A count at
    or above 2**26 is a usage error."""
    counts = np.asarray(counts)
    if counts.size and counts.max() >= 2**26:
        raise UsageError(f"a multiplicity of {counts.max()} is not below 2**26")
    frac, exp = np.frexp(x)
    high = np.ldexp(np.trunc(np.ldexp(frac, 27)), exp - 27)
    return math.fsum(np.concatenate([counts * high, counts * (x - high)]).tolist())


def plugin_level(log_weights: np.ndarray, energies: np.ndarray, labels: np.ndarray,
                 path_row: Optional[np.ndarray] = None,
                 floor: float = GAP_FLOOR) -> tuple[LevelReport, float]:
    """Level infinity of a quantized ensemble by plug-in over observation
    classes, from the sampled atoms' log-weights, the drift energies
    inside them (`girsanov.log_weights_ensemble`) and their class
    `labels`, and each path's atom `path_row` (m,); without it each path
    is an atom of its own.

    `energy` is the base entropy and `entropy` the pushforward one, so
    `gap` estimates what the observation map loses.  One ensemble gives
    both, so `gap_se` is paired like a continuous level's: the se of the
    difference of their influence functions, which is 0 to rounding when
    the density is constant on classes.  Also returns half the weighted
    mean drift energy, an exactly rounded sum as `_weighted_mean_se`'s,
    over the atoms with their path counts (`_multiplicity_sum`).

    Every elementwise step (the density rho_i = exp(l_i) / mean exp(l),
    rho log rho and the influence functions) runs once per atom.  A
    per-path vector is formed only as a gathered operand of a sum whose
    order fixes its bits (`WeightedEnsemble.member_sum`) or of the class
    sums of rho, so the results are the per-path ones bit for bit and no
    more than two (m,) vectors exist at once.
    """
    rows = np.arange(len(log_weights)) if path_row is None else np.asarray(path_row)
    ens = reweight(log_weights, rows)
    labels = np.asarray(labels)
    M = ens.size
    rho = ens.scaled / (ens.total / M)
    rho_log_rho = rho * np.log(np.where(rho > 0, rho, 1.0))
    base = float(ens.member_sum(rho_log_rho) / M)
    base_infl = rho_log_rho - base - (rho - 1.0) * (base + 1.0)
    p_hat = np.bincount(labels, weights=ens.counts) / M
    q_hat = np.bincount(labels[rows], weights=rho[rows]) / M
    good = p_hat > 0
    ratio = np.zeros_like(p_hat)
    ratio[good] = q_hat[good] / p_hat[good]
    logratio = np.log(np.where(ratio > 0, ratio, 1.0))
    push = float(np.sum(q_hat * logratio))
    push_infl = rho * (logratio[labels] + 1.0) - ratio[labels] - rho * (push + 1.0) + 1.0

    def influence_se(infl):
        return float(ens.member_std(infl) / np.sqrt(M))

    gap = base - push
    gap_se = influence_se(base_infl - push_infl)
    diag = normalization_diagnostic(ens)
    report = LevelReport(
        level=math.inf, entropy=push, entropy_se=influence_se(push_infl),
        energy=base, energy_se=influence_se(base_infl),
        gap=gap, gap_se=gap_se, ess=ens.ess,
        norm_mean=diag.mean, norm_se=diag.se, norm_passed=diag.passed,
        verdict=classify_level(gap, gap_se, ens.ess, floor))
    return report, 0.5 * _multiplicity_sum(ens.weights * energies, ens.counts)
