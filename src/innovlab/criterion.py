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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TimeGrid
from .errors import UsageError
from .filtering import BasisSpec, FeatureBuilder, WeightedGram, weighted_ridge_fit
from .girsanov import (
    WeightedEnsemble,
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
    method: str
    ridge_escalations: int = 0


def _weighted_mean_se(weights: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Self-normalized mean and delta-method standard error."""
    mean = float(weights @ values)
    se = float(np.sqrt(np.sum(weights**2 * (values - mean) ** 2)))
    return mean, se


def inequality_check(entropy: float, entropy_se: float, energy: float,
                     energy_se: float) -> bool:
    """Entropy below energy within three combined standard errors.

    A few ulps of absolute slack cover the case where both sides are the
    same number reached through different reduction orders.
    """
    return entropy <= energy + 3.0 * math.hypot(entropy_se, energy_se) + 1e-12


def classify_level(gap: float, gap_se: float, floor: float = GAP_FLOOR) -> str:
    """Classify one level's gap.

    POSITIVE-GAP needs the gap to clear both the statistical band and the
    absolute floor.  EQUALITY-CONSISTENT needs the gap inside the band and
    the band itself narrow enough (3 se <= 2 floor) to mean something.
    Everything else is INCONCLUSIVE.
    """
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
                     method: str = "") -> list[LevelReport]:
    """Run the per-level criterion over a filtered ensemble.

    Z: stacked innovation values (m, N+1); uhat: stacked filtered drift
    (m, N).  For each level the filtered drift is localized, weights are
    rebuilt, and the second-level regression is re-solved under those
    weights (the response is the unlocalized drift; the localization
    indicator, being an innovation functional, multiplies the fit).  Every
    level runs the normalization diagnostic, so fewer than
    `girsanov.MIN_DIAGNOSTIC_MEMBERS` paths is a usage error.

    The stopping times and each level's stopped log-weights are formed by
    the Girsanov layer in row chunks, and the feature builder reads Z in
    place, so beside Z and uhat the stage holds only (m,) vectors per level.
    The weights are normalized once, and each step's fit forms only the
    Gram entries of the feature rows that the previous step did not have.
    """
    N = uhat.shape[1]
    dt = grid.dt
    levels = list(levels)
    if not levels:
        raise UsageError("need at least one localization level")

    # per level: (m,) stopping indices, N where never stopped (every path at
    # level inf); levels with the same stops share weights and regressions
    stops = stop_indices(uhat, dt, levels)
    slots: dict = {}
    slot_of = [slots.setdefault(stop.tobytes(), len(slots)) for stop in stops]
    stopped = stops[[slot_of.index(s) for s in range(len(slots))]]

    # E_hat averages exactly the energies inside the level's log-weights
    log_weights, energies = log_weights_ensemble(uhat, Z, dt, stopped)
    weight_sets, diags, ess = [], [], []
    for lw in log_weights:
        ens = reweight(lw)
        diags.append(normalization_diagnostic(ens))
        weight_sets.append(ens.weights)
        ess.append(ens.ess)

    # one regression call per step: features shared, and each weight set's
    # Gram kept from step to step
    gram = WeightedGram(np.stack(weight_sets))
    q = np.zeros(gram.weights.shape)
    escalations = np.zeros(len(stopped), dtype=int)
    builder = FeatureBuilder(Z, dt, basis)
    for k in range(N):
        G = builder.features_at(k)
        _, fitted, raised = weighted_ridge_fit(G, uhat[:, k], gram, basis.ridge,
                                               builder.carry_map(k))
        q += fitted * fitted * dt * (k < stopped)
        escalations += raised

    reports = []
    for lv, s in zip(levels, slot_of):
        w, e, qi, diag = weight_sets[s], energies[s], q[s], diags[s]
        energy, energy_se = _weighted_mean_se(w, 0.5 * e)
        entropy, entropy_se = _weighted_mean_se(w, 0.5 * qi)
        gap, gap_se = _weighted_mean_se(w, 0.5 * (e - qi))
        reports.append(
            LevelReport(
                level=lv,
                entropy=entropy,
                entropy_se=entropy_se,
                energy=energy,
                energy_se=energy_se,
                gap=gap,
                gap_se=gap_se,
                ess=ess[s],
                norm_mean=diag.mean,
                norm_se=diag.se,
                norm_passed=diag.passed,
                verdict=classify_level(gap, gap_se, floor),
                method=method or f"jensen[{basis.describe()}]",
                ridge_escalations=int(escalations[s]),
            )
        )
    return reports


def _plugin_entropies(ens: WeightedEnsemble, labels: np.ndarray) -> tuple:
    """Plug-in base relative entropy E_nu[log rho] and pushforward relative
    entropy over the classes `labels`, each with its per-path influence
    function; the density rho_i = exp(l_i) / mean exp(l) is formed once."""
    M = ens.size
    rho = ens.scaled / ens.scaled.mean()
    rho_log_rho = rho * np.log(np.where(rho > 0, rho, 1.0))
    base = float(np.mean(rho_log_rho))
    base_infl = rho_log_rho - base - (rho - 1.0) * (base + 1.0)
    p_hat = np.bincount(labels) / M
    q_hat = np.bincount(labels, weights=rho) / M
    good = p_hat > 0
    ratio = np.zeros_like(p_hat)
    ratio[good] = q_hat[good] / p_hat[good]
    logratio = np.log(np.where(ratio > 0, ratio, 1.0))
    push = float(np.sum(q_hat * logratio))
    push_infl = rho * (logratio[labels] + 1.0) - ratio[labels] - rho * (push + 1.0) + 1.0
    return base, base_infl, push, push_infl


def _influence_se(infl: np.ndarray) -> float:
    """Delta-method standard error of a plug-in estimate with these
    per-path influence values."""
    return float(np.std(infl, ddof=1) / np.sqrt(len(infl)))


def plugin_level(Z: np.ndarray, uhat: np.ndarray, labels: np.ndarray, grid: TimeGrid,
                 floor: float = GAP_FLOOR, method: str = "plugin"
                 ) -> tuple[LevelReport, float]:
    """Level infinity of a quantized ensemble, Z (m, N+1) and uhat (m, N),
    by plug-in over the observation class `labels` of each path.

    `energy` is the base entropy and `entropy` the pushforward one, so
    `gap` estimates what the observation map loses.  One ensemble gives
    both, so `gap_se` is paired like a continuous level's: the se of the
    difference of their influence functions, which is 0 to rounding when
    the density is constant on classes.  Also returns half the weighted
    mean drift energy.
    """
    lw, energies = log_weights_ensemble(uhat, Z, grid.dt)
    ens = reweight(lw)
    base, base_infl, push, push_infl = _plugin_entropies(ens, np.asarray(labels))
    gap = base - push
    gap_se = _influence_se(base_infl - push_infl)
    diag = normalization_diagnostic(ens)
    report = LevelReport(
        level=math.inf, entropy=push, entropy_se=_influence_se(push_infl),
        energy=base, energy_se=_influence_se(base_infl),
        gap=gap, gap_se=gap_se, ess=ens.ess,
        norm_mean=diag.mean, norm_se=diag.se, norm_passed=diag.passed,
        verdict=classify_level(gap, gap_se, floor), method=method)
    return report, 0.5 * float(ens.weights @ energies)
