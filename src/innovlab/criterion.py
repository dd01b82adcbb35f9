"""Entropy and energy estimators for the innovation-filtration criterion.

For each localization level the pipeline estimates two numbers under the
self-normalized tilted measure:

* energy: half the expected localized filtered-drift energy;
* entropy: half the expected squared second-level fit, i.e. the energy of
  the projection of the filtered drift onto innovation-history features.

When the filtered drift is measurable with respect to the innovation
history the two agree (up to the feature-projection bias, whose direction
is downward on the entropy side, making equality verdicts conservative);
an information gap shows up as energy strictly above entropy.  Exact
reference values for the linear family come from `lingauss`, which the
estimators here do not depend on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TimeGrid, path_energies
from .errors import UsageError
from .filtering import BasisSpec, FeatureBuilder, weighted_ridge_fit
from .girsanov import (
    MIN_DIAGNOSTIC_MEMBERS,
    active_mask,
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
    "DEFAULT_LEVELS",
]

EQUALITY_CONSISTENT = "EQUALITY-CONSISTENT"
POSITIVE_GAP = "POSITIVE-GAP"
INCONCLUSIVE = "INCONCLUSIVE"

# absolute floor (nats) below which a gap is treated as numerically void;
# absorbs discretization and feature-projection bias at desk scale
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
    indicator, being an innovation functional, multiplies the fit).
    """
    m, N = uhat.shape
    dt = grid.dt
    levels = list(levels)
    if not levels:
        raise UsageError("need at least one localization level")

    # per level: (m,) stopping indices, N where never stopped (every path at
    # level inf); levels with the same stops share weights and regressions
    stops = stop_indices(uhat, dt, levels)
    slots: dict = {}
    slot_of = [slots.setdefault(stop.tobytes(), len(slots)) for stop in stops]
    distinct = [stops[slot_of.index(s)] for s in range(len(slots))]

    weight_sets, energies, diags, ess = [], [], [], []
    for stop in distinct:
        mask = active_mask(stop, N)  # (m, N), built and dropped per level
        lw = log_weights_ensemble(uhat * mask, Z, dt)
        diags.append(normalization_diagnostic(lw) if m >= MIN_DIAGNOSTIC_MEMBERS else None)
        ens = reweight(lw)
        weight_sets.append(ens.weights)
        energies.append(path_energies(uhat, dt, mask))
        ess.append(ens.ess)

    # one regression call per step: features shared, weight sets stacked
    stacked = np.stack(weight_sets)
    stopped = np.stack(distinct)
    q = np.zeros(stacked.shape)
    escalations = np.zeros(len(distinct), dtype=int)
    builder = FeatureBuilder(Z, dt, basis)
    for k in range(N):
        G = builder.features_at(k)
        _, fitted, raised = weighted_ridge_fit(G, uhat[:, k], stacked, basis.ridge)
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
                norm_mean=diag.mean if diag else float("nan"),
                norm_se=diag.se if diag else float("nan"),
                norm_passed=diag.passed if diag else False,
                verdict=classify_level(gap, gap_se, floor),
                method=method or f"jensen[{basis.describe()}]",
                ridge_escalations=int(escalations[s]),
            )
        )
    return reports
