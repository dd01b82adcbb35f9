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
    """Both sides of the criterion at one localization level."""

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

    # per level: (m,) stopping indices (N = never stopped); the (m, N)
    # active mask is rebuilt from them where needed and never kept
    finite = [lv for lv in levels if not math.isinf(lv)]
    finite_stops = iter(stop_indices(uhat, dt, finite))
    never = np.full(m, N)
    stops = [never if math.isinf(lv) else next(finite_stops) for lv in levels]

    weight_sets, energies, diags, ess = [], [], [], []
    unlocalized_slot = None
    for stop in stops:
        unstopped = bool(np.all(stop == N))
        if unstopped and unlocalized_slot is not None:
            # nothing stopped: identical to the unlocalized computation
            weight_sets.append(weight_sets[unlocalized_slot])
            energies.append(energies[unlocalized_slot])
            diags.append(diags[unlocalized_slot])
            ess.append(ess[unlocalized_slot])
            continue
        mask = active_mask(stop, N)
        lw = log_weights_ensemble(uhat * mask, Z, dt)
        diag = normalization_diagnostic(lw) if m >= 100 else None
        ens = reweight(lw)
        if unstopped:
            unlocalized_slot = len(weight_sets)
        weight_sets.append(ens.weights)
        energies.append(path_energies(uhat, dt, mask))
        diags.append(diag)
        ess.append(ens.ess)

    # one regression per step per distinct weight set, features shared
    L = len(levels)
    distinct = []
    slot_of = []
    for i in range(L):
        for j, k in enumerate(distinct):
            if weight_sets[k] is weight_sets[i]:
                slot_of.append(j)
                break
        else:
            slot_of.append(len(distinct))
            distinct.append(i)

    q = np.zeros((len(distinct), m))
    builder = FeatureBuilder(Z, dt, basis)
    for k in range(N):
        F = builder.features_at(k)
        for s, i in enumerate(distinct):
            _, fitted = weighted_ridge_fit(F, uhat[:, k], weight_sets[i], basis.ridge)
            q[s] += fitted * fitted * dt * (k < stops[i])

    reports = []
    for i, lv in enumerate(levels):
        w = weight_sets[i]
        e = energies[i]
        qi = q[slot_of[i]]
        energy, energy_se = _weighted_mean_se(w, 0.5 * e)
        entropy, entropy_se = _weighted_mean_se(w, 0.5 * qi)
        gap, gap_se = _weighted_mean_se(w, 0.5 * (e - qi))
        diag = diags[i]
        reports.append(
            LevelReport(
                level=lv,
                entropy=entropy,
                entropy_se=entropy_se,
                energy=energy,
                energy_se=energy_se,
                gap=gap,
                gap_se=gap_se,
                ess=ess[i],
                norm_mean=diag.mean if diag else float("nan"),
                norm_se=diag.se if diag else float("nan"),
                norm_passed=diag.passed if diag else False,
                verdict=classify_level(gap, gap_se, floor),
                method=method or f"jensen[{basis.describe()}]",
            )
        )
    return reports
