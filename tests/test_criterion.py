import math
from dataclasses import fields

import numpy as np
import pytest

from innovlab import criterion
from innovlab.core import RandomStream, TimeGrid, path_energies
from innovlab.criterion import (
    DEFAULT_LEVELS,
    EQUALITY_CONSISTENT,
    INCONCLUSIVE,
    POSITIVE_GAP,
    LevelReport,
    classify_level,
    criterion_levels,
    criterion_verdict,
    inequality_check,
)
from innovlab.errors import NumericalError, UnsupportedModelError, UsageError
from innovlab.filtering import BasisSpec, FeatureBuilder, innovation_values
from innovlab.girsanov import MIN_DIAGNOSTIC_MEMBERS, localize, reweight, stop_indices
from innovlab.harness import PAPER_RUNS, continuous_front_end
from innovlab.lingauss import GaussianTilt, gaussian_path_kl, gaussian_tilt, is_linear_model
from innovlab.models import make_model

# frozen reference: exact innovation-law relative entropy of the discretized
# hidden Ornstein-Uhlenbeck model (beta = sigma = 1) on 128 steps
KB_KL_N128 = 0.023905060475897244

TILT_FUNCTIONALS = ("innovation_kl", "observation_kl", "energy_under_nu", "energy_under_p",
                    "rho_mean")

# frozen references: every exact functional of two more linear models on 128
# steps (independent with constant g = 1, linear-feedback with a = 1)
FROZEN_SUMMARIES_N128 = {
    "independent": ({}, dict(
        innovation_kl=0.09829150165535339, observation_kl=0.15342640972005483,
        energy_under_nu=0.09651769391159695, energy_under_p=0.152447939885946,
        rho_mean=1.0004886316490118)),
    "linear-feedback": ({"a": 1.0}, dict(
        innovation_kl=0.248046875, observation_kl=0.14191455446882628,
        energy_under_nu=0.24804687500000022, energy_under_p=0.14191455446880596,
        rho_mean=1.0000000000000009)),
}

# the same for the two hidden-signal models on the 512-step grid of the
# paper's kalman-bucy run (beta = sigma = 1), where the Gaussian algebra is
# largest
FROZEN_SUMMARIES_N512 = {
    "kalman-bucy": ({"beta": 1.0, "sigma": 1.0}, dict(
        innovation_kl=0.023652584160572587, observation_kl=0.028837275114256045,
        energy_under_nu=0.023520319227240002, energy_under_p=0.028741362655436902,
        rho_mean=1.0000200051647543)),
    "independent": ({}, dict(
        innovation_kl=0.09700139309006772, observation_kl=0.1534264097185769,
        energy_under_nu=0.09655968687959687, energy_under_p=0.1531821498857945,
        rho_mean=1.0001220925521046)),
}


def _pipeline(name, N, M, seed=11, **params):
    grid = TimeGrid(steps=N)
    model = make_model(name, **params)
    Z, uhat, _ = continuous_front_end(model, grid, M, RandomStream(seed=seed))
    return grid, model, uhat, Z


# ------------------------------------------------------------------ estimators

def _random_innovation(m, N, seed=0):
    inc = np.random.default_rng(seed).normal(0.0, np.sqrt(1.0 / N), size=(m, N))
    return np.concatenate([np.zeros((m, 1)), np.cumsum(inc, axis=1)], axis=1)


def test_path_energies_full_and_stopped():
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(path_energies(x, 0.5), [2.5, 25.0])
    stopped = localize(x, np.array([2, 1]))
    assert np.array_equal(stopped, [[0.0, 1.0, 0.0], [3.0, 0.0, 0.0]])
    assert np.array_equal(path_energies(stopped, 0.5), [0.5, 4.5])


def test_energy_averages_the_energies_inside_the_log_weights(monkeypatch, max_processes):
    # a level's E_hat and its se come from exactly the per-path energies
    # that its log-weights sum, bit for bit; the references stop and sum the
    # whole ensemble at once, from row-major copies of the column-major
    # arrays, the pipeline one row chunk at a time
    max_processes(1)  # the spy sees every weight set
    grid, _, uhat, Z = _pipeline("kalman-bucy", 64, 2000)
    stops, outputs = [], []
    log_weights = criterion.log_weights_ensemble

    def weights_spy(uhat_in, Z_in, dt, stop):
        assert uhat_in is uhat and Z_in is Z  # the levels stop their rows themselves
        stops.append(stop)
        lw, e = log_weights(uhat_in, Z_in, dt, stop)
        outputs.append((lw, e))
        return lw, e

    monkeypatch.setattr(criterion, "log_weights_ensemble", weights_spy)
    reports = criterion_levels(Z, uhat, grid, levels=(0.01, np.inf))
    assert len(stops) == 2 and reports[0].ess != reports[1].ess
    uhat_c, Z_c = np.ascontiguousarray(uhat), np.ascontiguousarray(Z)
    for r, stop, (lw, e) in zip(reports, stops, outputs):
        stopped = localize(uhat_c, stop)
        ito = np.einsum("mk,mk->m", stopped, np.diff(Z_c, axis=1))
        assert np.array_equal(e, path_energies(stopped, grid.dt))
        assert np.array_equal(-ito - 0.5 * e, lw)
        w = reweight(lw).weights
        mean = math.fsum(w * (0.5 * e))
        assert r.energy == mean
        assert r.energy_se == float(np.sqrt(np.sum(w**2 * (0.5 * e - mean) ** 2)))


def test_energies_are_summed_once_per_stopping_rule(monkeypatch, max_processes):
    # the energies inside each level's log-weights are the ones E_hat
    # averages; no second sum of the same stopped drift.  The sums run over
    # row chunks, so each row is counted once per rule: 2 m rows for 2 rules
    from innovlab import girsanov

    max_processes(1)  # the spy sees every weight set
    grid, _, uhat, Z = _pipeline("kalman-bucy", 64, 2000)
    rows = []

    def counting(x, dt, energy=girsanov.path_energies):
        rows.append(len(x))
        return energy(x, dt)

    for mod in (girsanov, criterion):
        if hasattr(mod, "path_energies"):
            monkeypatch.setattr(mod, "path_energies", counting)
    reports = criterion_levels(Z, uhat, grid, levels=(0.01, np.inf))
    assert reports[0].ess != reports[1].ess  # two distinct stopping rules
    assert len(rows) > 2  # 2000 rows of 64 steps take four chunks per rule
    assert sum(rows) == 2 * len(uhat)


def test_energy_under_nu_zero_drift():
    grid = TimeGrid(steps=4)
    r = criterion_levels(_random_innovation(100, 4), np.zeros((100, 4)), grid,
                         levels=(np.inf,))[0]
    assert r.energy == 0.0 and r.energy_se == 0.0


def test_energy_under_nu_unit_drift_is_half_regardless_of_weights():
    # the unit drift tilts the weights away from uniform; its energy does not
    # depend on them
    grid = TimeGrid(steps=8)
    r = criterion_levels(_random_innovation(200, 8), np.ones((200, 8)), grid,
                         levels=(np.inf,))[0]
    assert r.ess < 200 - 1
    assert r.energy == pytest.approx(0.5, abs=1e-12)
    assert r.energy_se == pytest.approx(0.0, abs=1e-12)


def test_energy_under_nu_matches_gaussian_oracle_for_kalman():
    # closed-form Gaussian moments are the oracle for the tilted energy
    grid, model, uhat, Z = _pipeline("kalman-bucy", 64, 20000, seed=3)
    r = criterion_levels(Z, uhat, grid, levels=(np.inf,))[0]
    exact = gaussian_tilt(model, grid).energy_under_nu()
    assert abs(r.energy - exact) <= 3 * r.energy_se


def test_levels_with_equal_stops_share_one_regression(monkeypatch, max_processes):
    # levels whose stopping indices agree (here the repeated 0.2, and 50 and
    # inf, which stop no path) are one computation: one single-set ridge fit
    # per step for each distinct stop row, and identical reports
    import innovlab.criterion as criterion

    max_processes(1)  # the spy sees every weight set
    grid, model, uhat, Z = _pipeline("linear-feedback", 16, 300, a=1.0)
    weight_rows, fit = [], criterion.weighted_ridge_fit

    def counted(G, y, gram, ridge, carry):
        weight_rows.append(gram.weights.shape)
        return fit(G, y, gram, ridge, carry)

    expected = criterion_levels(Z, uhat, grid, levels=(0.2, 50.0))
    monkeypatch.setattr(criterion, "weighted_ridge_fit", counted)
    reports = criterion_levels(Z, uhat, grid, levels=(0.2, 0.2, 50.0, np.inf))
    assert weight_rows == [(300,)] * (2 * grid.steps)
    assert reports[0] == reports[1] == expected[0]
    for r in reports[2:]:
        assert r.entropy == expected[1].entropy and r.energy == expected[1].energy
        assert r.gap == expected[1].gap and r.ess == expected[1].ess


@pytest.mark.parametrize("basis", [
    BasisSpec(), BasisSpec(window=3, include_cubes=True),
    BasisSpec(window=4, ema_rates=(2.0, 8.0)), BasisSpec(window=0)], ids=BasisSpec.describe)
def test_levels_from_a_kept_gram_match_grams_formed_whole(basis, monkeypatch):
    # the fits keep each weight set's Gram from step to step; a carry map
    # that carries nothing forms every step's Gram whole, and the reports
    # agree to rounding, while a map that carries the level row does not
    grid, model, uhat, Z = _pipeline("linear-feedback", 32, 400, a=1.0)
    kept = criterion_levels(Z, uhat, grid, levels=(0.5, np.inf), basis=basis)
    carry_map = FeatureBuilder.carry_map

    def whole(self, k):
        return np.full(len(carry_map(self, k)), -1)

    def carrying_the_level(self, k):
        carry = carry_map(self, k).copy()
        if k:
            carry[1 + min(k, self.spec.window)] = 1 + min(k - 1, self.spec.window)
        return carry

    monkeypatch.setattr(FeatureBuilder, "carry_map", whole)
    formed = criterion_levels(Z, uhat, grid, levels=(0.5, np.inf), basis=basis)
    for a, b in zip(kept, formed):
        assert a.entropy == pytest.approx(b.entropy, rel=1e-12)
        assert a.gap == pytest.approx(b.gap, rel=1e-10, abs=1e-14)
        assert (a.energy, a.ess, a.ridge_escalations) == (b.energy, b.ess, b.ridge_escalations)
    monkeypatch.setattr(FeatureBuilder, "carry_map", carrying_the_level)
    wrong = criterion_levels(Z, uhat, grid, levels=(0.5, np.inf), basis=basis)
    assert all(abs(a.entropy - b.entropy) > 1e-6 * a.entropy for a, b in zip(kept, wrong))


def test_a_level_report_does_not_depend_on_the_other_levels():
    # the 0.5 report alone equals the 0.5 report among all default levels,
    # bit for bit, although the latter shares every step's fit with other
    # weight sets
    grid, model, uhat, Z = _pipeline("linear-feedback", 32, 1000, a=1.0)
    stops = stop_indices(uhat, grid.dt, DEFAULT_LEVELS)
    assert 0 < np.count_nonzero(stops[0] < grid.steps) < 1000  # 0.5 stops some paths
    assert len({row.tobytes() for row in stops}) > 2
    alone = criterion_levels(Z, uhat, grid, levels=(0.5,))[0]
    assert DEFAULT_LEVELS[0] == 0.5
    assert criterion_levels(Z, uhat, grid)[0] == alone


def test_criterion_levels_needs_the_diagnostic_minimum():
    # every level runs the normalization diagnostic, which needs 100 paths
    grid = TimeGrid(steps=4)
    with pytest.raises(UsageError, match=">= 100 members"):
        criterion_levels(_random_innovation(99, 4), np.zeros((99, 4)), grid)


def test_entropy_jensen_zero_and_exact_deterministic():
    grid = TimeGrid(steps=4)
    h = criterion_levels(_random_innovation(100, 4), np.zeros((100, 4)), grid,
                         levels=(np.inf,))[0].entropy
    assert h == 0.0
    # unit-energy deterministic drift: fits reproduce the constant exactly
    grid, model, uhat, Z = _pipeline("deterministic", 128, 500)
    reports = criterion_levels(Z, uhat, grid, levels=(np.inf,))
    r = reports[0]
    assert r.entropy == pytest.approx(0.5, abs=1e-12)
    assert r.energy == pytest.approx(0.5, abs=1e-12)
    assert r.entropy_se == pytest.approx(0.0, abs=1e-12)


def test_jensen_estimator_tracks_enumeration_kl_on_quantized_instance():
    # quantized deterministic instance: the regression reproduces the
    # constant drift, so the estimate is half the energy; enumeration gives
    # the exact quantized relative entropy, within 5% of it
    from innovlab.oracle import (
        dpi_verdict,
        enumerate_atoms,
        gauss_quantized,
        sample_quantized_ensemble,
    )

    g3 = TimeGrid(steps=3)
    model = make_model("deterministic", shape="constant", value=1.0)
    noise = gauss_quantized(3, g3.dt)
    space = enumerate_atoms(model, g3, noise)
    exact_kl = dpi_verdict(space.system()).pushforward_entropy
    sim = sample_quantized_ensemble(model, g3, 2000, RandomStream(seed=5), noise)
    Z = innovation_values(sim.U, sim.drift, g3.dt)
    jensen = criterion_levels(Z, sim.drift, g3, levels=(np.inf,))[0].entropy
    assert abs(jensen - exact_kl) / exact_kl < 0.05


# ------------------------------------------------------------------ exact KL

def test_gaussian_path_kl_zero_model():
    kl = gaussian_path_kl(make_model("zero"), TimeGrid(steps=64))
    assert abs(kl) < 1e-10


@pytest.mark.parametrize("value", [1.0, 0.7])
def test_gaussian_path_kl_deterministic_exact(value):
    g = TimeGrid(steps=128)
    model = make_model("deterministic", shape="constant", value=value)
    discrete_energy = value**2 * g.horizon
    kl = gaussian_path_kl(model, g)
    assert kl == pytest.approx(discrete_energy / 2, abs=1e-10)


def test_gaussian_path_kl_kalman_frozen_constant():
    model = make_model("kalman-bucy", beta=1.0, sigma=1.0)
    got = gaussian_path_kl(model, TimeGrid(steps=128))
    assert got == pytest.approx(KB_KL_N128, abs=1e-10)


@pytest.mark.parametrize("name, params, steps", [
    *(pytest.param(name, params, steps, id=name)
      for name, params, steps in PAPER_RUNS if is_linear_model(make_model(name, **params))),
    # at N = 128 linear-feedback's functionals are bit-equal; on finer grids
    # innovation_kl and rho_mean (and at N = 256 observation_kl) follow the
    # thread count in their last bits
    *(pytest.param("linear-feedback", {"a": 1.0}, steps, id=f"linear-feedback-{steps}",
                   marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 23"))
      for steps in (256, 512)),
])
def test_gaussian_summary_does_not_depend_on_the_blas_thread_count(name, params, steps,
                                                                   other_blas_threads):
    # runs use OpenBLAS's default thread count: the oracle's matrix products
    # and factorizations must give the same bits at another count, in every
    # functional and in every field of the tilt but Sigma_nu.  numpy's
    # inverse of K follows the thread count in the last bits, by at most a
    # rounding of the largest entry per step of its N-term sums
    model, grid = make_model(name, **params), TimeGrid(steps=steps)
    default = gaussian_tilt(model, grid)
    with other_blas_threads:
        other = gaussian_tilt(model, grid)
        other_values = [getattr(other, f)() for f in TILT_FUNCTIONALS]
    assert other_values == [getattr(default, f)() for f in TILT_FUNCTIONALS]
    for f in fields(GaussianTilt):
        if f.name != "Sigma_nu":
            assert np.array_equal(getattr(other, f.name), getattr(default, f.name)), f.name
    scale = steps * np.finfo(float).eps * np.max(np.abs(default.Sigma_nu))
    assert np.max(np.abs(other.Sigma_nu - default.Sigma_nu)) <= scale


@pytest.mark.parametrize("name, steps", [
    *(pytest.param(name, 128, id=name) for name in FROZEN_SUMMARIES_N128),
    *(pytest.param(name, 512, id=f"{name}-512") for name in FROZEN_SUMMARIES_N512),
])
def test_gaussian_tilt_frozen_functionals(name, steps):
    params, expected = {128: FROZEN_SUMMARIES_N128, 512: FROZEN_SUMMARIES_N512}[steps][name]
    got = gaussian_tilt(make_model(name, **params), TimeGrid(steps=steps))
    for functional, value in expected.items():
        assert getattr(got, functional)() == pytest.approx(value, abs=1e-10), functional


@pytest.mark.parametrize("name, params, steps", [
    pytest.param(name, params, steps, id=f"{name}-{steps}")
    for name, params, _ in PAPER_RUNS if is_linear_model(make_model(name, **params))
    for steps in (32, 128, 512)
])
def test_observation_entropy_bounds_the_filter_energy(name, params, steps):
    # the chain rule on the grid: observation_kl - energy_under_p is a sum of
    # terms x - 1 - log x >= 0 over the steps' conditional variances when the
    # filter is the exact conditional mean; 0 to rounding for adapted models
    tilt = gaussian_tilt(make_model(name, **params), TimeGrid(steps=steps))
    assert tilt.observation_kl() >= tilt.energy_under_p() - 1e-12


def test_gaussian_path_kl_rejects_nonlinear():
    with pytest.raises(UnsupportedModelError):
        gaussian_path_kl(make_model("tsirelson", levels=2), TimeGrid(steps=4))


@pytest.mark.parametrize("a, steps", [
    # strongly explosive feedback: the tilted precision C^-1 + A is not
    # positive definite on this grid
    (-50.0, 16),
    # C and C^-1 + A still factor, but the innovation side they give, 98.85,
    # misses the exact value of an adapted drift, 1/2 a^2 dt^2 N (N - 1) / 2
    # = 99.22 (under the tilt the observation increments are independent
    # N(0, dt)); the formed observation covariance is what fails
    (-20.0, 128),
])
def test_gaussian_summary_reports_a_factorization_that_loses_positivity(a, steps):
    with pytest.raises(NumericalError, match="lost positivity"):
        gaussian_tilt(make_model("linear-feedback", a=a), TimeGrid(steps=steps))


def test_gaussian_summary_rejects_an_innovation_with_a_constant_part():
    # the filter of the independent model knows only theta * g(t), so a drift
    # offset it does not see leaves a constant in every innovation increment
    from innovlab.models import IndependentDrift

    class OffsetDrift(IndependentDrift):
        def drift(self, k, grid, U, aux, hidden, state):
            return super().drift(k, grid, U, aux, hidden, state) + 0.5

    with pytest.raises(NumericalError, match="not centred"):
        gaussian_tilt(OffsetDrift(), TimeGrid(steps=4))


def test_observation_kl_matches_energy_for_adapted_drift():
    # for an observation-adapted drift the observation-law entropy equals
    # the filtered energy under sampling in the continuum; discretely they
    # agree for feedback because the innovation is the driving noise
    g = TimeGrid(steps=64)
    model = make_model("linear-feedback", a=1.0)
    tilt = gaussian_tilt(model, g)
    assert tilt.observation_kl() == pytest.approx(tilt.energy_under_p(), abs=1e-10)


# ------------------------------------------------------------------ verdicts

def test_inequality_check_examples():
    assert inequality_check(0.0, 0.0, 0.0, 0.0)
    assert inequality_check(0.5, 0.0, 0.5, 0.0)
    assert not inequality_check(1.0, 0.01, 0.5, 0.01)


def test_classify_level_examples():
    assert classify_level(0.0, 1e-6, 1000.0) == EQUALITY_CONSISTENT
    assert classify_level(0.4, 0.02, 1000.0) == POSITIVE_GAP
    assert classify_level(0.05, 0.04, 1000.0) == INCONCLUSIVE


def test_classify_level_needs_effective_samples():
    # too few effective samples leave no band to read, whatever the gap
    few = MIN_DIAGNOSTIC_MEMBERS - 0.5
    assert classify_level(0.0, 1e-6, MIN_DIAGNOSTIC_MEMBERS) == EQUALITY_CONSISTENT
    assert classify_level(0.0, 1e-6, few) == INCONCLUSIVE
    assert classify_level(0.4, 0.02, few) == INCONCLUSIVE


def _report(gap, gap_se, verdict):
    return LevelReport(1.0, 0.0, 0.0, gap, 0.0, gap, gap_se, 100.0,
                       1.0, 0.0, True, verdict)


def test_criterion_verdict_aggregation():
    eq = _report(0.0, 1e-6, EQUALITY_CONSISTENT)
    pg = _report(0.4, 0.02, POSITIVE_GAP)
    inc = _report(0.05, 0.04, INCONCLUSIVE)
    assert criterion_verdict([eq, eq]) == EQUALITY_CONSISTENT
    assert criterion_verdict([eq, pg]) == POSITIVE_GAP
    assert criterion_verdict([eq, inc]) == INCONCLUSIVE
    with pytest.raises(UsageError):
        criterion_verdict([])


# ------------------------------------------------------------------ pipeline

def test_criterion_levels_jensen_nonnegativity_and_caching():
    grid, model, uhat, Z = _pipeline("independent", 32, 3000, seed=9)
    reports = criterion_levels(Z, uhat, grid, levels=(0.5, 4.0, 8.0, np.inf))
    for r in reports:
        assert r.gap >= -3 * max(r.gap_se, 1e-12)
        assert r.energy >= 0.0
        assert r.entropy >= -1e-12
    # no path accumulates filtered energy 8 here, so that level must reuse
    # the unlocalized computation verbatim
    assert reports[2].entropy == reports[3].entropy
    assert reports[2].ess == reports[3].ess


def test_criterion_levels_converge_in_the_localization_level():
    # once thresholds exceed the bulk of the filtered energy, successive
    # gaps agree within twice their combined standard error
    grid, model, uhat, Z = _pipeline("linear-feedback", 64, 10000, seed=17)
    reports = criterion_levels(Z, uhat, grid, levels=(2.0, 4.0, 8.0, np.inf))
    for a, b in zip(reports[:-1], reports[1:]):
        assert a.norm_passed and b.norm_passed
        tol = 2 * np.hypot(a.gap_se, b.gap_se) + 1e-12
        assert abs(b.gap - a.gap) <= tol


def test_criterion_levels_oracle_agreement_with_ema_basis():
    # with exponential-moving-average features the regression spans the
    # linear filter kernels; the entropy estimate must agree with the exact
    # Gaussian value within three standard errors
    grid, model, uhat, Z = _pipeline("linear-feedback", 64, 8000, seed=21)
    basis = BasisSpec(ema_rates=(0.5, 1.0, 2.0, 4.0))
    r = criterion_levels(Z, uhat, grid, levels=(np.inf,), basis=basis)[0]
    kl = gaussian_tilt(model, grid).innovation_kl()
    assert abs(r.entropy - kl) <= 3 * max(r.entropy_se, 1e-12)
