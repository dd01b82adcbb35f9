import numpy as np
import pytest

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
from innovlab.errors import UnsupportedModelError, UsageError
from innovlab.filtering import BasisSpec, ensemble_conditional_drift, innovation_values
from innovlab.girsanov import stop_indices
from innovlab.lingauss import linear_gaussian_summary
from innovlab.models import make_model, simulate_ensemble

# frozen reference: exact innovation-law relative entropy of the discretized
# hidden Ornstein-Uhlenbeck model (beta = sigma = 1) on 128 steps
KB_KL_N128 = 0.0245120405313628

# frozen references: every exact functional of two more linear models on 128
# steps (independent with constant g = 1, linear-feedback with a = 1)
FROZEN_SUMMARIES_N128 = {
    "independent": ({}, dict(
        innovation_kl=0.09829150165535339, observation_kl=0.15342640972005483,
        energy_under_nu=0.09651769391159695, energy_under_p=0.152447939885946,
        drift_energy_under_p=0.5, rho_mean=1.0004886316490118)),
    "linear-feedback": ({"a": 1.0}, dict(
        innovation_kl=0.248046875, observation_kl=0.14191455446882628,
        energy_under_nu=0.24804687500000022, energy_under_p=0.14191455446880596,
        drift_energy_under_p=0.14191455446880596, rho_mean=1.0000000000000009)),
}


def _pipeline(name, N, M, seed=11, **params):
    grid = TimeGrid(steps=N)
    model = make_model(name, **params)
    sim = simulate_ensemble(model, grid, M, RandomStream(seed=seed))
    filt = ensemble_conditional_drift(model, sim)
    Z = innovation_values(sim.U, filt.values, grid.dt)
    return grid, model, sim, filt, Z


# ------------------------------------------------------------------ estimators

def _random_innovation(m, N, seed=0):
    inc = np.random.default_rng(seed).normal(0.0, np.sqrt(1.0 / N), size=(m, N))
    return np.concatenate([np.zeros((m, 1)), np.cumsum(inc, axis=1)], axis=1)


def test_path_energies_masked_and_unmasked():
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(path_energies(x, 0.5), [2.5, 25.0])
    mask = np.array([[True, False, True], [False, True, False]])
    assert np.array_equal(path_energies(x, 0.5, mask), [2.0, 8.0])


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
    grid, model, sim, filt, Z = _pipeline("kalman-bucy", 64, 20000, seed=3)
    r = criterion_levels(Z, filt.values, grid, levels=(np.inf,))[0]
    exact = linear_gaussian_summary(model, grid).energy_under_nu
    assert abs(r.energy - exact) <= 3 * r.energy_se


def test_levels_with_equal_stops_share_one_regression(monkeypatch):
    # levels whose stopping indices agree (here the repeated 0.2, and 50 and
    # inf, which stop no path) are one computation: one ridge-fit call per
    # step, stacking one weight row per distinct stop row, and identical
    # reports
    import innovlab.criterion as criterion

    grid, model, sim, filt, Z = _pipeline("linear-feedback", 16, 300, a=1.0)
    weight_rows, fit = [], criterion.weighted_ridge_fit

    def counted(G, y, weights, ridge):
        weight_rows.append(weights.shape)
        return fit(G, y, weights, ridge)

    expected = criterion_levels(Z, filt.values, grid, levels=(0.2, 50.0))
    monkeypatch.setattr(criterion, "weighted_ridge_fit", counted)
    reports = criterion_levels(Z, filt.values, grid, levels=(0.2, 0.2, 50.0, np.inf))
    assert weight_rows == [(2, 300)] * grid.steps
    assert reports[0] == reports[1] == expected[0]
    for r in reports[2:]:
        assert r.entropy == expected[1].entropy and r.energy == expected[1].energy
        assert r.gap == expected[1].gap and r.ess == expected[1].ess


def test_a_level_report_does_not_depend_on_the_other_levels():
    # the 0.5 report alone equals the 0.5 report among all default levels,
    # bit for bit, although the latter shares every step's fit with other
    # weight sets
    grid, model, sim, filt, Z = _pipeline("linear-feedback", 32, 1000, a=1.0)
    stops = stop_indices(filt.values, grid.dt, DEFAULT_LEVELS)
    assert 0 < np.count_nonzero(stops[0] < grid.steps) < 1000  # 0.5 stops some paths
    assert len({row.tobytes() for row in stops}) > 2
    alone = criterion_levels(Z, filt.values, grid, levels=(0.5,))[0]
    assert DEFAULT_LEVELS[0] == 0.5
    assert criterion_levels(Z, filt.values, grid)[0] == alone


def test_entropy_jensen_zero_and_exact_deterministic():
    grid = TimeGrid(steps=4)
    h = criterion_levels(_random_innovation(100, 4), np.zeros((100, 4)), grid,
                         levels=(np.inf,))[0].entropy
    assert h == 0.0
    # unit-energy deterministic drift: fits reproduce the constant exactly
    grid, model, sim, filt, Z = _pipeline("deterministic", 128, 500)
    reports = criterion_levels(Z, filt.values, grid, levels=(np.inf,))
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
    kl = linear_gaussian_summary(make_model("zero"), TimeGrid(steps=64)).innovation_kl
    assert abs(kl) < 1e-10


@pytest.mark.parametrize("value", [1.0, 0.7])
def test_gaussian_path_kl_deterministic_exact(value):
    g = TimeGrid(steps=128)
    model = make_model("deterministic", shape="constant", value=value)
    discrete_energy = value**2 * g.horizon
    kl = linear_gaussian_summary(model, g).innovation_kl
    assert kl == pytest.approx(discrete_energy / 2, abs=1e-10)


def test_gaussian_path_kl_kalman_frozen_constant():
    model = make_model("kalman-bucy", beta=1.0, sigma=1.0)
    got = linear_gaussian_summary(model, TimeGrid(steps=128)).innovation_kl
    assert got == pytest.approx(KB_KL_N128, abs=1e-10)


@pytest.mark.parametrize("name", FROZEN_SUMMARIES_N128)
def test_linear_gaussian_summary_frozen_fields(name):
    params, expected = FROZEN_SUMMARIES_N128[name]
    got = linear_gaussian_summary(make_model(name, **params), TimeGrid(steps=128))
    for field, value in expected.items():
        assert getattr(got, field) == pytest.approx(value, abs=1e-10), field


def test_gaussian_path_kl_rejects_nonlinear():
    with pytest.raises(UnsupportedModelError):
        linear_gaussian_summary(make_model("tsirelson", levels=2), TimeGrid(steps=4))


def test_observation_kl_matches_energy_for_adapted_drift():
    # for an observation-adapted drift the observation-law entropy equals
    # the filtered energy under sampling in the continuum; discretely they
    # agree for feedback because the innovation is the driving noise
    g = TimeGrid(steps=64)
    model = make_model("linear-feedback", a=1.0)
    s = linear_gaussian_summary(model, g)
    assert s.observation_kl == pytest.approx(s.energy_under_p, abs=1e-10)


# ------------------------------------------------------------------ verdicts

def test_inequality_check_examples():
    assert inequality_check(0.0, 0.0, 0.0, 0.0)
    assert inequality_check(0.5, 0.0, 0.5, 0.0)
    assert not inequality_check(1.0, 0.01, 0.5, 0.01)


def test_classify_level_examples():
    assert classify_level(0.0, 1e-6) == EQUALITY_CONSISTENT
    assert classify_level(0.4, 0.02) == POSITIVE_GAP
    assert classify_level(0.05, 0.04) == INCONCLUSIVE


def _report(gap, gap_se, verdict):
    return LevelReport(1.0, 0.0, 0.0, gap, 0.0, gap, gap_se, 100.0,
                       1.0, 0.0, True, verdict, "test")


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
    grid, model, sim, filt, Z = _pipeline("independent", 32, 3000, seed=9)
    reports = criterion_levels(Z, filt.values, grid, levels=(0.5, 4.0, 8.0, np.inf))
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
    grid, model, sim, filt, Z = _pipeline("linear-feedback", 64, 10000, seed=17)
    reports = criterion_levels(Z, filt.values, grid, levels=(2.0, 4.0, 8.0, np.inf))
    for a, b in zip(reports[:-1], reports[1:]):
        assert a.norm_passed and b.norm_passed
        tol = 2 * np.hypot(a.gap_se, b.gap_se) + 1e-12
        assert abs(b.gap - a.gap) <= tol


def test_criterion_levels_oracle_agreement_with_ema_basis():
    # with exponential-moving-average features the regression spans the
    # linear filter kernels; the entropy estimate must agree with the exact
    # Gaussian value within three standard errors
    grid, model, sim, filt, Z = _pipeline("linear-feedback", 64, 8000, seed=21)
    basis = BasisSpec(ema_rates=(0.5, 1.0, 2.0, 4.0))
    r = criterion_levels(Z, filt.values, grid, levels=(np.inf,), basis=basis)[0]
    kl = linear_gaussian_summary(model, grid).innovation_kl
    assert abs(r.entropy - kl) <= 3 * max(r.entropy_se, 1e-12)
