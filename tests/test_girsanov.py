import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innovlab.core import PATH_BLOCK, RandomStream, TimeGrid
from innovlab.errors import DegeneracyError, NumericalError, ShapeError, UsageError
from innovlab.filtering import ensemble_conditional_drift, innovation_values
from innovlab.girsanov import (
    WeightedEnsemble,
    localize,
    log_weights_ensemble,
    normalization_diagnostic,
    reweight,
    stop_indices,
)
from innovlab.models import make_model, simulate_ensemble


def _const_drift(grid, c):
    return np.full((1, grid.steps), float(c))


def _zero_model_path(grid, stream):
    return simulate_ensemble(make_model("zero"), grid, 1, stream).U


def _localize(uhat, dt, threshold):
    """The drift stopped at one threshold, as criterion_levels stops it."""
    return localize(uhat, stop_indices(uhat, dt, [threshold])[0])


# ---------------------------------------------------------------- log weight

def test_zero_drift_gives_zero_log_weight():
    g = TimeGrid(steps=8)
    Z = _zero_model_path(g, RandomStream(seed=1))
    lw, energies = log_weights_ensemble(_const_drift(g, 0.0), Z, g.dt)
    assert lw[0] == 0.0
    assert energies[0] == 0.0


def test_unit_drift_log_weight_formula():
    g = TimeGrid(steps=16)
    Z = _zero_model_path(g, RandomStream(seed=2))
    z1 = Z[0, -1]
    lw, energies = log_weights_ensemble(_const_drift(g, 1.0), Z, g.dt)
    assert lw[0] == pytest.approx(-z1 - 0.5, abs=1e-12)
    assert energies[0] == pytest.approx(1.0, abs=1e-12)


def test_log_weight_rejects_nonfinite():
    g = TimeGrid(steps=4)
    Z = np.concatenate([np.zeros((1, 1)), np.cumsum(np.full((1, 4), np.inf), axis=1)], axis=1)
    with pytest.raises(NumericalError):
        log_weights_ensemble(_const_drift(g, 1.0), Z, g.dt)


def test_exponential_has_unit_mean_under_zero_model():
    # discrete Girsanov exponentials of a deterministic drift against a
    # Brownian motion are exactly unit-mean martingales; Monte Carlo check
    M, N = 100_000, 16
    g = TimeGrid(steps=N)
    sim = simulate_ensemble(make_model("zero"), g, M, RandomStream(seed=42))
    h = 0.7 * np.ones((M, N))
    lw, _ = log_weights_ensemble(h, sim.U, g.dt)
    diag = normalization_diagnostic(reweight(lw))
    assert abs(diag.mean - 1.0) <= 3 * diag.se
    assert diag.passed


def test_reweighting_shifts_terminal_mean_by_drift_integral():
    # under the tilted measure the innovation gains mean -int h dt
    M, N = 100_000, 16
    g = TimeGrid(steps=N)
    sim = simulate_ensemble(make_model("zero"), g, M, RandomStream(seed=47))
    h = np.ones((M, N))
    lw, _ = log_weights_ensemble(h, sim.U, g.dt)
    ens = reweight(lw)
    shifted = float(ens.weights @ sim.U[:, -1]) + 1.0  # int_0^1 1 dt = 1
    spread = float(np.sqrt(np.sum(ens.weights**2 * (sim.U[:, -1] + 1.0 - shifted) ** 2)))
    assert abs(shifted) <= 3 * spread


# ---------------------------------------------------------------- localization

def test_localize_noop_when_threshold_above_total_energy():
    g = TimeGrid(steps=4)
    est = _const_drift(g, 1.0)
    out = _localize(est, g.dt, 2.0)
    assert np.array_equal(out, est)


def test_localize_hand_example():
    # constant unit drift, dt = 0.25, n = 0.4: cumulative energy before
    # step 2 is 0.5 > 0.4, so rows 2.. are zeroed
    g = TimeGrid(steps=4)
    out = _localize(_const_drift(g, 1.0), g.dt, 0.4)
    assert out[0] == pytest.approx([1.0, 1.0, 0.0, 0.0])


def test_localize_zero_drift_unchanged():
    g = TimeGrid(steps=4)
    out = _localize(_const_drift(g, 0.0), g.dt, 0.1)
    assert np.array_equal(out, np.zeros((1, 4)))


def test_stop_indices_and_localize():
    g = TimeGrid(steps=4)
    uhat = np.ones((1, 4))
    # energy before steps 0..3 is 0, 0.25, 0.5, 0.75; N = 4 means never stopped
    idx = stop_indices(uhat, g.dt, [0.4, 0.1, 2.0, 0.5])
    assert idx.tolist() == [[2], [1], [4], [3]]
    assert localize(uhat, idx[0]).tolist() == [[1.0, 1.0, 0.0, 0.0]]
    # one member per threshold: each row is kept strictly before its stop
    assert localize(np.full((4, 4), 2.0), idx[:, 0]).tolist() == [
        [2.0, 2.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 0.0]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 500))
def test_localized_energy_monotone_in_threshold(seed):
    g = TimeGrid(steps=16)
    u = np.random.default_rng(seed).normal(size=(1, 16))
    energies = []
    for n in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, np.inf]:
        if math.isinf(n):
            loc = u
        else:
            loc = _localize(u, g.dt, n)
        energies.append(float(np.sum(loc**2) * g.dt))
    assert all(a <= b + 1e-12 for a, b in zip(energies, energies[1:]))
    total = float(np.sum(u**2) * g.dt)
    assert energies[-1] == pytest.approx(total)


def test_localized_weights_normalize_on_bounded_drift():
    # bounded localized drift satisfies the unit-mean diagnostic
    # (a Novikov-type condition holds trivially)
    M, N = 10_000, 32
    g = TimeGrid(steps=N)
    model = make_model("tsirelson", levels=3)
    sim = simulate_ensemble(model, g, M, RandomStream(seed=11))
    filt = ensemble_conditional_drift(model, sim)
    loc = _localize(filt.values, g.dt, 1.0)
    Z = innovation_values(sim.U, filt.values, g.dt)
    lw, _ = log_weights_ensemble(loc, Z, g.dt)
    diag = normalization_diagnostic(reweight(lw))
    assert diag.passed


# ------------------------------------------------------------ row chunking

THRESHOLDS = (0.05, 0.3, 1.0, 2.0, math.inf)


def _drift_and_innovation(m, N=32, seed=4):
    rng = np.random.default_rng(seed)
    uhat = rng.normal(size=(m, N)) * np.exp(rng.uniform(-2.3, 1.1, size=(m, 1)))  # 0.1 to 3
    inc = rng.normal(0.0, np.sqrt(1.0 / N), size=(m, N))
    Z = np.concatenate([np.zeros((m, 1)), np.cumsum(inc, axis=1)], axis=1)
    return uhat, Z, 1.0 / N


def _stop_indices_reference(uhat, dt, thresholds):
    """The stopping indices of the whole ensemble at once."""
    m, N = uhat.shape
    before = np.zeros((m, N))
    np.cumsum(np.einsum("mk,mk->mk", uhat, uhat)[:, :-1] * dt, axis=1, out=before[:, 1:])
    exceeded = before[None] > np.asarray(thresholds)[:, None, None]
    return np.where(exceeded.any(axis=2), exceeded.argmax(axis=2), N)


def _log_weights_reference(uhat, Z, dt):
    """The log-weights and energies of the whole ensemble at once."""
    ito = np.einsum("mk,mk->m", uhat, np.diff(Z, axis=1))
    energies = np.einsum("mk,mk->m", uhat, uhat) * dt
    return -ito - 0.5 * energies, energies


@pytest.mark.parametrize("m", [2 * PATH_BLOCK + 3, 37])  # two 1024-row chunks and a part; one part
def test_blocked_stop_indices_match_the_unblocked_reference(m):
    uhat, _, dt = _drift_and_innovation(m)
    got = stop_indices(uhat, dt, THRESHOLDS)
    assert got.shape == (len(THRESHOLDS), m)
    assert np.array_equal(got, _stop_indices_reference(uhat, dt, THRESHOLDS))
    # every finite threshold stops some rows and not others
    assert all(0 < np.sum(row < uhat.shape[1]) < m for row in got[:-1])


@pytest.mark.parametrize("m", [2 * PATH_BLOCK + 3, 37])
def test_blocked_log_weights_match_the_unblocked_reference(m):
    uhat, Z, dt = _drift_and_innovation(m)
    lw, energies = log_weights_ensemble(uhat, Z, dt)
    ref_lw, ref_energies = _log_weights_reference(uhat, Z, dt)
    assert np.array_equal(lw, ref_lw) and np.array_equal(energies, ref_energies)
    # the stopped sums: each chunk stops its own rows
    for stop in stop_indices(uhat, dt, THRESHOLDS):
        lw, energies = log_weights_ensemble(uhat, Z, dt, stop)
        ref_lw, ref_energies = _log_weights_reference(localize(uhat, stop), Z, dt)
        assert np.array_equal(lw, ref_lw) and np.array_equal(energies, ref_energies)


def test_column_major_ensembles_give_the_row_major_bits():
    # the front end returns column-major arrays; an einsum over them would
    # add in another order, so every per-path sum reads a row-major copy
    uhat, Z, dt = _drift_and_innovation(2 * PATH_BLOCK + 3)
    uhat_f, Z_f = np.asfortranarray(uhat), np.asfortranarray(Z)
    stops = stop_indices(uhat, dt, THRESHOLDS)
    assert np.array_equal(stop_indices(uhat_f, dt, THRESHOLDS), stops)
    for stop in (None, *stops):
        row_major = log_weights_ensemble(uhat, Z, dt, stop)
        column_major = log_weights_ensemble(uhat_f, Z_f, dt, stop)
        assert all(np.array_equal(c, f) for c, f in zip(row_major, column_major))


def test_log_weights_reject_stopping_indices_of_another_ensemble():
    uhat, Z, dt = _drift_and_innovation(5)
    for shape in [(4,), (2, 4), (1, 2, 5)]:
        with pytest.raises(ShapeError):
            log_weights_ensemble(uhat, Z, dt, np.zeros(shape, dtype=int))


# ---------------------------------------------------------------- diagnostics

def test_normalization_all_zero_weights():
    d = normalization_diagnostic(reweight(np.zeros(200)))
    assert d.mean == 1.0
    assert d.se == 0.0
    assert d.passed


def test_normalization_cosh_example():
    lw = np.tile([10.0, -10.0], 100)
    d = normalization_diagnostic(reweight(lw))
    assert d.mean == pytest.approx(math.cosh(10.0), rel=1e-12)  # ~11013.2
    assert not d.passed


def test_normalization_needs_enough_members():
    with pytest.raises(UsageError):
        normalization_diagnostic(reweight(np.zeros(50)))


# ---------------------------------------------------------------- reweight

def test_reweight_uniform():
    ens = reweight(np.zeros(8))
    assert np.allclose(ens.weights, 1 / 8)
    assert ens.ess == pytest.approx(8.0)


def test_reweight_example_quarters():
    ens = reweight(np.array([0.0, math.log(3.0)]))
    assert ens.weights == pytest.approx([0.25, 0.75])


def test_reweight_degenerate():
    with pytest.raises(DegeneracyError):
        reweight(np.array([-np.inf, -np.inf, -np.inf]))


@settings(max_examples=40, deadline=None)
@given(st.floats(-700, 700), st.integers(0, 100))
def test_reweight_shift_invariance(shift, seed):
    lw = np.random.default_rng(seed).normal(size=32)
    a = reweight(lw).weights
    b = reweight(lw + shift).weights
    assert np.max(np.abs(a - b)) < 1e-12


def test_reweight_on_atoms_counts_members():
    # three atoms under 150 members: the diagnostic's minimum, the ESS and
    # the weights' total are those of the members, each on its atom's value,
    # to the rounding of a count-weighted sum
    lw, counts = np.array([0.0, math.log(3.0), -1.0]), np.array([100, 30, 20])
    ens, per_member = reweight(lw, counts), reweight(np.repeat(lw, counts))
    assert ens.size == 150 and list(ens.counts) == [100, 30, 20]
    assert ens.total == pytest.approx(per_member.total, rel=1e-15)
    assert ens.ess == pytest.approx(per_member.ess, rel=1e-15)
    diag, per_member_diag = normalization_diagnostic(ens), normalization_diagnostic(per_member)
    assert diag.mean == pytest.approx(per_member_diag.mean, rel=1e-15)
    assert diag.se == pytest.approx(per_member_diag.se, rel=1e-14)
    assert diag.passed == per_member_diag.passed
    assert np.allclose(np.repeat(ens.weights, counts), per_member.weights, rtol=1e-15, atol=0)


@pytest.mark.parametrize("atoms, counts, error", [
    (2, [5, 0], "at least one member"),  # atom 1 has no member
    (2, [5, -1], "at least one member"),
    (2, [5, 5, 5], "at least one member"),  # a count off the atoms
    (2, [[5, 5]], "at least one member"),
    (1, [1], "two members"),
])
def test_reweight_on_atoms_refuses_malformed_counts(atoms, counts, error):
    with pytest.raises(UsageError, match=error):
        reweight(np.zeros(atoms), np.array(counts))


def _signed(rng, values):
    return values * rng.choice([-1.0, 1.0], size=len(values))


def _near_cancelling(rng, high):
    """Values of one magnitude and counts below `high` whose total nearly
    cancels: the last value is minus the others' mean."""
    x = _signed(rng, rng.uniform(1.0, 2.0, size=50))
    counts = rng.integers(high // 2, high, size=50)
    x[-1] = -math.fsum((counts[:-1] * x[:-1]).tolist()) / counts[-1]
    return x, counts


def _member_sum_cases():
    rng = np.random.default_rng(11)
    subnormal = np.array([5e-324, 1e-320, 2.5e-310, np.nextafter(2.2250738585072014e-308, 0)])
    wide = _signed(rng, np.concatenate([np.logspace(-300, 300, 61), subnormal]))
    yield "wide", wide, rng.integers(0, 50, size=len(wide))
    pairs = np.array([1e300, -1e300, 0.1, -0.1, 3e-310, -3e-310, 1e-300])
    yield "cancelling", pairs, np.array([7, 7, 1000, 1000, 3, 3, 1])
    yield "cancelling-to-zero", pairs[:6], np.array([5, 5, 2, 2, 9, 9])
    yield "some-zero-counts", wide, np.where(rng.random(len(wide)) < 0.5, 0, 3)
    yield "all-zero-counts", wide, np.zeros(len(wide), dtype=np.intp)
    yield "counts-to-2**16", wide[::8], rng.integers(2**15, 2**16, size=len(wide[::8]))
    yield "near-cancelling", *_near_cancelling(rng, 1000)


@pytest.mark.parametrize("x, counts", [pytest.param(x, c, id=name)
                                       for name, x, c in _member_sum_cases()])
def test_member_sum_is_the_sum_of_the_repeated_values_to_rounding(x, counts):
    # a sum over members, each on its atom's value, is the exact sum of every
    # atom's value repeated counts times, within gamma_n = n u / (1 - n u)
    # of the sum of |value| * count (n per-atom products and at most n - 1
    # additions; Higham, Accuracy and Stability, section 3.1), for one row of
    # per-atom values and for each of three
    ens = WeightedEnsemble(0.0, x, 1.0, 1.0, counts)
    rows = np.stack([x, -x, 2.0 * x])
    n, u = len(x), Fraction(2) ** -53
    gamma = n * u / (1 - n * u)
    for got, row in zip([ens.member_sum(x), *ens.member_sum(rows)], [x, *rows]):
        terms = [Fraction(v) * int(c) for v, c in zip(row.tolist(), counts.tolist())]
        exact, scale = sum(terms), sum(abs(t) for t in terms)
        assert abs(Fraction(float(got)) - exact) <= gamma * scale, (float(got), float(exact))
