import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innovlab.core import RandomStream, TimeGrid, philox_chunks
from innovlab.criterion import plugin_level
from innovlab.errors import (
    AbsoluteContinuityError,
    ConfigurationError,
    DegeneracyError,
    UsageError,
)
from innovlab.filtering import innovation_values
from innovlab.girsanov import log_weights_ensemble, reweight
from innovlab.models import DriftModel, make_model
from innovlab.oracle import (
    MAX_NOISE_NODES,
    ROUND_DECIMALS,
    FiniteLaw,
    FiniteSystem,
    WitnessDrift,
    canonical_labels,
    conditional_energy_by_grouping,
    dpi_verdict,
    enumerate_atoms,
    exact_relative_entropy,
    finite_bayes_filter,
    gauss_quantized,
    match_atoms,
    sample_atoms,
    sample_quantized_ensemble,
    system_battery,
    witness_labels,
    witness_space,
)

# frozen enumeration values of the bundled information-erasing witness
WITNESS_BASE = 0.09859997546532426
WITNESS_PUSH = 0.046205325168310385
WITNESS_GAP = 0.05239465029701387
WITNESS_ENERGY = 0.12384886518115679


# ------------------------------------------------------------------ quantization

@pytest.mark.parametrize("m", [2, 3, 5])
def test_quantized_noise_matches_gaussian_moments(m):
    dt = 0.37
    qn = gauss_quantized(m, dt)
    assert abs(math.fsum(qn.probs) - 1.0) < 1e-12
    # Gaussian moments: odd vanish, even are (k-1)!! dt^(k/2)
    for k in range(1, 2 * m):
        got = float(np.sum(qn.probs * qn.values**k))
        want = 0.0 if k % 2 else math.prod(range(k - 1, 0, -2)) * dt ** (k // 2)
        assert got == pytest.approx(want, abs=1e-12)


def test_quantized_noise_guards(monkeypatch):
    with pytest.raises(ConfigurationError):
        gauss_quantized(1, 0.5)
    # the bound is the largest count whose probabilities are finite and positive
    assert np.all(gauss_quantized(MAX_NOISE_NODES, 0.5).probs > 0)
    with np.errstate(all="ignore"):
        _, w = np.polynomial.hermite_e.hermegauss(MAX_NOISE_NODES + 1)
        assert not np.all(w / w.sum() > 0)

    def no_quadrature(m):
        raise AssertionError("the quadrature was built")

    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", no_quadrature)
    with pytest.raises(ConfigurationError, match=f"between 2 and {MAX_NOISE_NODES} nodes"):
        gauss_quantized(MAX_NOISE_NODES + 1, 0.5)


def test_finite_law_defaults_to_uniform_and_looks_values_up():
    law = FiniteLaw([1.5, -1.5, 0.5])
    assert np.array_equal(law.probs, np.full(3, 1.0 / 3))
    assert np.array_equal(law.index(np.array([[0.5, 1.5], [-1.5, 0.5]])), [[2, 0], [1, 2]])
    assert np.array_equal(law.draw(np.array([0.1, 0.5, 0.9])), [1.5, -1.5, 0.5])
    assert np.array_equal(law.draw_index(np.array([0.1, 0.5, 0.9])), [0, 1, 2])
    with pytest.raises(UsageError):
        law.index(np.array([1.0]))


@pytest.mark.parametrize("law, u", [
    (gauss_quantized(22, 0.37), 1 - 2**-53),
    (FiniteLaw([0.0, 1.0], [0.5, 0.5 - 5e-13]), 1 - 2**-45),
])
def test_finite_law_draws_its_last_value_above_the_rounded_sum(law, u):
    # the cumulative sum of the probabilities can round below a uniform;
    # such a uniform draws the last value, and every other keeps its value
    cdf = np.cumsum(law.probs)
    assert u > cdf[-1]
    assert law.draw(np.array([u])).tolist() == [law.values[-1]]
    below = np.linspace(0.0, cdf[-1], 1001)
    assert np.array_equal(law.draw(below), law.values[np.searchsorted(cdf, below)])


@pytest.mark.parametrize("values, probs", [
    ([-1.5, 1.5], [1.0]),           # lengths differ
    ([], None),                      # empty
    ([1.0, 0.5, 1.0], None),         # a repeated value
    ([-1.0, 1.0], [1.5, -0.5]),      # a non-positive probability
    ([-1.0, 1.0], [0.5, 0.25]),      # does not sum to one
    ([[0.0, 1.0]], None),            # not one-dimensional
])
def test_finite_law_rejects_malformed_laws(values, probs):
    with pytest.raises(ConfigurationError):
        FiniteLaw(values, probs)


# ------------------------------------------------------------------ enumeration

def test_enumerate_zero_model():
    g = TimeGrid(steps=2)
    space = enumerate_atoms(make_model("zero"), g, gauss_quantized(2, g.dt))
    assert space.atoms == 4
    assert np.all(space.uhat == 0.0)
    assert np.array_equal(space.Z, space.sim.U)
    assert abs(math.fsum(space.probs) - 1.0) < 1e-12
    v = dpi_verdict(space.system())
    assert v.base_entropy == 0.0 and v.pushforward_entropy == 0.0
    assert v.density_z_measurable and v.u_recoverable_from_z


class SignFeedback(DriftModel):
    """u'_0 = 0, u'_1 = sign of the first observed increment."""

    name = "sign-feedback"
    kind = "feedback"
    reads_observation = True
    observation_adapted = True

    def drift(self, k, grid, U, aux, hidden, state):
        if k == 0:
            return np.zeros(U.shape[0])
        return np.sign(U[:, 1])


def test_enumerate_feedback_drift_is_its_own_conditional():
    g = TimeGrid(steps=2)
    space = enumerate_atoms(SignFeedback(), g, gauss_quantized(2, g.dt))
    assert np.array_equal(space.uhat, space.sim.drift)
    v = dpi_verdict(space.system())
    # observation-adapted drift: the tilt is an innovation functional, so
    # the pushforward loses nothing, exactly
    assert abs(v.gap) <= 1e-12
    assert v.density_z_measurable and v.u_recoverable_from_z


def test_quantized_tsirelson_is_invertible_until_an_erasure():
    # the lattice twin of the continuous tsirelson run: prefix-group means,
    # no regression basis, give an exact gap of 0 under the full
    # observation; only the sign-erasing map opens one
    g = TimeGrid(steps=4)
    space = enumerate_atoms(make_model("tsirelson", levels=2), g, gauss_quantized(3, g.dt),
                            FiniteLaw([0.25, 0.75]))
    assert space.atoms == 162
    full = dpi_verdict(space.system())
    assert abs(full.gap) <= 1e-12
    assert full.u_recoverable_from_z and full.density_z_measurable
    erased = dpi_verdict(space.system(relabel=witness_labels))
    assert erased.gap == pytest.approx(0.12836, abs=1e-5)
    assert not erased.density_z_measurable


def test_enumerate_independent_prior_mean_before_observation():
    g = TimeGrid(steps=1)
    space = enumerate_atoms(make_model("independent"), g, gauss_quantized(2, g.dt),
                            FiniteLaw([-1.0, 1.0]))
    assert np.allclose(space.uhat[:, 0], 0.0)


def test_enumerate_respects_atom_bound():
    g = TimeGrid(steps=4)
    with pytest.raises(ConfigurationError):
        enumerate_atoms(make_model("zero"), g, gauss_quantized(3, g.dt), max_atoms=10)


def test_enumerate_rejects_hidden_signal_models():
    g = TimeGrid(steps=2)
    with pytest.raises(ConfigurationError):
        enumerate_atoms(make_model("kalman-bucy"), g, gauss_quantized(2, g.dt))


@pytest.mark.parametrize("model, aux, message", [
    ("independent", None, "model independent needs a finite aux law"),
    ("zero", FiniteLaw([5.0, -7.0]), "model zero has no auxiliary variable"),
])
def test_a_finite_aux_law_is_given_exactly_when_the_model_has_an_aux_variable(
        model, aux, message):
    # a law the model cannot use would be dropped without a word, and a
    # missing one leaves nothing to draw the aux variable from
    g = TimeGrid(steps=2)
    noise = gauss_quantized(2, g.dt)
    with pytest.raises(ConfigurationError, match=message):
        enumerate_atoms(make_model(model), g, noise, aux)
    with pytest.raises(ConfigurationError, match=message):
        sample_quantized_ensemble(make_model(model), g, 10, RandomStream(seed=1), noise, aux)


# ------------------------------------------------------------------ entropies

def test_exact_relative_entropy_examples():
    assert exact_relative_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert exact_relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))
    got = exact_relative_entropy([0.75, 0.25], [0.5, 0.5])
    assert got == pytest.approx(0.75 * math.log(1.5) + 0.25 * math.log(0.5), abs=1e-14)
    assert got == pytest.approx(0.1308, abs=5e-5)


def test_exact_relative_entropy_support_violation():
    with pytest.raises(AbsoluteContinuityError):
        exact_relative_entropy([0.5, 0.5], [1.0, 0.0])


def test_relative_entropy_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert exact_relative_entropy(p, q) >= 0.0
        assert exact_relative_entropy(p, p) == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------------------ dpi battery

def test_battery_data_processing_and_equivalence():
    battery = system_battery(100, seed=7)
    assert len(battery) == 100
    equal_cnt = strict_cnt = 0
    for s in battery:
        assert abs(math.fsum(s.probs) - 1.0) < 1e-12
        assert abs(math.fsum(s.probs * s.density) - 1.0) < 1e-9
        v = dpi_verdict(s)
        assert v.pushforward_entropy <= v.base_entropy + 1e-12
        assert v.base_entropy >= -1e-12 and v.pushforward_entropy >= -1e-12
        # equality within 1e-12 exactly when the density is class-constant
        assert (abs(v.gap) <= 1e-12) == v.density_z_measurable
        # recoverability can only happen when the density is measurable
        if v.u_recoverable_from_z:
            assert v.density_z_measurable
        if abs(v.gap) <= 1e-12:
            equal_cnt += 1
        else:
            strict_cnt += 1
    assert equal_cnt >= 10 and strict_cnt >= 10


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30), st.integers(2, 6), st.integers(0, 10_000), st.booleans())
def test_dpi_holds_on_arbitrary_finite_systems(atoms, classes, seed, constant):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(atoms))
    labels = rng.integers(0, classes, size=atoms)
    if constant:
        rho = rng.uniform(0.2, 3.0, size=classes)[labels]
    else:
        rho = rng.uniform(0.2, 3.0, size=atoms)
    rho = rho / np.sum(probs * rho)
    sysm = FiniteSystem(probs, rho, labels, np.arange(atoms), np.zeros(atoms))
    v = dpi_verdict(sysm)
    assert v.pushforward_entropy <= v.base_entropy + 1e-12
    assert (abs(v.gap) <= 1e-12) == v.density_z_measurable


def test_finite_system_rejects_an_unnormalized_density():
    probs = np.full(4, 0.25)
    with pytest.raises(ConfigurationError, match="total mass one"):
        FiniteSystem(probs, np.full(4, 2.0), np.arange(4), np.arange(4), np.zeros(4))


def test_recoverability_counts_sparse_observation_labels():
    # observation labels need not be dense (the abstract battery draws them)
    probs, rho = np.full(4, 0.25), np.ones(4)
    z = np.array([5, 5, 9, 2])
    for u, recoverable in (([0, 0, 1, 3], True), ([0, 1, 1, 3], False)):
        sysm = FiniteSystem(probs, rho, z, np.array(u), np.zeros(4))
        assert dpi_verdict(sysm).u_recoverable_from_z is recoverable


# ------------------------------------------------------------------ witness

def test_witness_exact_values_frozen():
    space, sysm = witness_space()
    v = dpi_verdict(sysm)
    assert v.base_entropy == pytest.approx(WITNESS_BASE, abs=1e-12)
    assert v.pushforward_entropy == pytest.approx(WITNESS_PUSH, abs=1e-12)
    assert v.gap == pytest.approx(WITNESS_GAP, abs=1e-12)
    assert v.energy == pytest.approx(WITNESS_ENERGY, abs=1e-12)
    assert v.gap > 1e-6
    assert not v.density_z_measurable
    assert not v.u_recoverable_from_z


def test_witness_full_observation_has_no_gap():
    # the gap is created by the erasing map, not by the drift: with the
    # full innovation trajectory the identity holds exactly
    space, _ = witness_space()
    v = dpi_verdict(space.system())
    assert abs(v.gap) <= 1e-12
    assert v.density_z_measurable and v.u_recoverable_from_z


def test_witness_conditional_energy_equals_tilted_energy():
    space, _ = witness_space()
    assert conditional_energy_by_grouping(space) == pytest.approx(WITNESS_ENERGY, abs=1e-12)


# ------------------------------------------------------------------ sampling side

def test_quantized_sampler_reproducible_and_on_lattice():
    g = TimeGrid(steps=3)
    noise = gauss_quantized(3, g.dt)
    model = make_model("independent")
    aux = FiniteLaw([-1.0, 1.0])
    a = sample_quantized_ensemble(model, g, 50, RandomStream(seed=5), noise, aux)
    b = sample_quantized_ensemble(model, g, 50, RandomStream(seed=5), noise, aux)
    assert np.array_equal(a.dB, b.dB) and np.array_equal(a.aux, b.aux)
    assert set(np.unique(a.dB)) <= set(noise.values)


@pytest.mark.parametrize("model, nodes, aux", [
    ("independent", 3, FiniteLaw([1.5, -1.5], [0.25, 0.75])),
    ("linear-feedback", 3, None),
    (WitnessDrift.name, 2, None),
])
def test_atom_sampler_draws_the_atoms_of_the_sampled_paths(model, nodes, aux):
    # the same uniforms and the same draw rule: path i of the sampled
    # ensemble lies on atom i of the sampler, from any substream; the
    # sampler's chunks are 8192 rows at three steps, so the paths cross two
    # chunk seams
    g = TimeGrid(steps=3)
    noise = gauss_quantized(nodes, g.dt)
    space = enumerate_atoms(make_model(model), g, noise, aux)
    stream = RandomStream(seed=5, substream=17)
    size = 2 * 8192 + 5
    assert len(philox_chunks(size, g.steps)) == 3
    sim = sample_quantized_ensemble(make_model(model), g, size, stream, noise, aux)
    assert np.array_equal(sample_atoms(space, size, stream), match_atoms(space, sim))


def test_atom_sampler_holds_one_chunk_of_uniforms_at_a_time():
    # one process's range of the criterion-8 config at 100 000 paths: its
    # (50 176, 3) noise uniforms alone are 1.2 MB, and drawing the whole
    # range at once peaked at 3.1 MB
    g = TimeGrid(steps=3)
    space = enumerate_atoms(make_model("independent"), g, gauss_quantized(3, g.dt),
                            FiniteLaw([-1.5, 1.5]))
    sample_atoms(space, 50_176, RandomStream(seed=1))  # warm-up: one-time caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sample_atoms(space, 50_176, RandomStream(seed=1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_finite_bayes_filter_matches_enumeration_exactly():
    g = TimeGrid(steps=3)
    noise = gauss_quantized(3, g.dt)
    model = make_model("independent")
    aux = FiniteLaw([-1.5, 1.5])
    space = enumerate_atoms(model, g, noise, aux)
    sim = sample_quantized_ensemble(model, g, 200, RandomStream(seed=8), noise, aux)
    filt = finite_bayes_filter(model, sim, noise, aux)
    # locate each sampled path's atom and compare the conditional drift
    atom = match_atoms(space, sim)
    assert np.max(np.abs(filt.values - space.uhat[atom])) < 1e-12


def test_finite_bayes_filter_names_the_step_no_hypothesis_explains():
    # an increment of the 3-node law off the 2-node law's lattice
    g = TimeGrid(steps=3)
    aux = FiniteLaw([-1.5, 1.5])
    model = make_model("independent")
    sim = sample_quantized_ensemble(model, g, 200, RandomStream(seed=8),
                                    gauss_quantized(3, g.dt), aux)
    with pytest.raises(DegeneracyError, match=r"observed increment at step 0$"):
        finite_bayes_filter(model, sim, gauss_quantized(2, g.dt), aux)


def _path_major_bayes_filter(model, sim, noise, aux):
    """The finite Bayes filter with a path-major (m, aux.count) log
    posterior: a reference for the aux-major one."""
    grid = sim.grid
    N, m = grid.steps, sim.size
    zeros = np.zeros((aux.count, N + 1))
    state = model.start(grid, aux.values[:, None], None)
    hypo = np.empty((aux.count, N))
    for k in range(N):
        hypo[:, k] = model.drift(k, grid, zeros, aux.values[:, None], None, state)
    log_pmf = {round(float(n), ROUND_DECIMALS): math.log(p)
               for n, p in zip(noise.values, noise.probs)}

    def loglik(residual):
        key = np.round(residual, ROUND_DECIMALS)
        out = np.full(residual.shape, -np.inf)
        for node, lp in log_pmf.items():
            out = np.where(np.isclose(key, node, rtol=0, atol=10.0**-ROUND_DECIMALS), lp, out)
        return out

    post = np.tile(np.log(aux.probs), (m, 1))
    out = np.empty((m, N))
    for k in range(N):
        w = np.exp(post - post.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        out[:, k] = w @ hypo[:, k]
        residual = sim.dU[:, k][:, None] - hypo[:, k][None, :] * grid.dt
        post = post + loglik(residual)
    return out


@pytest.mark.parametrize("count", [2, 3, 9])
def test_aux_major_bayes_filter_is_bit_equal_to_the_path_major_one(count):
    g = TimeGrid(steps=3)
    noise = gauss_quantized(3, g.dt)
    model = make_model("independent")
    probs = np.arange(1, count + 1) * 2 / (count * (count + 1))  # unequal, summing to 1
    aux = FiniteLaw(np.linspace(-1.5, 1.5, count), probs)
    sim = sample_quantized_ensemble(model, g, 20000, RandomStream(seed=1), noise, aux)
    got = finite_bayes_filter(model, sim, noise, aux).values
    assert np.array_equal(got, _path_major_bayes_filter(model, sim, noise, aux))


def _plugin_se_reference(lw, labels):
    """Standard errors of the base and pushforward plug-in entropies, each
    formed on its own: a reference for `plugin_level`'s single pass."""
    ens = reweight(lw)
    M = ens.size
    rho = ens.scaled / ens.scaled.mean()
    est = float(np.mean(rho * np.log(np.where(rho > 0, rho, 1.0))))
    infl = rho * np.log(np.where(rho > 0, rho, 1.0)) - est - (rho - 1.0) * (est + 1.0)
    base_se = float(np.std(infl, ddof=1) / np.sqrt(M))
    p_hat = np.bincount(labels) / M
    q_hat = np.bincount(labels, weights=rho) / M
    good = p_hat > 0
    ratio = np.zeros_like(p_hat)
    ratio[good] = q_hat[good] / p_hat[good]
    logratio = np.log(np.where(ratio > 0, ratio, 1.0))
    est = float(np.sum(q_hat * logratio))
    infl = rho * (logratio[labels] + 1.0) - ratio[labels] - rho * (est + 1.0) + 1.0
    push_se = float(np.std(infl, ddof=1) / np.sqrt(M))
    return base_se, push_se


@pytest.mark.parametrize("erased", [False, True], ids=["full", "sign-terminal"])
def test_plugin_standard_errors_match_the_separate_formulas(erased):
    if erased:
        g, model, aux = TimeGrid(steps=2), WitnessDrift(), None
        noise = gauss_quantized(2, g.dt)
    else:
        g, model, aux = TimeGrid(steps=3), make_model("independent"), FiniteLaw([-1.5, 1.5])
        noise = gauss_quantized(3, g.dt)
    sim = sample_quantized_ensemble(model, g, 5000, RandomStream(seed=4), noise, aux)
    filt = finite_bayes_filter(model, sim, noise, aux)
    Z = innovation_values(sim.U, filt.values, g.dt)
    labels = canonical_labels(witness_labels(Z) if erased else Z[:, 1:])
    lw, energies = log_weights_ensemble(filt.values, Z, g.dt)
    level, _ = plugin_level(lw, energies, labels)
    assert (level.energy_se, level.entropy_se) == _plugin_se_reference(lw, labels)


def test_plugin_estimators_converge_to_enumeration():
    g = TimeGrid(steps=3)
    noise = gauss_quantized(3, g.dt)
    model = make_model("independent")
    aux = FiniteLaw([-1.5, 1.5])
    space = enumerate_atoms(model, g, noise, aux)
    v = dpi_verdict(space.system())
    sim = sample_quantized_ensemble(model, g, 20000, RandomStream(seed=13), noise, aux)
    filt = finite_bayes_filter(model, sim, noise, aux)
    Z = innovation_values(sim.U, filt.values, g.dt)
    level, e = plugin_level(*log_weights_ensemble(filt.values, Z, g.dt),
                            canonical_labels(Z[:, 1:]))
    base, base_se = level.energy, level.energy_se
    push, push_se = level.entropy, level.entropy_se
    assert abs(base - v.base_entropy) < 5 * max(base_se, 1e-4)
    assert abs(push - v.pushforward_entropy) < 5 * max(push_se, 1e-4)
    assert abs(e - v.energy) / v.energy < 0.05
    assert level.level == math.inf and level.gap == base - push


def test_plugin_estimators_exact_on_zero_drift():
    g = TimeGrid(steps=3)
    noise = gauss_quantized(2, g.dt)
    sim = sample_quantized_ensemble(make_model("zero"), g, 500, RandomStream(seed=2), noise)
    level, _ = plugin_level(*log_weights_ensemble(sim.drift, sim.U, g.dt),
                            canonical_labels(sim.U[:, 1:]))
    assert level.energy == pytest.approx(0.0, abs=1e-14)
    assert level.entropy == pytest.approx(0.0, abs=1e-14)
    assert level.gap_se == pytest.approx(0.0, abs=1e-14)


def test_regression_fit_tracks_exact_conditional_expectation():
    # second-level regression (with cubic features) against the exact
    # enumeration conditional expectation, on the overlapping-support
    # finite instance: weighted mean-square difference below 5%
    from innovlab.filtering import BasisSpec, FeatureBuilder, WeightedGram, weighted_ridge_fit
    from innovlab.oracle import _prefix_group_means

    g = TimeGrid(steps=3)
    noise = gauss_quantized(3, g.dt)
    model = make_model("independent")
    aux = FiniteLaw([-1.5, 1.5])
    space = enumerate_atoms(model, g, noise, aux)
    exact_cond = _prefix_group_means(space.Z, space.probs * space.density, space.uhat)

    sim = sample_quantized_ensemble(model, g, 20000, RandomStream(seed=5), noise, aux)
    filt = finite_bayes_filter(model, sim, noise, aux)
    Z = innovation_values(sim.U, filt.values, g.dt)
    ens = reweight(log_weights_ensemble(filt.values, Z, g.dt)[0])
    atom = match_atoms(space, sim)

    basis = BasisSpec(include_cubes=True)
    fb = FeatureBuilder(Z, g.dt, basis)
    gram = WeightedGram(ens.weights)
    num = den = 0.0
    for k in range(3):
        F = fb.features_at(k)
        fitted = weighted_ridge_fit(F, filt.values[:, k], gram, basis.ridge, fb.carry_map(k))[1]
        exact = exact_cond[atom, k]
        num += float(ens.weights @ (fitted - exact) ** 2)
        den += float(ens.weights @ exact**2)
    assert num / den < 0.05


def test_witness_labels_group_by_magnitude():
    Z = np.zeros((4, 3))
    Z[:, -1] = [1.5, -1.5, 0.0, 0.3]
    labels = canonical_labels(witness_labels(Z))
    assert labels[0] == labels[1]
    assert len(np.unique(labels)) == 3


def test_class_labels_match_numpy_unique_rows():
    from innovlab.oracle import ROUND_DECIMALS, _refine_labels

    rng = np.random.default_rng(3)
    keys = rng.integers(-2, 3, size=(400, 3)) * 0.5
    keys[rng.random(keys.shape) < 0.2] = -0.0  # -0.0 and 0.0 are one value
    keys[:50, 1] = 0.1 + 0.2                   # equal to 0.3 after rounding
    keys[50:100, 1] = 0.3
    for k in (keys, keys[:, :1], keys[:, 0]):  # ties, one column, 1-D keys
        rounded = np.round(np.asarray(k).reshape(len(k), -1), ROUND_DECIMALS)
        _, expected = np.unique(rounded, axis=0, return_inverse=True)
        assert np.array_equal(canonical_labels(k), expected.reshape(-1))
    coarse = canonical_labels(keys[:, 0])
    _, expected = np.unique(np.stack([coarse.astype(float), np.round(keys[:, 2], ROUND_DECIMALS)], axis=1),
                            axis=0, return_inverse=True)
    assert np.array_equal(_refine_labels(coarse, keys[:, 2]), expected.reshape(-1))
