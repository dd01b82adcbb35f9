import numpy as np
import pytest

from innovlab import lingauss
from innovlab.core import RandomStream, TimeGrid
from innovlab.errors import ConfigurationError, ShapeError, UsageError
from innovlab.filtering import (
    BasisSpec,
    FeatureBuilder,
    WeightedGram,
    ensemble_conditional_drift,
    innovation_values,
    riccati_sequence,
    weighted_ridge_fit,
    _ridge_solve,
    _truncnorm_mean01,
)
from innovlab.harness import PAPER_RUNS
from innovlab.models import (
    MODEL_NAMES,
    EnsembleSimulation,
    make_model,
    run_euler,
    simulate_ensemble,
)

STREAM = RandomStream(seed=909, substream=0)


# ---------------------------------------------------------------- kalman

def test_riccati_single_step_hand_value():
    # the discrete predict/update: (1 - beta dt)^2 P_0 / (1 + P_0 dt) + sigma^2 dt
    g = TimeGrid(steps=10)
    P = riccati_sequence(beta=1.0, sigma=1.0, grid=g, p0=0.5)
    assert P[0] == 0.5
    assert P[1] == pytest.approx(0.81 * 0.5 / 1.05 + 0.1)  # 0.4857142857...


def test_kalman_zero_observation_gives_zero_estimate():
    g = TimeGrid(steps=16)
    flat = np.zeros((1, 16))
    sim = EnsembleSimulation(g, dB=flat, dU=flat, drift=flat,
                             aux=np.zeros((1, 1)), U=np.zeros((1, 17)))
    est = ensemble_conditional_drift(make_model("kalman-bucy", beta=1.0, sigma=1.0), sim)
    assert np.array_equal(est.values, np.zeros((1, 16)))
    assert est.method == "exact-kalman"


def test_kalman_filter_mse_matches_riccati():
    # Monte Carlo mean-square error of the filter at the last step should
    # reproduce the filter's error variance within 5%.
    M, N = 10_000, 64
    g = TimeGrid(steps=N)
    model = make_model("kalman-bucy", beta=1.0, sigma=1.0)
    sim = simulate_ensemble(model, g, M, RandomStream(seed=31, substream=0))
    filt = ensemble_conditional_drift(model, sim)
    err = sim.drift[:, N - 1] - filt.values[:, N - 1]
    P = riccati_sequence(1.0, 1.0, g, p0=0.5)
    assert np.mean(err**2) == pytest.approx(P[N - 1], rel=0.05)


# ---------------------------------------------------------------- exact filters

def _conditional_mean_rows(model, grid, monkeypatch):
    """E[u_k | dU_{<k}] of the simulated system by Gaussian conditioning, and
    the pipeline's filter, both as (rows over the primitive vector, const).

    `lingauss._affine_rows` gives the observation and filter rows and the
    primitive variances; the true drift's rows come from the `run_euler`
    call that it makes.
    """
    sims = []

    def recording_run_euler(*args):
        sims.append(run_euler(*args))
        return sims[-1]

    monkeypatch.setattr(lingauss, "run_euler", recording_run_euler)
    (dU_rows, _), filt, var, _ = lingauss._affine_rows(model, grid)
    (sim,) = sims
    drift_rows, drift_const = (sim.drift[1:] - sim.drift[0]).T, sim.drift[0]
    cov_dU = (dU_rows * var) @ dU_rows.T
    cross = (dU_rows * var) @ drift_rows.T  # cross[j, k] = Cov(dU_j, u_k)
    rows = np.zeros_like(drift_rows)
    for k in range(1, grid.steps):
        rows[k] = np.linalg.solve(cov_dU[:k, :k], cross[:k, k]) @ dU_rows[:k]
    return (rows, drift_const), filt


@pytest.mark.parametrize("name, params, steps", [
    *(pytest.param(name, params, steps, id=f"{name}-{steps}")
      for name, params, _ in PAPER_RUNS if lingauss.is_linear_model(make_model(name, **params))
      for steps in (32, 128)),
    # a loud signal on a coarse grid: sigma^2 dt = 3.125
    pytest.param("kalman-bucy", {"beta": 1.0, "sigma": 10.0}, 32, id="kalman-bucy-sigma10-32"),
    # 1 - beta dt < 0: the simulated signal flips sign at every step
    pytest.param("kalman-bucy", {"beta": 40.0, "sigma": 1.0}, 32, id="kalman-bucy-beta40-32"),
])
def test_every_linear_filter_is_the_conditional_mean_of_the_simulated_system(
        name, params, steps, monkeypatch):
    (rows, const), (filt_rows, filt_const) = _conditional_mean_rows(
        make_model(name, **params), TimeGrid(steps=steps), monkeypatch)
    scale = max(np.max(np.abs(rows)), np.max(np.abs(const)))
    assert np.max(np.abs(filt_rows - rows)) <= 1e-12 * scale
    assert np.max(np.abs(filt_const - const)) <= 1e-12 * scale


def test_independent_closed_form_matches_sufficient_statistic():
    g = TimeGrid(steps=16)
    model = make_model("independent")
    sim = simulate_ensemble(model, g, 32, STREAM)
    filt = ensemble_conditional_drift(model, sim)
    assert filt.method == "exact-gaussian"
    t = g.left_times
    closed = sim.U[:, :-1] / (1.0 + t)
    assert np.allclose(filt.values, closed, atol=1e-12)


@pytest.mark.parametrize("params", [{}, {"g_shape": "linear", "intercept": 0.5},
                                    {"g_shape": "sine", "frequency": 0.7}])
def test_independent_filter_equals_posterior_mean_formula(params):
    # theta_hat_k = sum_{j<k} g_j dU_j / (1 + sum_{j<k} g_j^2 dt), the filter
    # is theta_hat_k g_k; built from whole-array temporaries here, bit-equal
    g = TimeGrid(steps=16)
    model = make_model("independent", **params)
    sim = simulate_ensemble(model, g, 32, STREAM)
    gl = model.g(g.left_times)
    num = np.concatenate([np.zeros((32, 1)), np.cumsum(gl * sim.dU, axis=1)], axis=1)
    den = 1.0 + np.concatenate([[0.0], np.cumsum(gl**2 * g.dt)])
    expected = num[:, :-1] / den[:-1] * gl
    assert np.array_equal(ensemble_conditional_drift(model, sim).values, expected)


def test_truncnorm_mean_against_quadrature():
    xi = np.linspace(0.0, 1.0, 200_001)
    for mu, sigma in [(0.3, 1.7), (-0.4, 2.0), (1.8, 0.9), (0.5, 5.0)]:
        like = np.exp(-0.5 * ((xi - mu) / sigma) ** 2)
        want = np.trapezoid(xi * like, xi) / np.trapezoid(like, xi)
        got = _truncnorm_mean01(np.array([mu]), sigma)[0]
        assert got == pytest.approx(want, abs=1e-6)


def test_truncnorm_mean_far_below_the_segment():
    # the head filter at t = 1/512 (sigma = 22.6) for U well below 0: the
    # mass of [0, 1] is a difference of two upper tails, not of two numbers
    # near 1; reference means from mpmath at 40 digits
    t = 1.0 / 512
    for U, want in [(-0.25, 0.479108567806486), (-0.30, 0.474958031551919),
                    (-0.35, 0.470813719010519)]:
        got = _truncnorm_mean01(np.array([U / t]), 1.0 / np.sqrt(t))[0]
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(want, abs=1e-10)


def test_tsirelson_filter_head_and_tail():
    g = TimeGrid(steps=32)
    model = make_model("tsirelson", levels=3)
    sim = simulate_ensemble(model, g, 16, STREAM)
    filt = ensemble_conditional_drift(model, sim)
    assert filt.method == "exact-head"
    n0 = round(model.level_times()[0] * g.steps)  # 4 steps on the seed segment
    # prior mean before any observation
    assert np.all(filt.values[:, 0] == 0.5)
    # the seed segment estimate stays inside [0, 1]
    assert np.all((filt.values[:, :n0] >= 0) & (filt.values[:, :n0] <= 1))
    # beyond the seed segment the drift is observation-adapted: estimate == drift
    assert np.array_equal(filt.values[:, n0:], sim.drift[:, n0:])
    # head values against the truncated-normal posterior of the uniform seed
    for k in [1, 2, 3]:
        t = k * g.dt
        want = _truncnorm_mean01(sim.U[:, k] / t, 1.0 / np.sqrt(t))
        assert np.allclose(filt.values[:, k], want, atol=1e-12)


def test_identity_feedback_for_adapted_models():
    g = TimeGrid(steps=16)
    for name in ["zero", "deterministic", "linear-feedback"]:
        model = make_model(name)
        sim = simulate_ensemble(model, g, 4, STREAM)
        filt = ensemble_conditional_drift(model, sim)
        assert filt.method == "identity-feedback"
        assert np.array_equal(filt.values, sim.drift)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_filter_is_predictable(name):
    # the filtered drift on [t_k, t_k+1) reads the observation up to t_k
    # only: redrawing dB, and kalman-bucy's hidden noise, from step k on
    # leaves uhat[:, :k+1] bit-identical, including tsirelson's head steps
    model = make_model(name, **({"levels": 2} if name == "tsirelson" else {}))
    g, m = TimeGrid(steps=16), 64
    rng = np.random.default_rng(17)

    def noise():
        return rng.normal(scale=np.sqrt(g.dt), size=(m, g.steps))

    dB, aux = noise(), model.sample_aux(rng, m)
    hidden = noise() if model.needs_hidden() else None
    base = run_euler(model, g, dB, aux, hidden)
    uhat = ensemble_conditional_drift(model, base).values
    for k in [0, 2, 5, 11]:
        dB_k = np.where(np.arange(g.steps) < k, dB, noise())
        hidden_k = None if hidden is None else np.where(np.arange(g.steps) < k, hidden, noise())
        sim = run_euler(model, g, dB_k, aux, hidden_k)
        assert not np.array_equal(sim.U[:, k + 1], base.U[:, k + 1])
        got = ensemble_conditional_drift(model, sim).values
        assert np.array_equal(got[:, :k + 1], uhat[:, :k + 1]), k


# ---------------------------------------------------------------- innovation

def _innovation(name, g):
    """One simulated path of the model and its innovation, through the pipeline."""
    model = make_model(name)
    sim = simulate_ensemble(model, g, 1, STREAM)
    return sim, innovation_values(sim.U, ensemble_conditional_drift(model, sim).values, g.dt)


def test_innovation_zero_drift_is_observation():
    sim, Z = _innovation("zero", TimeGrid(steps=16))
    assert np.array_equal(Z, sim.U)
    assert Z[0, 0] == 0.0


@pytest.mark.parametrize("name", ["deterministic", "linear-feedback"])
def test_innovation_recovers_brownian_for_adapted_models(name):
    sim, Z = _innovation(name, TimeGrid(steps=64))
    brownian = np.concatenate([np.zeros((1, 1)), np.cumsum(sim.dB, axis=1)], axis=1)
    assert np.allclose(Z, brownian, atol=1e-12)


def test_innovation_shape_mismatch():
    g = TimeGrid(steps=8)
    sim = simulate_ensemble(make_model("zero"), g, 1, STREAM)
    with pytest.raises(ShapeError):
        innovation_values(sim.U, np.zeros((1, 4)), g.dt)
    with pytest.raises(ShapeError):  # member counts disagree
        innovation_values(sim.U, np.zeros((2, 8)), g.dt)
    with pytest.raises(ShapeError):  # dimensions disagree: a trailing axis
        innovation_values(sim.U, np.zeros((1, 8, 1)), g.dt)
    with pytest.raises(ShapeError):
        innovation_values(sim.U[:, :, None], np.zeros((1, 8)), g.dt)


# ---------------------------------------------------------------- regression

def _toy_paths(m, N, seed):
    rng = np.random.default_rng(seed)
    # build (m, N+1) innovation-like paths
    inc = rng.normal(0.0, 0.3, size=(m, N))
    Z = np.concatenate([np.zeros((m, 1)), np.cumsum(inc, axis=1)], axis=1)
    return Z, rng


def _features(Z, basis, k):
    """Step-k features, reached the way criterion_levels walks the steps."""
    builder = FeatureBuilder(Z, 1.0, basis)
    for j in range(k + 1):
        F = builder.features_at(j)
    return F


def _fit(Z, y, w, k, basis):
    """The weighted second-level fit of y at step k, as criterion_levels runs it."""
    return weighted_ridge_fit(_features(Z, basis, k), y[:, k], WeightedGram(w),
                              basis.ridge)[1]


def test_second_level_reproduces_constants():
    Z, rng = _toy_paths(400, 6, seed=1)
    y = np.full((400, 6), 3.25)
    w = rng.uniform(0.5, 1.5, size=400)
    fitted = _fit(Z, y, w, k=4, basis=BasisSpec(window=3))
    assert np.allclose(fitted, 3.25, atol=1e-10)


def test_second_level_is_fixed_point_on_linear_responses():
    Z, rng = _toy_paths(2000, 6, seed=2)
    y = np.zeros((2000, 6))
    k = 4
    y[:, k] = 2.0 + 3.0 * (Z[:, k] - Z[:, k - 1]) + 0.5 * Z[:, k]
    w = rng.uniform(0.5, 1.5, size=2000)
    fitted = _fit(Z, y, w, k=k, basis=BasisSpec(window=3))
    assert np.max(np.abs(fitted - y[:, k])) < 1e-4


def test_second_level_tower_property_and_jensen_ordering():
    Z, rng = _toy_paths(3000, 8, seed=3)
    y = np.sin(Z[:, :-1] * 2.0) + 0.2 * rng.normal(size=(3000, 8))
    w = rng.uniform(0.1, 2.0, size=3000)
    wn = w / w.sum()
    for k in [0, 2, 7]:
        fitted = _fit(Z, y, w, k=k, basis=BasisSpec(window=4))
        assert wn @ fitted == pytest.approx(wn @ y[:, k], abs=1e-10)
        assert wn @ fitted**2 <= wn @ y[:, k] ** 2 + 1e-10


def test_step_features_shapes():
    # feature-major: one row per feature, one column per path; the default
    # basis has 1 + min(k, window) + 1 rows, and cubes double the rows after
    # the intercept
    Z = np.zeros((10, 5))
    for cubes in (False, True):
        fb = FeatureBuilder(Z, 1.0, BasisSpec(window=3, include_cubes=cubes))
        for k in range(5):
            assert fb.features_at(k).shape == (1 + (1 + cubes) * (min(k, 3) + 1), 10)


def _path_major_features(Z, dt, spec, k):
    """Features at step k as (m, p), straight from the definition: np.diff
    columns, column_stack, powers, EMAs summed from step 0."""
    m = Z.shape[0]
    dZ = np.diff(Z, axis=1)
    emas = []
    for rate in spec.ema_rates:
        ema = np.zeros(m)
        for j in range(k):
            ema *= 1.0 - rate * dt
            ema += dZ[:, j]
        emas.append(ema)
    w = min(k, spec.window)
    base = np.column_stack([dZ[:, k - w: k], Z[:, k], *emas])
    feats = [np.ones((m, 1)), base]
    if spec.include_cubes:
        feats.append(base**3)
    return np.concatenate(feats, axis=1)


def test_feature_rows_equal_the_path_major_formula():
    m, N = 300, 200
    Z_rows, _ = _toy_paths(m, N, seed=4)
    spec = BasisSpec(window=5, include_cubes=True, ema_rates=(0.5, 3.0))
    # the front end's column-major layout, and a row-major one
    for Z in (np.asfortranarray(Z_rows), Z_rows):
        fb = FeatureBuilder(Z, 1.0 / N, spec)
        for k in range(N):
            G = fb.features_at(k)
            assert G.flags.c_contiguous
            assert np.array_equal(G, _path_major_features(Z, 1.0 / N, spec, k).T)
            # no held array has Z's size, so there is no copy of Z; beside
            # its EMA vectors the builder holds exactly two feature buffers
            held = [a for v in vars(fb).values()
                    for a in (v if isinstance(v, (list, tuple)) else [v])
                    if isinstance(a, np.ndarray) and a is not Z]
            assert all(a.size != Z.size for a in held)
            shapes = sorted(a.shape for a in held)
            assert shapes == sorted([(m,)] * len(spec.ema_rates) + [(1 + 2 * (5 + 1 + 2), m)] * 2)
    # the steps are served in order only: neither back nor ahead
    for k in (64, N + 1):
        with pytest.raises(UsageError, match="step order"):
            fb.features_at(k)


# the default basis, a short window with cubes, a window with EMAs, and no window
GRAM_BASES = [BasisSpec(), BasisSpec(window=3, include_cubes=True),
              BasisSpec(window=4, ema_rates=(2.0, 8.0)), BasisSpec(window=0)]


@pytest.mark.parametrize("basis", GRAM_BASES, ids=BasisSpec.describe)
def test_feature_steps_alternate_between_two_buffers(basis):
    # step k is written over step k - 2, never over step k - 1, whose rows
    # the next step copies and the fits of step k may still hold
    Z, _ = _toy_paths(64, 12, seed=5)
    fb = FeatureBuilder(np.asfortranarray(Z), 1.0 / 12, basis)
    steps = [fb.features_at(0)]
    for k in range(1, 12):
        before = steps[-1].copy()
        steps.append(fb.features_at(k))
        assert np.array_equal(steps[-2], before)
        assert not np.shares_memory(steps[-1], steps[-2])
        if k >= 2:
            assert np.shares_memory(steps[-1], steps[-3])
            assert steps[-1].base is steps[-3].base


def test_fitted_values_fill_one_held_vector_per_gram():
    Z, rng = _toy_paths(50, 4, seed=6)
    basis = BasisSpec(window=2)
    fb = FeatureBuilder(Z, 0.25, basis)
    gram = WeightedGram(rng.uniform(0.5, 1.5, size=50))
    fitted = [weighted_ridge_fit(fb.features_at(k), np.sin(Z[:, k]), gram, basis.ridge,
                                 fb.carry_map(k))[1] for k in range(4)]
    assert all(f is gram.fitted for f in fitted)


def _reference_ridge_solve(A, b, ridge):
    """`_ridge_solve`'s formula written plainly, with a diagonal copy, an
    index range and fancy indexing: the reference the lean one must match
    bit for bit."""
    diag = np.diag(A).copy()
    scale = np.where(diag > 0, diag, 1.0)
    inner = np.arange(1, len(diag))
    lam = ridge
    for escalations in range(4):
        Areg = A.copy()
        Areg[inner, inner] += lam * scale[1:]
        try:
            coef = np.linalg.solve(Areg, b)
        except np.linalg.LinAlgError:
            lam *= 100.0
            continue
        if np.all(np.isfinite(coef)):
            return coef, escalations
        lam *= 100.0
    raise AssertionError("the reference formula found no solution")


def _basis_row_counts():
    """Every feature row count p that the default, cubes and EMA bases
    produce, over all their steps."""
    counts = set()
    for basis in GRAM_BASES[:3]:
        builder = FeatureBuilder(np.zeros((2, basis.window + 3)), 1.0, basis)
        counts |= {len(builder.features_at(k)) for k in range(basis.window + 2)}
    return sorted(counts)


@pytest.mark.parametrize("p", _basis_row_counts())
def test_lean_ridge_solve_is_bit_identical_to_the_formula(p):
    rng = np.random.default_rng(100 + p)
    for trial in range(20):
        X = rng.normal(size=(p, 60)) * rng.uniform(0.01, 100.0, size=(p, 1))
        X[0] = 1.0
        if trial % 5 == 4:  # a feature that is 0 on every path: a zero diagonal
            X[-1] = 0.0
        A = (X * rng.uniform(0.1, 2.0, size=60)) @ X.T
        b = rng.normal(size=p)
        coef, raised = _ridge_solve(A, b, 1e-8)
        ref, ref_raised = _reference_ridge_solve(A, b, 1e-8)
        assert raised == ref_raised
        assert coef.tobytes() == ref.tobytes()


def test_lean_ridge_solve_rescues_like_the_formula():
    # the singular system of the rescue test below: two escalations either way
    x = np.tile([1.25, -1.25], 4)
    G = np.stack([np.ones(8), x, x])
    A = WeightedGram(np.ones(8)).update(G)
    b = G @ (np.full(8, 1.0 / 8) * (1.0 + 2.0 * x))
    coef, raised = _ridge_solve(A, b, 1e-20)
    ref, ref_raised = _reference_ridge_solve(A, b, 1e-20)
    assert raised == ref_raised == 2
    assert coef.tobytes() == ref.tobytes()


def _true_map(builder, k):
    return builder.carry_map(k)


def _map_carrying_the_level(builder, k):
    carry = builder.carry_map(k).copy()
    if k:
        w = min(k, builder.spec.window)
        carry[1 + w] = 1 + min(k - 1, builder.spec.window)  # the level row of step k - 1
    return carry


def _map_shifting_the_increments(builder, k):
    # the increments of a full window keep their rows instead of moving up
    carry = builder.carry_map(k).copy()
    rows = np.arange(1, 1 + min(k, builder.spec.window))
    carry[rows] = np.where(carry[rows] >= 0, carry[rows] - 1, -1)
    return carry


def _carried_rows_repeat(Z, basis, carry_map):
    """Whether, at every step, each carried row equals bit for bit the row
    of the previous step that `carry_map` names."""
    builder = FeatureBuilder(Z, 1.0 / (Z.shape[1] - 1), basis)
    previous = None
    for k in range(Z.shape[1] - 1):
        G, carry = builder.features_at(k), carry_map(builder, k)
        assert carry.shape == (len(G),)
        kept = np.flatnonzero(carry >= 0)
        if previous is None and len(kept):
            return False
        if previous is not None and not np.array_equal(G[kept], previous[carry[kept]]):
            return False
        previous = G
    return True


def _gram_deviation(Z, basis, W, carry_map):
    """Largest |A_ij - D_ij| / sqrt(D_ii D_jj) over every step and weight
    set, between the Gram that the fits keep and a direct product D."""
    m, N = Z.shape[0], Z.shape[1] - 1
    y = np.sin(3.0 * Z[:, 1:])
    worst = 0.0
    for w in W:
        builder = FeatureBuilder(Z, 1.0 / N, basis)
        gram = WeightedGram(w)
        for k in range(N):
            G = builder.features_at(k)
            weighted_ridge_fit(G, y[:, k], gram, basis.ridge, carry_map(builder, k))
            D = G @ (G * gram.weights).T
            scale = np.sqrt(np.outer(np.diag(D), np.diag(D)))  # 0 only where D is
            worst = max(worst,
                        float(np.max(np.abs(gram.A - D) / np.where(scale > 0, scale, 1.0))))
    return worst


@pytest.mark.parametrize("basis", GRAM_BASES, ids=BasisSpec.describe)
def test_carried_feature_rows_repeat_the_rows_they_name(basis):
    Z, _ = _toy_paths(257, 32, seed=11)
    assert _carried_rows_repeat(np.asfortranarray(Z), basis, _true_map)
    builder = FeatureBuilder(Z, 1.0 / 32, basis)
    assert np.all(builder.carry_map(0) == -1)  # every row of the first step is new
    # with the default basis, 8 of the 10 rows of a full window carry
    if basis == BasisSpec():
        assert np.count_nonzero(builder.carry_map(20) >= 0) == 8


@pytest.mark.parametrize("m", [400, 2051])
@pytest.mark.parametrize("basis", GRAM_BASES, ids=BasisSpec.describe)
def test_kept_gram_matches_the_direct_product_at_every_step(basis, m):
    # normwise: an entry that cancels to near 0 may differ in relative
    # terms, which measures the cancellation rather than the update
    Z, rng = _toy_paths(m, 32, seed=12)
    W = rng.uniform(0.1, 2.0, size=(2, m))
    assert _gram_deviation(np.asfortranarray(Z), basis, W, _true_map) <= 1e-12


@pytest.mark.parametrize("wrong_map", [_map_carrying_the_level, _map_shifting_the_increments])
def test_a_wrong_carry_map_fails_both_checks(wrong_map):
    Z, rng = _toy_paths(400, 32, seed=12)
    Z = np.asfortranarray(Z)
    W = rng.uniform(0.1, 2.0, size=(2, 400))
    for basis in GRAM_BASES[:2]:
        assert not _carried_rows_repeat(Z, basis, wrong_map)
        assert _gram_deviation(Z, basis, W, wrong_map) > 1e-3


def test_gram_rejects_a_carry_map_that_does_not_fit():
    G = np.ones((3, 8))
    gram = WeightedGram(np.ones(8))
    with pytest.raises(UsageError, match="carry map"):
        gram.update(G, np.array([0, -1, -1]))  # nothing to carry from yet
    gram.update(G)
    with pytest.raises(UsageError, match="carry map"):
        gram.update(G, np.array([0, -1]))  # one entry per row
    with pytest.raises(UsageError, match="carry map"):
        gram.update(G, np.array([0, 3, -1]))  # a row the previous G did not have


def test_ridge_rescue_counts_its_escalations():
    # an exact duplicate feature row makes the Gram matrix singular; every
    # number here is exact in binary, so the outcome is too: a relative
    # ridge of 1e-20 or 1e-18 on the diagonal 1.5625 is lost to rounding,
    # 1e-16 is not
    x = np.tile([1.25, -1.25], 4)
    G = np.stack([np.ones(8), x, x])
    y = 1.0 + 2.0 * x
    coef, fitted, escalations = weighted_ridge_fit(G, y, WeightedGram(np.ones(8)), 1e-20)
    assert escalations == 2
    # the duplicate rows share the slope between them
    assert coef[0] == pytest.approx(1.0) and coef[1] + coef[2] == pytest.approx(2.0)
    assert np.allclose(fitted, y)


def test_basis_rejects_a_ridge_or_window_the_fits_cannot_use():
    for ridge in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="ridge"):
            BasisSpec(ridge=ridge)
    with pytest.raises(ConfigurationError, match="window"):
        BasisSpec(window=-1)
    assert BasisSpec(window=0, ridge=1e-20).window == 0
