import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innovlab.core import (
    LANE_AUX,
    LANE_BROWNIAN,
    LANE_HIDDEN,
    LANE_NOISE,
    RandomStream,
    TimeGrid,
    path_energies,
    philox4x64_10,
)
from innovlab.errors import ConfigurationError, ShapeError
from innovlab.filtering import innovation_values
from innovlab.girsanov import log_weights_ensemble
from innovlab.models import make_model, run_euler, simulate_ensemble
from innovlab.oracle import FiniteLaw, gauss_quantized, sample_quantized_ensemble

ZERO = make_model("zero")


def _brownian(grid, size, stream):
    """Brownian paths (size, N+1): the observation of the zero-drift model."""
    return simulate_ensemble(ZERO, grid, size, stream).U


def _path(increments):
    """Stacked path (m, N+1) started at 0 with the given increments."""
    inc = np.asarray(increments, dtype=float)
    return np.concatenate([np.zeros((inc.shape[0], 1)), np.cumsum(inc, axis=1)], axis=1)


def _ito(a, x, dt):
    """Left-point sums  sum_k a_k (x_{k+1} - x_k), read off the log-weight."""
    lw, energies = log_weights_ensemble(a, x, dt)
    return -(lw + 0.5 * energies)


def _primitive(a, dt):
    """Cumulative left-point integrals of stacked rates: innovation of U = 0."""
    m, N = a.shape
    return -innovation_values(np.zeros((m, N + 1)), a, dt)


def test_grid_points_strictly_increasing_and_end_at_horizon():
    g = TimeGrid(steps=7, horizon=2.0)
    t = g.times
    assert t[0] == 0.0
    assert t[-1] == 2.0
    assert np.all(np.diff(t) > 0)
    assert g.dt == pytest.approx(2.0 / 7)


def test_grid_rejects_zero_steps():
    with pytest.raises(ConfigurationError):
        TimeGrid(steps=0)


def test_brownian_single_step_definition():
    g = TimeGrid(steps=1, horizon=1.0)
    p = _brownian(g, 1, RandomStream(seed=7, substream=0))[0]
    assert p[0] == 0.0
    assert p.shape == (2,)
    assert np.isfinite(p[1])


def test_brownian_same_stream_is_bit_identical():
    g = TimeGrid(steps=64)
    a = _brownian(g, 2, RandomStream(seed=123, substream=5))
    b = _brownian(g, 2, RandomStream(seed=123, substream=5))
    assert np.array_equal(a, b)


def test_brownian_distinct_substreams_differ():
    g = TimeGrid(steps=64)
    a = _brownian(g, 1, RandomStream(seed=123, substream=0))
    b = _brownian(g, 1, RandomStream(seed=123, substream=1))
    assert not np.array_equal(a, b)


def test_brownian_moments_lln():
    # 1e5 paths on a short grid: per-coordinate increment mean within
    # 4*sqrt(dt/M) of 0, increment variance within 2% of dt, and terminal
    # variance within 2% of the horizon.
    M, N = 100_000, 4
    g = TimeGrid(steps=N)
    B = _brownian(g, M, RandomStream(seed=2024, substream=0))
    inc = np.diff(B, axis=1)
    term = B[:, -1]
    dt = g.dt
    assert np.all(np.abs(inc.mean(axis=0)) < 4 * np.sqrt(dt / M))
    assert np.all(np.abs(inc.var(axis=0) - dt) < 0.02 * dt)
    assert abs(term.var() - g.horizon) < 0.02 * g.horizon


def test_ito_zero_integrand():
    g = TimeGrid(steps=8)
    x = _brownian(g, 1, RandomStream(seed=1))
    assert _ito(np.zeros((1, 8)), x, g.dt)[0] == 0.0


def test_ito_unit_integrand_telescopes():
    g = TimeGrid(steps=16)
    x = _brownian(g, 1, RandomStream(seed=3))
    got = _ito(np.ones((1, 16)), x, g.dt)[0]
    assert got == pytest.approx(x[0, -1] - x[0, 0], abs=1e-12)


def test_ito_direct_sum():
    # integrand (0, 1, 2) against unit increments: 0 + 1 + 2 = 3
    g = TimeGrid(steps=3)
    x = _path(np.ones((1, 3)))
    a = np.arange(3.0)[None, :]
    assert _ito(a, x, g.dt)[0] == 3.0


def test_ito_grid_mismatch_raises():
    a = np.ones((1, 4))
    x = _brownian(TimeGrid(steps=5), 1, RandomStream(seed=1))
    with pytest.raises(ShapeError):
        log_weights_ensemble(a, x, 0.25)
    with pytest.raises(ShapeError):  # member counts disagree
        log_weights_ensemble(np.ones((2, 5)), x, 0.2)
    with pytest.raises(ShapeError):  # dimensions disagree: a trailing axis
        log_weights_ensemble(np.ones((1, 5, 1)), x, 0.2)
    with pytest.raises(ShapeError):
        log_weights_ensemble(np.ones((1, 5)), x[:, :, None], 0.2)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 1000))
def test_ito_linearity(n, seed):
    g = TimeGrid(steps=n)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1, n))
    b = rng.normal(size=(1, n))
    x = _path(rng.normal(size=(1, n)))
    lhs = _ito(a + b, x, g.dt)[0]
    rhs = _ito(a, x, g.dt)[0] + _ito(b, x, g.dt)[0]
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_energy_examples():
    g1 = TimeGrid(steps=4)
    assert path_energies(np.zeros((1, 4)), g1.dt)[0] == 0.0
    assert path_energies(np.ones((1, 4)), g1.dt)[0] == pytest.approx(1.0)
    g2 = TimeGrid(steps=2)
    assert path_energies(np.array([[1.0, 2.0]]), g2.dt)[0] == pytest.approx(2.5)


@settings(max_examples=50, deadline=None)
@given(st.floats(-8, 8), st.integers(1, 10), st.integers(0, 1000))
def test_energy_quadratic_scaling(c, n, seed):
    g = TimeGrid(steps=n)
    v = np.random.default_rng(seed).normal(size=(1, n))
    assert path_energies(c * v, g.dt)[0] == pytest.approx(
        c * c * path_energies(v, g.dt)[0], rel=1e-12, abs=1e-12
    )


def test_primitive_examples():
    g = TimeGrid(steps=2)
    zero = _primitive(np.zeros((1, 2)), g.dt)[0]
    assert np.array_equal(zero, np.zeros(3))
    const = _primitive(3.0 * np.ones((1, 2)), g.dt)[0]
    assert const == pytest.approx([0.0, 1.5, 3.0])
    updown = _primitive(np.array([[2.0, -2.0]]), g.dt)[0]
    assert updown == pytest.approx([0.0, 1.0, 0.0], abs=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 16), st.integers(0, 1000))
def test_primitive_then_difference_recovers_drift_exactly_on_dyadics(n, seed):
    # dyadic drift values and a dyadic step keep every product and partial
    # sum exactly representable, so recovery must be bit-exact
    g = TimeGrid(steps=n, horizon=float(n) / 8.0)
    v = np.random.default_rng(seed).integers(-(2**20), 2**20, size=(1, n)) / 2.0**10
    p = _primitive(v, g.dt)[0]
    assert np.array_equal(np.diff(p, axis=0), v[0] * g.dt)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 16), st.integers(0, 1000))
def test_primitive_then_difference_recovers_drift_general(n, seed):
    g = TimeGrid(steps=n, horizon=float(n) / 8.0)
    v = np.random.default_rng(seed).normal(size=(1, n))
    p = _primitive(v, g.dt)[0]
    assert np.allclose(np.diff(p, axis=0), v[0] * g.dt, rtol=0, atol=1e-13)


def test_substream_independence_rough():
    # increments from neighbouring substreams should be uncorrelated
    g = TimeGrid(steps=256)
    B = _brownian(g, 2, RandomStream(seed=9, substream=0))
    a, b = np.diff(B, axis=1)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 4 / np.sqrt(len(a))


# ------------------------------------------------------- counter-based streams

KAT_SEEDS = [0, 1, 2**63, 2**64 - 1]
KAT_SUBSTREAMS = [0, 5, 10**9]
KAT_LANES = [0, 1, 2, 4, 15]
KAT_LENGTHS = [1, 3, 4, 5, 512]  # one block, partial blocks, many blocks


def test_philox_kernel_matches_numpy_raw_words():
    for seed in KAT_SEEDS:
        for sub in KAT_SUBSTREAMS:
            for lane in KAT_LANES:
                for n in KAT_LENGTHS:
                    blocks = -(-n // 4)
                    j = 16 * sub + lane
                    counter = (np.arange(1, blocks + 1), 0, j % 2**64, j >> 64)
                    words = np.stack(np.broadcast_arrays(*philox4x64_10(counter, (seed, 0))),
                                     axis=-1).ravel()
                    ref = np.random.Philox(key=np.uint64(seed)).jumped(j).random_raw(4 * blocks)
                    assert np.array_equal(words, ref), (seed, sub, lane, n)


@pytest.mark.parametrize("sub", KAT_SUBSTREAMS + [2**60 - 2])  # the last one carries into word 3
def test_uniforms_match_fresh_generators_row_by_row(sub):
    for seed in KAT_SEEDS:
        for lane in KAT_LANES:
            for n in KAT_LENGTHS:
                u = RandomStream(seed, sub).uniforms(lane, 3, n)
                assert u.shape == (3, n)
                for i in range(3):
                    ref = RandomStream(seed, sub + i).lane(lane).generator().random(n)
                    assert np.array_equal(u[i], ref), (seed, sub, lane, n, i)


def test_seat_draws_what_a_fresh_generator_draws():
    stream = RandomStream(seed=2**64 - 1, substream=2**60 - 1)
    rng = stream.generator()
    for offset in range(3):
        for lane in KAT_LANES:
            # leave a half-spent block buffer and a spare 32-bit half behind
            rng.random(7)
            rng.integers(0, 2**32, dtype=np.uint32)
            fresh = RandomStream(stream.seed, stream.substream + offset).lane(lane).generator()
            seated = stream.seat(rng, lane, offset)
            assert np.array_equal(seated.integers(0, 2**32, size=3, dtype=np.uint32),
                                  fresh.integers(0, 2**32, size=3, dtype=np.uint32))
            assert np.array_equal(seated.standard_normal(9), fresh.standard_normal(9))


@pytest.mark.parametrize("kwargs", [
    dict(seed=-1), dict(seed=2**64), dict(seed=1, substream=-1),
    dict(seed=1, substream=2**124), dict(seed=1, lane_index=16), dict(seed=1, lane_index=-1),
])
def test_random_stream_rejects_out_of_range_values(kwargs):
    with pytest.raises(ConfigurationError):
        RandomStream(**kwargs)


def test_random_stream_accepts_the_full_seed_range():
    for seed in (0, 2**64 - 1):
        assert RandomStream(seed=seed, substream=2**124 - 1).seed == seed
    with pytest.raises(ConfigurationError):
        RandomStream(seed=1).lane(16)
    with pytest.raises(ConfigurationError):
        RandomStream(seed=1).uniforms(16, 2, 3)
    with pytest.raises(ConfigurationError):
        RandomStream(seed=1).seat(RandomStream(seed=1).generator(), -1)


def _reference_simulation(model, grid, size, stream):
    """Per-path loop, one fresh generator per (path, lane): the sampler as it
    was before the shared re-seated generator; returns (dB, aux, hidden)."""
    N = grid.steps
    dB = np.empty((size, N))
    aux = np.empty((size, model.aux_dim))
    hidden = np.empty((size, N)) if model.needs_hidden() else None
    for i in range(size):
        s = RandomStream(stream.seed, stream.substream + i)
        dB[i] = np.sqrt(grid.dt) * s.lane(LANE_BROWNIAN).generator().standard_normal(N)
        if model.aux_dim:
            aux[i] = model.sample_aux(s.lane(LANE_AUX).generator(), 1)[0]
        if hidden is not None:
            hidden[i] = model.sample_hidden(s.lane(LANE_HIDDEN).generator(), grid)
    return dB, aux, hidden


def _reference_quantized(model, grid, size, stream, noise, aux_values=None):
    """Per-path loop of the quantized sampler with fresh generators."""
    dB = np.empty((size, grid.steps))
    aux = np.empty((size, model.aux_dim))
    for i in range(size):
        s = RandomStream(stream.seed, stream.substream + i)
        u = s.lane(LANE_NOISE).generator().random(grid.steps)
        dB[i] = noise.values[np.searchsorted(np.cumsum(noise.probs), u)]
        if model.aux_dim:
            ua = s.lane(LANE_AUX).generator().random()
            cum = np.cumsum(np.full(len(aux_values), 1.0 / len(aux_values)))
            aux[i] = np.asarray(aux_values)[np.searchsorted(cum, ua)]
    return dB, aux


def _assert_concatenation(whole, head, tail):
    """Every array of `whole` is head's followed by tail's."""
    for name in ("dB", "aux", "U", "dU", "drift"):
        x, a, b = (getattr(sim, name) for sim in (whole, head, tail))
        assert np.array_equal(x, np.concatenate([a, b])), name


@pytest.mark.parametrize("name, params, steps", [
    ("kalman-bucy", {}, 16),             # Brownian, aux and hidden lanes
    ("tsirelson", {"levels": 2}, 8),     # uniform aux drawn through the generator
])
def test_simulate_ensemble_matches_fresh_generator_loop(name, params, steps):
    model = make_model(name, **params)
    g = TimeGrid(steps=steps)
    stream = RandomStream(seed=77, substream=123)
    sim = simulate_ensemble(model, g, 40, stream)
    dB, aux, hidden = _reference_simulation(model, g, 40, stream)
    assert np.array_equal(sim.dB, dB)
    assert np.array_equal(sim.aux, aux)
    # the hidden noise is not stored; kalman-bucy's drift is the OU path it
    # drives, so a wrong hidden draw shows in the drift record
    replay = run_euler(model, g, dB, aux, hidden)
    assert np.array_equal(sim.drift, replay.drift)
    assert np.array_equal(sim.U, replay.U)
    # paths [0, m) are paths [0, a) followed by paths [a, m) of substream a
    head = simulate_ensemble(model, g, 15, stream)
    tail = simulate_ensemble(model, g, 25, RandomStream(77, 123 + 15))
    _assert_concatenation(sim, head, tail)


@pytest.mark.parametrize("name, aux_values", [("independent", [-1.5, 0.5, 1.5]),
                                              ("zero", None)])
def test_quantized_sampler_matches_fresh_generator_loop(name, aux_values):
    model = make_model(name)
    g = TimeGrid(steps=3)
    noise = gauss_quantized(3, g.dt)
    law = FiniteLaw(aux_values) if aux_values else None
    stream = RandomStream(seed=2**64 - 1, substream=2**60 - 20)  # word 2 wraps mid-batch
    sim = sample_quantized_ensemble(model, g, 60, stream, noise, law)
    dB, aux = _reference_quantized(model, g, 60, stream, noise, aux_values)
    assert np.array_equal(sim.dB, dB)
    assert np.array_equal(sim.aux, aux)
    assert np.array_equal(sim.U, run_euler(model, g, dB, aux).U)
    head = sample_quantized_ensemble(model, g, 22, stream, noise, law)
    rest = RandomStream(stream.seed, stream.substream + 22)
    tail = sample_quantized_ensemble(model, g, 38, rest, noise, law)
    _assert_concatenation(sim, head, tail)
