import numpy as np
import pytest

from innovlab.core import LANE_HIDDEN, RandomStream, TimeGrid
from innovlab.errors import ConfigurationError, ShapeError
from innovlab.models import list_models, make_model, run_euler, simulate_ensemble, workspace

STREAM = RandomStream(seed=606, substream=0)


def brownian(sim):
    """Brownian paths (m, N+1): prefix sums of the stored increments."""
    return np.concatenate([np.zeros_like(sim.dB[:, :1]), np.cumsum(sim.dB, axis=1)], axis=1)


def all_models():
    return [
        make_model("zero"),
        make_model("deterministic", shape="constant", value=1.0),
        make_model("deterministic", shape="sine", amplitude=0.7, frequency=2.0),
        make_model("linear-feedback", a=1.0),
        make_model("kalman-bucy", beta=1.0, sigma=1.0),
        make_model("independent"),
        make_model("tsirelson", levels=3),
    ]


def test_registry_contains_expected_names():
    names = {m["name"] for m in list_models()}
    assert {"zero", "kalman-bucy", "tsirelson"} <= names
    assert {"deterministic", "linear-feedback", "independent"} <= names
    assert "witness-one-sided" in names
    assert make_model("witness-one-sided", kick=2.0).kick == 2.0


def test_unknown_model_rejected():
    with pytest.raises(ConfigurationError):
        make_model("brown")


@pytest.mark.parametrize("name, params, key", [
    ("zero", {"b": 2}, "b"),
    ("linear-feedback", {"b": 2}, "b"),
    ("kalman-bucy", {"b": 2}, "b"),
    ("tsirelson", {"b": 2}, "b"),
    ("witness-one-sided", {"b": 2}, "b"),
    ("deterministic", {"valeu": 2}, "valeu"),
    ("independent", {"valeu": 2}, "valeu"),
    ("deterministic", {"shape": "linear", "value": 2}, "value"),  # another profile's
])
def test_make_model_rejects_a_parameter_the_model_does_not_take(name, params, key):
    with pytest.raises(ConfigurationError, match=rf"^model '{name}': .*'{key}'"):
        make_model(name, **params)


@pytest.mark.parametrize("name, params, message", [
    ("kalman-bucy", {"beta": "abc"}, "beta must be a finite number, got 'abc'"),
    ("kalman-bucy", {"beta": float("nan")}, "beta must be a finite number, got nan"),
    ("tsirelson", {"levels": 2.5}, "levels must be a whole number, got 2.5"),
    ("linear-feedback", {"a": float("inf")}, "a must be a finite number, got inf"),
    ("deterministic", {"value": True}, "value must be a finite number, got True"),
    ("kalman-bucy", {"x0_var": -1.0}, "needs x0_var >= 0, got -1.0"),
])
def test_make_model_rejects_a_parameter_value_naming_its_key(name, params, message):
    # a wrong type, a NaN, a fraction where a whole number belongs: each is
    # a configuration error naming model and key, not a later failure
    with pytest.raises(ConfigurationError) as info:
        make_model(name, **params)
    assert str(info.value) == f"model {name!r}: {message}"


def test_whole_number_parameters_accept_an_integral_float():
    assert make_model("tsirelson", levels=3.0).levels == 3


def test_zero_drift_observation_equals_brownian():
    out = simulate_ensemble(make_model("zero"), TimeGrid(steps=32), 1, STREAM)
    assert np.array_equal(out.U, brownian(out))


def test_deterministic_unit_drift_shifts_by_time():
    g = TimeGrid(steps=16)
    out = simulate_ensemble(make_model("deterministic", shape="constant", value=1.0), g, 1, STREAM)
    shift = out.U[0] - brownian(out)[0]
    assert shift == pytest.approx(g.times, abs=1e-12)


def test_linear_feedback_two_step_hand_computation():
    g = TimeGrid(steps=2)
    dB = np.array([[1.0, 1.0]])
    out = run_euler(make_model("linear-feedback", a=1.0), g, dB, np.empty((1, 0)))
    assert out.drift[0] == pytest.approx([0.0, -1.0], abs=0)
    assert out.U[0] == pytest.approx([0.0, 1.0, 1.5], abs=0)


def test_run_euler_rejects_noise_with_a_trailing_axis():
    g = TimeGrid(steps=2)
    with pytest.raises(ShapeError):
        run_euler(make_model("linear-feedback", a=1.0), g, np.ones((1, 2, 1)), np.empty((1, 0)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_consistency_identity_bit_exact_for_every_model(seed):
    g = TimeGrid(steps=8)
    for model in all_models():
        out = simulate_ensemble(model, g, 4, RandomStream(seed=seed, substream=0))
        assert np.array_equal(out.dU, out.drift * g.dt + out.dB), model.name


def test_simulation_is_reproducible():
    g = TimeGrid(steps=16)
    for model in all_models():
        a = simulate_ensemble(model, g, 1, RandomStream(seed=42, substream=3))
        b = simulate_ensemble(model, g, 1, RandomStream(seed=42, substream=3))
        assert np.array_equal(a.U, b.U), model.name
        assert np.array_equal(a.aux, b.aux), model.name


def test_ensemble_paths_match_single_path_runs():
    # path i of an ensemble is bit-identical to a lone run on substream i,
    # which is what makes results independent of worker partitioning
    g = TimeGrid(steps=8)
    for model in all_models():
        ens = simulate_ensemble(model, g, 5, RandomStream(seed=11, substream=0))
        lone = simulate_ensemble(model, g, 1, RandomStream(seed=11, substream=3))
        assert np.array_equal(ens.U[3], lone.U[0]), model.name
        assert np.array_equal(ens.drift[3], lone.drift[0]), model.name


def test_a_simulation_in_a_workspace_equals_a_fresh_one():
    # a workspace of 5 rows serves a block of 5 and then one of 3; hidden
    # noise is held only for a model that needs it
    g = TimeGrid(steps=8)
    for model in all_models():
        work = workspace(model, g, 5)
        assert set(work) == {"dB", "dU"} | ({"hidden"} if model.needs_hidden() else set())
        for size, substream in ((5, 0), (3, 9)):
            stream = RandomStream(seed=12, substream=substream)
            held = simulate_ensemble(model, g, size, stream, work)
            fresh = simulate_ensemble(model, g, size, stream)
            for name in ("dB", "dU", "drift", "U", "aux"):
                assert np.array_equal(getattr(held, name), getattr(fresh, name)), model.name
            assert np.shares_memory(held.dB, work["dB"]) and np.shares_memory(held.dU, work["dU"])


def _hidden_draws(model, grid, size, stream):
    """The hidden noise `simulate_ensemble` draws: path i from the hidden
    lane of substream stream.substream + i."""
    if not model.needs_hidden():
        return None
    rng = stream.generator()
    return np.stack([model.sample_hidden(stream.seat(rng, LANE_HIDDEN, i), grid)
                     for i in range(size)])


def test_exogenous_models_ignore_observation_history():
    # same aux and hidden inputs, different observation noise: a drift that
    # never reads the observation cannot tell the two runs apart
    g = TimeGrid(steps=8)
    rng = np.random.default_rng(5)
    for model in all_models():
        if model.reads_observation:
            continue
        out = simulate_ensemble(model, g, 3, STREAM)
        tampered = out.dB + rng.normal(size=out.dB.shape)
        replay = run_euler(model, g, tampered, out.aux, _hidden_draws(model, g, 3, STREAM))
        assert not np.array_equal(replay.U, out.U), model.name
        assert np.array_equal(replay.drift, out.drift), model.name


def test_feedback_models_do_read_observation_history():
    g = TimeGrid(steps=8)
    model = make_model("linear-feedback", a=1.0)
    out = simulate_ensemble(model, g, 3, STREAM)
    replay = run_euler(model, g, out.dB + 1.0, out.aux)
    assert not np.array_equal(replay.drift, out.drift)


def test_tsirelson_drift_lies_in_unit_interval():
    g = TimeGrid(steps=64)
    out = simulate_ensemble(make_model("tsirelson", levels=4), g, 50, STREAM)
    assert np.all(out.drift >= 0.0)
    assert np.all(out.drift < 1.0)


def test_tsirelson_rejects_incompatible_grid():
    model = make_model("tsirelson", levels=4)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(model, TimeGrid(steps=100), 1, STREAM)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(model, TimeGrid(steps=32, horizon=2.0), 1, STREAM)


def test_tsirelson_slope_refresh_matches_definition():
    g = TimeGrid(steps=8)
    model = make_model("tsirelson", levels=2)
    out = simulate_ensemble(model, g, 7, STREAM)
    # levels K=2: t_0 = 1/4 (step 2), t_1 = 1/2 (step 4), t_2 = 1 (step 8)
    U = out.U
    slope1 = np.mod((U[:, 2] - U[:, 0]) / 0.25, 1.0)
    slope2 = np.mod((U[:, 4] - U[:, 2]) / 0.25, 1.0)
    assert out.drift[:, 2] == pytest.approx(slope1, abs=0)
    assert out.drift[:, 3] == pytest.approx(slope1, abs=0)
    assert out.drift[:, 4] == pytest.approx(slope2, abs=0)
    assert out.drift[:, 7] == pytest.approx(slope2, abs=0)


def test_kalman_bucy_hidden_signal_independent_of_brownian():
    M = 4000
    g = TimeGrid(steps=8)
    out = simulate_ensemble(make_model("kalman-bucy", beta=1.0, sigma=1.0), g, M, STREAM)
    # the drift record is the hidden path; correlate it with dB across paths
    for k in [0, 3, 7]:
        r = np.corrcoef(out.drift[:, k], out.dB[:, k])[0, 1]
        assert abs(r) < 4 / np.sqrt(M)


def test_kalman_bucy_parameter_validation():
    with pytest.raises(ConfigurationError):
        make_model("kalman-bucy", beta=-1.0, sigma=1.0)
    with pytest.raises(ConfigurationError):
        make_model("kalman-bucy", beta=1.0, sigma=0.0)
    with pytest.raises(ConfigurationError):
        make_model("kalman-bucy", beta=0.0, sigma=1.0)  # stationary prior undefined
    make_model("kalman-bucy", beta=0.0, sigma=1.0, x0_var=0.5)
