"""Map families, parameter sequences, drivers, and observables."""

import math
from fractions import Fraction

import numpy as np
import pytest

from steinclt.dynamics import (
    OBSERVABLES,
    IidUniformDriver,
    LsvFamily,
    MarkovChainDriver,
    Observable,
    QuasistaticSequence,
    RandomSequence,
    SequentialSequence,
    ShiftedSlopeFamily,
    orbit,
    trajectory,
)
from steinclt.stats import birkhoff_raw_sums
from steinclt.transfer import build_ulam


def _step(fam, param, x, beta_star=1.0):
    """One checked step of the map with parameter `param` at x."""
    return trajectory(SequentialSequence(fam, (param, param), beta_star), x, 1)[1]


def test_lsv_hand_values():
    # frozen against x * (1 + (2x)^a) on the left branch, 2x - 1 on the right
    fam = LsvFamily()
    assert _step(fam, 0.25, 0.2) == pytest.approx(0.35905414575341016, abs=1e-15)
    assert _step(fam, 1.0, 0.25) == pytest.approx(0.375, abs=1e-15)
    assert _step(fam, 0.1, 0.49) == pytest.approx(0.9790110666343691, abs=1e-15)
    assert _step(fam, 0.0, 0.3) == pytest.approx(0.6, abs=1e-15)
    assert _step(fam, 0.2, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_lsv_alpha_zero_is_doubling():
    x = np.linspace(0.0, 1.0, 257)
    got = _step(LsvFamily(), 0.0, x)
    want = np.where(x < 0.5, 2.0 * x, 2.0 * x - 1.0)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_lsv_endpoints_and_scalar_type():
    def m(x):
        return _step(LsvFamily(), 0.25, x)

    assert m(0.0) == 0.0
    assert m(1.0) == 1.0
    assert m(0.5) == 0.0
    assert isinstance(m(0.3), float)


def test_lsv_rejects_bad_alpha():
    for alpha in (-0.1, 1.1):
        with pytest.raises(ValueError, match="alpha must lie in"):
            build_ulam(LsvFamily(), alpha, 8)
        with pytest.raises(ValueError, match="parameters must lie in"):
            _step(LsvFamily(), alpha, 0.3)


def test_shifted_slope_values_and_snap():
    fam = ShiftedSlopeFamily()
    assert _step(fam, 1.0, 0.4) == pytest.approx(0.2, abs=1e-14)
    assert _step(fam, 0.5, 0.9) == pytest.approx(0.25, abs=1e-14)
    # (2 + 0) * 0.5 = 1.0 must wrap to 0, not stay at the right endpoint
    assert _step(fam, 0.0, 0.5) == 0.0
    x = np.linspace(0.0, 1.0, 101)
    y = _step(fam, 0.7, x)
    assert np.all((y >= 0.0) & (y < 1.0))
    # np.mod is exact for y >= 0, so no image rounds up to 1.0: check the
    # largest double below 1 and the points one ulp either side of 1/slope
    for param in (0.0, 0.3, 0.7, 1.0, 2.5):
        slope = 2.0 + param
        edge = 1.0 / slope
        pts = np.array([np.nextafter(1.0, 0.0), np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)])
        want = [float(Fraction(p) % 1) for p in slope * pts]
        for y in (fam.apply_param(param, pts, np.empty_like(pts)), _step(fam, param, pts, 2.5)):
            assert np.all((y >= 0.0) & (y < 1.0))
            np.testing.assert_array_equal(y, want)


def test_trajectory_doubling_orbit():
    seq = SequentialSequence(LsvFamily(), np.zeros(4), beta_star=0.25)
    orb = trajectory(seq, np.array([0.3]), 2)
    np.testing.assert_allclose(orb.ravel(), [0.3, 0.6, 0.2], atol=1e-15)


def _random_lsv(seed=4):
    return RandomSequence(LsvFamily(), IidUniformDriver(0.1, 0.25, seed=seed), beta_star=0.25)


def test_orbit_rows_equal_trajectory():
    seq = _random_lsv()
    x0 = np.random.default_rng(1).random(50)
    rows = [r.copy() for r in orbit(seq, x0, 12)]
    assert len(rows) == 13
    np.testing.assert_array_equal(np.stack(rows), trajectory(seq, x0, 12))
    np.testing.assert_array_equal(rows[0], x0)


def test_orbit_applies_one_map_per_step_to_all_samples(monkeypatch):
    seen = []
    apply_param = LsvFamily.apply_param

    def counting(self, param, x, out):
        seen.append(np.shape(x))
        return apply_param(self, param, x, out)

    monkeypatch.setattr(LsvFamily, "apply_param", counting)
    x0 = np.random.default_rng(2).random(300)
    birkhoff_raw_sums(_random_lsv(), OBSERVABLES["identity"](), [3, 9], x0, np.empty((2, 300, 1)))
    assert seen == [(300,)] * 8


def _edge_points(slope):
    """0, 1, 1/2 and 1/slope, each with its neighbours one ulp either side."""
    pts = [0.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), 1.0]
    for c in (0.5, 1.0 / slope):
        pts += [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
    return np.array(pts)


@pytest.mark.parametrize(
    "fam, driver",
    [(LsvFamily(), IidUniformDriver(0.0, 1.0, seed=21)),
     (ShiftedSlopeFamily(), IidUniformDriver(0.0, 2.5, seed=22))],
    ids=["lsv", "shifted-slope"],
)
def test_in_place_step_is_bit_identical(fam, driver):
    beta = driver.high
    params = driver.stream(500)
    x = np.random.default_rng(23).random(10_000)
    state = x.copy()
    for param in params[1:]:
        assert fam.apply_param(param, state, state) is state
        want = fam.apply_param(param, x, np.empty_like(x))
        assert state.tobytes() == want.tobytes()
        x = want
    for param in (0.0, 0.25, 0.5, 1.0):
        pts = _edge_points(2.0 + param)
        got = fam.apply_param(param, pts, np.empty_like(pts))
        assert got.tobytes() == _step(fam, param, pts, beta).tobytes()
        assert np.all((got >= 0.0) & (got <= 1.0))
    # the checked step checks the point against [0, 1] and the parameter
    # against beta_star; the in-place step checks neither
    with pytest.raises(ValueError, match="outside"):
        _step(fam, 0.5, np.array([0.5, np.nextafter(1.0, 2.0)]), beta)
    with pytest.raises(ValueError, match="outside"):
        _step(fam, 0.5, np.nextafter(0.0, -1.0), beta)
    with pytest.raises(ValueError, match="parameters must lie in"):
        _step(fam, beta + 0.01, pts, beta)


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.22, 0.25, 1.0])
def test_lsv_step_has_the_bytes_of_its_two_branch_definition(alpha):
    fam = LsvFamily()

    def reference(x):
        return np.where(x < 0.5, x * (1 + (2 * x) ** alpha), 2 * x - 1)

    def check(x):
        want = reference(x).tobytes()
        apart = fam.apply_param(alpha, x, np.empty_like(x))
        state = x.copy()
        assert fam.apply_param(alpha, state, state) is state
        for got in (apart, state):
            assert got.tobytes() == want
            assert not np.signbit(got).any()
        return state

    x = np.random.default_rng(24).random(10_000)
    for _ in range(100):
        x = check(x)
    check(_edge_points(2.0))


def test_orbit_steps_one_state_array_and_leaves_x0_alone():
    seq = _random_lsv()
    x0 = np.random.default_rng(3).random(40)
    keep = x0.copy()
    points = orbit(seq, x0, 6)
    first = next(points)
    assert first is not x0
    second = next(points)
    assert second is first
    assert all(x is first for x in points)
    np.testing.assert_array_equal(x0, keep)
    rows = trajectory(seq, x0, 6)
    assert not any(np.shares_memory(rows[k], rows[k + 1]) for k in range(6))
    np.testing.assert_array_equal(x0, keep)
    np.testing.assert_array_equal(rows[0], x0)


def test_birkhoff_sums_are_the_trajectory_sums():
    seq = _random_lsv()
    f = OBSERVABLES["square"]()
    rows = trajectory(seq, np.random.default_rng(7).random(300), 9)
    want = np.zeros((300, 1))
    for row in rows:
        want += f(row)
    got = birkhoff_raw_sums(seq, f, [10], rows[0], np.empty((1, 300, 1)))
    np.testing.assert_array_equal(got[0], want)


_MARKOV = MarkovChainDriver(values=[0.05, 0.2], kernel=[[0.5, 0.5], [0.25, 0.75]], seed=7)


@pytest.mark.parametrize(
    "seq",
    [_random_lsv(),
     RandomSequence(LsvFamily(), _MARKOV, beta_star=0.25),
     SequentialSequence(
         ShiftedSlopeFamily(), tuple(np.random.default_rng(5).uniform(0.0, 1.0, 70)))],
    ids=["iid", "markov", "sequential"],
)
def test_nested_sums_equal_separate_passes(seq):
    f = OBSERVABLES["poly_pair"]()
    x0 = np.random.default_rng(8).random(200)
    checkpoints = [0, 1, 1, 5, 32, 32, 64]
    nested = birkhoff_raw_sums(seq, f, checkpoints, x0, np.empty((7, 200, 2)))
    for j, n in enumerate(checkpoints):
        alone = birkhoff_raw_sums(seq, f, [n], x0, np.empty((1, 200, 2)))
        np.testing.assert_array_equal(nested[j], alone[0])
    np.testing.assert_array_equal(nested[0], 0.0)
    np.testing.assert_array_equal(nested[1], f(x0))
    with pytest.raises(ValueError, match="non-decreasing"):
        birkhoff_raw_sums(seq, f, [5, 4], x0, np.empty((2, 200, 2)))


def test_orbit_rejects_points_outside_unit_interval():
    seq = _random_lsv()
    with pytest.raises(ValueError, match="outside"):
        next(orbit(seq, np.array([0.5, 1.5]), 3))
    with pytest.raises(ValueError, match="outside"):
        next(orbit(seq, -0.1, 3))


def test_sequential_parameters_include_slot_zero():
    seq = SequentialSequence(LsvFamily(), (0.1, 0.1, 0.2), beta_star=0.25)
    params = seq.parameters(2)
    assert params.shape == (3,)
    np.testing.assert_allclose(params, [0.1, 0.1, 0.2])
    with pytest.raises(IndexError):
        seq.parameters(3)


def test_sequential_rejects_params_over_cap():
    with pytest.raises(ValueError):
        SequentialSequence(LsvFamily(), (0.1, 0.3), beta_star=0.25)


def test_quasistatic_clamps_curve():
    seq = QuasistaticSequence(LsvFamily(), lambda t: 0.5 * t, beta_star=0.2)
    params = seq.parameters(10)
    assert params.shape == (11,)
    assert params.max() <= 0.2 + 1e-15
    assert params[2] == pytest.approx(0.1)


def test_iid_driver_prefix_stable():
    d = IidUniformDriver(0.0, 0.25, seed=7)
    a = d.stream(64)
    b = d.stream(256)
    assert a.size == 65
    np.testing.assert_array_equal(a, b[: a.size])
    assert a.min() >= 0.0 and a.max() <= 0.25


def test_markov_driver_prefix_stable():
    d = MarkovChainDriver(values=[0.05, 0.2], kernel=[[0.5, 0.5], [0.25, 0.75]], seed=7)
    a = d.stream(64)
    b = d.stream(256)
    assert a.size == 65
    np.testing.assert_array_equal(a, b[: a.size])
    seq = RandomSequence(LsvFamily(), d, beta_star=0.25)
    np.testing.assert_array_equal(seq.parameters(64), a)


def test_random_sequence_quenched_parameters():
    fam = LsvFamily()
    seq = RandomSequence(fam, IidUniformDriver(0.0, 0.25, seed=3), beta_star=0.25)
    p1 = seq.parameters(16).copy()
    p2 = seq.parameters(64)
    np.testing.assert_array_equal(p1, p2[:17])
    # a fresh sequence with the same driver seed reproduces the stream
    again = RandomSequence(fam, IidUniformDriver(0.0, 0.25, seed=3), beta_star=0.25)
    np.testing.assert_array_equal(again.parameters(64), p2)


def test_random_sequence_rejects_out_of_range_driver():
    with pytest.raises(ValueError):
        RandomSequence(LsvFamily(), IidUniformDriver(0.0, 0.5, seed=1), beta_star=0.25)


def test_markov_driver_stream_and_validation():
    kernel = [[0.5, 0.5], [0.25, 0.75]]
    d = MarkovChainDriver(values=[0.05, 0.2], kernel=kernel, seed=11)
    s = d.stream(200)
    assert set(np.round(s, 10)) <= {0.05, 0.2}
    np.testing.assert_array_equal(s, MarkovChainDriver([0.05, 0.2], kernel, seed=11).stream(200))
    with pytest.raises(ValueError):
        MarkovChainDriver(values=[0.05, 0.2], kernel=[[0.9, 0.2], [0.5, 0.5]], seed=1)


def _markov_stream_by_steps(d: MarkovChainDriver, n: int) -> np.ndarray:
    """Reference: one `searchsorted` per step on the current state's row."""
    u = np.random.default_rng(d.seed).random(n + 1)
    cum = np.cumsum(np.asarray(d.kernel, dtype=float), axis=1)
    states = np.empty(n + 1, dtype=int)
    states[0] = np.searchsorted(np.cumsum(d.stationary()), u[0])
    for k in range(1, n + 1):
        states[k] = np.searchsorted(cum[states[k - 1]], u[k])
    return np.asarray(d.values)[states]


@pytest.mark.parametrize("values, kernel", [
    ([0.0, 0.1, 0.2], [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]]),
    ([0.05, 0.2], [[0.0, 1.0], [1.0, 0.0]]),                 # period 2
], ids=["three-state", "periodic"])
def test_markov_stream_equals_the_per_step_walk(values, kernel):
    d = MarkovChainDriver(values=values, kernel=kernel, seed=19)
    long = d.stream(4096)
    np.testing.assert_array_equal(long, _markov_stream_by_steps(d, 4096))
    for n in (0, 1, 63, 1000):
        np.testing.assert_array_equal(d.stream(n), long[: n + 1])
    assert set(long) == set(values)


def test_markov_stationary_vector_of_a_periodic_chain():
    # period 2: power iteration from the uniform vector cycles between
    # [1/3, 1/3, 1/3] and [1/6, 2/3, 1/6] and never reaches the answer
    kernel = [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]
    v = MarkovChainDriver(values=[0.0, 0.1, 0.2], kernel=kernel, seed=1).stationary()
    np.testing.assert_allclose(v, [0.25, 0.5, 0.25], atol=1e-14)
    np.testing.assert_allclose(v @ np.asarray(kernel), v, atol=1e-14)


# Lipschitz constant of each built-in observable on [0, 1]
_LIPSCHITZ = {
    "identity": 1.0,
    "square": 2.0,
    "cube": 3.0,
    "quartic": 4.0,
    "poly_pair": math.sqrt(5.0),
    "fourier_pair": 2.0 * math.pi,
}


def _spot_check(f: Observable, lipschitz: float) -> None:
    """Raise if the sup bound or the Lipschitz constant fails on a uniform grid."""
    x = np.linspace(0.0, 1.0, 257)
    v = f(x)
    if float(np.abs(v).max()) > f.bound + 1e-12:
        raise ValueError("declared sup bound violated on grid")
    slopes = np.linalg.norm(np.diff(v, axis=0), axis=-1) / np.diff(x)
    if float(slopes.max()) > lipschitz * (1.0 + 1e-6) + 1e-12:
        raise ValueError("Lipschitz constant violated on grid")


def test_observables_spot_check():
    assert set(_LIPSCHITZ) == set(OBSERVABLES)
    for name, make in OBSERVABLES.items():
        f = make()
        _spot_check(f, _LIPSCHITZ[name])
        assert f.name == name
    with pytest.raises(ValueError, match="Lipschitz"):
        _spot_check(Observable(1, lambda x: (3.0 * x)[..., None], 3.0, "bad"), 1.0)
    with pytest.raises(ValueError, match="sup bound"):
        _spot_check(Observable(1, lambda x: (3.0 * x)[..., None], 1.0, "bad"), 3.0)


def test_observable_shape_contract():
    f = OBSERVABLES["poly_pair"]()
    out = f(np.zeros((5, 7)))
    assert out.shape == (5, 7, 2)
    with pytest.raises(ValueError):
        Observable(2, lambda x: x[..., None], 1.0, "short")(np.zeros(3))
