"""Map families, parameter sequences, drivers, and observables."""

import numpy as np
import pytest

from steinclt.dynamics import (
    OBSERVABLES,
    IidUniformDriver,
    LsvFamily,
    LsvMap,
    MarkovChainDriver,
    Observable,
    PiecewiseLinearMap,
    QuasistaticSequence,
    RandomSequence,
    SequentialSequence,
    ShiftedSlopeFamily,
    orbit,
    qds_birkhoff_integral,
    trajectory,
)
from steinclt.stats import birkhoff_raw_sums


def test_lsv_hand_values():
    # frozen against x * (1 + (2x)^a) on the left branch, 2x - 1 on the right
    assert LsvMap(0.25)(0.2) == pytest.approx(0.35905414575341016, abs=1e-15)
    assert LsvMap(1.0)(0.25) == pytest.approx(0.375, abs=1e-15)
    assert LsvMap(0.1)(0.49) == pytest.approx(0.9790110666343691, abs=1e-15)
    assert LsvMap(0.0)(0.3) == pytest.approx(0.6, abs=1e-15)
    assert LsvMap(0.2)(0.75) == pytest.approx(0.5, abs=1e-15)


def test_lsv_alpha_zero_is_doubling():
    x = np.linspace(0.0, 1.0, 257)
    got = LsvMap(0.0)(x)
    want = np.where(x < 0.5, 2.0 * x, 2.0 * x - 1.0)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_lsv_endpoints_and_scalar_type():
    m = LsvMap(0.25)
    assert m(0.0) == 0.0
    assert m(1.0) == 1.0
    assert m(0.5) == 0.0
    assert isinstance(m(0.3), float)


def test_lsv_rejects_bad_alpha():
    with pytest.raises(ValueError):
        LsvMap(-0.1)
    with pytest.raises(ValueError):
        LsvMap(1.1)


def test_shifted_slope_values_and_snap():
    fam = ShiftedSlopeFamily()
    assert fam.apply_param(1.0, 0.4) == pytest.approx(0.2, abs=1e-14)
    assert fam.apply_param(0.5, 0.9) == pytest.approx(0.25, abs=1e-14)
    # (2 + 0) * 0.5 = 1.0 must wrap to 0, not stay at the right endpoint
    assert fam.apply_param(0.0, 0.5) == 0.0
    x = np.linspace(0.0, 1.0, 101)
    y = fam.apply_param(0.7, x)
    assert np.all((y >= 0.0) & (y < 1.0))


def test_lsv_family_matches_map():
    fam = LsvFamily()
    x = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(fam.apply_param(0.25, x), LsvMap(0.25)(x), atol=1e-15)


def test_trajectory_doubling_orbit():
    seq = SequentialSequence(LsvFamily(), np.zeros(4), beta_star=0.25)
    orb = trajectory(seq, np.array([0.3]), 2)
    np.testing.assert_allclose(orb.ravel(), [0.3, 0.6, 0.2], atol=1e-15)


def _random_lsv(seed=4):
    return RandomSequence(LsvFamily(), IidUniformDriver(0.1, 0.25, seed=seed), beta_star=0.25)


def test_orbit_rows_equal_trajectory():
    seq = _random_lsv()
    x0 = np.random.default_rng(1).random(50)
    rows = list(orbit(seq, x0, 12, horizon=20))
    assert len(rows) == 13
    np.testing.assert_array_equal(np.stack(rows), trajectory(seq, x0, 12, horizon=20))
    np.testing.assert_array_equal(rows[0], x0)


def test_orbit_rejects_horizon_below_steps():
    seq = _random_lsv()
    x0 = np.full(10, 0.3)
    with pytest.raises(ValueError, match="horizon"):
        list(orbit(seq, x0, 5, horizon=4))
    with pytest.raises(ValueError, match="horizon"):
        trajectory(seq, x0, 5, horizon=4)
    with pytest.raises(ValueError, match="horizon"):
        birkhoff_raw_sums(seq, OBSERVABLES["identity"](), 8, 10, seed=0, horizon=6)


def test_orbit_applies_one_map_per_step_to_all_samples(monkeypatch):
    seen = []
    apply_param = LsvFamily.apply_param

    def counting(self, param, x):
        seen.append(np.shape(x))
        return apply_param(self, param, x)

    monkeypatch.setattr(LsvFamily, "apply_param", counting)
    birkhoff_raw_sums(_random_lsv(), OBSERVABLES["identity"](), 9, 300, seed=2)
    assert seen == [(300,)] * 8


def test_sequential_parameters_include_slot_zero():
    seq = SequentialSequence(LsvFamily(), (0.1, 0.1, 0.2), beta_star=0.25)
    params = seq.parameters(2)
    assert params.shape == (3,)
    np.testing.assert_allclose(params, [0.1, 0.1, 0.2])
    assert seq.parameter_at(2, 2) == pytest.approx(0.2)
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
    assert seq.parameter_at(10, 2) == pytest.approx(0.1)


def test_iid_driver_prefix_stable():
    d = IidUniformDriver(0.0, 0.25, seed=7)
    a = d.stream(64)
    b = d.stream(256)
    assert a.size == 65
    np.testing.assert_array_equal(a, b[: a.size])
    assert a.min() >= 0.0 and a.max() <= 0.25


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


def test_observables_spot_check():
    for name, make in OBSERVABLES.items():
        f = make()
        f.spot_check()
        assert f.name == name
    with pytest.raises(ValueError):
        Observable(1, lambda x: (3.0 * x)[..., None], 1.0, 1.0, "bad").spot_check()


def test_observable_shape_contract():
    f = OBSERVABLES["poly_pair"]()
    out = f(np.zeros((5, 7)))
    assert out.shape == (5, 7, 2)
    with pytest.raises(ValueError):
        Observable(2, lambda x: x[..., None], 1.0, 1.0, "short")(np.zeros(3))


def test_piecewise_linear_map_round_trip():
    fam = ShiftedSlopeFamily()
    m = fam.make(0.5)
    assert isinstance(m, PiecewiseLinearMap)
    x = np.linspace(0.0, 1.0, 97)
    np.testing.assert_allclose(m(x), fam.apply_param(0.5, x), atol=1e-15)


def test_qds_partial_sum_endpoints_and_linearity():
    seq = QuasistaticSequence(LsvFamily(), lambda t: 0.1, beta_star=0.25)
    f = OBSERVABLES["identity"]()
    rng = np.random.default_rng(5)
    x = rng.random(50)
    n = 16
    full = qds_birkhoff_integral(seq, f, x, 1.0, n)
    orbit = trajectory(seq, x, n - 1, horizon=n)
    direct = f(orbit).sum(axis=0)
    np.testing.assert_allclose(full, direct, atol=1e-12)
    # linear interpolation between grid points
    a = qds_birkhoff_integral(seq, f, x, 4.0 / n, n)
    b = qds_birkhoff_integral(seq, f, x, 5.0 / n, n)
    mid = qds_birkhoff_integral(seq, f, x, 4.5 / n, n)
    np.testing.assert_allclose(mid, 0.5 * (a + b), atol=1e-12)
