"""Tests for the linearization gains and distortion-moment estimators."""

import tracemalloc

import numpy as np
import pytest

from quantmimo import bussgang
from quantmimo.airlink import complex_gaussian, dft_pilots
from quantmimo.bussgang import (
    PHASE_CE,
    PHASE_UL,
    BussgangStats,
    SystemConfig,
    assemble_stats,
    block_rng,
    ce_distortion_projections,
    distortion_trace,
    gain_scalar,
)
from quantmimo.config import SweepConfig
from quantmimo.mcsim import default_specs
from quantmimo.quant import MAX_BITS, QuantizerSpec, design_lloyd_max, quantize, rescale_labels
from quantmimo.syspower import snr_linear

from oracles import ce_distortion_projections_direct, mc_gain_regression


def _sign_quantizer():
    return QuantizerSpec(
        bits=1,
        thresholds=np.array([-np.inf, 0.0, np.inf]),
        labels=np.array([-1.0, 1.0]),
        design_std=1.0,
    )


def test_gain_of_sign_quantizer_is_closed_form():
    # E[sign(x) x] = sigma sqrt(2/pi) per component -> G = 2/sqrt(2 pi c) for unit labels
    assert gain_scalar(_sign_quantizer(), 2.0) == pytest.approx(2.0 / np.sqrt(2.0 * np.pi), rel=1e-12)


def test_gain_of_one_bit_lloyd_max_is_two_over_pi():
    # labels +/- sqrt(2/pi), unit component variance: G = 2/pi
    spec = design_lloyd_max(1, 1.0)
    assert gain_scalar(spec, 2.0) == pytest.approx(2.0 / np.pi, rel=1e-12)


def test_gain_increases_with_resolution_toward_one():
    gains = []
    for bits in range(1, 11):
        spec = rescale_labels(design_lloyd_max(bits, 1.0), 2.0)
        gains.append(gain_scalar(spec, 2.0))
    assert all(a < b for a, b in zip(gains, gains[1:]))
    assert gains[-1] == pytest.approx(1.0, abs=1e-3)
    assert all(0 < g <= 1 for g in gains)


@pytest.mark.parametrize("bits", [1, 2, 3, 5])
def test_gain_matches_monte_carlo_regression(bits):
    c = 5.0
    spec = rescale_labels(design_lloyd_max(bits, np.sqrt(c / 2.0)), c)
    rng = np.random.default_rng(2024 + bits)
    y = complex_gaussian(rng, (400_000,), c)
    g_hat, se = mc_gain_regression(lambda v: quantize(spec, v), y)
    assert abs(g_hat - gain_scalar(spec, c)) < 3 * se


def test_gain_rejects_bad_variance():
    with pytest.raises(ValueError):
        gain_scalar(_sign_quantizer(), 0.0)


def test_distortion_trace_one_bit_closed_form():
    # 1-bit Lloyd-Max at c = 2: per-entry distortion 2(2/pi) - (2/pi)^2 * 2
    spec = design_lloyd_max(1, 1.0)
    trace = distortion_trace(spec, 2.0, dim=4, trials=200_000, seed=5)
    expected = 4 * (4.0 / np.pi) * (1.0 - 2.0 / np.pi)
    assert trace == pytest.approx(expected, rel=0.01)


def test_distortion_trace_vanishes_at_high_resolution():
    spec = rescale_labels(design_lloyd_max(10, 1.0), 2.0)
    trace = distortion_trace(spec, 2.0, dim=1, trials=50_000, seed=5)
    assert trace < 1e-4 * 2.0


def test_distortion_trace_requires_enough_trials():
    spec = rescale_labels(design_lloyd_max(1, 1.0), 2.0)
    with pytest.raises(ValueError):
        distortion_trace(spec, 2.0, dim=1, trials=100, seed=0)


def test_chunked_estimates_are_deterministic():
    spec = rescale_labels(design_lloyd_max(2, 1.0), 2.0)
    a = distortion_trace(spec, 2.0, dim=2, trials=20_000, seed=3)
    b = distortion_trace(spec, 2.0, dim=2, trials=20_000, seed=3)
    assert a == b
    assert a != distortion_trace(spec, 2.0, dim=2, trials=20_000, seed=4)


def test_block_rng_streams_are_phase_and_block_specific():
    draws = {
        (phase, block): block_rng(123, phase, block).standard_normal(4).tobytes()
        for phase in (0, 1, 2)
        for block in (0, 1)
    }
    assert len(set(draws.values())) == len(draws)


def _scenario(m=8, k=4, tau=8, bits=2, rho=1.0):
    config = SystemConfig(m_ul=m, m_dl=m, k_users=k, tau=tau, bits=bits, rho_bs=rho, rho_ue=rho)
    y_var = config.y_var_ul
    spec = rescale_labels(design_lloyd_max(bits, np.sqrt(y_var / 2.0)), y_var)
    return config, spec


def test_ce_projection_row_shortcut_agrees_with_direct_estimator():
    # the antenna-row reduction must match the full-array estimator
    config, spec = _scenario(m=8)
    pilots = dft_pilots(config.tau, config.k_users)
    cd = distortion_trace(spec, config.y_var_ul, config.m, 100_000, 0) / config.m
    # one antenna row's projections, scaled to the m-antenna array
    a_fast = config.m * ce_distortion_projections(spec, pilots, config.rho_bs, 200_000, 1)
    a_dir, b_dir = ce_distortion_projections_direct(spec, spec, pilots, config.m, config.rho_bs, 50_000, 2)
    assert np.allclose(a_fast, a_dir, rtol=0.03)
    # the closed forms take B_k = cd_ul * A_k
    assert np.allclose(cd * a_fast, b_dir, rtol=0.06)


@pytest.mark.parametrize("block_entries", [None, 6])  # 6: fewer than one trial's 8 entries
def test_estimators_draw_each_block_from_its_own_generator(monkeypatch, block_entries):
    # block j of each estimator draws from generator j of the estimator's
    # phase, and no draw is wider than a block (or one trial, where a trial
    # is wider); the block size thus defines each estimator's stream
    config, spec = _scenario(m=8)
    m, k, tau = config.m, config.k_users, config.tau  # 8, 4, 8
    pilots = dft_pilots(tau, k)
    monkeypatch.setattr(bussgang, "MIN_TRIALS", 1)  # one-trial blocks, without 10^4 of them
    if block_entries is not None:
        monkeypatch.setattr(bussgang, "_BLOCK_ENTRIES", block_entries)
    per_block = max(1, bussgang._BLOCK_ENTRIES // 8)
    sizes = [per_block, per_block, per_block // 2 or 1]  # 2.5 blocks, or 3 one-trial blocks
    calls = []  # (generator key, [shapes drawn from it])
    real_rng, real_draw = bussgang.block_rng, bussgang.complex_gaussian
    monkeypatch.setattr(bussgang, "block_rng", lambda *key: calls.append((key, [])) or real_rng(*key))
    monkeypatch.setattr(
        bussgang, "complex_gaussian", lambda g, shape, *var: calls[-1][1].append(shape) or real_draw(g, shape, *var)
    )
    estimators = {
        PHASE_UL: (lambda: distortion_trace(spec, config.y_var_ul, m, sum(sizes), 6), lambda n: [(n, m)]),
        PHASE_CE: (
            lambda: ce_distortion_projections(spec, pilots, config.rho_bs, sum(sizes), 6),
            lambda n: [(n, k), (n, tau)],
        ),
    }
    for phase, (run, shapes) in estimators.items():
        calls.clear()
        run()
        assert [key for key, _ in calls] == [(6, phase, j) for j in range(len(sizes))]
        assert [drawn for _, drawn in calls] == [shapes(n) for n in sizes]
        widest = max(int(np.prod(shape)) for _, drawn in calls for shape in drawn)
        assert widest <= max(bussgang._BLOCK_ENTRIES, 8)


# tracemalloc peak of assemble_stats at the default grid's widest point (ul
# b=1, B 0.1 GHz, tau 64: m 176, K 8) over the default 1e5 trials.  Drawing
# whole 16384-trial chunks first, it peaked at 93.6 MB there.
def test_peak_memory_of_assemble_stats_stays_at_block_scale():
    grid = SweepConfig()
    m = grid.antennas("ul", 1, 1e8)
    rho_bs, rho_ue = (snr_linear(direction, grid.link, 1e8) for direction in ("ul", "dl"))
    config = SystemConfig(m, m, grid.k_users, 64, 1, rho_bs, rho_ue)
    assert (m, config.k_users) == (176, 8)
    specs = default_specs(config)
    tracemalloc.start()
    try:
        assemble_stats(config, *specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_ce_projection_rejects_mismatched_quantizer():
    config, _ = _scenario()
    wrong = rescale_labels(design_lloyd_max(2, 1.0), 2.0)  # designed for variance 2, not rho*K+1
    pilots = dft_pilots(config.tau, config.k_users)
    with pytest.raises(ValueError):
        ce_distortion_projections(wrong, pilots, config.rho_bs, 20_000, 0)


def test_assemble_stats_bundles_consistent_moments():
    config, spec = _scenario()
    w_var = config.w_var_dl
    dac = rescale_labels(design_lloyd_max(config.bits, np.sqrt(w_var / 2.0)), w_var)
    stats = assemble_stats(config, spec, spec, dac, trials=50_000, seed=0)
    assert stats.g_ce == stats.g_ul == gain_scalar(spec, config.y_var_ul)
    assert stats.g_dl == gain_scalar(dac, w_var)
    # the moments are per antenna: one entry's distortion power, one row's projections
    assert stats.cd_ul == distortion_trace(spec, config.y_var_ul, config.m, 50_000, 0) / config.m
    assert stats.cd_dl > 0
    pilots = dft_pilots(config.tau, config.k_users)
    assert np.array_equal(stats.a_k, ce_distortion_projections(spec, pilots, config.rho_bs, 50_000, 0))
    assert stats.a_k.shape == (config.k_users,)


def test_system_config_validation():
    base = dict(m_ul=8, m_dl=8, k_users=2, tau=4, bits=3, rho_bs=2.0, rho_ue=1.0)
    config = SystemConfig(**base)
    assert config.m == 8
    assert config.y_var_ul == pytest.approx(5.0)
    assert config.w_var_dl == pytest.approx(1.0 / 8.0)
    assert SystemConfig(**{**base, "m_ul": np.int64(8), "bits": MAX_BITS}).m == 8
    bad = [
        ({"m_ul": 0, "m_dl": 0}, "m_ul"),
        ({"m_ul": 32.5, "m_dl": 32.5}, "m_ul"),  # a count that is not an integer
        ({"m_dl": 16}, "m_ul=8 and m_dl=16"),  # two antenna counts
        ({"k_users": True}, "k_users"),
        ({"k_users": 4, "tau": 2}, "tau"),  # a pilot shorter than K
        ({"tau": 4.0}, "tau"),
        ({"bits": 0}, "bits"),
        ({"bits": MAX_BITS + 1}, "bits"),
        ({"rho_bs": 0.0}, "rho_bs"),
        ({"rho_bs": np.nan}, "rho_bs"),
        ({"rho_ue": -1.0}, "rho_ue"),
        ({"rho_ue": np.inf}, "rho_ue"),
    ]
    for overrides, field in bad:
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{**base, **overrides})


def test_stats_validation_rejects_bad_gains():
    kwargs = dict(cd_ul=1.0, cd_dl=1.0, a_k=np.ones(2))
    BussgangStats(g_ce=0.5, g_ul=0.5, g_dl=0.5, **kwargs)
    with pytest.raises(ValueError):
        BussgangStats(g_ce=np.inf, g_ul=0.5, g_dl=0.5, **kwargs)
    with pytest.raises(ValueError):
        BussgangStats(g_ce=0.5, g_ul=0.0, g_dl=0.5, **kwargs)
    with pytest.raises(ValueError):
        BussgangStats(g_ce=0.5, g_ul=0.5, g_dl=0.5, **{**kwargs, "cd_dl": -1.0})
    with pytest.raises(ValueError):
        BussgangStats(g_ce=0.5, g_ul=0.5, g_dl=0.5, **{**kwargs, "cd_ul": np.nan})
    with pytest.raises(ValueError):
        BussgangStats(g_ce=0.5, g_ul=0.5, g_dl=0.5, **{**kwargs, "a_k": np.array([1.0, np.nan])})
