"""Tests for the linearization gains and distortion-moment estimators."""

import numpy as np
import pytest

from quantmimo import bussgang
from quantmimo.airlink import complex_gaussian, dft_pilots
from quantmimo.bussgang import (
    BussgangStats,
    SystemConfig,
    assemble_stats,
    ce_distortion_projections,
    chunk_rng,
    distortion_trace,
    gain_scalar,
)
from quantmimo.quant import QuantizerSpec, design_lloyd_max, quantize, rescale_labels

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


def test_chunk_rng_streams_are_phase_and_chunk_specific():
    draws = {
        (phase, chunk): chunk_rng(123, phase, chunk).standard_normal(4).tobytes()
        for phase in (0, 1, 2)
        for chunk in (0, 1)
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
    cd = distortion_trace(spec, config.y_var_ul, config.m_ul, 100_000, 0) / config.m_ul
    # one antenna row's projections, scaled to the m-antenna array
    a_fast = config.m_ul * ce_distortion_projections(spec, pilots, config.rho_bs, 200_000, 1)
    a_dir, b_dir = ce_distortion_projections_direct(spec, spec, pilots, config.m_ul, config.rho_bs, 50_000, 2)
    assert np.allclose(a_fast, a_dir, rtol=0.03)
    # the closed forms take B_k = cd_ul * A_k
    assert np.allclose(cd * a_fast, b_dir, rtol=0.06)


def test_block_size_does_not_change_the_estimates(monkeypatch):
    config, spec = _scenario(m=8)
    pilots = dft_pilots(config.tau, config.k_users)
    trials = bussgang._CHUNK_TRIALS + 1_500  # two chunks

    def run(block_trials):
        # both estimators' widest per-trial rows have 8 entries (dim, tau)
        monkeypatch.setattr(bussgang, "_BLOCK_ENTRIES", block_trials * 8)
        return (
            distortion_trace(spec, config.y_var_ul, config.m_ul, trials, 5),
            ce_distortion_projections(spec, pilots, config.rho_bs, trials, 5),
        )

    (trace, a_k), (trace_whole, a_k_whole) = run(700), run(bussgang._CHUNK_TRIALS)  # 700: ragged last block
    assert trace == pytest.approx(trace_whole, rel=1e-12, abs=0)
    assert np.allclose(a_k, a_k_whole, rtol=1e-12, atol=0)


def test_chunks_keep_each_draw_within_a_gib():
    # a chunk is sized by its widest draw: rows of 176*64 complex entries
    # (m*tau at the default grid's widest point) would take 2.95 GB in one
    # 16384-trial chunk
    trials, m, tau = 100_000, 176, 64
    sizes = [size for _, size in bussgang._chunks(trials, m * tau)]
    assert sum(sizes) == trials
    assert 16 * max(sizes) * m * tau <= 1 << 30
    assert 16 * (max(sizes) + 1) * m * tau > 1 << 30
    # a row of 256 entries keeps full chunks, and with them its random stream
    sizes = [size for _, size in bussgang._chunks(trials, 32 * 8)]
    assert sizes == [bussgang._CHUNK_TRIALS] * 6 + [trials - 6 * bussgang._CHUNK_TRIALS]


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
    assert stats.cd_ul == distortion_trace(spec, config.y_var_ul, config.m_ul, 50_000, 0) / config.m_ul
    assert stats.cd_dl > 0
    pilots = dft_pilots(config.tau, config.k_users)
    assert np.array_equal(stats.a_k, ce_distortion_projections(spec, pilots, config.rho_bs, 50_000, 0))
    assert stats.a_k.shape == (config.k_users,)


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(m_ul=0, m_dl=1, k_users=1, tau=1, bits=1, rho_bs=1.0, rho_ue=1.0)
    with pytest.raises(ValueError):
        SystemConfig(m_ul=1, m_dl=1, k_users=4, tau=2, bits=1, rho_bs=1.0, rho_ue=1.0)
    with pytest.raises(ValueError):
        SystemConfig(m_ul=1, m_dl=1, k_users=1, tau=1, bits=1, rho_bs=0.0, rho_ue=1.0)
    config = SystemConfig(m_ul=4, m_dl=8, k_users=2, tau=4, bits=3, rho_bs=2.0, rho_ue=1.0)
    assert config.y_var_ul == pytest.approx(5.0)
    assert config.w_var_dl == pytest.approx(1.0 / 8.0)


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
