"""Tests for the closed-form SINDRs and sum rates."""

from dataclasses import fields, replace

import numpy as np
import pytest

from quantmimo.bussgang import BussgangStats, SystemConfig, assemble_stats
from quantmimo.quant import QuantizerSpec, design_lloyd_max, rescale_labels
from quantmimo.rates import (
    DownlinkMoments,
    UplinkMoments,
    moments_dl_mrt,
    moments_ul_mrc,
    mrt_normalization,
    sindr_from_moments,
    sum_rate,
)


def _ideal_stats(k):
    """Distortion-free stats: unit gains, zero distortion moments."""
    return BussgangStats(g_ce=1.0, g_ul=1.0, g_dl=1.0, cd_ul=0.0, cd_dl=0.0, a_k=np.zeros(k))


def _scenario(m, k, tau, rho_bs, rho_ue=1.0):
    """A scenario for the closed forms, which do not read bits."""
    return SystemConfig(m_ul=m, m_dl=m, k_users=k, tau=tau, bits=2, rho_bs=rho_bs, rho_ue=rho_ue)


def _sindrs_ul(config, stats):
    return sindr_from_moments(moments_ul_mrc(config, stats))


def _sindrs_dl(config, stats):
    return sindr_from_moments(moments_dl_mrt(config, stats))


def test_distortion_free_uplink_reduction():
    m, k, tau, rho = 32, 4, 8, 2.0
    stats = _ideal_stats(k)
    got = _sindrs_ul(_scenario(m, k, tau, rho), stats)
    expected = rho * m**2 / ((rho * k + 1.0) * (1.0 + 1.0 / (rho * tau)) * m)
    assert got == pytest.approx(np.full(k, expected), rel=1e-12)


def test_distortion_free_downlink_reduction():
    m, k, tau, rho_bs, rho_ue = 32, 4, 8, 2.0, 3.0
    stats = _ideal_stats(k)
    got = _sindrs_dl(_scenario(m, k, tau, rho_bs, rho_ue), stats)
    delta = k * m * (1.0 + 1.0 / (rho_bs * tau))
    expected = rho_ue * m**2 / (rho_ue * k * (1.0 + 1.0 / (rho_bs * tau)) * m + delta)
    assert got == pytest.approx(np.full(k, expected), rel=1e-12)


def test_sindrs_vanish_with_transmit_power():
    m, k, tau = 16, 4, 8
    stats = _ideal_stats(k)
    for rho in (1e-4, 1e-6, 1e-8):
        assert np.all(_sindrs_ul(_scenario(m, k, tau, rho), stats) < 10 * rho * m)
        config = _scenario(m, k, tau, 1.0, rho)
        assert np.all(_sindrs_dl(config, stats) < 10 * rho * m**2 / mrt_normalization(config, stats))


def test_uplink_sindr_strictly_increases_in_antennas():
    config = SystemConfig(m_ul=8, m_dl=8, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=1.0)
    y_var = config.y_var_ul
    spec = rescale_labels(design_lloyd_max(2, np.sqrt(y_var / 2.0)), y_var)
    dac = rescale_labels(design_lloyd_max(2, np.sqrt(config.w_var_dl / 2.0)), config.w_var_dl)
    stats = assemble_stats(config, spec, spec, dac, trials=20_000, seed=0)
    values = [_sindrs_ul(replace(config, m_ul=m, m_dl=m), stats) for m in (4, 8, 16, 32, 64, 128)]
    assert all(np.all(a < b) for a, b in zip(values, values[1:]))


def _closed_form_ul_moments(m, k, tau, rho, stats, ue=0):
    g_ce, g_ul = stats.g_ce, stats.g_ul
    ce_noise = 1.0 + 1.0 / (rho * tau)
    inv_rt2 = 1.0 / (rho * tau**2)
    a_k = m * stats.a_k[ue]
    cross = ce_noise * g_ce**2 * g_ul**4 * m + inv_rt2 * g_ul**4 * a_k
    self_power = (m + 1.0 + 1.0 / (rho * tau)) * g_ce**2 * g_ul**4 * m + inv_rt2 * g_ul**4 * a_k
    powers = np.full(k, cross)
    powers[ue] = self_power
    b_k = stats.cd_ul * a_k
    dist = ce_noise * g_ce**2 * g_ul**2 * m * stats.cd_ul + inv_rt2 * g_ul**2 * b_k
    return UplinkMoments(
        rho_bs=rho,
        desired_mean=g_ce * g_ul**2 * m,
        signal_powers=powers,
        combiner_power=cross,
        distortion_power=dist,
    )


def _closed_form_delta(m, k, tau, rho_bs, stats):
    return k * (1 + 1 / (rho_bs * tau)) * stats.g_ce**2 * m + m * np.sum(stats.a_k) / (rho_bs * tau**2)


def _closed_form_dl_moments(m, k, tau, rho_bs, rho_ue, stats, ue=0):
    g_ce, g_dl = stats.g_ce, stats.g_dl
    ce_noise = 1.0 + 1.0 / (rho_bs * tau)
    inv_rt2 = 1.0 / (rho_bs * tau**2)
    a = m * stats.a_k
    delta = _closed_form_delta(m, k, tau, rho_bs, stats)
    powers = (ce_noise * g_ce**2 * g_dl**2 * m + inv_rt2 * g_dl**2 * a) / delta
    powers[ue] = (
        (m + 1.0 + 1.0 / (rho_bs * tau)) * g_ce**2 * g_dl**2 * m + inv_rt2 * g_dl**2 * a[ue]
    ) / delta
    return DownlinkMoments(
        rho_ue=rho_ue,
        desired_mean=g_ce * g_dl * m / np.sqrt(delta),
        signal_powers=powers,
        distortion_power=m * stats.cd_dl,
    )


def _stats_at(tau, rho_ue):
    config = SystemConfig(m_ul=32, m_dl=32, k_users=4, tau=tau, bits=2, rho_bs=1.0, rho_ue=rho_ue)
    y_var = config.y_var_ul
    spec = rescale_labels(design_lloyd_max(2, np.sqrt(y_var / 2.0)), y_var)
    dac = rescale_labels(design_lloyd_max(2, np.sqrt(config.w_var_dl / 2.0)), config.w_var_dl)
    return assemble_stats(config, spec, spec, dac, trials=20_000, seed=1)


def _direct_stats(k, seed):
    """Stats built directly, nothing sampled: positive a_k, gains in (0, 1], positive distortion powers."""
    rng = np.random.default_rng(seed)
    g_ce, g_ul, g_dl = rng.uniform(0.5, 1.0, 3)
    cd_ul, cd_dl = rng.uniform(0.01, 0.5, 2)
    return BussgangStats(g_ce=g_ce, g_ul=g_ul, g_dl=g_dl, cd_ul=cd_ul, cd_dl=cd_dl, a_k=rng.uniform(0.1, 2.0, k))


def _per_ue_sindr(moments):
    """The SINDR ratio of one UE's scalar moments, written out."""
    desired = abs(moments.desired_mean) ** 2
    if isinstance(moments, UplinkMoments):
        rho, noise = moments.rho_bs, moments.combiner_power + moments.distortion_power
    else:
        rho, noise = moments.rho_ue, moments.rho_ue * moments.distortion_power + 1.0
    return rho * desired / (rho * (np.sum(moments.signal_powers) - desired) + noise)


def _assert_row_is_per_ue_reference(vector, ue, expected):
    # row ue of the all-UE moments equals the per-UE reference, and so does its SINDR
    for f in fields(expected):
        got = getattr(vector, f.name)
        got = got if np.ndim(got) == 0 else got[ue]
        assert np.allclose(got, getattr(expected, f.name), rtol=1e-12, atol=0), f.name
    assert sindr_from_moments(vector)[ue] == pytest.approx(_per_ue_sindr(expected), rel=1e-12)


_SCENARIOS = pytest.mark.parametrize(
    "k,tau,rho,m",
    [(k, tau, rho, m) for k in (1, 2, 4, 8) for tau in (k, 64) for rho in (0.01, 1.0, 125.9) for m in (1, 16, 176)],
)


@_SCENARIOS
def test_moment_substitution_reproduces_uplink_closed_form(k, tau, rho, m):
    stats = _direct_stats(k, seed=k * tau)
    moments = moments_ul_mrc(_scenario(m, k, tau, rho), stats)
    assert moments.signal_powers.shape == (k, k)
    for ue in range(k):
        _assert_row_is_per_ue_reference(moments, ue, _closed_form_ul_moments(m, k, tau, rho, stats, ue))


@_SCENARIOS
def test_moment_substitution_reproduces_downlink_closed_form(k, tau, rho, m):
    stats = _direct_stats(k, seed=k * tau)
    moments = moments_dl_mrt(_scenario(m, k, tau, rho, 2.0), stats)
    assert moments.signal_powers.shape == (k, k)
    for ue in range(k):
        _assert_row_is_per_ue_reference(moments, ue, _closed_form_dl_moments(m, k, tau, rho, 2.0, stats, ue))


def test_mrt_normalization_matches_closed_form():
    # delta = K (1 + 1/(rho tau)) g_ce^2 m + m sum_k A_k / (rho tau^2)
    k, rho = 4, 1.0
    for tau in (8, 16):
        stats = _stats_at(tau, 2.0)
        assert np.all(stats.a_k > 0)
        for m in (16, 32, 64):
            expected = _closed_form_delta(m, k, tau, rho, stats)
            assert mrt_normalization(_scenario(m, k, tau, rho, 2.0), stats) == pytest.approx(expected, rel=1e-12)


def test_sindr_invariant_to_uplink_label_rescaling():
    # scaling the data-phase quantizer labels rescales G^2 and C_d together
    config = SystemConfig(m_ul=16, m_dl=16, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=1.0)
    y_var = config.y_var_ul
    base = rescale_labels(design_lloyd_max(2, np.sqrt(y_var / 2.0)), y_var)
    dac = rescale_labels(design_lloyd_max(2, np.sqrt(config.w_var_dl / 2.0)), config.w_var_dl)
    results = []
    for scale in (0.5, 1.0, 2.0):
        spec_ul = QuantizerSpec(
            bits=base.bits,
            thresholds=base.thresholds.copy(),
            labels=scale * base.labels,
            design_std=base.design_std,
        )
        stats = assemble_stats(config, base, spec_ul, dac, trials=20_000, seed=2)
        results.append((_sindrs_ul(config, stats), _sindrs_dl(config, stats)))
    for ul, dl in results[1:]:
        assert ul == pytest.approx(results[0][0], rel=1e-10)
        assert dl == pytest.approx(results[0][1], rel=1e-10)


def test_sindr_from_moments_rejects_inconsistent_powers():
    moments = UplinkMoments(
        rho_bs=1.0,
        desired_mean=np.full(3, 10.0),
        signal_powers=np.array([[100.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 100.0]]),  # row 1 far below |desired|^2
        combiner_power=np.ones(3),
        distortion_power=np.zeros(3),
    )
    with pytest.raises(ValueError, match="UE 1: negative interference"):
        sindr_from_moments(moments)


def test_sindr_from_moments_rejects_unknown_type():
    with pytest.raises(TypeError):
        sindr_from_moments(object())


def test_input_validation():
    # the scenario's own checks (positive counts and SNRs, tau >= K) are
    # SystemConfig's, tested in test_bussgang; the closed forms check where
    # the stats meet the scenario
    config = _scenario(32, 4, 8, 1.0)
    for a_k in (np.ones(2), np.ones(1), np.ones((4, 1))):  # pilot projections of fewer or broadcast UEs
        stats = replace(_ideal_stats(4), a_k=a_k)
        for closed_form in (moments_ul_mrc, moments_dl_mrt, mrt_normalization):
            with pytest.raises(ValueError, match="a_k"):
                closed_form(config, stats)


def test_sum_rate_reference_values():
    assert sum_rate(1.0, [0.0, 0.0]) == 0.0
    assert sum_rate(1.0, [1.0, 1.0]) == pytest.approx(2.0)
    assert sum_rate(2e8, [3.0]) == pytest.approx(2 * sum_rate(1e8, [3.0]))
    for bandwidth_hz in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="bandwidth"):
            sum_rate(bandwidth_hz, [1.0])
    for sindrs in ([-0.1], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="SINDR"):
            sum_rate(1.0, sindrs)
