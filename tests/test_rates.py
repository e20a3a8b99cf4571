"""Tests for the closed-form SINDRs and sum rates."""

import numpy as np
import pytest

from quantmimo.bussgang import BussgangStats, SystemConfig, assemble_stats
from quantmimo.quant import QuantizerSpec, design_lloyd_max, rescale_labels
from quantmimo.rates import (
    DownlinkMoments,
    SindrInputsDL,
    SindrInputsUL,
    UplinkMoments,
    sindr_dl_mrt,
    sindr_from_moments,
    sindr_ul_mrc,
    sum_rate,
)


def _ideal_stats(m, k, tau, rho_bs):
    """Distortion-free stats: unit gains, zero distortion moments."""
    delta = k * (1.0 + 1.0 / (rho_bs * tau)) * m
    return BussgangStats(
        g_ce=1.0,
        g_ul=1.0,
        g_dl=1.0,
        trace_cd_ul=0.0,
        trace_cd_dl=0.0,
        a_k=np.zeros(k),
        b_k=np.zeros(k),
        delta=delta,
        y_var_ul=rho_bs * k + 1.0,
        w_var_dl=1.0 / m,
        m_ul=m,
        m_dl=m,
        trials=0,
        seed=0,
    )


def test_distortion_free_uplink_reduction():
    m, k, tau, rho = 32, 4, 8, 2.0
    stats = _ideal_stats(m, k, tau, rho)
    got = sindr_ul_mrc(SindrInputsUL(m, k, tau, rho, stats))
    expected = rho * m**2 / ((rho * k + 1.0) * (1.0 + 1.0 / (rho * tau)) * m)
    assert got == pytest.approx(expected, rel=1e-12)


def test_distortion_free_downlink_reduction():
    m, k, tau, rho_bs, rho_ue = 32, 4, 8, 2.0, 3.0
    stats = _ideal_stats(m, k, tau, rho_bs)
    got = sindr_dl_mrt(SindrInputsDL(m, k, tau, rho_bs, rho_ue, stats))
    delta = k * m * (1.0 + 1.0 / (rho_bs * tau))
    expected = rho_ue * m**2 / (rho_ue * k * (1.0 + 1.0 / (rho_bs * tau)) * m + delta)
    assert got == pytest.approx(expected, rel=1e-12)


def test_sindrs_vanish_with_transmit_power():
    m, k, tau = 16, 4, 8
    for rho in (1e-4, 1e-6, 1e-8):
        stats = _ideal_stats(m, k, tau, rho)
        assert sindr_ul_mrc(SindrInputsUL(m, k, tau, rho, stats)) < 10 * rho * m
        stats2 = _ideal_stats(m, k, tau, 1.0)
        assert sindr_dl_mrt(SindrInputsDL(m, k, tau, 1.0, rho, stats2)) < 10 * rho * m**2 / stats2.delta


def test_uplink_sindr_strictly_increases_in_antennas():
    config = SystemConfig(m_ul=8, m_dl=8, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=1.0)
    y_var = config.y_var_ul
    spec = rescale_labels(design_lloyd_max(2, np.sqrt(y_var / 2.0)), y_var)
    dac = rescale_labels(design_lloyd_max(2, np.sqrt(config.w_var_dl / 2.0)), config.w_var_dl)
    stats = assemble_stats(config, spec, spec, dac, trials=20_000, seed=0)
    values = [
        sindr_ul_mrc(SindrInputsUL(m, config.k_users, config.tau, config.rho_bs, stats))
        for m in (4, 8, 16, 32, 64, 128)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def _closed_form_ul_moments(m, k, tau, rho, stats, ue=0):
    g_ce, g_ul = stats.g_ce, stats.g_ul
    ce_noise = 1.0 + 1.0 / (rho * tau)
    inv_rt2 = 1.0 / (rho * tau**2)
    a_k = stats.a_k_at(m)[ue]
    cross = ce_noise * g_ce**2 * g_ul**4 * m + inv_rt2 * g_ul**4 * a_k
    self_power = (m + 1.0 + 1.0 / (rho * tau)) * g_ce**2 * g_ul**4 * m + inv_rt2 * g_ul**4 * a_k
    powers = np.full(k, cross)
    powers[ue] = self_power
    dist = ce_noise * g_ce**2 * g_ul**2 * stats.trace_cd_ul + inv_rt2 * g_ul**2 * stats.b_k[ue] * (
        m / stats.m_ul
    )
    return UplinkMoments(
        rho_bs=rho,
        desired_mean=g_ce * g_ul**2 * m,
        signal_powers=powers,
        combiner_power=cross,
        distortion_power=dist,
    )


def _closed_form_dl_moments(m, k, tau, rho_bs, rho_ue, stats, ue=0):
    g_ce, g_dl = stats.g_ce, stats.g_dl
    ce_noise = 1.0 + 1.0 / (rho_bs * tau)
    inv_rt2 = 1.0 / (rho_bs * tau**2)
    a = stats.a_k_at(m)
    powers = (ce_noise * g_ce**2 * g_dl**2 * m + inv_rt2 * g_dl**2 * a) / stats.delta
    powers[ue] = (
        (m + 1.0 + 1.0 / (rho_bs * tau)) * g_ce**2 * g_dl**2 * m + inv_rt2 * g_dl**2 * a[ue]
    ) / stats.delta
    return DownlinkMoments(
        rho_ue=rho_ue,
        desired_mean=g_ce * g_dl * m / np.sqrt(stats.delta),
        signal_powers=powers,
        distortion_power=stats.trace_cd_dl,
    )


def test_moment_substitution_reproduces_uplink_closed_form():
    config = SystemConfig(m_ul=32, m_dl=32, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=1.0)
    y_var = config.y_var_ul
    spec = rescale_labels(design_lloyd_max(2, np.sqrt(y_var / 2.0)), y_var)
    dac = rescale_labels(design_lloyd_max(2, np.sqrt(config.w_var_dl / 2.0)), config.w_var_dl)
    stats = assemble_stats(config, spec, spec, dac, trials=20_000, seed=1)
    m, k, tau, rho = 32, 4, 8, 1.0
    moments = _closed_form_ul_moments(m, k, tau, rho, stats)
    assert sindr_from_moments(moments) == pytest.approx(
        sindr_ul_mrc(SindrInputsUL(m, k, tau, rho, stats)), rel=1e-12
    )


def test_moment_substitution_reproduces_downlink_closed_form():
    config = SystemConfig(m_ul=32, m_dl=32, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=2.0)
    y_var = config.y_var_ul
    spec = rescale_labels(design_lloyd_max(2, np.sqrt(y_var / 2.0)), y_var)
    dac = rescale_labels(design_lloyd_max(2, np.sqrt(config.w_var_dl / 2.0)), config.w_var_dl)
    stats = assemble_stats(config, spec, spec, dac, trials=20_000, seed=1)
    m, k, tau = 32, 4, 8
    moments = _closed_form_dl_moments(m, k, tau, 1.0, 2.0, stats)
    assert sindr_from_moments(moments) == pytest.approx(
        sindr_dl_mrt(SindrInputsDL(m, k, tau, 1.0, 2.0, stats)), rel=1e-12
    )


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
        ul = sindr_ul_mrc(SindrInputsUL(16, 4, 8, 1.0, stats))
        dl = sindr_dl_mrt(SindrInputsDL(16, 4, 8, 1.0, 1.0, stats))
        results.append((ul, dl))
    for ul, dl in results[1:]:
        assert ul == pytest.approx(results[0][0], rel=1e-10)
        assert dl == pytest.approx(results[0][1], rel=1e-10)


def test_sindr_from_moments_rejects_inconsistent_powers():
    moments = UplinkMoments(
        rho_bs=1.0,
        desired_mean=10.0,
        signal_powers=np.array([1.0, 1.0]),  # far below |desired|^2
        combiner_power=1.0,
        distortion_power=0.0,
    )
    with pytest.raises(ValueError):
        sindr_from_moments(moments)


def test_sindr_from_moments_rejects_unknown_type():
    with pytest.raises(TypeError):
        sindr_from_moments(object())


def test_input_validation():
    stats = _ideal_stats(4, 2, 4, 1.0)
    with pytest.raises(ValueError):
        SindrInputsUL(0, 2, 4, 1.0, stats)
    with pytest.raises(ValueError):
        SindrInputsDL(4, 2, 4, 1.0, 0.0, stats)


def test_sum_rate_reference_values():
    assert sum_rate(1.0, [0.0, 0.0]) == 0.0
    assert sum_rate(1.0, [1.0, 1.0]) == pytest.approx(2.0)
    assert sum_rate(2e8, [3.0]) == pytest.approx(2 * sum_rate(1e8, [3.0]))
    with pytest.raises(ValueError):
        sum_rate(0.0, [1.0])
    with pytest.raises(ValueError):
        sum_rate(1.0, [-0.1])
