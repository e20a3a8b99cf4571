"""Tests for the converter power models, antenna budget, and link budget."""

import numpy as np
import pytest

from quantmimo.syspower import (
    InfeasibleConfigError,
    LinkBudget,
    PowerModelParams,
    antennas_budget,
    noise_power_dbm,
    p_adc,
    p_dac,
    snr_linear,
)


def test_adc_power_reference_values():
    assert p_adc(10, 1e8) == pytest.approx(1.320, rel=1e-3)
    assert p_adc(1, 1e8) == pytest.approx(0.0560, rel=1e-2)


def test_adc_power_is_linear_in_bandwidth_term():
    params = PowerModelParams()
    b = 6
    base = p_adc(b, 1e8, params)
    # doubling (2B + f_cor) doubles the draw
    doubled_bw = (2 * (2 * 1e8 + params.f_cor) - params.f_cor) / 2
    assert p_adc(b, doubled_bw, params) == pytest.approx(2 * base, rel=1e-12)


def test_dac_power_reference_values():
    assert p_dac(10, 1e8) == pytest.approx(1.5345e-2 + 1.809e-2, rel=1e-3)
    assert p_dac(1, 1e8) == pytest.approx(1.824e-3, rel=1e-2)


def test_dac_static_term_roughly_doubles_per_bit():
    params = PowerModelParams()
    def static(b):
        dynamic = b * params.c_p * (2 * 1e8 + params.f_cor) * params.v_dd**2
        return p_dac(b, 1e8, params) - dynamic

    for b in range(4, 10):
        static_ratio = (2.0 ** (b + 1) - 1) / (2.0**b - 1)
        assert static(b + 1) / static(b) == pytest.approx(static_ratio, rel=1e-12)


def test_power_models_reject_bad_arguments():
    for fn in (p_adc, p_dac):
        with pytest.raises(ValueError):
            fn(0, 1e8)
        with pytest.raises(ValueError):
            fn(4, 0.0)


def test_a_converter_power_too_large_for_a_float_is_a_value_error():
    # 10^(0.1525 b - 4.838) and 2^b overflow a float past about 2050 and 1023 bits;
    # they used to raise OverflowError (34, 'Numerical result out of range')
    for fn, kind, b in ((p_adc, "ADC", 1_000_000), (p_dac, "DAC", 1_000_000), (p_dac, "DAC", 1024)):
        with pytest.raises(ValueError, match=f"^a {b}-bit {kind} draws more power than a float holds"):
            fn(b, 1e8)
    assert p_adc(2000, 1e8) > 0 and p_dac(1023, 1e8) > 0


def test_antenna_budget_reference_chain():
    params = PowerModelParams()
    p_hw = 10 * (params.p_rf_ul + 2 * p_adc(10, 1e8, params))
    assert antennas_budget(p_hw, params.p_rf_ul, p_adc(10, 1e8, params)) == 10
    # one-bit converters buy many more antennas from the same envelope
    assert antennas_budget(p_hw, params.p_rf_ul, p_adc(1, 1e8, params)) == 176


def test_antenna_budget_monotone_in_resolution():
    params = PowerModelParams()
    for conv in (p_adc, p_dac):
        p_hw = 10 * (params.p_rf_ul + 2 * conv(10, 1e8, params))
        counts = [antennas_budget(p_hw, params.p_rf_ul, conv(b, 1e8, params)) for b in range(1, 13)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_antenna_budget_infeasible_is_an_error():
    with pytest.raises(InfeasibleConfigError):
        antennas_budget(1e-6, 0.04, 0.1)
    with pytest.raises(ValueError):
        antennas_budget(1.0, 0.0, 0.0)
    # more antennas than a point's arrays can hold, an infinite count included
    for p_hw in (1e9, np.inf):
        with pytest.raises(ValueError, match="more than the 4096 allowed"):
            antennas_budget(p_hw, 0.04, 0.1)


def test_power_outputs_positive_over_grid():
    for b in range(1, 13):
        for bw in (1e7, 1e8, 1e9):
            assert 0 < p_adc(b, bw) < np.inf
            assert 0 < p_dac(b, bw) < np.inf


def test_noise_power_reference():
    assert noise_power_dbm(1e8, 13.0) == pytest.approx(-81.0)
    # doubling the bandwidth adds 3 dB of thermal noise
    assert noise_power_dbm(2e8, 13.0) - noise_power_dbm(1e8, 13.0) == pytest.approx(
        10 * np.log10(2), abs=1e-12
    )


def test_link_budget_reference_snrs():
    budget = LinkBudget()
    assert 10 * np.log10(snr_linear("ul", budget, 1e8)) == pytest.approx(21.0)
    assert 10 * np.log10(snr_linear("dl", budget, 1e8)) == pytest.approx(31.0)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(distance_m=0.0)
    # one distance for all users: every point has one SNR (y_var = rho*K + 1)
    with pytest.raises(ValueError, match="distance_m"):
        LinkBudget(distance_m=(100, 200))
    with pytest.raises(ValueError):
        LinkBudget(alpha=2.0)
    with pytest.raises(ValueError):
        PowerModelParams(v_dd=0.0)
    with pytest.raises(ValueError):
        snr_linear("ul", LinkBudget(), 0.0)
