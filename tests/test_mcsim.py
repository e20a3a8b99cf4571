"""Tests for the full-chain Monte Carlo validator."""

import numpy as np
import pytest

from quantmimo.bussgang import SystemConfig
from quantmimo.mcsim import default_specs, validate_closed_form


def _config(**overrides):
    base = dict(m_ul=16, m_dl=16, k_users=4, tau=8, bits=3, rho_bs=1.0, rho_ue=1.0)
    base.update(overrides)
    return SystemConfig(**base)


def test_default_specs_match_scenario_variances():
    config = _config()
    adc_ce, adc_ul, dac = default_specs(config)
    assert adc_ce is adc_ul
    assert 2 * adc_ce.design_std**2 == pytest.approx(config.y_var_ul)
    assert 2 * dac.design_std**2 == pytest.approx(config.w_var_dl)


def test_fine_resolution_high_snr_recovers_matched_filter_mean():
    # near-infinite resolution, negligible noise: E[v_k^H G h_k] / M -> 1
    config = _config(m_ul=32, m_dl=32, k_users=4, tau=4, bits=12, rho_bs=1e6)
    report = validate_closed_form(config, trials=20_000, seed=0, direction="ul")
    desired, _ = report.moment_errors["desired_mean"]
    assert desired / 32 == pytest.approx(1.0, rel=0.01)
    assert report.sindr_closed.shape == (4,)


def test_validator_is_deterministic():
    config = _config()
    a = validate_closed_form(config, trials=20_000, seed=3, direction="ul")
    b = validate_closed_form(config, trials=20_000, seed=3, direction="ul")
    assert np.array_equal(a.sindr_empirical, b.sindr_empirical)
    assert np.array_equal(a.sindr_closed, b.sindr_closed)


def test_trials_differ_across_seeds():
    config = _config()
    a = validate_closed_form(config, trials=2_000, seed=1, direction="ul")
    b = validate_closed_form(config, trials=2_000, seed=2, direction="ul")
    assert not np.array_equal(a.sindr_empirical, b.sindr_empirical)
    assert a.moment_errors["desired_mean"] != b.moment_errors["desired_mean"]


def test_validator_agrees_with_closed_forms_at_moderate_resolution():
    config = _config(m_ul=32, m_dl=32)
    reports = validate_closed_form(config, trials=30_000, seed=0, direction="both")
    assert set(reports) == {"ul", "dl"}
    for report in reports.values():
        assert report.passed, report.to_text()
        assert np.all(report.sindr_rel_error < 0.05)


def test_validator_agrees_at_fine_resolution_tight_tolerance():
    config = _config(m_ul=16, m_dl=16, bits=10)
    reports = validate_closed_form(config, trials=20_000, seed=0, tolerance=0.03)
    for report in reports.values():
        assert report.passed, report.to_text()


def test_pilot_phase_residual_is_statistically_zero_in_chain():
    # the pilot-phase ADC input is exactly Gaussian, so the in-chain
    # decomposition residual must vanish within Monte Carlo error
    config = _config(m_ul=32, m_dl=32, bits=2)
    reports = validate_closed_form(config, trials=30_000, seed=1, direction="both")
    for report in reports.values():
        mag, sigma = report.bussgang_residual["ce"]
        assert mag < 3 * sigma, f"ce: |mean d y*| = {mag} vs 3 sigma = {3 * sigma}"
    assert set(reports["ul"].bussgang_residual) == {"ce", "ul"}
    assert set(reports["dl"].bussgang_residual) == {"ce", "dl"}


def test_residuals_vanish_for_gaussian_model_inputs_per_phase():
    # each converter decorrelates its distortion from a Gaussian input at the
    # matched variance; the data-phase inputs are only conditionally Gaussian,
    # so the model-level property is checked with direct Gaussian draws
    from quantmimo.airlink import complex_gaussian
    from quantmimo.bussgang import gain_scalar
    from quantmimo.quant import quantize

    config = _config(m_ul=16, m_dl=16, bits=2)
    adc, _, dac = default_specs(config)
    rng = np.random.default_rng(8)
    for spec, var in ((adc, config.y_var_ul), (dac, config.w_var_dl)):
        y = complex_gaussian(rng, (500_000,), var)
        d = quantize(spec, y) - gain_scalar(spec, var) * y
        ry = d * y.conj()
        sigma = np.std(ry.real) / np.sqrt(y.size)
        assert abs(np.mean(ry)) < 3.5 * sigma


def test_distortion_covariance_off_diagonals_vanish():
    config = _config(m_ul=8, m_dl=8, bits=2)
    report = validate_closed_form(config, trials=30_000, seed=2, direction="ul", track_offdiag=True)
    assert report.offdiag_max < 3 * report.offdiag_sigma


def test_empirical_delta_matches_closed_form():
    config = _config(m_ul=16, m_dl=16, bits=2)
    report = validate_closed_form(config, trials=30_000, seed=4, direction="dl")
    assert report.delta_empirical == pytest.approx(report.delta_closed, rel=0.01)


def test_report_text_is_flat_and_complete():
    config = _config(m_ul=8, m_dl=8)
    report = validate_closed_form(config, trials=10_000, seed=0, direction="ul")
    text = report.to_text()
    for token in ("direction ul", "trials 10000", "passed", "sindr_closed_0", "worst_term"):
        assert token in text


def test_validator_input_checks():
    config = _config()
    with pytest.raises(ValueError):
        validate_closed_form(config, trials=0)
    mismatched = SystemConfig(m_ul=8, m_dl=16, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=1.0)
    with pytest.raises(ValueError):
        validate_closed_form(mismatched, trials=10_000)
