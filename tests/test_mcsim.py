"""Tests for the full-chain Monte Carlo validator."""

import tracemalloc

import numpy as np
import pytest

from quantmimo import bussgang, mcsim, rates
from quantmimo.airlink import complex_gaussian, dft_pilots
from quantmimo.bussgang import PHASE_ORACLE, SystemConfig, assemble_stats, chunk_rng
from quantmimo.mcsim import default_specs, validate_closed_form

from oracles import einsum_downlink_chunk, einsum_uplink_chunk


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
    report = validate_closed_form(config, trials=20_000, seed=0, direction="ul")["ul"]
    desired, _ = report.moment_errors["desired_mean"]
    assert desired / 32 == pytest.approx(1.0, rel=0.01)
    assert report.sindr_closed.shape == (4,)


def test_validator_is_deterministic():
    config = _config()
    a = validate_closed_form(config, trials=20_000, seed=3, direction="ul")["ul"]
    b = validate_closed_form(config, trials=20_000, seed=3, direction="ul")["ul"]
    assert np.array_equal(a.sindr_empirical, b.sindr_empirical)
    assert np.array_equal(a.sindr_closed, b.sindr_closed)


def test_trials_differ_across_seeds():
    config = _config()
    a = validate_closed_form(config, trials=2_000, seed=1, direction="ul")["ul"]
    b = validate_closed_form(config, trials=2_000, seed=2, direction="ul")["ul"]
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
    report = validate_closed_form(config, trials=30_000, seed=2, direction="ul", track_offdiag=True)["ul"]
    assert report.offdiag_max < 3 * report.offdiag_sigma


def test_empirical_delta_matches_closed_form():
    config = _config(m_ul=16, m_dl=16, bits=2)
    report = validate_closed_form(config, trials=30_000, seed=4, direction="dl")["dl"]
    assert report.delta_empirical == pytest.approx(report.delta_closed, rel=0.01)


# A drift alarm, not a bound the closed form meets: on the README library
# example the closed-form distortion terms miss the oracle's.  Over seeds
# 1-10 at 4e4 trials the relative error of the uplink E[v^H C_d v] was 0.317
# (SD 0.003) at b = 1 and 0.631 (SD 0.013) at b = 3, and that of the
# downlink m*cd_dl against E||d||^2 was 0.0109 (SD 0.0008) at b = 1 and
# 0.1842 (SD 0.0045) at b = 3; each band is 4 SD on either side.
@pytest.mark.parametrize(
    "direction,bits,error,band",
    [("ul", 1, 0.317, 0.013), ("ul", 3, 0.631, 0.053), ("dl", 1, 0.0109, 0.0032), ("dl", 3, 0.1842, 0.018)],
)
def test_uplink_distortion_moment_error_stays_where_measured(direction, bits, error, band):
    config = _config(m_ul=32, m_dl=32, bits=bits)
    report = validate_closed_form(config, trials=40_000, seed=1, direction=direction)[direction]
    _, rel_error = report.moment_errors["distortion_power"]
    assert rel_error == pytest.approx(error, abs=band)


MOMENT_NAMES = {
    "ul": {"desired_mean", "cross_power", "self_power", "combiner_power", "distortion_power"},
    "dl": {"desired_mean", "cross_power", "self_power", "distortion_power", "precoder_frobenius", "precoder_diag"},
}


@pytest.mark.parametrize("direction", ["ul", "dl"])
def test_report_text_is_flat_and_complete(direction):
    config = _config(m_ul=8, m_dl=8)
    reports = validate_closed_form(config, trials=10_000, seed=0, direction=direction)
    assert set(reports) == {direction}
    report = reports[direction]
    assert set(report.moment_errors) == MOMENT_NAMES[direction]
    text = report.to_text()
    for token in (f"direction {direction}", "trials 10000", "passed", "sindr_closed_0", "delta_closed", "worst_term"):
        assert token in text
    for name in MOMENT_NAMES[direction]:
        assert f"moment_{name} " in text


def test_validator_input_checks():
    config = _config()
    with pytest.raises(ValueError):
        validate_closed_form(config, trials=0)
    mismatched = SystemConfig(m_ul=8, m_dl=16, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=1.0)
    with pytest.raises(ValueError):
        validate_closed_form(mismatched, trials=10_000)


def _oracle_inputs(config):
    specs = default_specs(config)
    stats = assemble_stats(config, *specs, trials=10_000, seed=1)
    delta = rates.mrt_normalization(
        rates.SindrInputsDL(config.m_dl, config.k_users, config.tau, config.rho_bs, config.rho_ue, stats)
    )
    return specs, stats, delta


def test_chunk_kernels_match_einsum_reference(monkeypatch):
    # the block kernels, summed over three full blocks and a ragged one, give
    # the plain whole-chunk sums
    config = _config(m_ul=10, m_dl=10, k_users=3, tau=5, bits=2)
    monkeypatch.setattr(bussgang, "_BLOCK_ENTRIES", 600 * config.m_ul * config.tau)  # 600 trials a block
    specs, stats, delta = _oracle_inputs(config)
    pilots = dft_pilots(config.tau, config.k_users)
    size, m, k = 2_000, config.m_ul, config.k_users

    rng = chunk_rng(5, PHASE_ORACLE, 0)
    blocked = mcsim._chunk_sums(config, specs, stats, delta, pilots, rng, size, True, ("ul", "dl"))
    assert len(blocked["ce"]) == len(blocked["ul"]) == len(blocked["dl"]) == 4

    ref_rng = chunk_rng(5, PHASE_ORACLE, 0)
    h = complex_gaussian(ref_rng, (size, m, k))
    noise = complex_gaussian(ref_rng, (size, m, config.tau))
    h_hat, ce = mcsim._pilot_phase(config.rho_bs, specs[0], stats.g_ce, pilots, h, noise)
    ref = {
        "ce": ce,
        "ul": einsum_uplink_chunk(config.rho_bs, specs[1], stats.g_ul, h, h_hat, ref_rng, True),
        "dl": einsum_downlink_chunk(specs[2], stats.g_dl, delta, h, h_hat, ref_rng),
    }
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for phase, want in ref.items():
        got = mcsim._totals(blocked[phase])
        assert got.keys() == want.keys(), phase
        for name in want:
            assert np.shape(got[name]) == np.shape(want[name]), (phase, name)
            assert np.allclose(got[name], want[name], rtol=1e-12, atol=0), (phase, name)


def _assert_reports_match(got, want):
    """Every report field within 1e-12 relative, and the same verdict.

    Relative errors are differences of nearly equal numbers, so they are
    compared to 1e-12 absolute: a 1e-12 relative change of the empirical
    value moves them by about that much.
    """
    assert got.passed == want.passed
    assert np.allclose(got.sindr_closed, want.sindr_closed, rtol=1e-12, atol=0)
    assert np.allclose(got.sindr_empirical, want.sindr_empirical, rtol=1e-12, atol=0)
    assert np.allclose(got.sindr_rel_error, want.sindr_rel_error, rtol=0, atol=1e-12)
    assert got.moment_errors.keys() == want.moment_errors.keys()
    for name, (value, error) in want.moment_errors.items():
        assert got.moment_errors[name][0] == pytest.approx(value, rel=1e-12, abs=0), name
        assert got.moment_errors[name][1] == pytest.approx(error, rel=0, abs=1e-12), name
    assert got.bussgang_residual.keys() == want.bussgang_residual.keys()
    for phase, (mag, sigma) in want.bussgang_residual.items():
        # the residual mean is zero up to sampling noise of size sigma
        assert got.bussgang_residual[phase][0] == pytest.approx(mag, rel=0, abs=1e-12 * sigma), phase
        assert got.bussgang_residual[phase][1] == pytest.approx(sigma, rel=1e-12, abs=0), phase
    for name in ("offdiag_max", "offdiag_sigma", "delta_closed", "delta_empirical"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0), name


def test_block_size_does_not_change_the_oracle(monkeypatch):
    config = _config(m_ul=8, m_dl=8, k_users=3, tau=5, bits=2)
    specs, stats, _ = _oracle_inputs(config)
    trials = bussgang._CHUNK_TRIALS + 1_500  # two chunks

    def run(block_trials):
        monkeypatch.setattr(bussgang, "_BLOCK_ENTRIES", block_trials * config.m_ul * config.tau)
        return validate_closed_form(config, trials=trials, seed=6, specs=specs, stats=stats, track_offdiag=True)

    blocked, whole = run(700), run(bussgang._CHUNK_TRIALS)  # 700 leaves a ragged last block
    for direction in ("ul", "dl"):
        _assert_reports_match(blocked[direction], whole[direction])


def test_peak_memory_of_a_chunk_stays_near_its_draws():
    # one chunk at the criterion-4 scenario: the blocks add little to the
    # chunk's Gaussian draws, which are the only chunk-sized arrays
    config = SystemConfig(m_ul=32, m_dl=32, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=1.0)
    specs, stats, _ = _oracle_inputs(config)
    size, m, k = bussgang._CHUNK_TRIALS, config.m_ul, config.k_users
    draws_bytes = 16 * size * (m * k + m * config.tau + k + m + k)
    tracemalloc.start()
    try:
        validate_closed_form(config, trials=size, seed=1, specs=specs, stats=stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * draws_bytes, f"peak {peak / 1e6:.1f} MB, draws {draws_bytes / 1e6:.1f} MB"


def test_oracle_chunks_keep_each_draw_within_a_gib(monkeypatch):
    # the oracle sizes its chunks by its widest draw, the pilot noise of m*tau
    # entries a trial
    rows = []
    real_chunks = mcsim._chunks
    monkeypatch.setattr(mcsim, "_chunks", lambda trials, row: rows.append(row) or real_chunks(trials, row))
    config = _config(m_ul=6, m_dl=6, k_users=2, tau=3, bits=1)
    specs, stats, _ = _oracle_inputs(config)
    validate_closed_form(config, trials=2_000, seed=1, specs=specs, stats=stats)
    assert rows == [6 * 3]
    # the default grid's widest validated point (ul b=1, tau=64, m=176, K=8)
    # would draw 2.95 GB of pilot noise (3.3 GB with h) in one 16384-trial chunk
    trials, m, tau = 100_000, 176, 64
    sizes = [size for _, size in bussgang._chunks(trials, m * tau)]
    assert sum(sizes) == trials
    assert 16 * max(sizes) * m * tau <= 1 << 30
    assert 16 * (max(sizes) + 1) * m * tau > 1 << 30
    # the criterion-4 scenario (m 32, tau 8) keeps full chunks, and with them its random stream
    sizes = [size for _, size in bussgang._chunks(trials, 32 * 8)]
    assert sizes == [bussgang._CHUNK_TRIALS] * 6 + [trials - 6 * bussgang._CHUNK_TRIALS]
