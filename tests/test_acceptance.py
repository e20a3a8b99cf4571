"""Acceptance suite: end-to-end numerical criteria for the whole package.

Each test prints exactly one PASS/FAIL line (bypassing pytest capture) and
asserts the same condition.  Tolerances and sample counts are part of the
criteria and must not be loosened; a failing criterion stays red.
"""

import sys
import time

import numpy as np
import pytest

from quantmimo.airlink import complex_gaussian, dft_pilots
from quantmimo.bussgang import SystemConfig, gain_scalar
from quantmimo.config import SweepConfig, config_from_dict
from quantmimo.mcsim import default_specs, validate_closed_form
from quantmimo.quant import design_lloyd_max, quantize, rescale_labels
from quantmimo.sweep import run_sweep, write_csv
from quantmimo.syspower import PowerModelParams, antennas_budget, p_adc, p_dac

from oracles import dense_grid_lloyd, mc_gain_regression


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    # lets _report print its one-line verdict past pytest's fd capture
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(number, name, passed, detail=""):
    line = f"CRITERION {number} ({name}): {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    with _CAPTURE.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    assert passed, line


def test_criterion_1_quantizer_matches_dense_grid_oracle():
    start = time.monotonic()
    worst = 0.0
    for bits in (1, 2, 3):
        spec = design_lloyd_max(bits, 1.0)
        t_ref, l_ref = dense_grid_lloyd(bits, 1.0, step=1e-5, span=8.0)
        worst = max(
            worst,
            float(np.max(np.abs(spec.thresholds[1:-1] - t_ref[1:-1]))),
            float(np.max(np.abs(spec.labels - l_ref))),
        )
    one_bit_err = float(np.max(np.abs(design_lloyd_max(1, 1.0).labels - np.array([-1, 1]) * np.sqrt(2 / np.pi))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and one_bit_err < 1e-6 and elapsed < 60.0
    _report(
        1,
        "quantizer vs dense-grid fixed point",
        ok,
        f"max |design - oracle| = {worst:.2e}, 1-bit label error = {one_bit_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gain_matches_regression_and_one_bit_value():
    c = 5.0
    worst_z = 0.0
    for bits in (1, 2, 3, 4):
        spec = rescale_labels(design_lloyd_max(bits, np.sqrt(c / 2.0)), c)
        rng = np.random.default_rng(600 + bits)
        y = complex_gaussian(rng, (1_000_000,), c)
        g_hat, se = mc_gain_regression(lambda v: quantize(spec, v), y)
        worst_z = max(worst_z, abs(g_hat - gain_scalar(spec, c)) / se)
    one_bit = gain_scalar(design_lloyd_max(1, 1.0), 2.0)
    one_bit_err = abs(one_bit - 2.0 / np.pi)
    ok = worst_z < 3.0 and one_bit_err < 1e-3
    _report(
        2,
        "linearization gain vs Monte Carlo regression",
        ok,
        f"worst z-score = {worst_z:.2f}, 1-bit gain error = {one_bit_err:.2e}",
    )


def test_criterion_3_distortion_orthogonal_to_input_per_phase():
    config = SystemConfig(m_ul=32, m_dl=32, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=1.0)
    adc, _, dac = default_specs(config)
    pilots = dft_pilots(config.tau, config.k_users)
    rng = np.random.default_rng(77)
    samples = {}

    # pilot phase: structured Gaussian rows, 125000 x tau = 1e6 entries
    h = complex_gaussian(rng, (125_000, config.k_users))
    z = complex_gaussian(rng, (125_000, config.tau))
    y_ce = np.sqrt(config.rho_bs) * h @ pilots.entries.conj().T + z
    samples["ce"] = (adc, config.y_var_ul, y_ce.ravel())
    # data phases: matched Gaussian model inputs
    samples["ul"] = (adc, config.y_var_ul, complex_gaussian(rng, (1_000_000,), config.y_var_ul))
    samples["dl"] = (dac, config.w_var_dl, complex_gaussian(rng, (1_000_000,), config.w_var_dl))

    details = []
    ok = True
    for phase, (spec, var, y) in samples.items():
        d = quantize(spec, y) - gain_scalar(spec, var) * y
        ry = d * y.conj()
        mag = abs(np.mean(ry))
        sigma = np.sqrt(np.mean(np.abs(ry - np.mean(ry)) ** 2) / y.size)
        ok = ok and mag < 3.0 * sigma
        details.append(f"{phase}: |mean| = {mag:.2e} vs 3se = {3 * sigma:.2e}")
    _report(3, "distortion orthogonality per phase", ok, "; ".join(details))


@pytest.fixture(scope="module")
def oracle_reports():
    reports = {}
    for bits in (1, 2, 3):
        config = SystemConfig(m_ul=32, m_dl=32, k_users=4, tau=8, bits=bits, rho_bs=1.0, rho_ue=1.0)
        trials = 1_000_000 if bits == 1 else 100_000
        reports[bits] = validate_closed_form(config, trials=trials, seed=42, tolerance=0.05)
    return reports


@pytest.mark.slow
def test_criterion_4_closed_forms_match_full_chain_oracle(oracle_reports):
    details = []
    ok = True
    for bits, pair in sorted(oracle_reports.items()):
        for direction in ("ul", "dl"):
            report = pair[direction]
            worst = float(np.max(report.sindr_rel_error))
            ok = ok and report.passed
            details.append(f"b={bits} {direction}: {worst:.3f}")
    _report(4, "closed-form SINDR vs simulation oracle, 5%", ok, "; ".join(details))


@pytest.fixture(scope="module")
def reference_sweep():
    return run_sweep(SweepConfig())  # full default grid, 1e5 trials, seed 12345


@pytest.mark.slow
def test_criterion_5_optimal_resolution_trends(reference_sweep):
    best = {}
    for r in reference_sweep:
        if r.skipped:
            continue
        key = (r.direction, r.tau)
        if key not in best or r.sum_rate_bps > best[key][1]:
            best[key] = (r.b, r.sum_rate_bps)
    expected = {("ul", 8): 2, ("ul", 16): 2, ("ul", 32): 2, ("ul", 64): 2,
                ("dl", 8): 3, ("dl", 16): 2, ("dl", 32): 2, ("dl", 64): 2}
    mismatches = [
        f"{d} tau={t}: argmax b = {best[(d, t)][0]}, expected {e}"
        for (d, t), e in sorted(expected.items())
        if best[(d, t)][0] != e
    ]
    _report(
        5,
        "rate-optimal resolution trends at reference scale",
        not mismatches,
        "; ".join(mismatches) if mismatches else "all argmax values as expected",
    )


def test_criterion_6_antenna_budget_reference_point_and_monotonicity():
    params = PowerModelParams()
    details = []
    ok = True
    for direction, conv in (("ul", p_adc), ("dl", p_dac)):
        p_rf = params.p_rf_ul if direction == "ul" else params.p_rf_dl
        p_hw = 10 * (p_rf + 2 * conv(10, 1e8, params))
        at_ref = antennas_budget(p_hw, p_rf, conv(10, 1e8, params))
        counts = [antennas_budget(p_hw, p_rf, conv(b, 1e8, params)) for b in range(1, 13)]
        mono = all(a >= b for a, b in zip(counts, counts[1:]))
        ok = ok and at_ref == 10 and mono
        details.append(f"{direction}: M(10 bit) = {at_ref}, non-increasing = {mono}")
    _report(6, "hardware envelope antenna budget", ok, "; ".join(details))


def test_criterion_7_rescaled_output_variance_matches_target():
    config = SystemConfig(m_ul=32, m_dl=32, k_users=4, tau=8, bits=1, rho_bs=1.0, rho_ue=1.0)
    rng = np.random.default_rng(31)
    worst = 0.0
    for bits in (1, 2, 3, 4):
        for target in (config.y_var_ul, config.w_var_dl):
            spec = rescale_labels(design_lloyd_max(bits, np.sqrt(target / 2.0)), target)
            y = complex_gaussian(rng, (1_000_000,), target)
            emp = np.mean(np.abs(quantize(spec, y)) ** 2)
            worst = max(worst, abs(emp - target) / target)
    _report(7, "variance-matched converter output power, 0.5%", worst < 0.005, f"worst relative error = {worst:.2e}")


def test_criterion_8_pilot_orthogonality_over_sweep_grid():
    config = SweepConfig()
    worst = 0.0
    for tau in config.tau:
        pilots = dft_pilots(tau, config.k_users)
        gram = pilots.entries.conj().T @ pilots.entries
        worst = max(worst, float(np.linalg.norm(gram - tau * np.eye(config.k_users))))
    _report(8, "pilot orthogonality over the sweep grid", worst < 1e-9, f"worst Frobenius defect = {worst:.2e}")


@pytest.mark.slow
def test_criterion_9_sweep_is_byte_deterministic(tmp_path):
    config = config_from_dict({"trials": 10_000})  # default grid, reduced depth
    paths = []
    for run in (1, 2):
        records = run_sweep(config)
        path = tmp_path / f"run{run}.csv"
        write_csv(records, path)
        paths.append(path.read_bytes())
    identical = paths[0] == paths[1]
    _report(9, "byte-identical repeated sweep", identical, f"{len(paths[0])} bytes compared")
