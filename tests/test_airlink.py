"""Tests for channels, pilots, and the quantized-pilot channel estimator."""

import numpy as np
import pytest

from quantmimo.airlink import (
    PilotMatrix,
    complex_gaussian,
    dft_pilots,
    estimate_channel,
    pilot_phase_signal,
)


@pytest.mark.parametrize("tau,k", [(8, 8), (16, 8), (32, 8), (64, 8), (8, 4), (13, 5)])
def test_dft_pilots_are_orthogonal(tau, k):
    pilots = dft_pilots(tau, k)
    gram = pilots.entries.conj().T @ pilots.entries
    assert np.linalg.norm(gram - tau * np.eye(k)) < 1e-9
    assert np.allclose(np.abs(pilots.entries), 1.0)


def test_dft_pilots_reject_short_sequences():
    with pytest.raises(ValueError):
        dft_pilots(4, 8)
    with pytest.raises(ValueError):
        dft_pilots(4, 0)


def test_pilot_matrix_rejects_non_orthogonal_columns():
    bad = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        PilotMatrix(tau=4, k_users=2, entries=bad)
    with pytest.raises(ValueError):
        PilotMatrix(tau=4, k_users=2, entries=np.ones((3, 2), dtype=complex))


def test_complex_gaussian_moments():
    rng = np.random.default_rng(7)
    x = complex_gaussian(rng, (500_000,), complex_variance=3.0)
    assert abs(np.mean(x)) < 0.01
    assert np.mean(np.abs(x) ** 2) == pytest.approx(3.0, rel=0.01)
    # circular symmetry: pseudo-variance vanishes
    assert abs(np.mean(x**2)) < 0.01


def test_estimate_channel_recovers_exactly_without_noise_or_quantization():
    rng = np.random.default_rng(0)
    m, tau, k, rho = 16, 8, 4, 2.0
    pilots = dft_pilots(tau, k)
    h = complex_gaussian(rng, (m, k))
    y = pilot_phase_signal(h, pilots, rho, np.zeros((m, tau)))
    h_hat = estimate_channel(y, pilots, rho)
    assert np.allclose(h_hat, h, atol=1e-12)


def test_estimate_channel_accepts_stacked_vector_input():
    rng = np.random.default_rng(3)
    m, tau, k, rho = 6, 8, 4, 1.5
    pilots = dft_pilots(tau, k)
    h = complex_gaussian(rng, (m, k))
    y = pilot_phase_signal(h, pilots, rho, complex_gaussian(rng, (m, tau)))
    # stacked vector: tau blocks of length m (columns of y)
    stacked = y.T.reshape(-1)
    assert np.allclose(estimate_channel(stacked, pilots, rho), estimate_channel(y, pilots, rho))
    # a batch (n, m, tau) gives the per-item estimates
    batch = pilot_phase_signal(complex_gaussian(rng, (3, m, k)), pilots, rho, complex_gaussian(rng, (3, m, tau)))
    batched = estimate_channel(batch, pilots, rho)
    assert batched.shape == (3, m, k)
    for item, estimate in zip(batch, batched):
        assert np.allclose(estimate, estimate_channel(item, pilots, rho))


def test_estimate_channel_rejects_bad_shapes():
    pilots = dft_pilots(8, 4)
    with pytest.raises(ValueError):
        estimate_channel(np.zeros(13), pilots, 1.0)
    with pytest.raises(ValueError):
        estimate_channel(np.zeros((4, 7)), pilots, 1.0)
    with pytest.raises(ValueError):
        estimate_channel(np.zeros((2, 2, 2)), pilots, 1.0)


def test_estimation_error_variance_matches_linear_model():
    # without quantization the per-entry estimate error variance is 1/(rho*tau)
    rng = np.random.default_rng(11)
    m, tau, k, rho = 4, 8, 4, 2.0
    pilots = dft_pilots(tau, k)
    errs = []
    for _ in range(2000):
        h = complex_gaussian(rng, (m, k))
        y = pilot_phase_signal(h, pilots, rho, complex_gaussian(rng, (m, tau)))
        errs.append(np.abs(estimate_channel(y, pilots, rho) - h) ** 2)
    assert np.mean(errs) == pytest.approx(1.0 / (rho * tau), rel=0.05)
