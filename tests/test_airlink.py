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

from oracles import two_array_complex_gaussian


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


# one shape per form the library draws: 1-D test samples, (trials, K),
# (trials, m), (trials, tau), (trials, m, K), (trials, m, tau); the last two
# hold more entries than one pass of the draw buffer
@pytest.mark.parametrize("shape", [(5,), (2000, 8), (1000, 176), (700, 64), (600, 32, 4), (300, 32, 8)])
@pytest.mark.parametrize("complex_variance", [1 / 176, 1.0, 1008.0])
def test_complex_gaussian_is_bit_identical_to_two_array_reference(shape, complex_variance):
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    got = complex_gaussian(rng, shape, complex_variance)
    want = two_array_complex_gaussian(ref_rng, shape, complex_variance)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_out_gives_the_allocating_call_values():
    m, tau, k, rho = 6, 8, 4, 1.5
    pilots = dft_pilots(tau, k)
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    shape = (300, 32, 8)  # more entries than one pass of the draw buffer
    out = np.full(shape, np.nan, dtype=complex)
    got = complex_gaussian(rng, shape, 3.0, out=out)
    assert got is out and got.tobytes() == complex_gaussian(ref_rng, shape, 3.0).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    h, noise = complex_gaussian(rng, (3, m, k)), complex_gaussian(rng, (3, m, tau))
    want = pilot_phase_signal(h, pilots, rho, noise)
    out = np.full(want.shape, np.nan, dtype=complex)
    assert pilot_phase_signal(h, pilots, rho, noise, out=out) is out
    assert out.tobytes() == want.tobytes()

    for y in (want, want[0]):  # a batch and one receive matrix
        want_h = estimate_channel(y, pilots, rho)
        out = np.full(want_h.shape, np.nan, dtype=complex)
        assert estimate_channel(y, pilots, rho, out=out) is out
        assert out.tobytes() == want_h.tobytes()


def test_out_of_the_wrong_kind_is_rejected():
    # a strided out would be filled through a copy made by its flat or
    # reshaped view, so the caller's array would be left unfilled
    m, tau, k = 6, 8, 4
    pilots = dft_pilots(tau, k)
    rng = np.random.default_rng(2)
    h, noise = complex_gaussian(rng, (3, m, k)), complex_gaussian(rng, (3, m, tau))
    calls = [
        ((3, m, k), lambda out: complex_gaussian(rng, (3, m, k), out=out)),
        ((3, m, tau), lambda out: pilot_phase_signal(h, pilots, 1.0, noise, out=out)),
        ((3, m, k), lambda out: estimate_channel(noise, pilots, 1.0, out=out)),
    ]
    for shape, call in calls:
        wide = (*shape[:-1], 2 * shape[-1])
        for out in (
            np.empty(shape[1:], dtype=complex),
            np.empty(shape, dtype=np.complex64),
            np.empty(shape),
            np.empty(wide, dtype=complex)[..., ::2],
            np.empty(shape, dtype=complex, order="F"),
        ):
            with pytest.raises(ValueError, match="out must"):
                call(out)
    with pytest.raises(ValueError, match="overlap"):  # the noise is still read after the product is formed
        pilot_phase_signal(h, pilots, 1.0, noise, out=noise)


def test_estimate_channel_recovers_exactly_without_noise_or_quantization():
    rng = np.random.default_rng(0)
    m, tau, k, rho = 16, 8, 4, 2.0
    pilots = dft_pilots(tau, k)
    h = complex_gaussian(rng, (m, k))
    y = pilot_phase_signal(h, pilots, rho, np.zeros((m, tau)))
    h_hat = estimate_channel(y, pilots, rho)
    assert np.allclose(h_hat, h, atol=1e-12)


def test_estimate_channel_accepts_a_batch():
    rng = np.random.default_rng(3)
    m, tau, k, rho = 6, 8, 4, 1.5
    pilots = dft_pilots(tau, k)
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
    # a stacked vector is not a receive matrix, even at a multiple of tau
    with pytest.raises(ValueError):
        estimate_channel(np.zeros(16), pilots, 1.0)
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
