"""Channels, pilots, and the quantized-pilot channel estimator.

vec/unvec convention is column-major throughout: vec(H) stacks the columns
of H, and the length-M*tau pilot-phase vectors are tau blocks of length M
(block t corresponds to pilot symbol t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PilotMatrix:
    """tau x K orthogonal pilot matrix with unit-modulus entries."""

    tau: int
    k_users: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.tau, self.k_users):
            raise ValueError(f"pilot matrix must be {self.tau}x{self.k_users}, got {entries.shape}")
        gram = entries.conj().T @ entries
        if np.linalg.norm(gram - self.tau * np.eye(self.k_users)) > 1e-9:
            raise ValueError("pilot columns are not orthogonal with norm tau")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def dft_pilots(tau, k_users):
    """First k_users columns of the tau-point DFT matrix."""
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    if tau < k_users:
        raise ValueError(f"pilot length tau={tau} must be >= k_users={k_users}")
    t = np.arange(tau)[:, None]
    k = np.arange(k_users)[None, :]
    entries = np.exp(-2j * np.pi * t * k / tau)
    return PilotMatrix(tau=tau, k_users=k_users, entries=entries)


def complex_gaussian(rng, shape, complex_variance=1.0):
    """Circularly symmetric complex Gaussian samples, variance per entry."""
    scale = np.sqrt(complex_variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def pilot_phase_signal(channel, pilots, rho_bs, noise):
    """ADC input during the pilot phase, as an M x tau matrix.

    Column t is block t of the stacked length-M*tau receive vector:
    sqrt(rho) * H @ conj(P).T plus noise.
    """
    return np.sqrt(rho_bs) * channel @ pilots.entries.conj().T + noise


def estimate_channel(rce, pilots, rho_bs):
    """Channel estimate from the quantized pilot-phase output.

    rce is either the stacked length-M*tau vector (tau blocks of length M),
    the equivalent M x tau matrix, or a batch of such matrices (..., M, tau).
    Returns M x K (batched: ..., M, K); collapses to the exact channel when
    quantization and noise are absent, by pilot orthogonality.
    """
    rce = np.asarray(rce)
    tau = pilots.tau
    if rce.ndim == 1:
        if rce.size % tau != 0:
            raise ValueError(f"receive vector length {rce.size} is not a multiple of tau={tau}")
        rce = rce.reshape(tau, -1).T
    elif rce.ndim == 0 or rce.shape[-1] != tau:
        raise ValueError(f"receive matrix must have tau={tau} columns, got {rce.shape}")
    return rce @ pilots.entries / (np.sqrt(rho_bs) * tau)
