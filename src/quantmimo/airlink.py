"""Channels, pilots, and the quantized-pilot channel estimator.

Pilot-phase signals are M x tau matrices: column t is the receive vector of
pilot symbol t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# float64 draws written per pass in complex_gaussian (512 KB)
_DRAW_BUFFER = 1 << 16


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


def complex_gaussian(rng, shape, complex_variance=1.0, out=None):
    """Circularly symmetric complex Gaussian samples, variance per entry.

    All real parts are drawn before all imaginary parts.  The draws go
    through one cache-sized buffer and are scaled on their way into the
    result, so no full-size temporary is made; the values and the
    generator's final state are those of
    scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).
    The result is written into out when it is given.
    """
    scale = np.sqrt(complex_variance / 2.0)
    z = _checked_out(out, shape)
    flat = z.reshape(-1)
    buf = np.empty(min(flat.size, _DRAW_BUFFER))
    for part in (flat.real, flat.imag):
        for start in range(0, flat.size, _DRAW_BUFFER):
            draws = buf[: min(_DRAW_BUFFER, flat.size - start)]
            rng.standard_normal(out=draws)
            np.multiply(draws, scale, out=part[start : start + draws.size])
    return z


def pilot_phase_signal(channel, pilots, rho_bs, noise, out=None):
    """ADC input during the pilot phase: sqrt(rho) * H @ conj(P).T plus noise.

    H is M x K (or a batch ..., M, K); the result is M x tau (..., M, tau).
    A batch goes through one 2-D product of all its rows, not one product
    per matrix, formed in the result, which is out when it is given; out
    must not overlap the noise.
    """
    scaled = np.sqrt(rho_bs) * channel
    y = _checked_out(out, (*scaled.shape[:-1], pilots.tau), noise)
    np.matmul(scaled.reshape(-1, scaled.shape[-1]), pilots.entries.conj().T, out=y.reshape(-1, pilots.tau))
    y += noise
    return y


def estimate_channel(rce, pilots, rho_bs, out=None):
    """Channel estimate from the quantized pilot-phase output.

    rce is an M x tau matrix or a batch of them (..., M, tau).  Returns
    M x K (batched: ..., M, K, from one 2-D product of all rows), written
    into out when it is given; collapses to the exact channel when
    quantization and noise are absent, by pilot orthogonality.
    """
    rce = np.asarray(rce)
    tau, k = pilots.tau, pilots.k_users
    if rce.ndim < 2 or rce.shape[-1] != tau:
        raise ValueError(f"receive matrix must have tau={tau} columns, got {rce.shape}")
    h_hat = _checked_out(out, (*rce.shape[:-1], k))
    np.matmul(rce.reshape(-1, tau), pilots.entries, out=h_hat.reshape(-1, k))
    h_hat /= np.sqrt(rho_bs) * tau
    return h_hat


def _checked_out(out, shape, *inputs):
    """A new complex128 array of shape, or out once it is checked to be one.

    out must be C-contiguous, so that its flat and reshaped views write
    into it rather than into a copy, and must not overlap the inputs, which
    its function still reads after it has begun to write.
    """
    if out is None:
        return np.empty(shape, dtype=complex)
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        got = type(out).__name__
        if isinstance(out, np.ndarray):
            got = f"{'' if out.flags.c_contiguous else 'non-contiguous '}{out.dtype} array of shape {out.shape}"
        raise ValueError(f"out must be a C-contiguous complex128 array of shape {shape}, got {got}")
    if any(np.may_share_memory(out, x) for x in inputs):
        raise ValueError("out must not overlap an input")
    return out
