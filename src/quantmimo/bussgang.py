"""Bussgang gains and Monte Carlo estimates of quantization-distortion moments.

For i.i.d. Rayleigh channels every input covariance seen by a converter is a
scaled identity, so the Bussgang matrix collapses to a scalar gain and the
distortion covariances to per-entry powers.  The pilot-phase distortion is
correlated across pilot symbols, so its pilot projections (A_k, B_k) are
estimated by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from quantmimo.airlink import complex_gaussian, dft_pilots
from quantmimo.quant import quantize
from quantmimo.syspower import by_direction

DEFAULT_TRIALS = 100_000
PAPER_TRIALS = 1_000_000  # matches the converter-distortion Monte Carlo scale
MIN_TRIALS = 10_000

# phase tags for seed derivation; one independent stream per (phase, chunk)
PHASE_CE = 0
PHASE_UL = 1
PHASE_DL = 2
PHASE_ORACLE = 3  # the full-chain validator, apart from the estimates it checks

_CHUNK_TRIALS = 1 << 14


def chunk_rng(seed, phase, chunk):
    """Deterministic per-(phase, chunk) generator, independent of run order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(phase, chunk)))


def _chunks(trials):
    start = 0
    chunk = 0
    while start < trials:
        size = min(_CHUNK_TRIALS, trials - start)
        yield chunk, size
        start += size
        chunk += 1


@dataclass(frozen=True)
class SystemConfig:
    """Scenario scalars shared by the stats, rates, and simulator modules."""

    m_ul: int
    m_dl: int
    k_users: int
    tau: int
    bits: int
    rho_bs: float
    rho_ue: float
    bandwidth_hz: float = 1e8

    def __post_init__(self):
        if min(self.m_ul, self.m_dl, self.k_users) < 1:
            raise ValueError("antenna and user counts must be >= 1")
        if self.tau < self.k_users:
            raise ValueError(f"tau={self.tau} must be >= k_users={self.k_users}")
        if self.rho_bs <= 0 or self.rho_ue <= 0:
            raise ValueError("SNRs must be positive (linear scale)")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def y_var_ul(self):
        """Per-entry complex variance of the BS receive signal."""
        return self.rho_bs * self.k_users + 1.0

    @property
    def w_var_dl(self):
        """Per-entry complex variance of the precoded DAC input."""
        return 1.0 / self.m_dl

    def m(self, direction):
        return by_direction(direction, self.m_ul, self.m_dl)


@dataclass(frozen=True)
class BussgangStats:
    """Scalar gains and distortion second moments for one scenario."""

    g_ce: float
    g_ul: float
    g_dl: float
    trace_cd_ul: float
    trace_cd_dl: float
    a_k: np.ndarray
    b_k: np.ndarray
    delta: float
    y_var_ul: float
    w_var_dl: float
    m_ul: int
    m_dl: int
    trials: int
    seed: int

    def __post_init__(self):
        for name in ("g_ce", "g_ul", "g_dl"):
            g = getattr(self, name)
            # variance-matched labels give g <= 1; arbitrary label scalings
            # (legal for consistency checks) only require a positive gain
            if not (np.isfinite(g) and g > 0.0):
                raise ValueError(f"{name}={g} must be positive and finite")
        if self.trace_cd_ul < 0 or self.trace_cd_dl < 0:
            raise ValueError("distortion traces must be non-negative")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not (np.all(np.isfinite(self.a_k)) and np.all(np.isfinite(self.b_k))):
            raise ValueError("a_k/b_k must be finite")

    @property
    def cd_ul_per_entry(self):
        return self.trace_cd_ul / self.m_ul

    @property
    def cd_dl_per_entry(self):
        return self.trace_cd_dl / self.m_dl

    def a_k_at(self, m):
        """A_k scales linearly in the antenna count (i.i.d. antenna rows)."""
        return self.a_k * (m / self.m_ul)


def gain_scalar(spec, complex_variance):
    """Bussgang gain of the quantizer for a CN(0, c) input per entry.

    (pi c)^(-1/2) * sum_n l_n (exp(-t_n^2/c) - exp(-t_{n+1}^2/c)), with the
    boundary terms exp(-inf) = 0.
    """
    c = float(complex_variance)
    if c <= 0:
        raise ValueError("complex_variance must be positive")
    t = spec.thresholds
    expterm = np.zeros_like(t)
    finite = np.isfinite(t)
    expterm[finite] = np.exp(-t[finite] ** 2 / c)
    return float(np.sum(spec.labels * (expterm[:-1] - expterm[1:])) / np.sqrt(np.pi * c))


def distortion_trace(spec, complex_variance, dim, trials, seed):
    """Monte Carlo estimate of tr(C_d) for a dim-long i.i.d. CN(0, c) input.

    d = Q(y) - G*y with the matched scalar gain; entries are i.i.d. so the
    trace is dim times the per-entry distortion power.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials={trials} too small, need >= {MIN_TRIALS}")
    gain = gain_scalar(spec, complex_variance)
    chunk_sums = []
    for chunk, size in _chunks(trials):
        rng = chunk_rng(seed, PHASE_UL, chunk)
        y = complex_gaussian(rng, (size, dim), complex_variance)
        d = quantize(spec, y) - gain * y
        chunk_sums.append(float(np.sum(np.abs(d) ** 2)))
    return dim * math.fsum(chunk_sums) / (trials * dim)


def ce_distortion_projections(spec, pilots, m, rho_bs, cd_ul_per_entry, trials, seed):
    """Pilot projections of the pilot-phase distortion covariance.

    A_k = E[||P_k^T d_ce||^2] and B_k = cd_ul_per_entry * A_k (the uplink
    data-phase distortion covariance is a scaled identity under i.i.d.
    antennas).  Antenna rows of the pilot-phase signal are i.i.d., so the
    simulation draws single rows and scales A_k by m; the M*tau covariance is
    never materialized.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials={trials} too small, need >= {MIN_TRIALS}")
    k = pilots.k_users
    expected_var = rho_bs * k + 1.0
    if abs(2.0 * spec.design_std**2 - expected_var) > 1e-6 * expected_var:
        raise ValueError(
            f"quantizer designed for complex variance {2 * spec.design_std**2:.6g}, "
            f"pilot phase requires {expected_var:.6g}"
        )
    gain = gain_scalar(spec, expected_var)
    p_conj = pilots.entries.conj()
    chunk_sums = []
    for chunk, size in _chunks(trials):
        rng = chunk_rng(seed, PHASE_CE, chunk)
        h = complex_gaussian(rng, (size, k))
        z = complex_gaussian(rng, (size, pilots.tau))
        y = np.sqrt(rho_bs) * h @ p_conj.T + z
        d = quantize(spec, y) - gain * y
        u = d @ pilots.entries
        chunk_sums.append(np.sum(np.abs(u) ** 2, axis=0))
    totals = np.array([math.fsum(s[i] for s in chunk_sums) for i in range(k)])
    a_k = m * totals / trials
    b_k = cd_ul_per_entry * a_k
    return a_k, b_k


def ce_distortion_projections_direct(spec_ce, spec_ul, pilots, m, rho_bs, trials, seed):
    """Direct A_k/B_k estimator with full antenna arrays and no identity shortcut.

    Draws independent pilot-phase and data-phase distortion samples and
    estimates B_k = E[|d_ul^H (P_k^T d_ce)|^2].  The data-phase ADC input is
    drawn from the matched Gaussian model (the same per-entry law the scalar
    distortion powers are defined under).  Validation path only; slower than
    ce_distortion_projections by a factor of m.
    """
    k = pilots.k_users
    y_var = rho_bs * k + 1.0
    g_ce = gain_scalar(spec_ce, y_var)
    g_ul = gain_scalar(spec_ul, y_var)
    p_conj = pilots.entries.conj()
    a_sums, b_sums = [], []
    for chunk, size in _chunks(trials):
        rng = chunk_rng(seed, PHASE_CE, chunk)
        h = complex_gaussian(rng, (size, m, k))
        z_ce = complex_gaussian(rng, (size, m, pilots.tau))
        y_ce = np.sqrt(rho_bs) * h @ p_conj.T + z_ce
        d_ce = quantize(spec_ce, y_ce) - g_ce * y_ce
        u = np.einsum("cmt,tk->cmk", d_ce, pilots.entries)
        y_ul = complex_gaussian(rng, (size, m), y_var)
        d_ul = quantize(spec_ul, y_ul) - g_ul * y_ul
        a_sums.append(np.sum(np.abs(u) ** 2, axis=(0, 1)))
        b_sums.append(np.sum(np.abs(np.einsum("cm,cmk->ck", d_ul.conj(), u)) ** 2, axis=0))
    a_k = np.array([math.fsum(s[i] for s in a_sums) for i in range(k)]) / trials
    b_k = np.array([math.fsum(s[i] for s in b_sums) for i in range(k)]) / trials
    return a_k, b_k


def assemble_stats(config, spec_ce, spec_ul, spec_dl, trials=DEFAULT_TRIALS, seed=0, pilots=None):
    """Bundle all gains and distortion moments needed by the rate formulas."""
    if pilots is None:
        pilots = dft_pilots(config.tau, config.k_users)
    y_var = config.y_var_ul
    w_var = config.w_var_dl
    g_ce = gain_scalar(spec_ce, y_var)
    g_ul = gain_scalar(spec_ul, y_var)
    g_dl = gain_scalar(spec_dl, w_var)
    trace_cd_ul = distortion_trace(spec_ul, y_var, config.m_ul, trials, seed)
    trace_cd_dl = distortion_trace(spec_dl, w_var, config.m_dl, trials, np.random.SeedSequence(seed, spawn_key=(PHASE_DL,)).generate_state(1)[0])
    a_k, b_k = ce_distortion_projections(
        spec_ce, pilots, config.m_ul, config.rho_bs, trace_cd_ul / config.m_ul, trials, seed
    )
    rho_tau = config.rho_bs * config.tau
    a_k_dl = a_k * (config.m_dl / config.m_ul)
    delta = (
        config.k_users * (1.0 + 1.0 / rho_tau) * g_ce**2 * config.m_dl
        + np.sum(a_k_dl) / (config.rho_bs * config.tau**2)
    )
    return BussgangStats(
        g_ce=g_ce,
        g_ul=g_ul,
        g_dl=g_dl,
        trace_cd_ul=trace_cd_ul,
        trace_cd_dl=trace_cd_dl,
        a_k=a_k,
        b_k=b_k,
        delta=float(delta),
        y_var_ul=y_var,
        w_var_dl=w_var,
        m_ul=config.m_ul,
        m_dl=config.m_dl,
        trials=trials,
        seed=seed,
    )
