"""Bussgang gains and Monte Carlo estimates of quantization-distortion moments.

For i.i.d. Rayleigh channels every input covariance seen by a converter is a
scaled identity, so the Bussgang matrix collapses to a scalar gain and the
distortion covariances to per-entry powers.  The pilot-phase distortion is
correlated across pilot symbols, so its pilot projections A_k are estimated
by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quantmimo.airlink import complex_gaussian, dft_pilots, pilot_phase_signal
from quantmimo.quant import quantize

DEFAULT_TRIALS = 100_000
MIN_TRIALS = 10_000

# phase tags for seed derivation; one independent stream per (phase, chunk)
PHASE_CE = 0
PHASE_UL = 1
PHASE_DL = 2
PHASE_ORACLE = 3  # the full-chain validator, apart from the estimates it checks

_CHUNK_TRIALS = 1 << 14
# the most bytes one Gaussian draw of a chunk may take, 16 bytes an entry
_MAX_DRAW_BYTES = 1 << 30
# the most antennas and pilot symbols a point may have: distortion_trace
# draws a (size, m) and ce_distortion_projections a (size, tau) complex
# array at once, and up to these counts a chunk keeps _CHUNK_TRIALS trials
MAX_ANTENNAS = MAX_PILOT_LENGTH = _MAX_DRAW_BYTES // (16 * _CHUNK_TRIALS)
# entries of the widest per-trial array worked through at once within a
# chunk: 1 MB of complex entries, so that a block's arrays stay in a 2 MB
# L2 cache.  The oracle in mcsim draws each such block from its own
# generator, so this also sets the oracle's random stream
_BLOCK_ENTRIES = 1 << 16


def chunk_rng(seed, phase, chunk):
    """Deterministic per-(phase, chunk) generator, independent of run order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(phase, chunk)))


def _chunks(trials, row_entries):
    """(chunk index, trials in it) of chunks that cover trials, in order.

    A chunk holds _CHUNK_TRIALS trials, or fewer where its widest draw, of
    row_entries complex entries per trial, would pass _MAX_DRAW_BYTES; at
    least one.
    """
    step = max(1, min(_CHUNK_TRIALS, _MAX_DRAW_BYTES // (16 * row_entries)))
    start = 0
    chunk = 0
    while start < trials:
        size = min(step, trials - start)
        yield chunk, size
        start += size
        chunk += 1


def _blocks(size, row_entries):
    """Slices of whole trials that cover a chunk of size trials, in order.

    A block holds at most _BLOCK_ENTRIES entries of the widest per-trial
    array, which has row_entries entries per trial, and at least one trial.
    """
    step = max(1, _BLOCK_ENTRIES // row_entries)
    return [slice(start, min(start + step, size)) for start in range(0, size, step)]


def _fsum_chunks(parts):
    """Element-wise total of per-block sums, exactly rounded by math.fsum.

    Blocks are combined in chunk and block order, so the total does not
    depend on how the chunks were scheduled.  parts is a list of equal-shape
    sums, or an array of them stacked along its first axis, which is summed
    without a copy.
    """
    parts = np.asarray(parts)
    flat = parts.reshape(len(parts), -1).T
    if np.iscomplexobj(flat):
        out = np.array([complex(math.fsum(col.real), math.fsum(col.imag)) for col in flat])
    else:
        out = np.array([math.fsum(col) for col in flat])
    return out.reshape(parts.shape[1:])


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

    def __post_init__(self):
        if min(self.m_ul, self.m_dl, self.k_users) < 1:
            raise ValueError("antenna and user counts must be >= 1")
        if self.tau < self.k_users:
            raise ValueError(f"tau={self.tau} must be >= k_users={self.k_users}")
        if self.rho_bs <= 0 or self.rho_ue <= 0:
            raise ValueError("SNRs must be positive (linear scale)")

    @property
    def y_var_ul(self):
        """Per-entry complex variance of the BS receive signal."""
        return self.rho_bs * self.k_users + 1.0

    @property
    def w_var_dl(self):
        """Per-entry complex variance of the precoded DAC input."""
        return 1.0 / self.m_dl


@dataclass(frozen=True)
class BussgangStats:
    """Scalar gains and per-antenna distortion moments for one scenario.

    cd_ul and cd_dl are per-entry distortion powers and a_k the pilot
    projections of one antenna row; antenna rows are i.i.d., so the rate
    formulas scale them by the antenna count.
    """

    g_ce: float
    g_ul: float
    g_dl: float
    cd_ul: float
    cd_dl: float
    a_k: np.ndarray

    def __post_init__(self):
        for name in ("g_ce", "g_ul", "g_dl"):
            g = getattr(self, name)
            # variance-matched labels give g <= 1; arbitrary label scalings
            # (legal for consistency checks) only require a positive gain
            if not (np.isfinite(g) and g > 0.0):
                raise ValueError(f"{name}={g} must be positive and finite")
        if not (self.cd_ul >= 0 and self.cd_dl >= 0):
            raise ValueError(f"distortion powers cd_ul={self.cd_ul}, cd_dl={self.cd_dl} must be non-negative")
        if not np.all(np.isfinite(self.a_k)):
            raise ValueError("a_k must be finite")


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
    block_sums = []
    for chunk, size in _chunks(trials, dim):
        y_chunk = complex_gaussian(chunk_rng(seed, PHASE_UL, chunk), (size, dim), complex_variance)
        for block in _blocks(size, dim):
            y = y_chunk[block]
            d = quantize(spec, y)
            d -= gain * y
            block_sums.append(np.sum(np.abs(d) ** 2))
    return float(dim * _fsum_chunks(block_sums) / (trials * dim))


def ce_distortion_projections(spec, pilots, rho_bs, trials, seed):
    """Pilot projections A_k = E[|P_k^T d_ce|^2] of one antenna row's pilot-phase distortion.

    Antenna rows of the pilot-phase signal are i.i.d., so the simulation draws
    single rows; over M antennas the projections are M times these.
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
    block_sums = []
    for chunk, size in _chunks(trials, pilots.tau):
        rng = chunk_rng(seed, PHASE_CE, chunk)
        h = complex_gaussian(rng, (size, k))
        noise = complex_gaussian(rng, (size, pilots.tau))
        for block in _blocks(size, pilots.tau):
            y = pilot_phase_signal(h[block], pilots, rho_bs, noise[block])
            d = quantize(spec, y)
            d -= gain * y
            u = d @ pilots.entries
            block_sums.append(np.sum(np.abs(u) ** 2, axis=0))
    return _fsum_chunks(block_sums) / trials


def assemble_stats(config, spec_ce, spec_ul, spec_dl, trials=DEFAULT_TRIALS, seed=0):
    """Bundle the gains and per-antenna distortion moments needed by the rate formulas."""
    pilots = dft_pilots(config.tau, config.k_users)
    y_var = config.y_var_ul
    w_var = config.w_var_dl
    dl_seed = np.random.SeedSequence(seed, spawn_key=(PHASE_DL,)).generate_state(1)[0]
    return BussgangStats(
        g_ce=gain_scalar(spec_ce, y_var),
        g_ul=gain_scalar(spec_ul, y_var),
        g_dl=gain_scalar(spec_dl, w_var),
        cd_ul=distortion_trace(spec_ul, y_var, config.m_ul, trials, seed) / config.m_ul,
        cd_dl=distortion_trace(spec_dl, w_var, config.m_dl, trials, dl_seed) / config.m_dl,
        a_k=ce_distortion_projections(spec_ce, pilots, config.rho_bs, trials, seed),
    )
