"""The scenario type, Bussgang gains and Monte Carlo estimates of quantization-distortion moments.

SystemConfig is the one description of a scenario (antenna count m, K UEs,
pilot length tau, resolution b and the two SNRs) that the estimates here,
the rate formulas and the full-chain oracle take.

For i.i.d. Rayleigh channels every input covariance seen by a converter is a
scaled identity, so the Bussgang matrix collapses to a scalar gain and the
distortion covariances to per-entry powers.  The pilot-phase distortion is
correlated across pilot symbols, so its pilot projections A_k are estimated
by simulation.

Every Monte Carlo estimate walks its trials one cache-sized block at a time
(_blocks: at most 2^16 entries, 1 MB, of the widest per-trial array).  Block
j of a phase draws from its own generator, block_rng(seed, phase, j), so the
block size defines the random stream; the per-block sums are totalled
exactly by math.fsum.  The full-chain oracle in mcsim walks its trials the
same way.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from quantmimo.airlink import complex_gaussian, dft_pilots, pilot_phase_signal
from quantmimo.quant import MAX_BITS, quantize

DEFAULT_TRIALS = 100_000
MIN_TRIALS = 10_000

# phase tags for seed derivation; one independent stream per (phase, block)
PHASE_CE = 0
PHASE_UL = 1
PHASE_DL = 2
PHASE_ORACLE = 3  # the full-chain validator, apart from the estimates it checks

# the most antennas and pilot symbols a point may have, so that one trial's
# widest draw, the oracle's m x tau complex pilot noise, stays within 256 MiB
MAX_ANTENNAS = MAX_PILOT_LENGTH = 4096
# entries of the widest per-trial array a block holds: 1 MB of complex
# entries, so that a block's arrays stay in a 2 MB L2 cache.  Every Monte
# Carlo estimate draws each block from its own generator, so this also sets
# the estimates' random streams
_BLOCK_ENTRIES = 1 << 16


def block_rng(seed, phase, block):
    """Deterministic per-(phase, block) generator, independent of run order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(phase, block)))


def check_trials(trials, minimum):
    """Raise ValueError unless trials is an integer (not a bool) of at least minimum."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < minimum:
        raise ValueError(f"trials={trials} too small, need >= {minimum}")


def _blocks(trials, row_entries):
    """Trial counts of the blocks that cover trials, in order.

    A block holds at most _BLOCK_ENTRIES entries of the widest per-trial
    array, which has row_entries entries per trial, and at least one trial.
    """
    step = max(1, _BLOCK_ENTRIES // row_entries)
    return [min(step, trials - start) for start in range(0, trials, step)]


def _fsum_blocks(parts):
    """Element-wise total of per-block sums, exactly rounded by math.fsum.

    Blocks are combined in block order, so the total does not depend on how
    they were scheduled.  parts is a list of equal-shape sums, or an array
    of them stacked along its first axis, which is summed without a copy.
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
    """One scenario: the input of the rate formulas, the moment estimates and the oracle.

    Both directions use one antenna count, m; m_ul and m_dl must be equal.
    """

    m_ul: int
    m_dl: int
    k_users: int
    tau: int
    bits: int
    rho_bs: float
    rho_ue: float

    def __post_init__(self):
        for name in ("m_ul", "m_dl", "k_users", "tau", "bits"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.m_ul != self.m_dl:
            raise ValueError(f"m_ul={self.m_ul} and m_dl={self.m_dl} must be equal: one antenna count m")
        if self.tau < self.k_users:
            raise ValueError(f"tau={self.tau} must be >= k_users={self.k_users}")
        if self.bits > MAX_BITS:
            raise ValueError(f"bits={self.bits} must be in [1, {MAX_BITS}]")
        for name in ("rho_bs", "rho_ue"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
                raise ValueError(f"{name}={value!r} must be a positive and finite real number (linear scale)")

    @property
    def m(self):
        """The antenna count of both directions."""
        return self.m_ul

    @property
    def y_var_ul(self):
        """Per-entry complex variance of the BS receive signal."""
        return self.rho_bs * self.k_users + 1.0

    @property
    def w_var_dl(self):
        """Per-entry complex variance of the precoded DAC input."""
        return 1.0 / self.m


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
    check_trials(trials, MIN_TRIALS)
    gain = gain_scalar(spec, complex_variance)
    sizes = _blocks(trials, dim)
    block_sums = np.empty(len(sizes))
    for j, size in enumerate(sizes):
        y = complex_gaussian(block_rng(seed, PHASE_UL, j), (size, dim), complex_variance)
        d = quantize(spec, y)
        d -= gain * y
        block_sums[j] = np.sum(np.abs(d) ** 2)
    return float(_fsum_blocks(block_sums) / trials)


def ce_distortion_projections(spec, pilots, rho_bs, trials, seed):
    """Pilot projections A_k = E[|P_k^T d_ce|^2] of one antenna row's pilot-phase distortion.

    Antenna rows of the pilot-phase signal are i.i.d., so the simulation draws
    single rows; over M antennas the projections are M times these.
    """
    check_trials(trials, MIN_TRIALS)
    k = pilots.k_users
    expected_var = rho_bs * k + 1.0
    if abs(2.0 * spec.design_std**2 - expected_var) > 1e-6 * expected_var:
        raise ValueError(
            f"quantizer designed for complex variance {2 * spec.design_std**2:.6g}, "
            f"pilot phase requires {expected_var:.6g}"
        )
    gain = gain_scalar(spec, expected_var)
    sizes = _blocks(trials, pilots.tau)
    block_sums = np.empty((len(sizes), k))
    for j, size in enumerate(sizes):
        rng = block_rng(seed, PHASE_CE, j)
        h = complex_gaussian(rng, (size, k))
        noise = complex_gaussian(rng, (size, pilots.tau))
        y = pilot_phase_signal(h, pilots, rho_bs, noise)
        d = quantize(spec, y)
        d -= gain * y
        u = d @ pilots.entries
        block_sums[j] = np.sum(np.abs(u) ** 2, axis=0)
    return _fsum_blocks(block_sums) / trials


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
        cd_ul=distortion_trace(spec_ul, y_var, config.m, trials, seed) / config.m,
        cd_dl=distortion_trace(spec_dl, w_var, config.m, trials, dl_seed) / config.m,
        a_k=ce_distortion_projections(spec_ce, pilots, config.rho_bs, trials, seed),
    )
