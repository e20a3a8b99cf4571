"""The scenario type, Bussgang gains and quantization-distortion moments, exact and by Monte Carlo.

SystemConfig is the one description of a scenario (antenna count m, K UEs,
pilot length tau, resolution b and the two SNRs) that the moments here,
the rate formulas and the full-chain oracle take.

For i.i.d. Rayleigh channels every input covariance seen by a converter is a
scaled identity, so the Bussgang matrix collapses to a scalar gain and the
distortion covariances to per-entry powers.  The pilot-phase distortion is
correlated across pilot symbols; its pilot projections A_k take the
correlation moments E[q(X)q(Y)] of the quantizer.  exact_stats computes
every moment as an expectation: the distortion powers by Gauss-Legendre
sums over the cells, and the correlation moments by the Hermite series of
Price (1958) and Van Vleck & Middleton (1966), or by quadrature where the
series converges too slowly.  assemble_stats estimates the same moments
by simulation, or takes pilot projections estimated before; the sweep
takes those, with one pilot-phase estimate for both directions.

Every Monte Carlo estimate walks its trials one cache-sized block at a time
(_blocks: at most 2^16 entries, 1 MB, of the widest per-trial array).  Block
j of a phase draws from its own generator, block_rng(seed, phase, j), so the
block size defines the random stream; the table of per-block sums is
totalled by one numpy sum over its block axis, whose additions follow the
rows, not the threads that filled them.  Each estimate here is a per-block
function and one call of _block_table, whose calling thread and worker
thread each take the next unclaimed block when free, in heap buffers of
its own that live for the call; the worker belongs to the call and has
ended when it returns or raises.  Which thread takes a block changes no
sum, so the estimates are those of one block after another.
The full-chain oracle in mcsim walks its blocks with _block_table too, so
the library has one thread scheme.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent import futures
from dataclasses import dataclass, field, fields

import numpy as np

from quantmimo.airlink import complex_gaussian, dft_pilots, pilot_phase_signal
from quantmimo.checks import POSITIVE, integer, require
from quantmimo.quant import MAX_BITS, _gaussian_panels, _gaussian_pdf, _gaussian_tail, quantize

DEFAULT_TRIALS = 100_000
MIN_TRIALS = 10_000
# the Hermite series of a correlation moment stops where the bound of its
# tail falls under _SERIES_TOL, after at most _MAX_SERIES_TERMS terms
_SERIES_TOL = 1e-17
_MAX_SERIES_TERMS = 4096

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


def _receive_variance(rho_bs, k_users):
    """Per-entry complex variance of the BS receive signal, K users at SNR rho_bs over unit noise.

    The pilot phase and the uplink data phase share it: SystemConfig.y_var_ul
    and the pilot-phase estimate both read it here.
    """
    return rho_bs * k_users + 1.0


def _blocks(trials, row_entries):
    """Trial counts of the blocks that cover trials, in order.

    A block holds at most _BLOCK_ENTRIES entries of the widest per-trial
    array, which has row_entries entries per trial, and at least one trial.
    """
    step = max(1, _BLOCK_ENTRIES // row_entries)
    return [min(step, trials - start) for start in range(0, trials, step)]


def _carve(flat, shapes):
    """Consecutive views of the 1-D array flat, one of each shape in turn."""
    lengths = [math.prod(shape) for shape in shapes]
    return [part.reshape(shape) for shape, part in zip(shapes, np.split(flat, np.cumsum(lengths)[:-1]))]


def _block_table(block_sum, sizes, dtype, buffer_shapes):
    """One row of dtype per block of trial counts sizes, row j being block_sum(j, buffers).

    A subarray dtype (float, shape) gives a (blocks, *shape) array of
    floats; a structured dtype gives one record of named sums per block,
    each field read as a (blocks, *shape) view.  buffers holds a block's
    complex arrays: one per (*row) shape of buffer_shapes, its first
    sizes[j] rows.  The calling thread and one worker thread, each with
    buffers of its own sized for the largest block, claim the next block
    from one shared iterator until none is left, so a thread that is held
    up leaves its share to the other; a single block runs on the calling
    thread.  The calling thread allocates both threads' buffers before the
    worker starts, so that none stays in the worker's malloc arena, and
    carves each thread's from one array of its own: an array a buffer took
    4 MB (5%) more peak RSS on the oracle benchmark under glibc's malloc.
    They are freed when the call returns.  The worker is opened by the
    call, and leaving its executor waits for it, so it has ended when the
    call returns or raises; once either thread raises, both stop at their
    next claim.
    """
    shapes = [(max(sizes), *row) for row in buffer_shapes]
    length = sum(math.prod(shape) for shape in shapes)
    arrays = [_carve(np.empty(length, complex), shapes) for _ in range(min(len(sizes), 2))]
    table = np.empty(len(sizes), dtype)
    claims = iter(range(len(sizes)))  # next() on it is one step under the GIL: no block is claimed twice
    failed = threading.Event()

    def fill(buffers):
        try:
            for j in claims:
                if failed.is_set():
                    return
                table[j] = block_sum(j, [buf[: sizes[j]] for buf in buffers])
        except BaseException:
            failed.set()
            raise

    if len(arrays) == 1:
        fill(arrays[0])
        return table
    with futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="quantmimo-block") as pool:
        worker = pool.submit(fill, arrays[1])
        fill(arrays[0])
        worker.result()
    return table


@dataclass(frozen=True)
class SystemConfig:
    """One scenario: the input of the rate formulas, the moment estimates and the oracle.

    Both directions use one antenna count, m; m_ul and m_dl must be equal.
    """

    m_ul: int = field(metadata={"check": integer(1, MAX_ANTENNAS)})
    m_dl: int = field(metadata={"check": integer(1, MAX_ANTENNAS)})
    k_users: int = field(metadata={"check": integer(1)})
    tau: int = field(metadata={"check": integer(1, MAX_PILOT_LENGTH)})
    bits: int = field(metadata={"check": integer(1, MAX_BITS)})
    rho_bs: float = field(metadata={"check": POSITIVE})
    rho_ue: float = field(metadata={"check": POSITIVE})

    def __post_init__(self):
        for f in fields(self):
            require(f.name, getattr(self, f.name), f.metadata["check"])
        if self.m_ul != self.m_dl:
            raise ValueError(f"m_ul={self.m_ul} and m_dl={self.m_dl} must be equal: one antenna count m")
        if self.tau < self.k_users:
            raise ValueError(f"tau={self.tau} must be >= k_users={self.k_users}")

    @property
    def m(self):
        """The antenna count of both directions."""
        return self.m_ul

    @property
    def y_var_ul(self):
        """Per-entry complex variance of the BS receive signal, in the pilot and uplink data phases."""
        return _receive_variance(self.rho_bs, self.k_users)

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

    sum_n l_n (phi(t_n/sigma) - phi(t_{n+1}/sigma)) / sigma, with sigma = sqrt(c/2)
    per component and phi the standard Gaussian density, 0 at t = +-inf.
    """
    sigma = math.sqrt(float(require("complex_variance", complex_variance, POSITIVE)) / 2.0)
    pdf = _gaussian_pdf(spec.thresholds / sigma)
    return float(np.sum(spec.labels * (pdf[:-1] - pdf[1:])) / sigma)


def distortion_power(spec, complex_variance):
    """Per-entry distortion power E|Q(y) - G*y|^2 for y ~ CN(0, c), computed exactly.

    Twice the per-component E[(q(x) - G x)^2], summed cell by cell with
    Gauss-Legendre nodes; each unbounded cell ends 12 sigma past its
    threshold, where the density has fallen by e^-72, in four panels.  No
    term is negative, so the sum keeps its relative precision where
    c(1 - G^2) cancels (to 1.7e-9 at b = 12).
    """
    c = float(require("complex_variance", complex_variance, POSITIVE))
    gain = gain_scalar(spec, c)
    sigma = np.sqrt(c / 2.0)
    z = spec.thresholds[1:-1] / sigma
    tail = np.linspace(0.0, 12.0, 5)
    edges = np.concatenate([z[0] - tail[:0:-1], z, z[-1] + tail[1:]])
    labels = np.concatenate([np.repeat(spec.labels[0], 4), spec.labels[1:-1], np.repeat(spec.labels[-1], 4)])
    x, w = _gaussian_panels(edges)
    return float(2.0 * np.sum(w * _gaussian_pdf(x) * (labels[:, None] - gain * sigma * x) ** 2))


def _hermite_coefficients(spec, sigma, terms):
    """c_1..c_terms of q(sigma*x) = sum_n c_n h_n(x), with h_n = He_n/sqrt(n!), after a 0 for c_0.

    c_0 = E[q] is 0 for the odd quantizers these serve, and
    c_n = E[q(sigma X) h_n(X)] = sum_j (l_j - l_{j-1}) phi(u_j) h_{n-1}(u_j) / sqrt(n)
    over the interior thresholds u_j (in units of sigma), with h_n from its
    stable three-term recursion.  c_1 = G*sigma.
    """
    u = spec.thresholds[1:-1] / sigma
    step = np.diff(spec.labels) * _gaussian_pdf(u)
    coeffs = np.zeros(terms + 1)
    h_prev, h = np.zeros_like(u), np.ones_like(u)
    for n in range(1, terms + 1):
        coeffs[n] = step @ h / math.sqrt(n)
        h_prev, h = h, (u * h - math.sqrt(n - 1) * h_prev) / math.sqrt(n)
    return coeffs


def _integrated_excess(spec, sigma, slope, r):
    """E[(q(sigma X) - slope X)(q(sigma Y) - slope Y)] for unit Gaussians X, Y of correlation 0 < r <= 1, by quadrature.

    With X and Y sqrt(r) W plus independent parts of variance s^2 = 1 - r,
    it is the integral over v = sqrt(r) W of (m(v) - slope v)^2, where
    m(v) = E[q(sigma(v + sZ))] is l_{cell of v} less the tail
    0.5 erfc(|v - u_j| / (s sqrt 2)) of each threshold u_j within 9 s (a
    further tail is below 1e-19).  No term is negative.  m is smooth on the
    scale s, so Gauss-Legendre panels at most 9 s wide cover each
    threshold's 9 s, and panels of 1.5 the rest.
    """
    u = spec.thresholds[1:-1] / sigma
    # a correlation that rounds to 1 (rho K near 1e16) is taken as 1 - 2^-53
    s, sr = math.sqrt(max(1.0 - r, np.finfo(float).epsneg)), math.sqrt(r)
    span = 10.0 * sr  # W beyond 10 carries under 1e-22 of the mass
    grid = 3.0 * s
    points = np.concatenate([(u[:, None] + 9.0 * s * np.array([-1.0, 0.0, 1.0])).ravel(), np.arange(-span, span, 1.5)])
    edges = np.unique(np.round(np.clip(np.append(points, span), -span, span) / grid)) * grid
    v, w = (a.ravel() for a in _gaussian_panels(edges))
    weight = w * _gaussian_pdf(v / sr) / sr
    first, last = np.searchsorted(u, v - 9.0 * s), np.searchsorted(u, v + 9.0 * s)
    near = first[:, None] + np.arange(np.max(last - first))
    inside = near < last[:, None]
    near = near[inside]
    z = (v[np.nonzero(inside)[0]] - u[near]) / s
    correction = np.zeros(inside.shape)
    correction[inside] = -np.sign(z) * _gaussian_tail(z) * np.diff(spec.labels)[near]
    m = spec.labels[np.searchsorted(u, v)] + correction.sum(axis=1)
    return float(np.sum(weight * (m - slope * v) ** 2))


def _correlation_excess(spec, sigma, r):
    """E[q(sigma X) q(sigma Y)] - r (G sigma)^2 for unit Gaussians of each correlation in r, all |r| <= 1.

    The Hermite series sum_{n >= 3} c_n^2 r^n (Price 1958; its linear term,
    the Bussgang part, is the one subtracted); only odd n count for a
    quantizer that is odd.  A correlation takes the terms that bring the
    tail's bound |r|^N / (1 - |r|) under 1e-17; one that needs more than
    _MAX_SERIES_TERMS is integrated by _integrated_excess instead.
    """
    odd = np.array_equal(spec.thresholds, -spec.thresholds[::-1]) and np.array_equal(spec.labels, -spec.labels[::-1])
    if not odd:
        raise ValueError("exact pilot projections need an odd quantizer: thresholds and labels symmetric about 0")
    mag, where = np.unique(np.abs(r), return_inverse=True)
    with np.errstate(divide="ignore"):
        needed = np.ceil(np.log(_SERIES_TOL * (1.0 - mag)) / np.log(mag))  # 0 terms at r = 0
    series = (mag < 1.0) & (needed <= _MAX_SERIES_TERMS)
    coeffs = _hermite_coefficients(spec, sigma, int(np.max(needed[series], initial=3)))
    excess = mag**3 * np.polynomial.polynomial.polyval(mag**2, coeffs[3::2] ** 2)
    for i in np.flatnonzero(~series):
        excess[i] = _integrated_excess(spec, sigma, coeffs[1], mag[i])
    return np.sign(r) * excess[where]


def _pilot_projections(spec, config):
    """Pilot projections A_k = E[|P_k^T d_ce|^2] of one antenna row's pilot-phase distortion, computed exactly.

    Under DFT pilots the pilot-phase covariance is circulant: lag l has
    R_l = rho sum_k e^{2 pi i k l / tau}, plus 1 at lag 0, and so has the
    distortion's, D_l, and A_k = tau sum_l D_l e^{-2 pi i k l / tau}.  D_0 is
    the distortion power at c = rho K + 1; at l != 0, with gamma = R_l / c,
    D_l = 2 [F(Re gamma) + j F(Im gamma)] for F the _correlation_excess of
    the spec's components (Van Vleck & Middleton 1966), which is 0 where
    gamma is, so A_k = tau D_0 at K = tau.
    """
    c, tau, k_users = config.y_var_ul, config.tau, config.k_users
    gamma = config.rho_bs * tau * np.fft.ifft(np.arange(tau) < k_users)[1:] / c
    excess = _correlation_excess(spec, np.sqrt(c / 2.0), np.concatenate([gamma.real, gamma.imag]))
    lags = np.empty(tau, dtype=complex)
    lags[0] = distortion_power(spec, c)
    lags[1:] = 2.0 * (excess[: tau - 1] + 1j * excess[tau - 1 :])
    return tau * np.fft.fft(lags)[:k_users].real


def exact_stats(config, spec_ce, spec_ul, spec_dl):
    """The BussgangStats of assemble_stats, as exact expectations: no trials, no random numbers."""
    y_var = config.y_var_ul
    w_var = config.w_var_dl
    return BussgangStats(
        g_ce=gain_scalar(spec_ce, y_var),
        g_ul=gain_scalar(spec_ul, y_var),
        g_dl=gain_scalar(spec_dl, w_var),
        cd_ul=distortion_power(spec_ul, y_var),
        cd_dl=distortion_power(spec_dl, w_var),
        a_k=_pilot_projections(spec_ce, config),
    )


def distortion_trace(spec, complex_variance, dim, trials, seed):
    """Monte Carlo estimate of tr(C_d) for a dim-long i.i.d. CN(0, c) input.

    d = Q(y) - G*y with the matched scalar gain; entries are i.i.d. so the
    trace is dim times the per-entry distortion power.
    """
    require("trials", trials, integer(MIN_TRIALS))
    require("dim", dim, integer(1))
    gain = gain_scalar(spec, complex_variance)
    block_sum = functools.partial(_trace_block, spec, complex_variance, gain, seed)
    block_sums = _block_table(block_sum, _blocks(trials, dim), np.dtype(float), [(dim,), (dim,)])
    return float(np.sum(block_sums, axis=0) / trials)


def _trace_block(spec, complex_variance, gain, seed, j, buffers):
    """Block j's sum of |Q(y) - G*y|^2 over its draws y, formed in buffers (y, d)."""
    y, d = buffers
    complex_gaussian(block_rng(seed, PHASE_UL, j), y.shape, complex_variance, out=y)
    quantize(spec, y, out=d)
    d -= np.multiply(gain, y, out=y)
    return np.sum(np.abs(d) ** 2)


def ce_distortion_projections(spec, pilots, rho_bs, trials, seed):
    """Pilot projections A_k = E[|P_k^T d_ce|^2] of one antenna row's pilot-phase distortion.

    Antenna rows of the pilot-phase signal are i.i.d., so the simulation draws
    single rows; over M antennas the projections are M times these.
    """
    require("trials", trials, integer(MIN_TRIALS))
    require("rho_bs", rho_bs, POSITIVE)
    k, tau = pilots.k_users, pilots.tau
    expected_var = _receive_variance(rho_bs, k)
    if not abs(2.0 * spec.design_std**2 - expected_var) <= 1e-6 * expected_var:
        raise ValueError(
            f"quantizer designed for complex variance {2 * spec.design_std**2:.6g}, "
            f"pilot phase requires {expected_var:.6g}"
        )
    gain = gain_scalar(spec, expected_var)
    block_sum = functools.partial(_projection_block, spec, pilots, rho_bs, gain, seed)
    block_sums = _block_table(block_sum, _blocks(trials, tau), np.dtype((float, (k,))), [(k,), (tau,), (tau,)])
    return np.sum(block_sums, axis=0) / trials


def _projection_block(spec, pilots, rho_bs, gain, seed, j, buffers):
    """Block j's sums of |P_k^T d|^2 over its rows, one per UE k, formed in buffers (h, noise, y).

    d = Q(y) - G*y is the distortion of the pilot-phase rows y; once y is
    formed, the noise holds d and h the projections.
    """
    h, noise, y = buffers
    rng = block_rng(seed, PHASE_CE, j)
    complex_gaussian(rng, h.shape, out=h)
    complex_gaussian(rng, noise.shape, out=noise)
    pilot_phase_signal(h, pilots, rho_bs, noise, out=y)
    d = quantize(spec, y, out=noise)
    d -= np.multiply(gain, y, out=y)
    u = np.matmul(d, pilots.entries, out=h)
    return np.sum(np.abs(u) ** 2, axis=0)


def assemble_stats(config, spec_ce, spec_ul, spec_dl, trials=DEFAULT_TRIALS, seed=0, a_k=None):
    """Bundle the gains and per-antenna distortion moments needed by the rate formulas.

    The distortion traces are estimated from seed.  a_k, the pilot
    projections of one antenna row, may come already estimated: they depend
    on the pilot phase only (b, K, tau and rho_bs), so a sweep estimates
    them once for the two directions' points of a (b, bandwidth, tau).
    Without a_k they are estimated here, from seed too.
    """
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
        a_k=ce_distortion_projections(spec_ce, pilots, config.rho_bs, trials, seed) if a_k is None else a_k,
    )
