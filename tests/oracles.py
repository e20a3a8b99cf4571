"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own algorithms: the quantizer oracle
runs plain Lloyd iteration on a dense probability grid, with no Newton
acceleration, no closed-form Gaussian moments, and no shared code paths.
The kernel references keep the plain forms (complex Gaussian draws as one
scaled array of (real, imaginary) pairs, two-pass quantize, the oracle's
block sums in einsum form, full-array pilot projections) that the
package's faster forms must
reproduce, the oracle and the moment estimators as one walk over their
blocks on the calling thread, which their two-thread block tables must
equal bit for bit, and the Lloyd-Max Newton solver that
carries sigma through every step, which the package's scaled unit-sigma
design must match.  The estimators' walks also give their per-trial
values, whose spread is the standard error of each estimate.  The
correlation moment E[q(X)q(Y)] of two Gaussians is integrated cell by cell
over X, with scipy's Gaussian CDF for E[q(Y) | X], as the independent check
of the exact moments' Hermite series, and the distortion power cell by cell
with scipy's quad, as that of their Gauss-Legendre sums.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded
from scipy.special import ndtr, ndtri

from quantmimo import mcsim
from quantmimo.airlink import complex_gaussian, pilot_phase_signal
from quantmimo.bussgang import PHASE_CE, PHASE_UL, _blocks, block_rng, gain_scalar
from quantmimo.quant import quantize


def dense_grid_lloyd(bits, component_std, step=1e-5, span=8.0, max_iter=100_000, tol=1e-10):
    """Fixed-point Lloyd iteration on a dense grid over +/- span sigma.

    The Gaussian density is discretized on the grid; labels are the
    probability-weighted means of their cells and thresholds the label
    midpoints, iterated to a fixed point.  Returns (thresholds, labels) with
    infinite sentinel thresholds, matching the package convention.
    """
    sigma = float(component_std)
    n = 2**bits
    x = np.arange(-span * sigma, span * sigma + step * sigma / 2, step * sigma)
    w = np.exp(-0.5 * (x / sigma) ** 2)

    # equiprobable-ish starting labels spread over the support
    labels = np.linspace(-2.0 * sigma, 2.0 * sigma, n)
    for _ in range(max_iter):
        t = 0.5 * (labels[:-1] + labels[1:])
        idx = np.searchsorted(t, x, side="left")
        num = np.bincount(idx, weights=w * x, minlength=n)
        den = np.bincount(idx, weights=w, minlength=n)
        new = num / den
        if np.max(np.abs(new - labels)) < tol * sigma:
            labels = new
            break
        labels = new
    t = 0.5 * (labels[:-1] + labels[1:])
    thresholds = np.concatenate([[-np.inf], t, [np.inf]])
    return thresholds, labels


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _sigma_half_cell_moments(labels, sigma):
    """Positive-half cell centroids, thresholds, z-scores, pdf and probabilities at sigma."""
    m = labels.size
    t = np.concatenate([[0.0], 0.5 * (labels[:-1] + labels[1:]), [np.inf]])
    z = t / sigma
    pdf = np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi)  # 0 at z = inf
    prob = np.empty(m)
    centroid = np.empty(m)
    if m > 1:
        lo = z[:-2, None]
        hi = z[1:-1, None]
        half = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi) + half * _GL_NODES
        w = half * _GL_WEIGHTS
        f = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
        p0 = np.sum(w * f, axis=1)
        prob[:-1] = p0
        centroid[:-1] = sigma * np.sum(w * x * f, axis=1) / p0
    prob[-1] = ndtr(-z[-2])
    centroid[-1] = sigma * pdf[-2] / prob[-1]
    return centroid, t, z, pdf, prob


def sigma_lloyd_max(bits, component_std, tol=1e-12, max_iter=10_000):
    """Newton-accelerated Lloyd-Max design solved at component_std itself.

    The form quant.design_lloyd_max had before it scaled one cached
    unit-sigma design: sigma enters the start, the centroids, the Jacobian
    and the stopping test.  Returns (thresholds, labels) like
    dense_grid_lloyd.
    """
    sigma = float(component_std)
    m = 2 ** (bits - 1)
    z = np.concatenate([[0.0], sigma * ndtri(0.5 + 0.5 * np.arange(1, m) / m), [np.inf]]) / sigma
    pdf = np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi)
    surv = ndtr(-z)
    labels = sigma * (pdf[:-1] - pdf[1:]) / (surv[:-1] - surv[1:])
    for _ in range(max_iter):
        centroid, t, z, pdf, prob = _sigma_half_cell_moments(labels, sigma)
        r = centroid - labels
        if np.max(np.abs(r)) / sigma < tol:
            break
        with np.errstate(invalid="ignore", divide="ignore"):
            dlo = (pdf[:-1] / sigma) * (centroid - t[:-1]) / prob
            dhi = (pdf[1:] / sigma) * (t[1:] - centroid) / prob
        dlo[~np.isfinite(dlo)] = 0.0
        dhi[~np.isfinite(dhi)] = 0.0
        dlo[0] = 0.0
        banded = np.zeros((3, m))
        banded[0, 1:] = 0.5 * dhi[:-1]
        banded[1, :] = 0.5 * dlo + 0.5 * dhi - 1.0
        banded[2, :-1] = 0.5 * dlo[1:]
        new = labels + solve_banded((1, 1), banded, -r)
        labels = centroid if new[0] <= 0 or np.any(np.diff(new) <= 0) else new
    else:
        raise RuntimeError(f"reference Lloyd-Max design for b={bits} did not converge")
    half = t[1:-1]
    thresholds = np.concatenate([[-np.inf], -half[::-1], [0.0], half, [np.inf]])
    return thresholds, np.concatenate([-labels[::-1], labels])


def ndtr_cell_probabilities(spec, component_std):
    """Cell probabilities from scipy's Gaussian CDF, upper-half cells by its survival function.

    The form quant.cell_probabilities had before it took one erfc tail per
    threshold.
    """
    z = spec.thresholds / component_std
    lo, hi = z[:-1], z[1:]
    return np.where(lo >= 0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


def mc_gain_regression(quantize_fn, samples):
    """Bussgang gain by least-squares regression of Q(y) on y.

    Returns (estimate, standard_error); the error is the linearized standard
    error of the ratio estimator mean(Re Q(y) conj(y)) / mean(|y|^2).
    """
    y = samples
    q = quantize_fn(y)
    cross = (q * y.conj()).real
    power = np.abs(y) ** 2
    g_hat = np.mean(cross) / np.mean(power)
    resid = cross - g_hat * power
    se = np.std(resid) / (np.sqrt(y.size) * np.mean(power))
    return float(g_hat), float(se)


def interleaved_complex_gaussian(rng, shape, complex_variance=1.0):
    """Complex Gaussian draws as one expression: scaled (real, imaginary) pairs, drawn in turn.

    The straightforward form of airlink.complex_gaussian, kept as its
    bit-exact reference for the values and the generator's final state.
    """
    scale = np.sqrt(complex_variance / 2.0)
    return (scale * rng.standard_normal((*shape, 2))).view(complex)[..., 0]


def two_pass_quantize(spec, value):
    """Quantizer applied with one searchsorted per real component.

    The straightforward form of quant.quantize, kept as its bit-exact
    reference.
    """
    value = np.asarray(value)
    interior = spec.thresholds[1:-1]
    re_idx = np.searchsorted(interior, value.real, side="left")
    im_idx = np.searchsorted(interior, value.imag, side="left")
    out = spec.labels[re_idx] + 1j * spec.labels[im_idx]
    if value.ndim == 0:
        return complex(out)
    return out


def _einsum_residual_sums(d, y):
    ry = d * y.conj()
    return {"resid": np.sum(ry), "resid_sq": np.sum(np.abs(ry) ** 2)}


def einsum_pilot_phase(rho_bs, spec_ce, g_ce, pilots, h, noise):
    """Index-notation reference for the oracle's pilot phase over one block.

    Returns the channel estimates and the block's residual and estimate
    power (delta) sums.
    """
    y_ce = np.sqrt(rho_bs) * np.einsum("cmk,tk->cmt", h, pilots.entries.conj()) + noise
    q = two_pass_quantize(spec_ce, y_ce)
    h_hat = np.einsum("cmt,tk->cmk", q, pilots.entries) / (np.sqrt(rho_bs) * pilots.tau)
    sums = _einsum_residual_sums(q - g_ce * y_ce, y_ce)
    sums["delta"] = np.sum(np.abs(h_hat) ** 2)
    return h_hat, sums


def einsum_uplink_block(rho_bs, spec_ul, g_ul, h, h_hat, rng, track_offdiag=False):
    """Index-notation reference for the oracle's uplink sums over one block.

    Draws the block's uplink random numbers from rng, as the oracle does
    after the pilot phase, and forms each product from the combiner itself.
    With track_offdiag it also sums the distortion's antenna cross products
    d_m conj(d_n) ("offdiag") and the squared magnitude of the (0, 1) one
    ("offdiag_sq"), which the oracle does not form.
    """
    size, m, k = h.shape
    x = complex_gaussian(rng, (size, k))
    z_ul = complex_gaussian(rng, (size, m))
    y_ul = np.sqrt(rho_bs) * np.einsum("cmk,ck->cm", h, x) + z_ul
    d_ul = two_pass_quantize(spec_ul, y_ul) - g_ul * y_ul
    v = g_ul * h_hat
    cross = g_ul * np.einsum("cmk,cmi->cki", v.conj(), h)
    sums = _einsum_residual_sums(d_ul, y_ul)
    sums["desired_mean"] = np.einsum("ckk->k", cross)
    sums["signal_powers"] = np.sum(np.abs(cross) ** 2, axis=0)
    sums["combiner_power"] = g_ul**2 * np.sum(np.abs(v) ** 2, axis=(0, 1))
    sums["distortion_power"] = np.sum(np.abs(np.einsum("cmk,cm->ck", v.conj(), d_ul)) ** 2, axis=0)
    if track_offdiag:
        sums["offdiag"] = np.einsum("cm,cn->mn", d_ul, d_ul.conj())
        sums["offdiag_sq"] = np.sum(np.abs(d_ul[:, 0] * d_ul[:, 1].conj()) ** 2)
    return sums


def einsum_downlink_block(spec_dl, g_dl, delta, h, h_hat, rng):
    """Index-notation reference for the oracle's downlink sums over one block.

    Draws the block's downlink random numbers from rng and forms each
    product from the precoder itself; every UE's distortion term is the
    total distortion power ||d||^2 of the block.
    """
    size, _, k = h.shape
    w = h_hat / np.sqrt(delta)
    x = complex_gaussian(rng, (size, k))
    u = np.einsum("cmk,ck->cm", w, x)
    d_dl = two_pass_quantize(spec_dl, u) - g_dl * u
    cross = g_dl * np.einsum("cmk,cmi->cki", h.conj(), w)
    w_power = np.abs(w) ** 2
    sums = _einsum_residual_sums(d_dl, u)
    sums["desired_mean"] = np.einsum("ckk->k", cross)
    sums["signal_powers"] = np.sum(np.abs(cross) ** 2, axis=0)
    sums["distortion_power"] = np.full(k, np.sum(np.abs(d_dl) ** 2))
    sums["precoder"] = np.sum(w_power)
    sums["precoder_diag"] = np.sum(w_power, axis=(0, 2))
    return sums


def sequential_oracle_table(config, specs, stats, delta, pilots, trials, seed, directions):
    """The oracle's table of block sums as one walk over its blocks on the calling thread, in new arrays.

    Each block is mcsim's per-block function, called in block order with
    new buffers; its rows are stacked in block order.
    """
    block_sum, sizes, _, buffer_shapes = mcsim._oracle_walk(
        config, specs, stats, delta, pilots, trials, seed, directions
    )
    rows = [
        block_sum(j, [np.empty((size, *shape), complex) for shape in buffer_shapes]) for j, size in enumerate(sizes)
    ]
    return np.stack(rows)


def distortion_trace_blocks(spec, complex_variance, dim, trials, seed):
    """|Q(y) - G*y|^2 of each entry of each trial, block by block on bussgang.distortion_trace's stream."""
    gain = gain_scalar(spec, complex_variance)
    for j, size in enumerate(_blocks(trials, dim)):
        y = complex_gaussian(block_rng(seed, PHASE_UL, j), (size, dim), complex_variance)
        yield np.abs(quantize(spec, y) - gain * y) ** 2


def sequential_distortion_trace(spec, complex_variance, dim, trials, seed):
    """bussgang.distortion_trace as one walk over its blocks on the calling thread, in new arrays."""
    sums = [np.sum(block) for block in distortion_trace_blocks(spec, complex_variance, dim, trials, seed)]
    return float(np.sum(sums, axis=0) / trials)


def ce_projection_blocks(spec, pilots, rho_bs, trials, seed):
    """|P_k^T d|^2 of each trial and UE k, block by block on bussgang.ce_distortion_projections' stream."""
    gain = gain_scalar(spec, rho_bs * pilots.k_users + 1.0)
    for j, size in enumerate(_blocks(trials, pilots.tau)):
        rng = block_rng(seed, PHASE_CE, j)
        h = complex_gaussian(rng, (size, pilots.k_users))
        noise = complex_gaussian(rng, (size, pilots.tau))
        y = pilot_phase_signal(h, pilots, rho_bs, noise)
        d = quantize(spec, y) - gain * y
        yield np.abs(d @ pilots.entries) ** 2


def sequential_ce_distortion_projections(spec, pilots, rho_bs, trials, seed):
    """bussgang.ce_distortion_projections as one walk over its blocks on the calling thread, in new arrays."""
    sums = [np.sum(block, axis=0) for block in ce_projection_blocks(spec, pilots, rho_bs, trials, seed)]
    return np.sum(sums, axis=0) / trials


def quadrature_correlation(spec, component_std, r):
    """E[q(X) q(Y)] for zero-mean Gaussians X, Y of std component_std and correlation |r| < 1, by quadrature.

    The sum over the cells of X of its label times the integral, over the
    cell, of the density of x times E[q(Y) | X = x]: the lowest label plus
    each threshold's step times P(Y > t | x), which scipy's ndtr gives.
    Each cell is cut at 12 sigma and split into Gauss-Legendre panels no
    wider than 0.1 sigma.  No Hermite series and no code of the package.
    """
    u = spec.thresholds / component_std
    steps = np.diff(spec.labels)
    spread = math.sqrt(1.0 - r * r)
    total = 0.0
    for label, lo, hi in zip(spec.labels, np.maximum(u[:-1], -12.0), np.minimum(u[1:], 12.0)):
        edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / 0.1)) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        x = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL_NODES).ravel()
        weight = (half * _GL_WEIGHTS).ravel() * np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
        mean = spec.labels[0] + ndtr((r * x[:, None] - u[1:-1]) / spread) @ steps
        total += label * np.sum(weight * mean)
    return total


def quad_distortion_power(spec, complex_variance):
    """E|Q(y) - G y|^2 for y ~ CN(0, c), each cell's integral by scipy's quad, with no code of the package.

    Each real component x ~ N(0, c/2) is taken in units u = x / sigma of
    its std.  The gain G = E[q(x) x] / E[x^2] sums each cell's label times
    its quad of u phi(u); the power is twice the sum over the cells of the
    quad of (label - G sigma u)^2 phi(u), the unbounded ones to infinity.
    Every term is positive, so the sum keeps its precision at b = 12.
    """
    sigma = math.sqrt(complex_variance / 2.0)
    cells = list(zip(spec.labels, spec.thresholds[:-1] / sigma, spec.thresholds[1:] / sigma))

    def integral(f, lo, hi):
        def weighted(u):
            return f(u) * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

        return quad(weighted, lo, hi, epsabs=0.0, epsrel=1e-13)[0]

    gain = math.fsum(label * integral(lambda u: u, lo, hi) for label, lo, hi in cells) / sigma
    return 2.0 * math.fsum(integral(lambda u: (label - gain * sigma * u) ** 2, lo, hi) for label, lo, hi in cells)


def ce_distortion_projections_direct(spec_ce, spec_ul, pilots, m, rho_bs, trials, seed):
    """Direct A_k/B_k estimator with full antenna arrays and no identity shortcut.

    Draws independent pilot-phase and data-phase distortion samples and
    estimates B_k = E[|d_ul^H (P_k^T d_ce)|^2], which the closed forms take as
    cd_ul * A_k (i.i.d. antennas).  The data-phase ADC input is
    drawn from the matched Gaussian model (the same per-entry law the scalar
    distortion powers are defined under).  Returns the m-antenna A_k, m times
    the one-row bussgang.ce_distortion_projections, at m times its cost.
    """
    k = pilots.k_users
    y_var = rho_bs * k + 1.0
    g_ce = gain_scalar(spec_ce, y_var)
    g_ul = gain_scalar(spec_ul, y_var)
    p_conj = pilots.entries.conj()
    a_sums, b_sums = [], []
    for j, size in enumerate(_blocks(trials, m * pilots.tau)):
        rng = block_rng(seed, PHASE_CE, j)
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
