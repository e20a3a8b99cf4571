"""Full-chain Monte Carlo oracle for the closed-form SINDRs.

Simulates pilots -> ADC quantization -> channel estimation -> MRC/MRT ->
data-phase quantization -> reception, accumulates the expectation terms of
the general SINDR ratios, and compares the resulting empirical SINDRs with
the closed forms.

The chain runs over the trials one cache-sized block at a time
(_oracle_blocks: half of bussgang's 1 MB of the m*tau pilot noise, 128
trials at m 32, tau 8).  Block j draws from its own generator,
block_rng(seed, PHASE_ORACLE, j), in the order channels, pilot noise,
uplink symbols and noise, downlink symbols; so the block size defines the
oracle's stream.  Unless the caller passes its own stats, the closed forms
it checks take bussgang.exact_stats, which samples nothing, so the oracle
is the only Monte Carlo in a call.

One per-block function, _oracle_block, draws a block and reduces it, and
bussgang._block_table walks the blocks as it does the moment estimators':
the calling thread and one worker thread each claim the next unclaimed
block whenever they are free, each in buffers of its own (numpy's Gaussian
fills and large ufuncs release the GIL), so the two threads hold about
1 MB of pilot noise whatever m, tau or the trial count.  Which thread takes
a block changes no sum.  Both directions take their channel products from
one per-trial A = H^H Ĥ and |Ĥ|^2 of the block.  Each block's sums fill one
preallocated row of a structured array, a record per phase ("ce", "ul",
"dl") of a field per moment name (103 floats, 824 bytes, a block at K 4,
m 32); math.fsum totals each field at the end, and its per-block entries
give each moment's batch-means standard error.

The downlink distortion term E[h_k^H C_d h_k] is computed as E||d||^2: the
Bussgang model takes the DAC distortion d independent of the channel, so
E[|h_k^H d|^2 | d] = ||d||^2 exactly, the same for every UE.  The uplink
pairs the combiner and the distortion of the same trial, so its
E[v^H C_d v] also holds the distortion's dependence on the channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from quantmimo import rates
from quantmimo.airlink import complex_gaussian, dft_pilots, estimate_channel, pilot_phase_signal
from quantmimo.bussgang import (
    DEFAULT_TRIALS,
    PHASE_ORACLE,
    # unused; bench/test_bench.py::test_installed_wraps_every_binding_and_restores_it pins it until ROADMAP item 12
    assemble_stats,
    block_rng,
    _block_table,
    _blocks,
    _fsum_blocks,
    exact_stats,
)
from quantmimo.checks import DIRECTION, DIRECTIONS, POSITIVE, integer, require
from quantmimo.quant import design_lloyd_max, quantize, rescale_labels


@dataclass(frozen=True)
class ValidationReport:
    """Closed-form vs empirical comparison for one configuration."""

    direction: str
    trials: int
    seed: int
    tolerance: float
    sindr_closed: np.ndarray
    sindr_empirical: np.ndarray
    sindr_rel_error: np.ndarray
    moment_errors: dict
    moment_stderr: dict          # moment -> batch-means standard error of its empirical value
    bussgang_residual: dict      # phase -> (|mean d conj(y)|, MC standard error)
    delta_closed: float
    delta_empirical: float
    passed: bool

    def to_text(self):
        lines = [
            f"direction {self.direction}",
            f"trials {self.trials}",
            f"seed {self.seed}",
            f"tolerance {self.tolerance:.6g}",
            f"passed {int(self.passed)}",
        ]
        for k in range(len(self.sindr_closed)):
            lines.append(f"sindr_closed_{k} {self.sindr_closed[k]:.9g}")
            lines.append(f"sindr_empirical_{k} {self.sindr_empirical[k]:.9g}")
            lines.append(f"sindr_rel_error_{k} {self.sindr_rel_error[k]:.6g}")
        for name, (value, err) in self.moment_errors.items():
            lines.append(f"moment_{name} {value:.9g} rel_error {err:.6g} stderr {self.moment_stderr[name]:.6g}")
        for phase, (mag, sigma) in self.bussgang_residual.items():
            lines.append(f"residual_{phase} {mag:.6g} sigma {sigma:.6g}")
        lines.append(f"delta_closed {self.delta_closed:.9g}")
        lines.append(f"delta_empirical {self.delta_empirical:.9g}")
        worst = int(np.argmax(self.sindr_rel_error))
        lines.append(f"worst_term sindr_ue_{worst} rel_error {self.sindr_rel_error[worst]:.6g}")
        return "\n".join(lines)


def default_specs(config):
    """Design and rescale the CE/UL ADC and DL DAC quantizers for a scenario."""
    y_var = config.y_var_ul
    w_var = config.w_var_dl
    adc = rescale_labels(design_lloyd_max(config.bits, np.sqrt(y_var / 2.0)), y_var)
    dac = rescale_labels(design_lloyd_max(config.bits, np.sqrt(w_var / 2.0)), w_var)
    return adc, adc, dac  # ce, ul, dl


def _residual_sums(d, y, sums, out=None):
    """Block sums of d conj(y) and of its squared magnitude into the record sums; the products go into out if given."""
    ry = np.conjugate(y, out=out)
    ry *= d
    sums["resid"] = np.sum(ry)
    sums["resid_sq"] = np.vdot(ry, ry).real


def _matvec(a, x):
    """Per-trial matrix-vector products a[c] @ x[c] of a (C, M, K) and a (C, K) batch."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


class _ChannelSums(NamedTuple):
    """Block sums of the per-trial A = H^H Ĥ (K x K) and of |Ĥ|^2, which both directions share."""

    diag: np.ndarray  # sum of diag A
    power: np.ndarray  # sum of |A|^2
    ue_power: np.ndarray  # sum of |ĥ_k|^2, per UE
    antenna_power: np.ndarray  # sum of the estimate powers, per antenna


def _channel_sums(h, h_hat):
    a = np.matmul(np.conj(h).transpose(0, 2, 1), h_hat)
    ones = np.ones(len(h))  # a sum over the trials is a product with it, far cheaper than np.sum(axis=0)
    hat_power = (ones @ (np.abs(h_hat) ** 2).reshape(len(h), -1)).reshape(h_hat.shape[1:])
    return _ChannelSums(
        np.einsum("ckk->k", a),
        (ones @ (np.abs(a) ** 2).reshape(len(a), -1)).reshape(a.shape[1:]),
        np.sum(hat_power, axis=0),
        np.sum(hat_power, axis=1),
    )


def _uplink_block(rho_bs, spec_ul, g_ul, h, h_hat, channel, x, z_ul, sums):
    """MRC sums of a block into the record sums, each named after the UplinkMoments field it estimates.

    With the combiner v = g_ul·ĥ behind the ADC gain g_ul, the terms
    g_ul·v_k^H h_i are g_ul^2·conj(A_ik).
    """
    y_ul = _matvec(h, x)
    y_ul *= np.sqrt(rho_bs)
    y_ul += z_ul
    d_ul = quantize(spec_ul, y_ul)
    d_ul -= g_ul * y_ul
    g2 = g_ul**2
    _residual_sums(d_ul, y_ul, sums)
    sums["desired_mean"] = g2 * np.conj(channel.diag)
    sums["signal_powers"] = g2**2 * channel.power.T
    sums["combiner_power"] = g2**2 * channel.ue_power
    d_h = np.matmul(np.conj(d_ul)[:, None, :], h_hat)[:, 0, :]  # d^H ĥ_k = conj(ĥ_k^H d)
    sums["distortion_power"] = g2 * np.sum(np.abs(d_h) ** 2, axis=0)


def _downlink_block(spec_dl, g_dl, delta, h_hat, channel, x, sums):
    """MRT sums of a block into the record sums, each named after the DownlinkMoments field it estimates.

    With the precoder w = ĥ/sqrt(delta) behind the DAC gain g_dl, the terms
    g_dl·h_k^H w_i are g_dl·A_ki/sqrt(delta).  The distortion term of every UE sums ||d||^2, which
    is E[|h_k^H d|^2 | d] for a channel independent of d.  The record also takes the precoder powers.
    """
    u = _matvec(h_hat, x)
    np.multiply(u.view(float), 1.0 / np.sqrt(delta), out=u.view(float))  # u / sqrt(delta) bit for bit
    d_dl = quantize(spec_dl, u)
    d_dl -= g_dl * u
    _residual_sums(d_dl, u, sums)
    sums["desired_mean"] = g_dl / np.sqrt(delta) * channel.diag
    sums["signal_powers"] = g_dl**2 / delta * channel.power
    sums["distortion_power"] = np.vdot(d_dl, d_dl).real
    sums["precoder"] = np.sum(channel.ue_power) / delta
    sums["precoder_diag"] = channel.antenna_power / delta


def _row_dtype(config, directions):
    """The dtype of one block's sums: a record per phase, "ce" and each of directions, of a field per sum name."""
    k = config.k_users
    residual = [("resid", complex), ("resid_sq", float)]
    moments = [("desired_mean", complex, (k,)), ("signal_powers", float, (k, k))]
    distortion = ("distortion_power", float, (k,))
    phases = {
        "ce": [*residual, ("delta", float)],
        "ul": [*residual, *moments, ("combiner_power", float, (k,)), distortion],
        "dl": [*residual, *moments, distortion, ("precoder", float), ("precoder_diag", float, (config.m,))],
    }
    return np.dtype([(phase, phases[phase]) for phase in ("ce", *directions)])


def _oracle_block(config, specs, stats, delta, pilots, seed, dtype, j, buffers):
    """Block j's sums, one row of dtype, from its draws of block_rng(seed, PHASE_ORACLE, j).

    The draws come in stream order: channels H and pilot noise into
    buffers, then the uplink symbols and noise and the downlink symbols of
    each direction that dtype has.  The pilot phase forms its quantized
    estimates Ĥ in the rest of buffers (d, Ĥ, y); once y is formed, the
    noise is scratch for the g·y and conj(y)·d products.  Both directions
    take their channel products from one _channel_sums, and each phase
    writes its sums straight into its record of the row.
    """
    spec_ce, spec_ul, spec_dl = specs
    h, noise, d_ce, h_hat, y_ce = buffers
    rng = block_rng(seed, PHASE_ORACLE, j)
    complex_gaussian(rng, h.shape, out=h)
    complex_gaussian(rng, noise.shape, out=noise)
    row = np.empty((), dtype)
    pilot_phase_signal(h, pilots, config.rho_bs, noise, out=y_ce)
    quantize(spec_ce, y_ce, out=d_ce)
    estimate_channel(d_ce, pilots, config.rho_bs, out=h_hat)
    d_ce -= np.multiply(stats.g_ce, y_ce, out=noise)
    _residual_sums(d_ce, y_ce, row["ce"], out=noise)
    channel = _channel_sums(h, h_hat)
    row["ce"]["delta"] = np.sum(channel.ue_power)
    size, k = len(h), config.k_users
    if "ul" in dtype.names:
        x, z = complex_gaussian(rng, (size, k)), complex_gaussian(rng, (size, config.m))
        _uplink_block(config.rho_bs, spec_ul, stats.g_ul, h, h_hat, channel, x, z, row["ul"])
    if "dl" in dtype.names:
        _downlink_block(spec_dl, stats.g_dl, delta, h_hat, channel, complex_gaussian(rng, (size, k)), row["dl"])
    return row


def _oracle_blocks(config, trials):
    """Trial counts of the oracle's blocks.

    A block's widest draw, its m*tau pilot noise, takes at most half of the
    1 MB that _blocks allows, so that the blocks of _block_table's two
    threads together hold about 1 MB of it.
    """
    return _blocks(trials, 2 * config.m * config.tau)


def _oracle_walk(config, specs, stats, delta, pilots, trials, seed, directions):
    """_block_table's arguments for the oracle: its per-block function, block sizes, row dtype and buffer shapes.

    The buffers are a block's channels and pilot noise and its pilot-phase
    d, Ĥ and y: three m x tau and two m x K arrays per trial.
    """
    m, k, tau = config.m, config.k_users, config.tau
    dtype = _row_dtype(config, directions)
    block_sum = functools.partial(_oracle_block, config, specs, stats, delta, pilots, seed, dtype)
    return block_sum, _oracle_blocks(config, trials), dtype, [(m, k), (m, tau), (m, tau), (m, k), (m, tau)]


def _residual(totals, n_samples):
    """(|mean d conj(y)|, its Monte Carlo standard error) from residual totals."""
    mean = totals["resid"] / n_samples
    var = max(float(totals["resid_sq"] / n_samples - abs(mean) ** 2), 0.0)
    return abs(complex(mean)), np.sqrt(var / n_samples)


def _report(direction, closed, mean, table, sizes, checks, tolerance, **report_fields):
    """ValidationReport of one direction from its closed-form moments of all K UEs and the trial means.

    The empirical moments are the closed-form ones with every simulated
    field (each field that mean names) set to its mean.  Each such field is
    paired with its closed form, the signal powers as cross (none at K = 1)
    and self powers, ahead of the further {moment: (field, closed)} checks;
    moment errors are relative to the closed-form mean.  A moment's value v
    is the mean of the real part of its entries; its standard error is
    sqrt(sum_j (r_j - n_j v)^2) / N over the blocks of table, the
    direction's per-block records of named sums, with r_j the same
    reduction of block j's sums, n_j its trials and N their total.
    """
    names = [f.name for f in fields(closed) if f.name in mean]
    emp = replace(closed, **{name: mean[name] for name in names})
    cross = ~np.eye(len(closed.desired_mean), dtype=bool)
    diag = np.arange(len(closed.desired_mean))
    pairs = {}  # moment -> (field, index of its entries, closed form of those entries)
    for name in names:
        closed_form = getattr(closed, name)
        if name == "signal_powers":
            if len(diag) > 1:
                pairs["cross_power"] = (name, np.s_[..., cross], closed_form[cross])
            pairs["self_power"] = (name, np.s_[..., diag, diag], np.diagonal(closed_form))
        else:
            pairs[name] = (name, np.s_[...], closed_form)
    checks = {name: (field, np.s_[...], closed_form) for name, (field, closed_form) in checks.items()}
    moment_errors, moment_stderr = {}, {}
    for name, (field, entries, closed_form) in {**pairs, **checks}.items():
        empirical = mean[field][entries]
        reference = np.mean(closed_form)
        error = abs(np.mean(empirical) - reference) / reference
        value = float(np.mean(np.real(empirical)))
        moment_errors[name] = (value, float(error))
        per_block = np.real(table[field][entries]).reshape(len(sizes), -1).mean(axis=1)
        moment_stderr[name] = float(np.sqrt(np.sum((per_block - sizes * value) ** 2)) / np.sum(sizes))
    emp = rates.sindr_from_moments(emp)
    closed = rates.sindr_from_moments(closed)
    rel = np.abs(emp - closed) / emp
    return ValidationReport(
        direction=direction,
        tolerance=tolerance,
        sindr_closed=closed,
        sindr_empirical=emp,
        sindr_rel_error=rel,
        moment_errors=moment_errors,
        moment_stderr=moment_stderr,
        passed=bool(np.all(rel <= tolerance)),
        **report_fields,
    )


def validate_closed_form(
    config,
    trials=DEFAULT_TRIALS,
    seed=0,
    tolerance=0.05,
    direction="both",
    specs=None,
    stats=None,
):
    """Compare the closed-form SINDRs against the full-chain empirical ones.

    Returns a dict {direction: ValidationReport} with one entry per requested
    direction ("ul" and "dl" for direction="both").  A tolerance violation
    yields passed=False in the report, not an exception; a tolerance that is
    not positive and finite is a ValueError.  specs default to default_specs
    and stats to their bussgang.exact_stats.
    """
    require("trials", trials, integer(1))
    require("tolerance", tolerance, POSITIVE)
    require("direction", direction, DIRECTION)
    if specs is None:
        specs = default_specs(config)
    if stats is None:
        stats = exact_stats(config, *specs)
    m, tau = config.m, config.tau
    moments = {"ul": rates.moments_ul_mrc, "dl": rates.moments_dl_mrt}
    delta = rates.mrt_normalization(config, stats)
    pilots = dft_pilots(tau, config.k_users)
    directions = DIRECTIONS[direction]

    block_sum, sizes, dtype, buffer_shapes = _oracle_walk(config, specs, stats, delta, pilots, trials, seed, directions)
    table = _block_table(block_sum, sizes, dtype, buffer_shapes)
    totals = {phase: {name: _fsum_blocks(table[phase][name]) for name in dtype[phase].names} for phase in dtype.names}
    ce_residual = _residual(totals["ce"], trials * m * tau)
    reports = {}
    for d in directions:
        mean = {name: total / trials for name, total in totals[d].items()}
        checks = {}
        if d == "dl":
            checks = {"precoder_frobenius": ("precoder", 1.0), "precoder_diag": ("precoder_diag", 1.0 / m)}
        reports[d] = _report(
            d,
            moments[d](config, stats),
            mean,
            table[d],
            np.array(sizes),
            checks,
            tolerance,
            trials=trials,
            seed=seed,
            bussgang_residual={"ce": ce_residual, d: _residual(totals[d], trials * m)},
            delta_closed=delta,
            delta_empirical=float(totals["ce"]["delta"] / trials),
        )
    return reports
