"""Full-chain Monte Carlo oracle for the closed-form SINDRs.

Simulates pilots -> ADC quantization -> channel estimation -> MRC/MRT ->
data-phase quantization -> reception, accumulates the expectation terms of
the general SINDR ratios, and compares the resulting empirical SINDRs with
the closed forms.

The chain runs over the trials one cache-sized block at a time
(bussgang._blocks of the m*tau pilot noise, 256 trials at m 32, tau 8), so
its draws take about 1 MB whatever m, tau or the trial count.  Block j
draws from its own generator, chunk_rng(seed, PHASE_ORACLE, j), in the order
channels, pilot noise, uplink symbols and noise, downlink symbols; so the
block size defines the oracle's stream, and the oracle shares no random
numbers with the Monte Carlo moments of assemble_stats that it checks.
Both directions take their channel products from one per-trial
A = H^H Ĥ and |Ĥ|^2 of the block.  Each block's sums are kept as one row
of a float64 table per phase ("ce", "ul", "dl"; 103 floats, 824 bytes, a
block at K 4, m 32), whose columns math.fsum totals at the end and whose
rows give each moment's batch-means standard error.

The downlink distortion term E[h_k^H C_d h_k] is computed as E||d||^2: the
Bussgang model takes the DAC distortion d independent of the channel, so
E[|h_k^H d|^2 | d] = ||d||^2 exactly, the same for every UE.  The uplink
pairs the combiner and the distortion of the same trial, so its
E[v^H C_d v] also holds the distortion's dependence on the channel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from quantmimo import rates
from quantmimo.airlink import complex_gaussian, dft_pilots, estimate_channel, pilot_phase_signal
from quantmimo.bussgang import (
    DEFAULT_TRIALS,
    MIN_TRIALS,
    PHASE_ORACLE,
    assemble_stats,
    chunk_rng,
    _blocks,
    _fsum_chunks,
)
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
    offdiag_max: float | None
    offdiag_sigma: float | None
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
        if self.offdiag_max is not None:
            lines.append(f"offdiag_max {self.offdiag_max:.6g} sigma {self.offdiag_sigma:.6g}")
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


def _residual_sums(d, y):
    """Sums of d conj(y) and of its squared magnitude over a block."""
    ry = np.conj(y)
    ry *= d
    return {"resid": np.sum(ry), "resid_sq": np.vdot(ry, ry).real}


def _pilot_phase(rho_bs, spec_ce, g_ce, pilots, h, noise):
    """Quantized-pilot channel estimates of a block of trials, and the block's pilot-phase residual sums."""
    y_ce = pilot_phase_signal(h, pilots, rho_bs, noise)
    d_ce = quantize(spec_ce, y_ce)
    h_hat = estimate_channel(d_ce, pilots, rho_bs)
    d_ce -= g_ce * y_ce
    return h_hat, _residual_sums(d_ce, y_ce)


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
    hat_power = np.abs(h_hat) ** 2
    return _ChannelSums(
        np.einsum("ckk->k", a),
        np.sum(np.abs(a) ** 2, axis=0),
        np.sum(hat_power, axis=(0, 1)),
        np.sum(hat_power, axis=(0, 2)),
    )


def _uplink_block(rho_bs, spec_ul, g_ul, h, h_hat, channel, x, z_ul, track_offdiag):
    """MRC sums of a block, each named after the UplinkMoments field it estimates.

    With the combiner v = g_ul·ĥ behind the ADC gain g_ul, the terms
    g_ul·v_k^H h_i are g_ul^2·conj(A_ik).
    """
    y_ul = _matvec(h, x)
    y_ul *= np.sqrt(rho_bs)
    y_ul += z_ul
    d_ul = quantize(spec_ul, y_ul)
    d_ul -= g_ul * y_ul
    g2 = g_ul**2
    sums = _residual_sums(d_ul, y_ul)
    sums["desired_mean"] = g2 * np.conj(channel.diag)
    sums["signal_powers"] = g2**2 * channel.power.T
    sums["combiner_power"] = g2**2 * channel.ue_power
    d_h = np.matmul(np.conj(d_ul)[:, None, :], h_hat)[:, 0, :]  # d^H ĥ_k = conj(ĥ_k^H d)
    sums["distortion_power"] = g2 * np.sum(np.abs(d_h) ** 2, axis=0)
    if track_offdiag:
        sums["offdiag"] = d_ul.T @ d_ul.conj()
        sums["offdiag_sq"] = np.sum(np.abs(d_ul[:, 0] * d_ul[:, 1].conj()) ** 2)
    return sums


def _downlink_block(spec_dl, g_dl, delta, h_hat, channel, x):
    """MRT sums of a block, each named after the DownlinkMoments field it estimates, and precoder powers.

    With the precoder w = ĥ/sqrt(delta) behind the DAC gain g_dl, the terms
    g_dl·h_k^H w_i are g_dl·A_ki/sqrt(delta).  The distortion term of every UE sums ||d||^2, which
    is E[|h_k^H d|^2 | d] for a channel independent of d.
    """
    u = _matvec(h_hat, x)
    u /= np.sqrt(delta)
    d_dl = quantize(spec_dl, u)
    d_dl -= g_dl * u
    sums = _residual_sums(d_dl, u)
    sums["desired_mean"] = g_dl / np.sqrt(delta) * channel.diag
    sums["signal_powers"] = g_dl**2 / delta * channel.power
    sums["distortion_power"] = np.full(len(channel.diag), np.vdot(d_dl, d_dl).real)
    sums["precoder"] = np.sum(channel.ue_power) / delta
    sums["precoder_diag"] = channel.antenna_power / delta
    return sums


def _block_sums(config, specs, stats, delta, pilots, rng, size, track_offdiag, directions):
    """Moment sums of one block of size trials: {phase: {name: sum}} for "ce" and each direction.

    The block's random numbers are drawn first, in stream order: pilot-phase
    channels and noise, then the uplink's symbols and noise, then the
    downlink's symbols (each direction's only when it is requested).  Both
    directions take their channel products from one _channel_sums.
    """
    spec_ce, spec_ul, spec_dl = specs
    m, k = config.m_ul, config.k_users
    h = complex_gaussian(rng, (size, m, k))
    noise = complex_gaussian(rng, (size, m, config.tau))
    if "ul" in directions:
        x_ul = complex_gaussian(rng, (size, k))
        z_ul = complex_gaussian(rng, (size, m))
    if "dl" in directions:
        x_dl = complex_gaussian(rng, (size, k))
    h_hat, ce_sums = _pilot_phase(config.rho_bs, spec_ce, stats.g_ce, pilots, h, noise)
    channel = _channel_sums(h, h_hat)
    ce_sums["delta"] = np.sum(channel.ue_power)
    sums = {"ce": ce_sums}
    if "ul" in directions:
        sums["ul"] = _uplink_block(config.rho_bs, spec_ul, stats.g_ul, h, h_hat, channel, x_ul, z_ul, track_offdiag)
    if "dl" in directions:
        sums["dl"] = _downlink_block(spec_dl, stats.g_dl, delta, h_hat, channel, x_dl)
    return sums


class _BlockTable:
    """One phase's block sums, one float64 row per block.

    The layout, taken from the first block's {name: sum} dict, gives each
    name its columns, shape and whether it is complex (stored as real and
    imaginary pairs).  At K 4, m 32 a row holds 4 floats for "ce", 35 for
    "ul" and 64 for "dl".
    """

    def __init__(self, first, n_blocks):
        self.layout = {}
        width = 0
        for name, value in first.items():
            value = np.asarray(value)
            is_complex = np.iscomplexobj(value)
            size = value.size * (1 + is_complex)
            self.layout[name] = (slice(width, width + size), value.shape, is_complex)
            width += size
        self.rows = np.empty((n_blocks, width))

    def store(self, index, sums):
        row = self.rows[index]
        for name, (cols, _, is_complex) in self.layout.items():
            flat = np.ravel(sums[name])
            row[cols] = flat.view(np.float64) if is_complex else flat

    def _unpack(self, flat, name):
        """name's values, shaped (..., *shape), from the columns of flat."""
        cols, shape, is_complex = self.layout[name]
        part = flat[..., cols]
        return (part.view(np.complex128) if is_complex else part).reshape(flat.shape[:-1] + shape)

    def totals(self):
        """{name: total over the blocks}, each column exactly rounded by math.fsum."""
        flat = _fsum_chunks(self.rows)
        return {name: self._unpack(flat, name) for name in self.layout}

    def blocks(self, name):
        """name's sums, one per block, as an array of shape (blocks, *shape)."""
        return self._unpack(self.rows, name)


def _block_tables(config, specs, stats, delta, pilots, trials, seed, track_offdiag, directions):
    """Trials per block, and {phase: _BlockTable} of the block sums of "ce" and each direction."""
    blocks = _blocks(trials, config.m_ul * config.tau)  # the pilot noise is the widest draw
    tables = {}
    for index, block in enumerate(blocks):
        rng = chunk_rng(seed, PHASE_ORACLE, index)
        size = block.stop - block.start
        sums = _block_sums(config, specs, stats, delta, pilots, rng, size, track_offdiag, directions)
        if not tables:
            tables = {phase: _BlockTable(phase_sums, len(blocks)) for phase, phase_sums in sums.items()}
        for phase, phase_sums in sums.items():
            tables[phase].store(index, phase_sums)
    return np.array([block.stop - block.start for block in blocks]), tables


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
    sqrt(sum_j (r_j - n_j v)^2) / N over the table's blocks, with r_j the
    same reduction of block j's sums, n_j its trials and N their total.
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
        per_block = np.real(table.blocks(field)[entries]).reshape(len(sizes), -1).mean(axis=1)
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
    track_offdiag=False,
):
    """Compare the closed-form SINDRs against the full-chain empirical ones.

    Returns a dict {direction: ValidationReport} with one entry per requested
    direction ("ul" and "dl" for direction="both").  A tolerance violation
    yields passed=False in the report, not an exception.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if config.m_ul != config.m_dl:
        raise ValueError("validator expects a common antenna count for both directions")
    if direction not in ("ul", "dl", "both"):
        raise ValueError(f"direction must be 'ul', 'dl' or 'both', got {direction!r}")
    if specs is None:
        specs = default_specs(config)
    if stats is None:
        stats = assemble_stats(config, *specs, trials=max(trials, MIN_TRIALS), seed=seed)
    m, k, tau = config.m_ul, config.k_users, config.tau
    inputs = {
        "ul": rates.SindrInputsUL(m, k, tau, config.rho_bs, stats),
        "dl": rates.SindrInputsDL(m, k, tau, config.rho_bs, config.rho_ue, stats),
    }
    moments = {"ul": rates.moments_ul_mrc, "dl": rates.moments_dl_mrt}
    delta = rates.mrt_normalization(inputs["dl"])
    pilots = dft_pilots(tau, k)
    directions = ("ul", "dl") if direction == "both" else (direction,)

    sizes, tables = _block_tables(config, specs, stats, delta, pilots, trials, seed, track_offdiag, directions)
    ce = tables["ce"].totals()
    ce_residual = _residual(ce, trials * m * tau)
    reports = {}
    for d in directions:
        totals = tables[d].totals()
        mean = {name: total / trials for name, total in totals.items()}
        checks, off_max, off_sigma = {}, None, None
        if d == "dl":
            checks = {"precoder_frobenius": ("precoder", 1.0), "precoder_diag": ("precoder_diag", 1.0 / m)}
        elif track_offdiag:
            off_max = float(np.max(np.abs(mean["offdiag"][~np.eye(m, dtype=bool)])))
            off_sigma = np.sqrt(max(float(mean["offdiag_sq"]), 0.0) / trials)
        reports[d] = _report(
            d,
            moments[d](inputs[d]),
            mean,
            tables[d],
            sizes,
            checks,
            tolerance,
            trials=trials,
            seed=seed,
            bussgang_residual={"ce": ce_residual, d: _residual(totals, trials * m)},
            offdiag_max=off_max,
            offdiag_sigma=off_sigma,
            delta_closed=delta,
            delta_empirical=float(ce["delta"] / trials),
        )
    return reports
