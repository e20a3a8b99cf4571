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
A = H^H Ĥ and |Ĥ|^2 of the block.

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
            lines.append(f"moment_{name} {value:.9g} rel_error {err:.6g}")
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


def _totals(block_sums):
    """Exactly rounded totals of a list of per-block {name: sum} dicts."""
    return {name: _fsum_chunks([s[name] for s in block_sums]) for name in block_sums[0]}


def _residual(totals, n_samples):
    """(|mean d conj(y)|, its Monte Carlo standard error) from residual totals."""
    mean = totals["resid"] / n_samples
    var = max(float(totals["resid_sq"] / n_samples - abs(mean) ** 2), 0.0)
    return abs(complex(mean)), np.sqrt(var / n_samples)


def _report(direction, closed, mean, checks, tolerance, **report_fields):
    """ValidationReport of one direction from its per-UE closed-form moments and the trial means.

    A UE's empirical moments are its closed-form ones with every simulated
    field (each field that mean names, indexed by UE) set to its mean.  Each
    such field is paired with its closed form, the signal powers as cross
    and self powers, ahead of the further {name: (empirical, closed)} checks;
    moment errors are relative to the closed-form mean.
    """
    names = [f.name for f in fields(closed[0]) if f.name in mean]
    emp = [replace(c, **{name: mean[name][ue] for name in names}) for ue, c in enumerate(closed)]
    cross = ~np.eye(len(closed), dtype=bool)
    pairs = {}
    for name in names:
        closed_form = np.array([getattr(c, name) for c in closed])
        if name == "signal_powers":
            pairs["cross_power"] = (mean[name][cross], closed_form[cross])
            pairs["self_power"] = (np.diagonal(mean[name]), np.diagonal(closed_form))
        else:
            pairs[name] = (mean[name], closed_form)
    moment_errors = {}
    for name, (empirical, closed_form) in {**pairs, **checks}.items():
        reference = np.mean(closed_form)
        error = abs(np.mean(empirical) - reference) / reference
        moment_errors[name] = (float(np.mean(np.real(empirical))), float(error))
    emp = np.array([rates.sindr_from_moments(x) for x in emp])
    closed = np.array([rates.sindr_from_moments(x) for x in closed])
    rel = np.abs(emp - closed) / emp
    return ValidationReport(
        direction=direction,
        tolerance=tolerance,
        sindr_closed=closed,
        sindr_empirical=emp,
        sindr_rel_error=rel,
        moment_errors=moment_errors,
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

    block_sums = {phase: [] for phase in ("ce",) + directions}
    for index, block in enumerate(_blocks(trials, m * tau)):  # the pilot noise is the widest draw
        rng = chunk_rng(seed, PHASE_ORACLE, index)
        size = block.stop - block.start
        sums = _block_sums(config, specs, stats, delta, pilots, rng, size, track_offdiag, directions)
        for phase, phase_sums in sums.items():
            block_sums[phase].append(phase_sums)

    ce = _totals(block_sums["ce"])
    ce_residual = _residual(ce, trials * m * tau)
    reports = {}
    for d in directions:
        totals = _totals(block_sums[d])
        mean = {name: total / trials for name, total in totals.items()}
        checks, off_max, off_sigma = {}, None, None
        if d == "dl":
            checks = {"precoder_frobenius": (mean["precoder"], 1.0), "precoder_diag": (mean["precoder_diag"], 1.0 / m)}
        elif track_offdiag:
            off_max = float(np.max(np.abs(mean["offdiag"][~np.eye(m, dtype=bool)])))
            off_sigma = np.sqrt(max(float(mean["offdiag_sq"]), 0.0) / trials)
        reports[d] = _report(
            d,
            [moments[d](inputs[d], ue) for ue in range(k)],
            mean,
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
