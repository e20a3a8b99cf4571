"""Full-chain Monte Carlo oracle for the closed-form SINDRs.

Simulates pilots -> ADC quantization -> channel estimation -> MRC/MRT ->
data-phase quantization -> reception, accumulates the expectation terms of
the general SINDR ratios, and compares the resulting empirical SINDRs with
the closed forms.

The chain draws from its own PHASE_ORACLE stream, one generator per chunk
(pilot phase, then uplink, then downlink), so it shares no random numbers
with the Monte Carlo moments of assemble_stats that it checks.  Each
chunk's random numbers are drawn first, in that order; the chain then runs
over the chunk in cache-sized blocks of trials.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _chunks,
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
    delta_closed: float | None
    delta_empirical: float | None
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
        if self.delta_closed is not None:
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
    """Sums of d conj(y) and of its squared magnitude over a chunk."""
    ry = np.conj(y)
    ry *= d
    return {"resid": np.sum(ry), "resid_sq": np.vdot(ry, ry).real}


def _pilot_phase(rho_bs, spec_ce, g_ce, pilots, h, noise):
    """Quantized-pilot channel estimates of a block of trials, and the block's pilot-phase sums."""
    y_ce = pilot_phase_signal(h, pilots, rho_bs, noise)
    d_ce = quantize(spec_ce, y_ce)
    h_hat = estimate_channel(d_ce, pilots, rho_bs)
    d_ce -= g_ce * y_ce
    sums = _residual_sums(d_ce, y_ce)
    sums["delta"] = np.vdot(h_hat, h_hat).real
    return h_hat, sums


def _matvec(a, x):
    """Per-trial matrix-vector products a[c] @ x[c] of a (C, M, K) and a (C, K) batch."""
    return np.matmul(a, x[:, :, None])[:, :, 0]


def _uplink_block(rho_bs, spec_ul, g_ul, h, h_hat, x, z_ul, track_offdiag):
    """MRC moment sums of a block: E[v^H G h], E|v^H G h_i|^2, E||G v||^2, E[v^H C_d v]."""
    y_ul = _matvec(h, x)
    y_ul *= np.sqrt(rho_bs)
    y_ul += z_ul
    d_ul = quantize(spec_ul, y_ul)
    d_ul -= g_ul * y_ul
    v = g_ul * h_hat
    v_h = np.conj(v).transpose(0, 2, 1)
    cross = np.matmul(v_h, h)
    cross *= g_ul
    sums = _residual_sums(d_ul, y_ul)
    sums["desired"] = np.einsum("ckk->k", cross)
    sums["signal"] = np.sum(np.abs(cross) ** 2, axis=0)
    sums["combiner"] = g_ul**2 * np.sum(np.abs(v) ** 2, axis=(0, 1))
    sums["distortion"] = np.sum(np.abs(_matvec(v_h, d_ul)) ** 2, axis=0)
    if track_offdiag:
        sums["offdiag"] = d_ul.T @ d_ul.conj()
        sums["offdiag_sq"] = np.sum(np.abs(d_ul[:, 0] * d_ul[:, 1].conj()) ** 2)
    return sums


def _downlink_block(spec_dl, g_dl, delta, h, h_hat, x, d_prev):
    """MRT moment sums of a block: E[h^H G w], E|h^H G w_i|^2, E[h^H C_d h], precoder powers.

    E[h^H C_d h] has the unconditional distortion covariance, so each
    trial's channel is paired with the previous trial's distortion sample;
    d_prev is that of the trial before the block.  Returns the sums and the
    block's last distortion row, the next block's d_prev.
    """
    w = h_hat / np.sqrt(delta)
    u = _matvec(w, x)
    d_dl = quantize(spec_dl, u)
    d_dl -= g_dl * u
    h_h = np.conj(h).transpose(0, 2, 1)
    cross = np.matmul(h_h, w)
    cross *= g_dl
    d_dec = np.concatenate((d_prev[None], d_dl[:-1]))
    w_power = np.abs(w) ** 2
    sums = _residual_sums(d_dl, u)
    sums["desired"] = np.einsum("ckk->k", cross)
    sums["signal"] = np.sum(np.abs(cross) ** 2, axis=0)
    sums["distortion"] = np.sum(np.abs(_matvec(h_h, d_dec)) ** 2, axis=0)
    sums["precoder"] = np.sum(w_power)
    sums["precoder_diag"] = np.sum(w_power, axis=(0, 2))
    return sums, d_dl[-1]


def _wrap_pair(h_first, d_last):
    """Distortion sum of a chunk's first trial, paired with its last trial's distortion.

    The first block pairs that trial with zeros, so the pairs of a chunk are
    those of np.roll(d, 1) over the whole chunk.
    """
    return {"distortion": np.abs(np.conj(h_first).T @ d_last) ** 2}


def _chunk_sums(config, specs, stats, delta, pilots, rng, size, track_offdiag, directions):
    """Per-block moment sums of one chunk: {phase: [sums of each block]} for "ce" and each direction.

    The chunk's random numbers are drawn first, in stream order: pilot-phase
    channels and noise, then the uplink's symbols and noise, then the
    downlink's symbols.  The chain then runs one cache-sized block of trials
    at a time.
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
        d_prev = np.zeros(m, dtype=complex)
    sums = {phase: [] for phase in ("ce",) + directions}
    for block in _blocks(size, m * config.tau):
        h_hat, ce_sums = _pilot_phase(config.rho_bs, spec_ce, stats.g_ce, pilots, h[block], noise[block])
        sums["ce"].append(ce_sums)
        if "ul" in directions:
            ul_sums = _uplink_block(
                config.rho_bs, spec_ul, stats.g_ul, h[block], h_hat, x_ul[block], z_ul[block], track_offdiag
            )
            sums["ul"].append(ul_sums)
        if "dl" in directions:
            dl_sums, d_prev = _downlink_block(spec_dl, stats.g_dl, delta, h[block], h_hat, x_dl[block], d_prev)
            sums["dl"].append(dl_sums)
    if "dl" in directions:
        sums["dl"].append(_wrap_pair(h[0], d_prev))
    return sums


def _totals(block_sums):
    """Exactly rounded totals of a list of per-block {name: sum} dicts.

    Names missing from a dict (such as all but distortion in a _wrap_pair)
    add nothing.
    """
    return {name: _fsum_chunks([s[name] for s in block_sums if name in s]) for name in block_sums[0]}


def _residual(totals, n_samples):
    """(|mean d conj(y)|, its Monte Carlo standard error) from residual totals."""
    mean = totals["resid"] / n_samples
    var = max(float(totals["resid_sq"] / n_samples - abs(mean) ** 2), 0.0)
    return abs(complex(mean)), np.sqrt(var / n_samples)


def _closed_values(closed, name):
    """One field of the per-UE closed-form moments, stacked over UEs."""
    return np.array([getattr(c, name) for c in closed])


def _uplink_terms(inputs, mean):
    """Empirical and closed-form UL moments per UE plus {moment: (empirical, closed)} pairs."""
    k = inputs.k_users
    closed = [rates.moments_ul_mrc(inputs, ue) for ue in range(k)]
    emp = [
        rates.UplinkMoments(
            rho_bs=inputs.rho_bs,
            desired_mean=mean["desired"][ue],
            signal_powers=mean["signal"][ue],
            combiner_power=mean["combiner"][ue],
            distortion_power=mean["distortion"][ue],
        )
        for ue in range(k)
    ]
    signal = _closed_values(closed, "signal_powers")
    cross = ~np.eye(k, dtype=bool)
    pairs = {
        "desired_mean": (mean["desired"], _closed_values(closed, "desired_mean")),
        "cross_power": (mean["signal"][cross], signal[cross]),
        "self_power": (np.diagonal(mean["signal"]), np.diagonal(signal)),
        "combiner_power": (mean["combiner"], _closed_values(closed, "combiner_power")),
        "distortion_power": (mean["distortion"], _closed_values(closed, "distortion_power")),
    }
    return emp, closed, pairs


def _downlink_terms(inputs, mean):
    """Empirical and closed-form DL moments per UE plus {moment: (empirical, closed)} pairs."""
    m, k = inputs.m, inputs.k_users
    closed = [rates.moments_dl_mrt(inputs, ue) for ue in range(k)]
    emp = [
        rates.DownlinkMoments(
            rho_ue=inputs.rho_ue,
            desired_mean=mean["desired"][ue],
            signal_powers=mean["signal"][ue],
            distortion_power=mean["distortion"][ue],
        )
        for ue in range(k)
    ]
    cross = ~np.eye(k, dtype=bool)
    pairs = {
        "desired_mean": (mean["desired"], _closed_values(closed, "desired_mean")),
        "cross_power": (mean["signal"][cross], _closed_values(closed, "signal_powers")[cross]),
        "distortion_power": (mean["distortion"], _closed_values(closed, "distortion_power")),
        "precoder_frobenius": (mean["precoder"], 1.0),
        "precoder_diag": (mean["precoder_diag"], 1.0 / m),
    }
    return emp, closed, pairs


def _report(direction, emp, closed, pairs, tolerance, **fields):
    """ValidationReport from per-UE moments; moment errors are relative to the closed-form mean."""
    emp = np.array([rates.sindr_from_moments(x) for x in emp])
    closed = np.array([rates.sindr_from_moments(x) for x in closed])
    rel = np.abs(emp - closed) / emp
    moment_errors = {}
    for name, (empirical, closed_form) in pairs.items():
        reference = np.mean(closed_form)
        error = abs(np.mean(empirical) - reference) / reference
        moment_errors[name] = (float(np.mean(np.real(empirical))), float(error))
    return ValidationReport(
        direction=direction,
        tolerance=tolerance,
        sindr_closed=closed,
        sindr_empirical=emp,
        sindr_rel_error=rel,
        moment_errors=moment_errors,
        passed=bool(np.all(rel <= tolerance)),
        **fields,
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

    Returns one ValidationReport per requested direction.  A tolerance
    violation yields passed=False in the report, not an exception.
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
    delta = rates.mrt_normalization(inputs["dl"])
    pilots = dft_pilots(tau, k)
    directions = ("ul", "dl") if direction == "both" else (direction,)

    block_sums = {phase: [] for phase in ("ce",) + directions}
    for chunk, size in _chunks(trials):
        rng = chunk_rng(seed, PHASE_ORACLE, chunk)
        chunk_sums = _chunk_sums(config, specs, stats, delta, pilots, rng, size, track_offdiag, directions)
        for phase, sums in chunk_sums.items():
            block_sums[phase] += sums

    ce = _totals(block_sums["ce"])
    ce_residual = _residual(ce, trials * m * tau)
    reports = {}
    for d in directions:
        totals = _totals(block_sums[d])
        mean = {name: total / trials for name, total in totals.items()}
        terms = _uplink_terms if d == "ul" else _downlink_terms
        off_max = off_sigma = None
        if d == "ul" and track_offdiag:
            off_max = float(np.max(np.abs(mean["offdiag"][~np.eye(m, dtype=bool)])))
            off_sigma = np.sqrt(max(float(mean["offdiag_sq"]), 0.0) / trials)
        reports[d] = _report(
            d,
            *terms(inputs[d], mean),
            tolerance,
            trials=trials,
            seed=seed,
            bussgang_residual={"ce": ce_residual, d: _residual(totals, trials * m)},
            offdiag_max=off_max,
            offdiag_sigma=off_sigma,
            delta_closed=delta,
            delta_empirical=float(ce["delta"] / trials),
        )
    if direction == "both":
        return reports
    return reports[direction]
