"""Full-chain Monte Carlo oracle for the closed-form SINDRs.

Simulates pilots -> ADC quantization -> channel estimation -> MRC/MRT ->
data-phase quantization -> reception, accumulates the expectation terms of
the general SINDR ratios, and compares the resulting empirical SINDRs with
the closed forms.

The chain draws from its own PHASE_ORACLE stream, one generator per chunk
(pilot phase, then uplink, then downlink), so it shares no random numbers
with the Monte Carlo moments of assemble_stats that it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quantmimo import rates
from quantmimo.airlink import complex_gaussian, dft_pilots, estimate_channel, pilot_phase_signal
from quantmimo.bussgang import (
    DEFAULT_TRIALS,
    PHASE_ORACLE,
    assemble_stats,
    chunk_rng,
    _chunks,
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
    ry = d * y.conj()
    return {"resid": np.sum(ry), "resid_sq": np.sum(np.abs(ry) ** 2)}


def _pilot_phase(config, spec_ce, g_ce, pilots, rng, size):
    """Channels and their quantized-pilot estimates for one chunk of trials.

    Returns (h, h_hat, sums); the pilot-phase signals are dropped here so
    they do not stay alive through the data phase.
    """
    h = complex_gaussian(rng, (size, config.m_ul, config.k_users))
    y_ce = pilot_phase_signal(h, pilots, config.rho_bs, complex_gaussian(rng, (size, config.m_ul, config.tau)))
    d_ce = quantize(spec_ce, y_ce)
    h_hat = estimate_channel(d_ce, pilots, config.rho_bs)
    d_ce -= g_ce * y_ce  # in place: one chunk-sized array fewer alive at the peak
    sums = _residual_sums(d_ce, y_ce)
    sums["delta"] = np.sum(np.abs(h_hat) ** 2)
    return h, h_hat, sums


def _uplink_chunk(rho_bs, spec_ul, g_ul, h, h_hat, rng, track_offdiag):
    """MRC moment sums of one chunk: E[v^H G h], E|v^H G h_i|^2, E||G v||^2, E[v^H C_d v]."""
    size, m, k = h.shape
    x = complex_gaussian(rng, (size, k))
    z_ul = complex_gaussian(rng, (size, m))
    y_ul = np.sqrt(rho_bs) * np.einsum("cmk,ck->cm", h, x) + z_ul
    d_ul = quantize(spec_ul, y_ul) - g_ul * y_ul
    v = g_ul * h_hat
    cross = g_ul * np.einsum("cmk,cmi->cki", v.conj(), h)
    sums = _residual_sums(d_ul, y_ul)
    sums["desired"] = np.einsum("ckk->k", cross)
    sums["signal"] = np.sum(np.abs(cross) ** 2, axis=0)
    sums["combiner"] = g_ul**2 * np.sum(np.abs(v) ** 2, axis=(0, 1))
    sums["distortion"] = np.sum(np.abs(np.einsum("cmk,cm->ck", v.conj(), d_ul)) ** 2, axis=0)
    if track_offdiag:
        sums["offdiag"] = np.einsum("cm,cn->mn", d_ul, d_ul.conj())
        sums["offdiag_sq"] = np.sum(np.abs(d_ul[:, 0] * d_ul[:, 1].conj()) ** 2)
    return sums


def _downlink_chunk(spec_dl, g_dl, delta, h, h_hat, rng):
    """MRT moment sums of one chunk: E[h^H G w], E|h^H G w_i|^2, E[h^H C_d h], precoder powers."""
    size, _, k = h.shape
    w = h_hat / np.sqrt(delta)
    x = complex_gaussian(rng, (size, k))
    u = np.einsum("cmk,ck->cm", w, x)
    d_dl = quantize(spec_dl, u) - g_dl * u
    cross = g_dl * np.einsum("cmk,cmi->cki", h.conj(), w)
    # E[h^H C_d h] has the unconditional distortion covariance, so the
    # channel is paired with another trial's distortion sample
    d_dec = np.roll(d_dl, 1, axis=0)
    w_power = np.abs(w) ** 2
    sums = _residual_sums(d_dl, u)
    sums["desired"] = np.einsum("ckk->k", cross)
    sums["signal"] = np.sum(np.abs(cross) ** 2, axis=0)
    sums["distortion"] = np.sum(np.abs(np.einsum("cmk,cm->ck", h.conj(), d_dec)) ** 2, axis=0)
    sums["precoder"] = np.sum(w_power)
    sums["precoder_diag"] = np.sum(w_power, axis=(0, 2))
    return sums


def _fsum_chunks(chunk_sums):
    """Element-wise totals of per-chunk sums, exactly rounded by math.fsum.

    Chunks are combined in chunk order, so the totals do not depend on how
    the chunks were scheduled.
    """
    totals = {}
    for name in chunk_sums[0]:
        parts = np.stack([s[name] for s in chunk_sums])
        flat = parts.reshape(len(chunk_sums), -1).T
        if np.iscomplexobj(flat):
            out = np.array([complex(math.fsum(col.real), math.fsum(col.imag)) for col in flat])
        else:
            out = np.array([math.fsum(col) for col in flat])
        totals[name] = out.reshape(parts.shape[1:])
    return totals


def _residual(totals, n_samples):
    """(|mean d conj(y)|, its Monte Carlo standard error) from residual totals."""
    mean = totals["resid"] / n_samples
    var = max(float(totals["resid_sq"] / n_samples - abs(mean) ** 2), 0.0)
    return abs(complex(mean)), np.sqrt(var / n_samples)


def _uplink_terms(config, stats, mean):
    """Empirical and closed-form UL SINDRs plus {moment: (empirical, closed)} pairs."""
    m, k, tau, rho = config.m_ul, config.k_users, config.tau, config.rho_bs
    g_ce, g_ul = stats.g_ce, stats.g_ul
    ce_noise = 1.0 + 1.0 / (rho * tau)
    inv_rt2 = 1.0 / (rho * tau**2)
    a_k = stats.a_k_at(m)
    closed_cross = ce_noise * g_ce**2 * g_ul**4 * m + inv_rt2 * g_ul**4 * a_k
    des, sig, comb, dst = mean["desired"], mean["signal"], mean["combiner"], mean["distortion"]
    emp = [
        rates.sindr_from_moments(
            rates.UplinkMoments(
                rho_bs=rho,
                desired_mean=des[kk],
                signal_powers=sig[kk],
                combiner_power=comb[kk],
                distortion_power=dst[kk],
            )
        )
        for kk in range(k)
    ]
    closed = [rates.sindr_ul_mrc(rates.SindrInputsUL(m, k, tau, rho, stats), ue=kk) for kk in range(k)]
    pairs = {
        "desired_mean": (des, g_ce * g_ul**2 * m),
        "cross_power": (sig[~np.eye(k, dtype=bool)], closed_cross),
        "self_power": (
            np.diagonal(sig),
            (m + 1.0 + 1.0 / (rho * tau)) * g_ce**2 * g_ul**4 * m + inv_rt2 * g_ul**4 * a_k,
        ),
        "combiner_power": (comb, closed_cross),
        "distortion_power": (
            dst,
            ce_noise * g_ce**2 * g_ul**2 * stats.trace_cd_ul + inv_rt2 * g_ul**2 * stats.b_k * (m / stats.m_ul),
        ),
    }
    return emp, closed, pairs


def _downlink_terms(config, stats, mean):
    """Empirical and closed-form DL SINDRs plus {moment: (empirical, closed)} pairs."""
    m, k, tau, rho = config.m_dl, config.k_users, config.tau, config.rho_bs
    g_ce, g_dl = stats.g_ce, stats.g_dl
    ce_noise = 1.0 + 1.0 / (rho * tau)
    inv_rt2 = 1.0 / (rho * tau**2)
    des, sig, dst = mean["desired"], mean["signal"], mean["distortion"]
    emp = [
        rates.sindr_from_moments(
            rates.DownlinkMoments(
                rho_ue=config.rho_ue,
                desired_mean=des[kk],
                signal_powers=sig[kk],
                distortion_power=dst[kk],
            )
        )
        for kk in range(k)
    ]
    closed = [
        rates.sindr_dl_mrt(rates.SindrInputsDL(m, k, tau, rho, config.rho_ue, stats), ue=kk) for kk in range(k)
    ]
    pairs = {
        "desired_mean": (des, g_ce * g_dl * m / np.sqrt(stats.delta)),
        "cross_power": (
            sig[~np.eye(k, dtype=bool)],
            (ce_noise * g_ce**2 * g_dl**2 * m + inv_rt2 * g_dl**2 * stats.a_k_at(m)) / stats.delta,
        ),
        "distortion_power": (dst, stats.trace_cd_dl),
        "precoder_frobenius": (mean["precoder"], 1.0),
        "precoder_diag": (mean["precoder_diag"], 1.0 / m),
    }
    return emp, closed, pairs


def _report(direction, emp, closed, pairs, tolerance, **fields):
    """ValidationReport for one direction; moment errors are relative to the closed-form mean."""
    emp = np.array(emp)
    closed = np.array(closed)
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
    spec_ce, spec_ul, spec_dl = specs
    if stats is None:
        stats = assemble_stats(config, spec_ce, spec_ul, spec_dl, trials=max(trials, 10_000), seed=seed)
    pilots = dft_pilots(config.tau, config.k_users)
    directions = ("ul", "dl") if direction == "both" else (direction,)

    chunk_sums = {phase: [] for phase in ("ce",) + directions}
    for chunk, size in _chunks(trials):
        rng = chunk_rng(seed, PHASE_ORACLE, chunk)
        h, h_hat, ce_sums = _pilot_phase(config, spec_ce, stats.g_ce, pilots, rng, size)
        chunk_sums["ce"].append(ce_sums)
        if "ul" in chunk_sums:
            chunk_sums["ul"].append(_uplink_chunk(config.rho_bs, spec_ul, stats.g_ul, h, h_hat, rng, track_offdiag))
        if "dl" in chunk_sums:
            chunk_sums["dl"].append(_downlink_chunk(spec_dl, stats.g_dl, stats.delta, h, h_hat, rng))

    m = config.m_ul
    ce = _fsum_chunks(chunk_sums["ce"])
    ce_residual = _residual(ce, trials * m * config.tau)
    reports = {}
    for d in directions:
        totals = _fsum_chunks(chunk_sums[d])
        mean = {name: total / trials for name, total in totals.items()}
        terms = _uplink_terms if d == "ul" else _downlink_terms
        off_max = off_sigma = None
        if d == "ul" and track_offdiag:
            off_max = float(np.max(np.abs(mean["offdiag"][~np.eye(m, dtype=bool)])))
            off_sigma = np.sqrt(max(float(mean["offdiag_sq"]), 0.0) / trials)
        reports[d] = _report(
            d,
            *terms(config, stats, mean),
            tolerance,
            trials=trials,
            seed=seed,
            bussgang_residual={"ce": ce_residual, d: _residual(totals, trials * m)},
            offdiag_max=off_max,
            offdiag_sigma=off_sigma,
            delta_closed=stats.delta,
            delta_empirical=float(ce["delta"] / trials),
        )
    if direction == "both":
        return reports
    return reports[direction]
