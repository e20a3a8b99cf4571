"""Full-chain Monte Carlo oracle for the closed-form SINDRs.

Simulates pilots -> ADC quantization -> channel estimation -> MRC/MRT ->
data-phase quantization -> reception, accumulates the expectation terms of
the general SINDR ratios, and compares the resulting empirical SINDRs with
the closed forms.

The chain runs over the trials one cache-sized block at a time
(bussgang._blocks of the m*tau pilot noise, 256 trials at m 32, tau 8), so
its draws take about 1 MB whatever m, tau or the trial count.  Block j
draws from its own generator, block_rng(seed, PHASE_ORACLE, j), in the order
channels, pilot noise, uplink symbols and noise, downlink symbols; so the
block size defines the oracle's stream, and the oracle shares no random
numbers with the Monte Carlo moments of assemble_stats that it checks.

Each block is a draw step and a reduce step.  One persistent worker
thread, shared by all calls in the process, draws block j + 1 into one of
two draw buffer sets while the calling thread reduces block j from the
other (numpy's Gaussian fills and large ufuncs release the GIL); the
stream and every sum are those of drawing and reducing each block in turn.
The pilot phase of the reduce step works in buffers allocated once per
call.  Both directions take their channel products from one per-trial
A = H^H Ĥ and |Ĥ|^2 of the block.  Each block's sums go into one
preallocated (blocks, *shape) array per moment name and phase ("ce", "ul",
"dl"; 103 floats, 824 bytes, a block at K 4, m 32), which math.fsum totals
at the end and whose per-block entries give each moment's batch-means
standard error.

The downlink distortion term E[h_k^H C_d h_k] is computed as E||d||^2: the
Bussgang model takes the DAC distortion d independent of the channel, so
E[|h_k^H d|^2 | d] = ||d||^2 exactly, the same for every UE.  The uplink
pairs the combiner and the distortion of the same trial, so its
E[v^H C_d v] also holds the distortion's dependence on the channel.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
from concurrent import futures
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
    block_rng,
    _blocks,
    _fsum_blocks,
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


def _residual_sums(d, y, out=None):
    """Sums of d conj(y) and of its squared magnitude over a block; the products go into out when it is given."""
    ry = np.conjugate(y, out=out)
    ry *= d
    return {"resid": np.sum(ry), "resid_sq": np.vdot(ry, ry).real}


class _PilotBuffers(NamedTuple):
    """The pilot phase's arrays of a full block: distortion d, estimates Ĥ and ADC input y."""

    d: np.ndarray
    h_hat: np.ndarray
    y: np.ndarray


def _pilot_phase(rho_bs, spec_ce, g_ce, pilots, h, noise, buffers):
    """Quantized-pilot channel estimates of a block of trials, and the block's pilot-phase residual sums.

    The block's arrays go into the first len(h) trials of buffers; once y is
    formed, the noise is scratch for the g·y and conj(y)·d products.
    """
    d_ce, h_hat, y_ce = (buf[: len(h)] for buf in buffers)
    pilot_phase_signal(h, pilots, rho_bs, noise, out=y_ce)
    quantize(spec_ce, y_ce, out=d_ce)
    estimate_channel(d_ce, pilots, rho_bs, out=h_hat)
    d_ce -= np.multiply(g_ce, y_ce, out=noise)
    return h_hat, _residual_sums(d_ce, y_ce, out=noise)


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


class _Draws(NamedTuple):
    """A block's random numbers, its fields in stream order; a direction's are None when it is not requested."""

    h: np.ndarray
    noise: np.ndarray
    x_ul: np.ndarray | None
    z_ul: np.ndarray | None
    x_dl: np.ndarray | None


def _mapped_arrays(shapes):
    """Complex arrays of shapes (None for a None shape), carved in order from one anonymous memory map.

    The map is not on the heap, and it is unmapped once the last of the
    arrays is dropped.  Megabytes of arrays that live through an oracle
    call would, on the heap, leave a hole under the block tables allocated
    after them, which the reports that outlive the call then split into
    pieces too small for later large arrays (12 MB more peak RSS on the
    oracle benchmark).
    """
    lengths = [0 if shape is None else math.prod(shape) for shape in shapes]
    flat = np.frombuffer(mmap.mmap(-1, np.dtype(complex).itemsize * sum(lengths)), dtype=complex)
    pieces = np.split(flat, np.cumsum(lengths)[:-1])
    return [None if shape is None else piece.reshape(shape) for shape, piece in zip(shapes, pieces)]


def _block_buffers(config, size, directions):
    """Two unfilled _Draws for directions, used in turn, and one _PilotBuffers, for blocks of up to size trials."""
    m, k, tau = config.m, config.k_users, config.tau
    draws = [(size, m, k), (size, m, tau)]
    draws += [(size, k), (size, m)] if "ul" in directions else [None, None]
    draws += [(size, k)] if "dl" in directions else [None]
    arrays = _mapped_arrays(2 * draws + [(size, m, tau), (size, m, k), (size, m, tau)])
    n = len(draws)
    return (_Draws(*arrays[:n]), _Draws(*arrays[n : 2 * n])), _PilotBuffers(*arrays[2 * n :])


def _draw_block(buffers, rng, size):
    """The draw step: a block of size trials drawn from rng into the first size trials of buffers, in stream order."""
    blocks = (None if buf is None else buf[:size] for buf in buffers)
    return _Draws(*(None if out is None else complex_gaussian(rng, out.shape, out=out) for out in blocks))


def _block_sums(config, specs, stats, delta, pilots, draws, buffers, track_offdiag):
    """The reduce step: moment sums {phase: {name: sum}} of one block's draws, for "ce" and each drawn direction.

    The pilot phase works in place: its arrays go into buffers, a
    _PilotBuffers, and its g·y and conj(y)·d products overwrite draws.noise.
    Both directions take their channel products from one _channel_sums.
    """
    spec_ce, spec_ul, spec_dl = specs
    h = draws.h
    h_hat, ce_sums = _pilot_phase(config.rho_bs, spec_ce, stats.g_ce, pilots, h, draws.noise, buffers)
    channel = _channel_sums(h, h_hat)
    ce_sums["delta"] = np.sum(channel.ue_power)
    sums = {"ce": ce_sums}
    if draws.x_ul is not None:
        sums["ul"] = _uplink_block(
            config.rho_bs, spec_ul, stats.g_ul, h, h_hat, channel, draws.x_ul, draws.z_ul, track_offdiag
        )
    if draws.x_dl is not None:
        sums["dl"] = _downlink_block(spec_dl, stats.g_dl, delta, h_hat, channel, draws.x_dl)
    return sums


def _new_draw_thread():
    """Give the process its own draw thread, which starts at the first oracle call.

    One persistent worker thread, shared by every call in the process, runs
    the oracle's draw steps.  A forked child's copy of the parent's has no
    thread behind it, and its calls would wait on it forever.
    """
    global _draw_thread
    _draw_thread = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="quantmimo-draw")


_new_draw_thread()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_draw_thread)


def _block_tables(config, specs, stats, delta, pilots, trials, seed, track_offdiag, directions):
    """Trials per block, and {phase: {name: sums}} of "ce" and each direction.

    Each name's sums are one preallocated array of shape (blocks, *shape),
    whose row j holds block j's sum.  The draw thread fills block j + 1's
    draws into one of two draw buffer sets, taken in turn, while this
    thread reduces block j from the other.
    """
    sizes = _blocks(trials, config.m * config.tau)  # the pilot noise is the widest draw
    draw_sets, buffers = _block_buffers(config, sizes[0], directions)

    def draw(j):
        return _draw_thread.submit(_draw_block, draw_sets[j % 2], block_rng(seed, PHASE_ORACLE, j), sizes[j])

    tables = {}
    pending = draw(0)
    try:
        for j in range(len(sizes)):
            draws = pending.result()
            pending = draw(j + 1) if j + 1 < len(sizes) else None
            sums = _block_sums(config, specs, stats, delta, pilots, draws, buffers, track_offdiag)
            for phase, phase_sums in sums.items():
                table = tables.setdefault(phase, {})
                for name, value in phase_sums.items():
                    if j == 0:
                        table[name] = np.empty((len(sizes),) + np.shape(value), np.result_type(value))
                    table[name][j] = value
    finally:
        if pending is not None:  # the reduction raised: let the next block's draws finish before returning
            futures.wait([pending])
    return np.array(sizes), tables


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
    direction's {name: per-block sums}, with r_j the same reduction of
    block j's sums, n_j its trials and N their total.
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
    track_offdiag=False,
):
    """Compare the closed-form SINDRs against the full-chain empirical ones.

    Returns a dict {direction: ValidationReport} with one entry per requested
    direction ("ul" and "dl" for direction="both").  A tolerance violation
    yields passed=False in the report, not an exception; a tolerance that is
    not positive and finite is a ValueError.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real) or not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    if direction not in ("ul", "dl", "both"):
        raise ValueError(f"direction must be 'ul', 'dl' or 'both', got {direction!r}")
    if specs is None:
        specs = default_specs(config)
    if stats is None:
        stats = assemble_stats(config, *specs, trials=max(trials, MIN_TRIALS), seed=seed)
    m, tau = config.m, config.tau
    moments = {"ul": rates.moments_ul_mrc, "dl": rates.moments_dl_mrt}
    delta = rates.mrt_normalization(config, stats)
    pilots = dft_pilots(tau, config.k_users)
    directions = ("ul", "dl") if direction == "both" else (direction,)

    sizes, tables = _block_tables(config, specs, stats, delta, pilots, trials, seed, track_offdiag, directions)
    totals = {phase: {name: _fsum_blocks(sums) for name, sums in table.items()} for phase, table in tables.items()}
    ce_residual = _residual(totals["ce"], trials * m * tau)
    reports = {}
    for d in directions:
        mean = {name: total / trials for name, total in totals[d].items()}
        checks, off_max, off_sigma = {}, None, None
        if d == "dl":
            checks = {"precoder_frobenius": ("precoder", 1.0), "precoder_diag": ("precoder_diag", 1.0 / m)}
        elif track_offdiag:
            off_max = float(np.max(np.abs(mean["offdiag"][~np.eye(m, dtype=bool)])))
            off_sigma = np.sqrt(max(float(mean["offdiag_sq"]), 0.0) / trials)
        reports[d] = _report(
            d,
            moments[d](config, stats),
            mean,
            tables[d],
            sizes,
            checks,
            tolerance,
            trials=trials,
            seed=seed,
            bussgang_residual={"ce": ce_residual, d: _residual(totals[d], trials * m)},
            offdiag_max=off_max,
            offdiag_sigma=off_sigma,
            delta_closed=delta,
            delta_empirical=float(totals["ce"]["delta"] / trials),
        )
    return reports
