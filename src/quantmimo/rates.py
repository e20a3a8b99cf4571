"""Effective SINDRs and ergodic achievable sum rates for MRC/MRT.

One general SINDR ratio is assembled from expectation terms (UplinkMoments,
DownlinkMoments), which hold all K UEs at once: one entry, or one row of
signal powers, per UE.  The closed-form terms take one input, (config,
stats): the scenario of a bussgang.SystemConfig (antenna count m, K UEs,
pilot length tau, the SNRs rho_bs and rho_ue) and the scalar Bussgang gains
and per-antenna distortion moments of a BussgangStats, which they scale to
m.  The Monte Carlo validator pairs its empirical terms with the same
dataclasses.  sindr_from_moments returns the K SINDRs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quantmimo.bussgang import SystemConfig

RESIDUAL_TOL = 1e-9  # the negative interference residual sindr_from_moments tolerates, relative


@dataclass(frozen=True)
class UplinkMoments:
    """Expectation terms of the general uplink SINDR, one entry per UE k."""

    rho_bs: float
    desired_mean: np.ndarray           # E[v_k^H G h_k], (K,)
    signal_powers: np.ndarray          # E[|v_k^H G h_i|^2], (K, K): row k over i
    combiner_power: np.ndarray         # E[||G v_k||^2], (K,)
    distortion_power: np.ndarray       # E[v_k^H C_d v_k], (K,)


@dataclass(frozen=True)
class DownlinkMoments:
    """Expectation terms of the general downlink SINDR, one entry per UE k."""

    rho_ue: float
    desired_mean: np.ndarray           # E[h_k^H G w_k], (K,)
    signal_powers: np.ndarray          # E[|h_k^H G w_i|^2], (K, K): row k over i
    distortion_power: np.ndarray       # E[h_k^H C_d h_k], (K,)


def _check_finite(name, terms):
    for key, val in terms.items():
        if not np.all(np.isfinite(val)):
            raise ValueError(f"{name}: non-finite term {key}={val!r}; all terms: {terms}")


def _estimate_powers(config, stats):
    """E[||h_hat_i||^2] for every UE i: estimation noise plus the pilot projection A_i.

    Every closed form calls this, so it is where stats meet a config: it
    rejects pilot projections a_k not of shape (K,).
    """
    if np.shape(stats.a_k) != (config.k_users,):
        raise ValueError(f"stats.a_k has shape {np.shape(stats.a_k)}, expected ({config.k_users},)")
    m, tau, rho = config.m, config.tau, config.rho_bs
    return (1.0 + 1.0 / (rho * tau)) * stats.g_ce**2 * m + m * stats.a_k / (rho * tau**2)


def mrt_normalization(config, stats):
    """MRT precoder normalization delta = sum_i E[||h_hat_i||^2] over the UEs."""
    return float(np.sum(_estimate_powers(config, stats)))


def moments_ul_mrc(config, stats):
    """Closed-form uplink expectation terms of every UE with imperfect CSI and MRC."""
    s, m, k = stats, config.m, config.k_users
    desired = s.g_ce * s.g_ul**2 * m
    estimate_power = _estimate_powers(config, stats)
    combiner = s.g_ul**4 * estimate_power
    powers = np.repeat(combiner[:, None], k, axis=1)
    powers[np.diag_indices(k)] += desired**2
    return UplinkMoments(
        rho_bs=config.rho_bs,
        desired_mean=np.full(k, desired),
        signal_powers=powers,
        combiner_power=combiner,
        distortion_power=s.g_ul**2 * s.cd_ul * estimate_power,
    )


def moments_dl_mrt(config, stats):
    """Closed-form downlink expectation terms of every UE with imperfect CSI and MRT.

    The precoder of UE i carries A_i, so every column of signal powers has its own.
    """
    s, m, k = stats, config.m, config.k_users
    delta = mrt_normalization(config, stats)
    desired = s.g_ce * s.g_dl * m / np.sqrt(delta)
    powers = np.tile(s.g_dl**2 * _estimate_powers(config, stats) / delta, (k, 1))
    powers[np.diag_indices(k)] += desired**2
    return DownlinkMoments(
        rho_ue=config.rho_ue,
        desired_mean=np.full(k, desired),
        signal_powers=powers,
        distortion_power=np.full(k, m * s.cd_dl),
    )


# Shims of the former per-direction input classes and per-UE wrappers: each
# calls the closed forms above and holds no check or formula of its own.


def SindrInputsUL(m, k_users, tau, rho_bs, stats):  # noqa: N802
    # only bench/make_reference.py calls this; bits = 1 and rho_ue = 1.0 are placeholders no formula reads
    return SystemConfig(m, m, k_users, tau, 1, rho_bs, 1.0), stats


def SindrInputsDL(m, k_users, tau, rho_bs, rho_ue, stats):  # noqa: N802
    # only bench/make_reference.py calls this; bits = 1 is a placeholder no formula reads
    return SystemConfig(m, m, k_users, tau, 1, rho_bs, rho_ue), stats


def sindr_ul_mrc(inputs, ue=0):
    # only bench/make_reference.py calls this, with the pair SindrInputsUL returns
    return sindr_from_moments(moments_ul_mrc(*inputs))[ue]


def sindr_dl_mrt(inputs, ue=0):
    # only bench/make_reference.py calls this, with the pair SindrInputsDL returns
    return sindr_from_moments(moments_dl_mrt(*inputs))[ue]


def sindr_from_moments(moments):
    """Assemble the general SINDR ratio of every UE from expectation terms: an array of K SINDRs.

    A UE's interference term is its total signal power minus its coherent
    desired power; a residual more negative than RESIDUAL_TOL times the total
    is a moment-estimation failure and is rejected, naming the first such UE.
    """
    if isinstance(moments, UplinkMoments):
        rho = moments.rho_bs
        noise_and_dist = moments.combiner_power + moments.distortion_power
    elif isinstance(moments, DownlinkMoments):
        rho = moments.rho_ue
        noise_and_dist = rho * moments.distortion_power + 1.0
    else:
        raise TypeError(f"unsupported moment set {type(moments).__name__}")
    desired = np.abs(moments.desired_mean) ** 2
    total = np.sum(moments.signal_powers, axis=1)
    interference = rho * (total - desired)
    negative = interference < -RESIDUAL_TOL * np.maximum(rho * total, 1.0)
    if np.any(negative):
        raise ValueError(
            f"UE {np.argmax(negative)}: negative interference residual {interference[negative][0]:.3e}: "
            "signal powers are inconsistent with the desired mean"
        )
    den = np.maximum(interference, 0.0) + noise_and_dist
    _check_finite("sindr_from_moments", {"num": rho * desired, "den": den})
    return rho * desired / den


def sum_rate(bandwidth_hz, sindrs):
    """Ergodic achievable sum rate B * sum_k log2(1 + gamma_k), in bit/s."""
    if not 0 < bandwidth_hz < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth_hz!r}")
    sindrs = np.asarray(sindrs, dtype=float)
    if not np.all((sindrs >= 0) & (sindrs < math.inf)):
        raise ValueError(f"SINDRs must be finite and non-negative, got {sindrs}")
    return float(bandwidth_hz * np.sum(np.log2(1.0 + sindrs)))
