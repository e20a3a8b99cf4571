"""Effective SINDRs and ergodic achievable sum rates for MRC/MRT.

The closed forms take the scalar Bussgang gains and distortion moments from
BussgangStats; the moment-based forms take empirically estimated expectation
terms and are what the Monte Carlo validator assembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quantmimo.bussgang import BussgangStats


@dataclass(frozen=True)
class SindrInputsUL:
    m: int
    k_users: int
    tau: int
    rho_bs: float
    stats: BussgangStats

    def __post_init__(self):
        if min(self.m, self.k_users, self.tau) < 1 or self.rho_bs <= 0:
            raise ValueError("all uplink SINDR inputs must be positive")


@dataclass(frozen=True)
class SindrInputsDL:
    m: int
    k_users: int
    tau: int
    rho_bs: float
    rho_ue: float
    stats: BussgangStats

    def __post_init__(self):
        if min(self.m, self.k_users, self.tau) < 1 or self.rho_bs <= 0 or self.rho_ue <= 0:
            raise ValueError("all downlink SINDR inputs must be positive")


@dataclass(frozen=True)
class UplinkMoments:
    """Empirical expectation terms of the general uplink SINDR for one UE."""

    rho_bs: float
    desired_mean: complex              # E[v_k^H G h_k]
    signal_powers: np.ndarray          # E[|v_k^H G h_i|^2], i = 1..K
    combiner_power: float              # E[||G v_k||^2]
    distortion_power: float            # E[v_k^H C_d v_k]


@dataclass(frozen=True)
class DownlinkMoments:
    """Empirical expectation terms of the general downlink SINDR for one UE."""

    rho_ue: float
    desired_mean: complex              # E[h_k^H G w_k]
    signal_powers: np.ndarray          # E[|h_k^H G w_i|^2], i = 1..K
    distortion_power: float            # E[h_k^H C_d h_k]


def _check_finite(name, terms):
    for key, val in terms.items():
        if not np.all(np.isfinite(val)):
            raise ValueError(f"{name}: non-finite term {key}={val!r}; all terms: {terms}")


def sindr_ul_mrc(inputs, ue=0):
    """Closed-form uplink SINDR with imperfect CSI and MRC."""
    s = inputs.stats
    m, k, tau, rho = inputs.m, inputs.k_users, inputs.tau, inputs.rho_bs
    a_k = s.a_k_at(m)[ue]
    b_k = s.cd_ul_per_entry * a_k
    trace_cd = s.cd_ul_per_entry * m
    ce_noise = 1.0 + 1.0 / (rho * tau)
    inv_rt2 = 1.0 / (rho * tau**2)
    num = rho * s.g_ce**2 * s.g_ul**2 * m**2
    den = (
        (rho * k + 1.0) * ce_noise * s.g_ce**2 * s.g_ul**2 * m
        + (rho * k + 1.0) * inv_rt2 * s.g_ul**2 * a_k
        + ce_noise * s.g_ce**2 * trace_cd
        + inv_rt2 * b_k
    )
    _check_finite("sindr_ul_mrc", {"num": num, "den": den})
    return num / den


def sindr_dl_mrt(inputs, ue=0):
    """Closed-form downlink SINDR with imperfect CSI and MRT."""
    s = inputs.stats
    m, k, tau = inputs.m, inputs.k_users, inputs.tau
    rho_bs, rho_ue = inputs.rho_bs, inputs.rho_ue
    a_sum = float(np.sum(s.a_k_at(m)))
    trace_cd = s.cd_dl_per_entry * m
    ce_noise = 1.0 + 1.0 / (rho_bs * tau)
    inv_rt2 = 1.0 / (rho_bs * tau**2)
    num = rho_ue * s.g_ce**2 * s.g_dl**2 * m**2
    den = (
        rho_ue * k * ce_noise * s.g_ce**2 * s.g_dl**2 * m
        + rho_ue * inv_rt2 * s.g_dl**2 * a_sum
        + s.delta * rho_ue * trace_cd
        + s.delta
    )
    _check_finite("sindr_dl_mrt", {"num": num, "den": den})
    return num / den


def sindr_from_moments(moments, tol=1e-9):
    """Assemble the general SINDR ratio from expectation terms.

    The interference term is the total signal power minus the coherent
    desired power; a residual more negative than tol times the total is a
    moment-estimation failure and is rejected.
    """
    if isinstance(moments, UplinkMoments):
        rho = moments.rho_bs
        noise_and_dist = moments.combiner_power + moments.distortion_power
    elif isinstance(moments, DownlinkMoments):
        rho = moments.rho_ue
        noise_and_dist = rho * moments.distortion_power + 1.0
    else:
        raise TypeError(f"unsupported moment set {type(moments).__name__}")
    desired = abs(moments.desired_mean) ** 2
    total = float(np.sum(moments.signal_powers))
    interference = rho * (total - desired)
    if interference < -tol * max(rho * total, 1.0):
        raise ValueError(
            f"negative interference residual {interference:.3e}: "
            "signal powers are inconsistent with the desired mean"
        )
    den = max(interference, 0.0) + noise_and_dist
    _check_finite("sindr_from_moments", {"num": rho * desired, "den": den})
    return rho * desired / den


def sum_rate(bandwidth_hz, sindrs):
    """Ergodic achievable sum rate B * sum_k log2(1 + gamma_k), in bit/s."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    sindrs = np.asarray(sindrs, dtype=float)
    if np.any(sindrs < 0):
        raise ValueError(f"negative SINDR in {sindrs}")
    return float(bandwidth_hz * np.sum(np.log2(1.0 + sindrs)))
