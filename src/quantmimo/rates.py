"""Effective SINDRs and ergodic achievable sum rates for MRC/MRT.

One general SINDR ratio is assembled from expectation terms (UplinkMoments,
DownlinkMoments).  The closed-form terms are built here from the scalar
Bussgang gains and per-antenna distortion moments of BussgangStats, scaled
to the antenna count m; the Monte Carlo validator pairs its empirical terms
with the same dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quantmimo.bussgang import BussgangStats

RESIDUAL_TOL = 1e-9  # the negative interference residual sindr_from_moments tolerates, relative


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
    """Expectation terms of the general uplink SINDR for one UE."""

    rho_bs: float
    desired_mean: complex              # E[v_k^H G h_k]
    signal_powers: np.ndarray          # E[|v_k^H G h_i|^2], i = 1..K
    combiner_power: float              # E[||G v_k||^2]
    distortion_power: float            # E[v_k^H C_d v_k]


@dataclass(frozen=True)
class DownlinkMoments:
    """Expectation terms of the general downlink SINDR for one UE."""

    rho_ue: float
    desired_mean: complex              # E[h_k^H G w_k]
    signal_powers: np.ndarray          # E[|h_k^H G w_i|^2], i = 1..K
    distortion_power: float            # E[h_k^H C_d h_k]


def _check_finite(name, terms):
    for key, val in terms.items():
        if not np.all(np.isfinite(val)):
            raise ValueError(f"{name}: non-finite term {key}={val!r}; all terms: {terms}")


def _estimate_powers(inputs):
    """E[||h_hat_i||^2] for every UE i: estimation noise plus the pilot projection A_i."""
    s, m, tau, rho = inputs.stats, inputs.m, inputs.tau, inputs.rho_bs
    return (1.0 + 1.0 / (rho * tau)) * s.g_ce**2 * m + m * s.a_k / (rho * tau**2)


def mrt_normalization(inputs):
    """MRT precoder normalization delta = sum_i E[||h_hat_i||^2] over the UEs.

    Reads only m, tau, rho_bs and stats, which SindrInputsUL and
    SindrInputsDL both carry.
    """
    return float(np.sum(_estimate_powers(inputs)))


def moments_ul_mrc(inputs, ue=0):
    """Closed-form uplink expectation terms of UE ue with imperfect CSI and MRC."""
    s, m = inputs.stats, inputs.m
    estimate_power = _estimate_powers(inputs)[ue]
    desired = s.g_ce * s.g_ul**2 * m
    combiner = s.g_ul**4 * estimate_power
    powers = np.full(inputs.k_users, combiner)
    powers[ue] += desired**2
    return UplinkMoments(
        rho_bs=inputs.rho_bs,
        desired_mean=desired,
        signal_powers=powers,
        combiner_power=combiner,
        distortion_power=s.g_ul**2 * s.cd_ul * estimate_power,
    )


def moments_dl_mrt(inputs, ue=0):
    """Closed-form downlink expectation terms of UE ue with imperfect CSI and MRT.

    The precoder of UE i carries A_i, so every signal power has its own.
    """
    s, m = inputs.stats, inputs.m
    delta = mrt_normalization(inputs)
    desired = s.g_ce * s.g_dl * m / np.sqrt(delta)
    powers = s.g_dl**2 * _estimate_powers(inputs) / delta
    powers[ue] += desired**2
    return DownlinkMoments(
        rho_ue=inputs.rho_ue,
        desired_mean=desired,
        signal_powers=powers,
        distortion_power=m * s.cd_dl,
    )


def sindr_ul_mrc(inputs, ue=0):
    """Closed-form uplink SINDR with imperfect CSI and MRC."""
    return sindr_from_moments(moments_ul_mrc(inputs, ue))


def sindr_dl_mrt(inputs, ue=0):
    """Closed-form downlink SINDR with imperfect CSI and MRT."""
    return sindr_from_moments(moments_dl_mrt(inputs, ue))


def sindr_from_moments(moments):
    """Assemble the general SINDR ratio from expectation terms.

    The interference term is the total signal power minus the coherent
    desired power; a residual more negative than RESIDUAL_TOL times the total
    is a moment-estimation failure and is rejected.
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
    if interference < -RESIDUAL_TOL * max(rho * total, 1.0):
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
