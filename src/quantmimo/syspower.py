"""Converter power models, the hardware antenna budget, and the link budget.

SI units internally (watts, Hz, meters); dBm/dB appear only at the config
boundary in LinkBudget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InfeasibleConfigError(ValueError):
    """Hardware envelope cannot supply a single RF chain."""


def by_direction(direction, ul, dl):
    """The uplink or downlink value for a link direction; any other direction is an error."""
    if direction == "ul":
        return ul
    if direction == "dl":
        return dl
    raise ValueError(f"direction must be 'ul' or 'dl', got {direction!r}")


@dataclass(frozen=True)
class PowerModelParams:
    """Converter and RF-chain power constants."""

    v_dd: float = 3.0          # V
    l_min: float = 0.5e-6      # m
    f_cor: float = 1e6         # Hz
    i_0: float = 10e-6         # A
    c_p: float = 1e-12         # F
    p_rf_ul: float = 40e-3     # W
    p_rf_dl: float = 10e-3     # W

    def __post_init__(self):
        for name in ("v_dd", "l_min", "f_cor", "i_0", "c_p", "p_rf_ul", "p_rf_dl"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")

    def p_rf(self, direction):
        return by_direction(direction, self.p_rf_ul, self.p_rf_dl)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit powers, pathloss law, and noise figure."""

    p_ue_dbm: float = 20.0
    p_bs_dbm: float = 30.0
    alpha: float = 4.0
    distance_m: float = 100.0
    noise_figure_db: float = 13.0

    def __post_init__(self):
        if not np.all(np.asarray(self.distance_m) > 0):
            raise ValueError("distances must be positive")
        if not self.alpha > 2:
            raise ValueError("pathloss exponent must exceed 2")


def p_adc(b, bandwidth_hz, params=PowerModelParams()):
    """ADC power draw in watts at b bits and bandwidth_hz."""
    if b < 1 or bandwidth_hz <= 0:
        raise ValueError("require b >= 1 and bandwidth > 0")
    return 3.0 * params.v_dd**2 * params.l_min * (2.0 * bandwidth_hz + params.f_cor) * 10.0 ** (0.1525 * b - 4.838)


def p_dac(b, bandwidth_hz, params=PowerModelParams()):
    """DAC power draw in watts at b bits and bandwidth_hz."""
    if b < 1 or bandwidth_hz <= 0:
        raise ValueError("require b >= 1 and bandwidth > 0")
    static = 0.5 * params.v_dd * params.i_0 * (2.0**b - 1.0)
    dynamic = b * params.c_p * (2.0 * bandwidth_hz + params.f_cor) * params.v_dd**2
    return static + dynamic


def antennas_budget(p_hw, p_rf, p_conv):
    """Antenna count supplied by the hardware envelope: floor(P_HW / chain).

    Each chain costs the RF power plus two converters (I and Q).  The tiny
    slack tolerates the one-ulp case where the envelope is an exact multiple
    of the chain power.
    """
    denom = p_rf + 2.0 * p_conv
    if denom <= 0:
        raise ValueError("chain power must be positive")
    m = int(np.floor(p_hw / denom * (1.0 + 1e-12)))
    if m < 1:
        raise InfeasibleConfigError(
            f"envelope {p_hw:.4g} W cannot supply one chain of {denom:.4g} W"
        )
    return m


def noise_power_dbm(bandwidth_hz, noise_figure_db):
    return noise_figure_db - 174.0 + 10.0 * np.log10(bandwidth_hz)


def snr_linear(direction, budget, bandwidth_hz):
    """Linear receive SNR: transmit power minus pathloss minus thermal noise.

    Uplink returns the SNR at the BS, downlink the SNR at the UEs.  Scalar
    for the default equal-distance layout; array if per-UE distances are set.
    """
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    tx_dbm = by_direction(direction, budget.p_ue_dbm, budget.p_bs_dbm)
    distance = np.asarray(budget.distance_m, dtype=float)
    pathloss_db = 10.0 * budget.alpha * np.log10(distance)
    snr_db = tx_dbm - pathloss_db - noise_power_dbm(bandwidth_hz, budget.noise_figure_db)
    snr = 10.0 ** (snr_db / 10.0)
    if snr.ndim == 0:
        return float(snr)
    return snr
