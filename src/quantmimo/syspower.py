"""Converter power models, the hardware envelope and its antenna budget, and the link budget.

SI units internally (watts, Hz, meters); dBm/dB appear only at the config
boundary in LinkBudget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quantmimo.bussgang import MAX_ANTENNAS
from quantmimo.checks import FINITE, POSITIVE, above, integer, require


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
            require(name, getattr(self, name), POSITIVE)

    def p_rf(self, direction):
        return by_direction(direction, self.p_rf_ul, self.p_rf_dl)

    def p_conv(self, direction, b, bandwidth_hz):
        return by_direction(direction, p_adc, p_dac)(b, bandwidth_hz, self)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit powers, pathloss law, and noise figure."""

    p_ue_dbm: float = 20.0
    p_bs_dbm: float = 30.0
    alpha: float = 4.0
    distance_m: float = 100.0
    noise_figure_db: float = 13.0

    def __post_init__(self):
        if np.ndim(self.distance_m) != 0:
            raise ValueError(f"distance_m must be one distance for all users, got {self.distance_m!r}")
        for name in ("p_ue_dbm", "p_bs_dbm", "noise_figure_db"):
            require(name, getattr(self, name), FINITE)
        require("distance_m", self.distance_m, POSITIVE)
        require("alpha", self.alpha, above(2))  # the pathloss exponent


def p_adc(b, bandwidth_hz, params=PowerModelParams()):
    """ADC power draw in watts at b bits and bandwidth_hz."""
    require("b", b, integer(1))
    require("bandwidth_hz", bandwidth_hz, POSITIVE)
    try:
        scale = 10.0 ** (0.1525 * b - 4.838)
    except OverflowError:
        raise ValueError(f"a {b}-bit ADC draws more power than a float holds") from None
    return 3.0 * params.v_dd**2 * params.l_min * (2.0 * bandwidth_hz + params.f_cor) * scale


def p_dac(b, bandwidth_hz, params=PowerModelParams()):
    """DAC power draw in watts at b bits and bandwidth_hz."""
    require("b", b, integer(1))
    require("bandwidth_hz", bandwidth_hz, POSITIVE)
    try:
        levels = 2.0**b - 1.0
    except OverflowError:
        raise ValueError(f"a {b}-bit DAC draws more power than a float holds") from None
    static = 0.5 * params.v_dd * params.i_0 * levels
    dynamic = b * params.c_p * (2.0 * bandwidth_hz + params.f_cor) * params.v_dd**2
    return static + dynamic


def _chain_power(p_rf, p_conv):
    """Power of one RF chain: the RF power plus two converters (I and Q)."""
    return p_rf + 2.0 * p_conv


def envelope_from_reference(bits_ref, bandwidth_ref_hz, count_ref, direction, params=PowerModelParams()):
    """Hardware envelope supplying count_ref chains at a reference resolution."""
    p_conv = params.p_conv(direction, bits_ref, bandwidth_ref_hz)
    return count_ref * _chain_power(params.p_rf(direction), p_conv)


def antennas_budget(p_hw, p_rf, p_conv):
    """Antenna count supplied by the hardware envelope: floor(P_HW / chain).

    The tiny slack tolerates the one-ulp case where the envelope is an exact
    multiple of the chain power.  A count above MAX_ANTENNAS, infinite ones
    included, is a ValueError: the simulation could not hold its arrays.
    """
    chain = _chain_power(p_rf, p_conv)
    if chain <= 0:
        raise ValueError("chain power must be positive")
    m = p_hw / chain * (1.0 + 1e-12)
    if not m <= MAX_ANTENNAS:
        raise ValueError(f"{p_hw:.4g} W supplies {m:.4g} chains of {chain:.4g} W, more than the {MAX_ANTENNAS} allowed")
    m = int(np.floor(m))
    if m < 1:
        raise InfeasibleConfigError(f"envelope {p_hw:.4g} W cannot supply one chain of {chain:.4g} W")
    return m


def envelope_antennas(bits_ref, bandwidth_ref_hz, count_ref, direction, b, bandwidth_hz, params=PowerModelParams()):
    """Antennas (antennas_budget) that the envelope_from_reference envelope supplies at b bits and bandwidth_hz."""
    p_hw = envelope_from_reference(bits_ref, bandwidth_ref_hz, count_ref, direction, params)
    return antennas_budget(p_hw, params.p_rf(direction), params.p_conv(direction, b, bandwidth_hz))


def noise_power_dbm(bandwidth_hz, noise_figure_db):
    return noise_figure_db - 174.0 + 10.0 * np.log10(bandwidth_hz)


def snr_linear(direction, budget, bandwidth_hz):
    """Linear receive SNR: transmit power minus pathloss minus thermal noise.

    Uplink returns the SNR at the BS, downlink the SNR at the UEs; every UE
    sits at the same distance.
    """
    require("bandwidth_hz", bandwidth_hz, POSITIVE)
    tx_dbm = by_direction(direction, budget.p_ue_dbm, budget.p_bs_dbm)
    # an SNR too large for a float is inf, which SystemConfig rejects
    with np.errstate(over="ignore"):
        pathloss_db = 10.0 * budget.alpha * np.log10(budget.distance_m)
        snr_db = tx_dbm - pathloss_db - noise_power_dbm(bandwidth_hz, budget.noise_figure_db)
        return float(10.0 ** (snr_db / 10.0))
