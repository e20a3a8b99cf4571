"""Quantized massive MIMO simulator: low-resolution ADC/DAC link analysis.

Closed-form uplink/downlink ergodic sum rates under imperfect CSI, a
full-chain Monte Carlo validator, and a sweep engine for the antenna /
resolution / bandwidth trade-off under a hardware power budget.
"""

from quantmimo.quant import QuantizerSpec, design_lloyd_max, rescale_labels, quantize
from quantmimo.airlink import PilotMatrix, dft_pilots, estimate_channel
from quantmimo.bussgang import (
    BussgangStats,
    SystemConfig,
    gain_scalar,
    distortion_power,
    exact_stats,
    distortion_trace,
    ce_distortion_projections,
    assemble_stats,
)
from quantmimo.rates import (
    UplinkMoments,
    DownlinkMoments,
    moments_ul_mrc,
    moments_dl_mrt,
    mrt_normalization,
    sindr_from_moments,
    sum_rate,
)
from quantmimo.syspower import PowerModelParams, LinkBudget, Envelope, p_adc, p_dac, antennas_budget, envelope_from_reference, snr_linear
from quantmimo.mcsim import ValidationReport, validate_closed_form
from quantmimo.config import SweepConfig
from quantmimo.sweep import SweepRecord, run_sweep, write_csv

__version__ = "0.1.0"
