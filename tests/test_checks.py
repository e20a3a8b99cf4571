"""Every numeric argument of the public entry points goes through one vocabulary, quantmimo.checks."""

import math
import re

import numpy as np
import pytest

from quantmimo import rates
from quantmimo.airlink import dft_pilots
from quantmimo.bussgang import (
    SystemConfig,
    assemble_stats,
    ce_distortion_projections,
    distortion_power,
    distortion_trace,
    gain_scalar,
)
from quantmimo.checks import FINITE, POSITIVE, POSITIVE_HZ, above, integer, require
from quantmimo.mcsim import default_specs, validate_closed_form
from quantmimo.quant import design_lloyd_max, rescale_labels
from quantmimo.syspower import Envelope, LinkBudget, PowerModelParams, p_adc, p_dac, snr_linear


def test_checks_take_numbers_and_no_bools():
    assert require("n", np.int64(3), integer(1, 3)) == 3
    for value in (0, 4, 2.0, True, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match=r"^n must be an integer in \[1, 3\], got "):
            require("n", value, integer(1, 3))
    assert require("x", np.float64(0.5), POSITIVE) == 0.5 and require("x", 10**400, POSITIVE) == 10**400
    for value in (0, -1.0, math.inf, math.nan, True, "1", np.ones(1)):
        with pytest.raises(ValueError, match="^x must be positive and finite, got "):
            require("x", value, POSITIVE)
    assert require("x", -5, FINITE) == -5 and require("x", 2.5, above(2)) == 2.5
    for value, check in ((-math.inf, FINITE), (math.nan, FINITE), (False, FINITE), (2, above(2)), (math.inf, above(2))):
        with pytest.raises(ValueError, match="^x must be "):
            require("x", value, check)
    # a bandwidth in GHz is finite in Hz too, and no int too large for a float raises
    assert require("ghz", 0.1, POSITIVE_HZ) == 0.1 and require("ghz", 10**6, POSITIVE_HZ) == 10**6
    for value in (1e300, 10**400, 0, math.inf, True):
        with pytest.raises(ValueError, match="^ghz must be positive and finite in Hz, got "):
            require("ghz", value, POSITIVE_HZ)


SCENARIO = dict(m_ul=8, m_dl=8, k_users=2, tau=4, bits=2, rho_bs=1.0, rho_ue=1.0)
CONFIG = SystemConfig(**SCENARIO)
SPEC_CE = default_specs(CONFIG)[0]
PILOTS = dft_pilots(4, 2)
SPEC = design_lloyd_max(2, 1.0)

# (entry point, valid keyword arguments, integer arguments, real arguments); each
# argument is one keyword of the call, named in the ValueError when it is bad
ENTRY_POINTS = [
    (SystemConfig, SCENARIO, ["m_ul", "m_dl", "k_users", "tau", "bits"], ["rho_bs", "rho_ue"]),
    (gain_scalar, dict(spec=SPEC, complex_variance=2.0), [], ["complex_variance"]),
    (distortion_power, dict(spec=SPEC, complex_variance=2.0), [], ["complex_variance"]),
    (
        distortion_trace,
        dict(spec=SPEC, complex_variance=2.0, dim=4, trials=10_000, seed=0),
        ["dim", "trials"],
        ["complex_variance"],
    ),
    (
        ce_distortion_projections,
        dict(spec=SPEC_CE, pilots=PILOTS, rho_bs=1.0, trials=10_000, seed=0),
        ["trials"],
        ["rho_bs"],
    ),
    (assemble_stats, dict(config=CONFIG, spec_ce=SPEC_CE, spec_ul=SPEC_CE, spec_dl=SPEC, trials=10_000), ["trials"], []),
    (design_lloyd_max, dict(bits=2, component_std=1.0), ["bits"], ["component_std"]),
    (rescale_labels, dict(spec=SPEC, target_complex_variance=2.0), [], ["target_complex_variance"]),
    (dft_pilots, dict(tau=8, k_users=2), ["tau", "k_users"], []),
    (PowerModelParams, {}, [], ["v_dd", "l_min", "f_cor", "i_0", "c_p", "p_rf_ul", "p_rf_dl"]),
    (LinkBudget, {}, [], ["p_ue_dbm", "p_bs_dbm", "alpha", "distance_m", "noise_figure_db"]),
    (Envelope, {}, ["bits_ref", "count_ref"], ["bandwidth_ghz_ref"]),
    (p_adc, dict(b=2, bandwidth_hz=1e8), ["b"], ["bandwidth_hz"]),
    (p_dac, dict(b=2, bandwidth_hz=1e8), ["b"], ["bandwidth_hz"]),
    (snr_linear, dict(direction="ul", budget=LinkBudget(), bandwidth_hz=1e8), [], ["bandwidth_hz"]),
    (rates.sum_rate, dict(bandwidth_hz=1e8, sindrs=[1.0]), [], ["bandwidth_hz"]),
    (validate_closed_form, dict(config=CONFIG, trials=300, tolerance=0.05), ["trials"], ["tolerance"]),
]
# 2.5 is a bad value of an integer argument only
BAD_REALS = {"bool": True, "nan": math.nan, "inf": math.inf, "string": "3"}
BAD_INTEGERS = {**BAD_REALS, "non_integer": 2.5}
CASES = [
    pytest.param(call, kwargs, name, value, id=f"{call.__name__}-{name}-{kind}")
    for call, kwargs, integers, reals in ENTRY_POINTS
    for names, bad in ((integers, BAD_INTEGERS), (reals, BAD_REALS))
    for name in names
    for kind, value in bad.items()
] + [
    # the one check that is not of a number: a direction the oracle does not know
    pytest.param(
        validate_closed_form,
        dict(config=CONFIG, trials=300, tolerance=0.05),
        "direction",
        "sideways",
        id="validate_closed_form-direction-sideways",
    )
]


@pytest.mark.parametrize("call,kwargs", [pytest.param(e[0], e[1], id=e[0].__name__) for e in ENTRY_POINTS])
def test_the_valid_calls_of_the_table_pass(call, kwargs):
    call(**kwargs)


@pytest.mark.parametrize("call,kwargs,name,value", CASES)
def test_a_bad_number_is_a_value_error_naming_its_argument(call, kwargs, name, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(**{**kwargs, name: value})


def test_a_scenario_stays_within_the_caps_of_a_sweep_point():
    # an oracle call on the first would map ~1490 GiB of pilot noise per block: build them only
    with pytest.raises(ValueError, match=r"^m_ul must be an integer in \[1, 4096\], got 100000"):
        SystemConfig(100_000, 100_000, 4, 1_000_000, 2, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^tau must be an integer in \[1, 4096\], got 1000000"):
        SystemConfig(8, 8, 4, 1_000_000, 2, 1.0, 1.0)
    assert SystemConfig(4096, 4096, 4, 4096, 2, 1.0, 1.0).m == 4096
