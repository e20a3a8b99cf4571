"""Configuration-driven sweep over (direction, bits, bandwidth, pilot length).

Each sweep point derives the antenna count from the hardware envelope,
designs the converters, estimates the distortion moments, and evaluates the
closed-form sum rate.  Output is a fixed-schema CSV plus a sidecar metadata
block with the fully resolved configuration.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from quantmimo import rates
from quantmimo.bussgang import SystemConfig, assemble_stats
from quantmimo.mcsim import validate_closed_form
from quantmimo.quant import design_lloyd_max, rescale_labels
from quantmimo.syspower import (
    InfeasibleConfigError,
    LinkBudget,
    PowerModelParams,
    antennas_budget,
    by_direction,
    p_adc,
    p_dac,
    snr_linear,
)

CSV_COLUMNS = [
    "direction",
    "b",
    "bandwidth_hz",
    "tau",
    "m",
    "sum_rate_bps",
    "sindr_min",
    "sindr_max",
    "g_ce",
    "g_phase",
    "trace_cd",
    "delta",
    "trials",
    "seed",
]

_POWER_KEYS = {"v_dd", "l_min", "f_cor", "i_0", "c_p", "p_rf_ul", "p_rf_dl"}
_LINK_KEYS = {"p_ue_dbm", "p_bs_dbm", "alpha", "distance_m", "noise_figure_db"}
_ENVELOPE_KEYS = {"bits_ref", "bandwidth_ghz_ref", "count_ref"}
_TOP_KEYS = {
    "direction",
    "bits",
    "bandwidth_ghz",
    "tau",
    "k_users",
    "trials",
    "seed",
    "power",
    "link",
    "envelope",
    "validate",
    "validate_tolerance",
}


class ConfigError(ValueError):
    """Sweep configuration is malformed."""


@dataclass(frozen=True)
class SweepConfig:
    """Resolved sweep configuration with paper defaults filled in."""

    direction: str = "both"
    bits: tuple = tuple(range(1, 13))
    bandwidth_hz: tuple = (1e8,)
    tau: tuple = (8, 16, 32, 64)
    k_users: int = 8
    trials: int = 100_000
    seed: int = 12345
    power: PowerModelParams = field(default_factory=PowerModelParams)
    link: LinkBudget = field(default_factory=LinkBudget)
    envelope_bits_ref: int = 10
    envelope_bandwidth_hz_ref: float = 1e8
    envelope_count_ref: int = 10
    validate: bool = False
    validate_tolerance: float = 0.05

    def __post_init__(self):
        if self.direction not in ("ul", "dl", "both"):
            raise ConfigError(f"direction must be ul, dl, or both, got {self.direction!r}")
        if any(not 1 <= b <= 12 for b in self.bits):
            raise ConfigError(f"bits must lie in [1, 12], got {self.bits}")
        if any(b <= 0 for b in self.bandwidth_hz):
            raise ConfigError("bandwidths must be positive")
        if any(t < self.k_users for t in self.tau):
            raise ConfigError(f"every tau must be >= k_users={self.k_users}, got {self.tau}")
        if self.trials < 10_000:
            raise ConfigError("trials must be >= 10000")

    def directions(self):
        return ("ul", "dl") if self.direction == "both" else (self.direction,)


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point; self-describing so it can be recomputed exactly."""

    direction: str
    b: int
    bandwidth_hz: float
    tau: int
    m: int
    sindr: tuple
    sum_rate_bps: float
    g_ce: float
    g_phase: float
    trace_cd: float
    delta: float
    trials: int
    seed: int
    skipped: bool = False
    validation_passed: bool | None = None


def _reject_unknown(mapping, allowed, context):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown {context} key {key!r}")


def read_config(path):
    """Read a JSON sweep configuration file into a dict, unvalidated.

    An empty file reads as an empty object.
    """
    with open(path) as fh:
        text = fh.read().strip()
    raw = json.loads(text) if text else {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    return raw


def load_config(path):
    """Parse and validate a JSON sweep configuration file.

    An empty file (or empty object) yields the full paper-default setup.
    Unknown keys are rejected by name.
    """
    return config_from_dict(read_config(path))


def config_from_dict(raw):
    """Validate a configuration dict and fill in the paper defaults."""
    _reject_unknown(raw, _TOP_KEYS, "configuration")
    kwargs = {}
    for key in ("direction", "k_users", "trials", "seed", "validate", "validate_tolerance"):
        if key in raw:
            kwargs[key] = raw[key]
    if "bits" in raw:
        kwargs["bits"] = tuple(int(b) for b in raw["bits"])
    if "bandwidth_ghz" in raw:
        kwargs["bandwidth_hz"] = tuple(float(b) * 1e9 for b in raw["bandwidth_ghz"])
    if "tau" in raw:
        kwargs["tau"] = tuple(int(t) for t in raw["tau"])
    power_raw = raw.get("power", {})
    _reject_unknown(power_raw, _POWER_KEYS, "power")
    link_raw = raw.get("link", {})
    _reject_unknown(link_raw, _LINK_KEYS, "link")
    if np.ndim(link_raw.get("distance_m", 0.0)) != 0:
        # every point uses one SNR for all users (y_var = rho*K + 1)
        raise ConfigError(f"link distance_m must be a single number, got {link_raw['distance_m']!r}")
    env_raw = raw.get("envelope", {})
    _reject_unknown(env_raw, _ENVELOPE_KEYS, "envelope")
    if "bits_ref" in env_raw:
        kwargs["envelope_bits_ref"] = int(env_raw["bits_ref"])
    if "bandwidth_ghz_ref" in env_raw:
        kwargs["envelope_bandwidth_hz_ref"] = float(env_raw["bandwidth_ghz_ref"]) * 1e9
    if "count_ref" in env_raw:
        kwargs["envelope_count_ref"] = int(env_raw["count_ref"])
    try:
        return SweepConfig(power=PowerModelParams(**power_raw), link=LinkBudget(**link_raw), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def envelope_from_reference(bits_ref, bandwidth_ref_hz, count_ref, direction, params=PowerModelParams()):
    """Hardware envelope supplying count_ref chains at a reference resolution."""
    conv = by_direction(direction, p_adc, p_dac)
    p_conv = conv(bits_ref, bandwidth_ref_hz, params)
    return count_ref * (params.p_rf(direction) + 2.0 * p_conv)


def point_seed(master_seed, direction, b, bandwidth_hz, tau):
    """Stable per-point seed, independent of sweep order."""
    dir_code = by_direction(direction, 0, 1)
    ss = np.random.SeedSequence(master_seed, spawn_key=(dir_code, b, int(bandwidth_hz), tau))
    return int(ss.generate_state(1)[0])


def estimated_cost(config):
    """Rough count of per-entry quantization operations for the whole sweep."""
    total = 0
    for direction in config.directions():
        conv = by_direction(direction, p_adc, p_dac)
        for bw in config.bandwidth_hz:
            p_hw = envelope_from_reference(
                config.envelope_bits_ref, config.envelope_bandwidth_hz_ref, config.envelope_count_ref, direction, config.power
            )
            for b in config.bits:
                try:
                    m = antennas_budget(p_hw, config.power.p_rf(direction), conv(b, bw, config.power))
                except InfeasibleConfigError:
                    continue
                total += config.trials * (m + max(config.tau)) * len(config.tau)
    return total


def run_point(config, direction, b, bandwidth_hz, tau):
    """Evaluate one sweep point; returns a SweepRecord (skipped if M = 0)."""
    conv = by_direction(direction, p_adc, p_dac)
    p_hw = envelope_from_reference(
        config.envelope_bits_ref,
        config.envelope_bandwidth_hz_ref,
        config.envelope_count_ref,
        direction,
        config.power,
    )
    seed = point_seed(config.seed, direction, b, bandwidth_hz, tau)
    try:
        m = antennas_budget(p_hw, config.power.p_rf(direction), conv(b, bandwidth_hz, config.power))
    except InfeasibleConfigError:
        return SweepRecord(
            direction=direction,
            b=b,
            bandwidth_hz=bandwidth_hz,
            tau=tau,
            m=0,
            sindr=(),
            sum_rate_bps=0.0,
            g_ce=0.0,
            g_phase=0.0,
            trace_cd=0.0,
            delta=0.0,
            trials=config.trials,
            seed=seed,
            skipped=True,
        )
    rho_bs = snr_linear("ul", config.link, bandwidth_hz)
    rho_ue = snr_linear("dl", config.link, bandwidth_hz)
    sys_config = SystemConfig(
        m_ul=m,
        m_dl=m,
        k_users=config.k_users,
        tau=tau,
        bits=b,
        rho_bs=rho_bs,
        rho_ue=rho_ue,
        bandwidth_hz=bandwidth_hz,
    )
    y_var = sys_config.y_var_ul
    w_var = sys_config.w_var_dl
    adc = rescale_labels(design_lloyd_max(b, np.sqrt(y_var / 2.0)), y_var)
    dac = rescale_labels(design_lloyd_max(b, np.sqrt(w_var / 2.0)), w_var)
    stats = assemble_stats(sys_config, adc, adc, dac, trials=config.trials, seed=seed)
    if direction == "ul":
        inputs = rates.SindrInputsUL(m, config.k_users, tau, rho_bs, stats)
        sindr = tuple(rates.sindr_ul_mrc(inputs, ue=kk) for kk in range(config.k_users))
        g_phase, trace_cd = stats.g_ul, stats.trace_cd_ul
    else:
        inputs = rates.SindrInputsDL(m, config.k_users, tau, rho_bs, rho_ue, stats)
        sindr = tuple(rates.sindr_dl_mrt(inputs, ue=kk) for kk in range(config.k_users))
        g_phase, trace_cd = stats.g_dl, stats.trace_cd_dl
    validation_passed = None
    if config.validate:
        report = validate_closed_form(
            sys_config,
            trials=config.trials,
            seed=seed,
            tolerance=config.validate_tolerance,
            direction=direction,
            specs=(adc, adc, dac),
            stats=stats,
        )
        validation_passed = report.passed
    return SweepRecord(
        direction=direction,
        b=b,
        bandwidth_hz=bandwidth_hz,
        tau=tau,
        m=m,
        sindr=sindr,
        sum_rate_bps=rates.sum_rate(bandwidth_hz, sindr),
        g_ce=stats.g_ce,
        g_phase=g_phase,
        trace_cd=trace_cd,
        delta=stats.delta,
        trials=config.trials,
        seed=seed,
        validation_passed=validation_passed,
    )


def run_sweep(config, progress=None):
    """Run every (direction, bandwidth, tau, bits) point in deterministic order."""
    records = []
    for direction in config.directions():
        for bw in config.bandwidth_hz:
            for tau in config.tau:
                for b in config.bits:
                    records.append(run_point(config, direction, b, bw, tau))
                    if progress is not None:
                        progress(records[-1])
    records.sort(key=lambda r: (r.direction, r.bandwidth_hz, r.tau, r.b))
    return records


def _fmt(value):
    return f"{value:.9g}"


def write_csv(records, path, config=None):
    """Write the fixed-schema CSV plus a sidecar metadata block.

    Skipped (infeasible) points are emitted as comment lines so the data rows
    keep the invariant m >= 1.
    """
    if not records:
        raise ValueError("no records to write")
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        if r.skipped:
            lines.append(
                f"# skipped direction={r.direction} b={r.b} bandwidth_hz={_fmt(r.bandwidth_hz)} "
                f"tau={r.tau} reason=infeasible"
            )
            continue
        lines.append(
            ",".join(
                [
                    r.direction,
                    str(r.b),
                    _fmt(r.bandwidth_hz),
                    str(r.tau),
                    str(r.m),
                    _fmt(r.sum_rate_bps),
                    _fmt(min(r.sindr)),
                    _fmt(max(r.sindr)),
                    _fmt(r.g_ce),
                    _fmt(r.g_phase),
                    _fmt(r.trace_cd),
                    _fmt(r.delta),
                    str(r.trials),
                    str(r.seed),
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if config is not None:
        meta = asdict(config)
        meta["power"] = asdict(config.power)
        meta["link"] = asdict(config.link)
        with open(str(path) + ".meta", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_csv(path):
    """Round-trip parse of write_csv output into row dicts."""
    rows = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            values = line.split(",")
            rows.append(dict(zip(header, values)))
    return rows


def write_gnuplot(records, out_dir):
    """Emit one two-column (bits, sum rate) data file per sweep curve."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    curves = {}
    for r in records:
        if r.skipped:
            continue
        curves.setdefault((r.direction, r.bandwidth_hz, r.tau), []).append(r)
    paths = []
    for (direction, bw, tau), rs in sorted(curves.items()):
        name = f"{direction}_B{bw / 1e9:g}GHz_tau{tau}.dat"
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(f"# {direction} sum rate vs bits, B = {bw:g} Hz, tau = {tau}\n")
            for r in sorted(rs, key=lambda r: r.b):
                fh.write(f"{r.b} {_fmt(r.sum_rate_bps)}\n")
        paths.append(path)
    return paths


def print_cost_estimate(config, stream=sys.stderr):
    ops = estimated_cost(config)
    if ops > 2e9:
        print(
            f"estimated scale: ~{ops:.2e} quantization operations "
            f"({config.trials} trials per point); expect a long run",
            file=stream,
        )
