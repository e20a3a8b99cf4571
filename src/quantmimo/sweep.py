"""Configuration-driven sweep over (direction, bits, bandwidth, pilot length).

Each sweep point derives the antenna count from the hardware envelope,
designs the converters, estimates the distortion moments, and evaluates the
closed-form sum rate.  Output is a fixed-schema CSV plus a sidecar metadata
block with the fully resolved configuration.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from quantmimo import rates
from quantmimo.bussgang import MIN_TRIALS, SystemConfig, assemble_stats
from quantmimo.mcsim import default_specs, validate_closed_form
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
        if not all(0 < b < math.inf for b in self.bandwidth_hz):
            raise ConfigError("bandwidth_ghz entries must be positive and finite in Hz")
        if any(t < self.k_users for t in self.tau):
            raise ConfigError(f"every tau must be >= k_users={self.k_users}, got {self.tau}")
        _check_grid("bits", self.bits, int)
        _check_grid("tau", self.tau, int)
        # two bandwidths are one point if they share a point seed (int Hz) or a CSV field
        _check_grid("bandwidth_ghz", self.bandwidth_hz, int, _fmt)
        if self.trials < MIN_TRIALS:
            raise ConfigError("trials must be >= 10000")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.k_users < 1:
            raise ConfigError(f"k_users must be >= 1, got {self.k_users}")
        if not self.validate_tolerance > 0:
            raise ConfigError(f"validate_tolerance must be > 0, got {self.validate_tolerance}")
        if self.envelope_bits_ref < 1:
            raise ConfigError(f"envelope bits_ref must be >= 1, got {self.envelope_bits_ref}")
        if not self.envelope_bandwidth_hz_ref > 0:
            raise ConfigError("envelope bandwidth_ghz_ref must be > 0")
        if self.envelope_count_ref < 1:
            raise ConfigError(f"envelope count_ref must be >= 1, got {self.envelope_count_ref}")

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


def _check_grid(key, values, *identities):
    """A ConfigError naming key if values is empty or two entries are one point.

    Each identity maps an entry to what names its point; two entries collide
    if any identity maps them to the same thing.
    """
    if not values:
        raise ConfigError(f"{key} must list at least one value")
    for identity in identities:
        seen = {}
        for i, value in enumerate(values):
            j = seen.setdefault(identity(value), i)
            if j != i:
                raise ConfigError(f"{key} entries {j} and {i} are the same point")


def _reject_unknown(mapping, allowed, context):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown {context} key {key!r}")


def _section(raw, key, allowed):
    """The raw[key] object (empty if absent), with its keys checked."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object, got {section!r}")
    _reject_unknown(section, allowed, key)
    return section


def _integral(value):
    """value as an int if it is an integral number; bools and 2.7 are not."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _real(value):
    """value as a float if it is a finite real number; bools, strings and NaN are not."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"expected a finite real number, got {value!r}")


def _converted(key, convert, value):
    """convert(value); a ConfigError naming key if it does not convert."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _values(raw, key, convert):
    """The raw[key] list, each entry converted; a ConfigError naming key otherwise."""
    values = raw[key]
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    return tuple(_converted(key, convert, v) for v in values)


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
    if "direction" in raw:
        kwargs["direction"] = raw["direction"]
    if "validate_tolerance" in raw:
        kwargs["validate_tolerance"] = _converted("validate_tolerance", _real, raw["validate_tolerance"])
    for key in ("k_users", "trials", "seed"):
        if key in raw:
            kwargs[key] = _converted(key, _integral, raw[key])
    if "validate" in raw:
        if not isinstance(raw["validate"], bool):
            raise ConfigError(f"validate must be true or false, got {raw['validate']!r}")
        kwargs["validate"] = raw["validate"]
    if "bits" in raw:
        kwargs["bits"] = _values(raw, "bits", _integral)
    if "bandwidth_ghz" in raw:
        kwargs["bandwidth_hz"] = tuple(b * 1e9 for b in _values(raw, "bandwidth_ghz", _real))
    if "tau" in raw:
        kwargs["tau"] = _values(raw, "tau", _integral)
    power = {k: _converted(f"power {k}", _real, v) for k, v in _section(raw, "power", _POWER_KEYS).items()}
    # one number per link key: a distance_m list would give each UE its own
    # SNR, but every point uses one SNR for all users (y_var = rho*K + 1)
    link = {k: _converted(f"link {k}", _real, v) for k, v in _section(raw, "link", _LINK_KEYS).items()}
    env_raw = _section(raw, "envelope", _ENVELOPE_KEYS)
    if "bits_ref" in env_raw:
        kwargs["envelope_bits_ref"] = _converted("envelope bits_ref", _integral, env_raw["bits_ref"])
    if "count_ref" in env_raw:
        kwargs["envelope_count_ref"] = _converted("envelope count_ref", _integral, env_raw["count_ref"])
    if "bandwidth_ghz_ref" in env_raw:
        ghz = _converted("envelope bandwidth_ghz_ref", _real, env_raw["bandwidth_ghz_ref"])
        kwargs["envelope_bandwidth_hz_ref"] = ghz * 1e9
    try:
        return SweepConfig(power=PowerModelParams(**power), link=LinkBudget(**link), **kwargs)
    except ValueError as exc:
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


def _antennas(config, direction, b, bandwidth_hz):
    """Antenna count the envelope affords at b bits; InfeasibleConfigError if none."""
    p_hw = envelope_from_reference(
        config.envelope_bits_ref, config.envelope_bandwidth_hz_ref, config.envelope_count_ref, direction, config.power
    )
    conv = by_direction(direction, p_adc, p_dac)
    return antennas_budget(p_hw, config.power.p_rf(direction), conv(b, bandwidth_hz, config.power))


def estimated_cost(config):
    """Rough count of per-entry quantization operations for the whole sweep."""
    total = 0
    for direction in config.directions():
        for bw in config.bandwidth_hz:
            for b in config.bits:
                try:
                    m = _antennas(config, direction, b, bw)
                except InfeasibleConfigError:
                    continue
                total += config.trials * (m + max(config.tau)) * len(config.tau)
    return total


def run_point(config, direction, b, bandwidth_hz, tau):
    """Evaluate one sweep point; returns a SweepRecord (skipped if M = 0)."""
    seed = point_seed(config.seed, direction, b, bandwidth_hz, tau)
    try:
        m = _antennas(config, direction, b, bandwidth_hz)
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
    specs = default_specs(sys_config)
    stats = assemble_stats(sys_config, *specs, trials=config.trials, seed=seed)
    if direction == "ul":
        inputs = rates.SindrInputsUL(m, config.k_users, tau, rho_bs, stats)
        sindr = tuple(rates.sindr_ul_mrc(inputs, ue=kk) for kk in range(config.k_users))
        g_phase, cd = stats.g_ul, stats.cd_ul
    else:
        inputs = rates.SindrInputsDL(m, config.k_users, tau, rho_bs, rho_ue, stats)
        sindr = tuple(rates.sindr_dl_mrt(inputs, ue=kk) for kk in range(config.k_users))
        g_phase, cd = stats.g_dl, stats.cd_dl
    validation_passed = None
    if config.validate:
        report = validate_closed_form(
            sys_config,
            trials=config.trials,
            seed=seed,
            tolerance=config.validate_tolerance,
            direction=direction,
            specs=specs,
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
        trace_cd=m * cd,
        delta=rates.mrt_normalization(inputs),
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


def write_gnuplot(rows, out_dir):
    """Emit one two-column (bits, sum rate) data file per sweep curve.

    rows are the row dicts of read_csv; each sum rate is copied as the CSV
    wrote it.
    """
    os.makedirs(out_dir, exist_ok=True)
    curves = {}
    for row in rows:
        key = (row["direction"], float(row["bandwidth_hz"]), int(row["tau"]))
        curves.setdefault(key, []).append((int(row["b"]), row["sum_rate_bps"]))
    paths = []
    for (direction, bw, tau), points in sorted(curves.items()):
        name = f"{direction}_B{bw / 1e9:g}GHz_tau{tau}.dat"
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(f"# {direction} sum rate vs bits, B = {bw:g} Hz, tau = {tau}\n")
            for b, rate in sorted(points):
                fh.write(f"{b} {rate}\n")
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
