"""Sweep configuration: the one place where JSON keys and CLI flags are converted.

Each key's converter is declared once, in KEYS or SECTIONS, and both
config_from_dict and the command line's from_text convert through it.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields

from quantmimo.bussgang import MIN_TRIALS
from quantmimo.syspower import LinkBudget, PowerModelParams


class ConfigError(ValueError):
    """Sweep configuration is malformed."""


def csv_float(value):
    """A float as the sweep CSV writes it."""
    return f"{value:.9g}"


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
        if not isinstance(self.validate, bool):
            raise ConfigError(f"validate must be true or false, got {self.validate!r}")
        if any(not 1 <= b <= 12 for b in self.bits):
            raise ConfigError(f"bits must lie in [1, 12], got {self.bits}")
        if not all(0 < b < math.inf for b in self.bandwidth_hz):
            raise ConfigError("bandwidth_ghz entries must be positive and finite in Hz")
        if any(t < self.k_users for t in self.tau):
            raise ConfigError(f"every tau must be >= k_users={self.k_users}, got {self.tau}")
        _check_grid("bits", self.bits, int)
        _check_grid("tau", self.tau, int)
        # two bandwidths are one point if they share a point seed (int Hz) or a CSV field
        _check_grid("bandwidth_ghz", self.bandwidth_hz, int, csv_float)
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


def integral(value):
    """value as an int if it is an integral number; bools and 2.7 are not."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def real(value):
    """value as a float if it is a finite real number; bools, strings and NaN are not."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"expected a finite real number, got {value!r}")


def _hz(ghz):
    """A bandwidth given in GHz, in Hz."""
    return real(ghz) * 1e9


def _as_given(value):
    """value unchanged; SweepConfig checks it."""
    return value


def converted(key, convert, value):
    """convert(value); a ConfigError naming key if it does not convert."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


# config key -> (SweepConfig field, converter), in the order the keys are
# converted; a grid's converter converts each entry of its list
KEYS = {
    "direction": ("direction", _as_given),
    "validate_tolerance": ("validate_tolerance", real),
    "k_users": ("k_users", integral),
    "trials": ("trials", integral),
    "seed": ("seed", integral),
    "validate": ("validate", _as_given),
    "bits": ("bits", integral),
    "bandwidth_ghz": ("bandwidth_hz", _hz),
    "tau": ("tau", integral),
}
GRIDS = ("bits", "bandwidth_ghz", "tau")
# each section's keys, likewise, in the order the sections are checked; the
# power and link keys are the fields of the SweepConfig field they build
SECTIONS = {
    "power": {f.name: (f.name, real) for f in fields(PowerModelParams)},
    "link": {f.name: (f.name, real) for f in fields(LinkBudget)},
    "envelope": {
        "bits_ref": ("envelope_bits_ref", integral),
        "count_ref": ("envelope_count_ref", integral),
        "bandwidth_ghz_ref": ("envelope_bandwidth_hz_ref", _hz),
    },
}


def _reject_unknown(mapping, allowed, context):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown {context} key {key!r}")


def _value(name, value, convert, grid):
    """value converted, or each entry of the list if grid; a ConfigError naming name otherwise."""
    if not grid:
        return converted(name, convert, value)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(converted(name, convert, v) for v in value)


def _fields(raw, keys, prefix=""):
    """The SweepConfig fields that raw sets through keys, each value converted."""
    return {
        name: _value(prefix + key, raw[key], convert, key in GRIDS)
        for key, (name, convert) in keys.items()
        if key in raw
    }


def _section(raw, key):
    """The raw[key] object (empty if absent), with its keys checked."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object, got {section!r}")
    _reject_unknown(section, SECTIONS[key], key)
    return section


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
    _reject_unknown(raw, {**KEYS, **SECTIONS}, "configuration")
    kwargs = _fields(raw, KEYS)
    # one number per link key: a distance_m list would give each UE its own
    # SNR, but every point uses one SNR for all users (y_var = rho*K + 1)
    power, link, envelope = (_fields(_section(raw, key), keys, f"{key} ") for key, keys in SECTIONS.items())
    try:
        return SweepConfig(power=PowerModelParams(**power), link=LinkBudget(**link), **envelope, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _number(text):
    """Flag text as an int if it reads as one, else as a float (so "2.0" is 2.0)."""
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    raise ValueError(f"expected a number, got {text!r}")


def from_text(flag, key, text):
    """The JSON value of config key key, read from the text of a command-line flag.

    A grid's text lists comma-separated entries.  The value converts as its
    JSON form does ("1e5" is 100000 trials); a ConfigError names flag if it
    does not.
    """
    if key in GRIDS:
        value = [converted(flag, _number, entry) for entry in text.split(",")]
    else:
        value = converted(flag, _number, text)
    _value(flag, value, KEYS[key][1], key in GRIDS)
    return value
