"""Sweep configuration: the one place where JSON keys and CLI flags are converted.

Each SweepConfig field is the one declaration of its config key: the field's
default, its JSON key, the converter from the JSON value and its range, a
check of quantmimo.checks.  config_from_dict, its inverse config_to_dict
(the sweep's .meta sidecar), the command line's from_text and SweepConfig's
own check all read these declarations.  That check also builds every grid
point's scenario (SweepConfig.scenario), so a point that would fail in the
sweep fails when the config is made.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields

from quantmimo.bussgang import DEFAULT_TRIALS, MAX_PILOT_LENGTH, MIN_TRIALS, SystemConfig
from quantmimo.checks import DIRECTION, DIRECTIONS, FINITE, POSITIVE, integer, is_integer, is_real
from quantmimo.quant import MAX_BITS
from quantmimo.syspower import (
    InfeasibleConfigError,
    LinkBudget,
    PowerModelParams,
    envelope_antennas,
    envelope_from_reference,
    snr_linear,
)


class ConfigError(ValueError):
    """Sweep configuration is malformed."""


def csv_float(value):
    """A float as the sweep CSV writes it."""
    return f"{value:.9g}"


def integral(value):
    """value as an int if it is an integral number; bools and 2.7 are not."""
    if is_integer(value):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def real(value):
    """value as a float if it is a finite real number; bools, strings and NaN are not."""
    if FINITE[0](value):
        return float(value)
    raise ValueError(f"expected a finite real number, got {value!r}")


def _hz(ghz):
    """A bandwidth given in GHz, in Hz; a ValueError if that is not finite."""
    hz = real(ghz) * 1e9
    if not math.isfinite(hz):
        raise ValueError(f"expected a bandwidth finite in Hz, got {ghz!r}")
    return hz


def converted(key, convert, value):
    """convert(value); a ConfigError naming key if it does not convert."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _key(key, default, convert, check=None, grid=False):
    """A SweepConfig field: its default and the one declaration of its config key.

    key is the JSON key ("envelope bits_ref" is bits_ref in the envelope
    object); convert takes its value to the field's (None: as given); check
    is the range, a test and what it asks for.  A grid's entries are each
    converted and checked.  A dataclass default is built from the key object
    by converting each of its fields, and checks its own ranges.
    """
    meta = {"key": key, "convert": convert, "check": check, "grid": grid}
    if isinstance(default, type):
        return field(default_factory=default, metadata={**meta, "build": default})
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class SweepConfig:
    """Resolved sweep configuration with paper defaults filled in."""

    direction: str = _key("direction", "both", None, DIRECTION)
    bits: tuple = _key("bits", tuple(range(1, MAX_BITS + 1)), integral, integer(1, MAX_BITS), grid=True)
    bandwidth_hz: tuple = _key("bandwidth_ghz", (1e8,), _hz, POSITIVE, grid=True)
    tau: tuple = _key("tau", (8, 16, 32, 64), integral, integer(1, MAX_PILOT_LENGTH), grid=True)
    k_users: int = _key("k_users", 8, integral, integer(1))
    trials: int = _key("trials", DEFAULT_TRIALS, integral, integer(MIN_TRIALS))
    seed: int = _key("seed", 12345, integral, integer(0))
    power: PowerModelParams = _key("power", PowerModelParams, real)
    # one number per link key: a distance_m list would give each UE its own
    # SNR, but every point uses one SNR for all users (y_var = rho*K + 1)
    link: LinkBudget = _key("link", LinkBudget, real)
    envelope_bits_ref: int = _key("envelope bits_ref", 10, integral, integer(1))
    envelope_bandwidth_hz_ref: float = _key("envelope bandwidth_ghz_ref", 1e8, _hz, POSITIVE)
    envelope_count_ref: int = _key("envelope count_ref", 10, integral, integer(1))
    validate: bool = _key("validate", False, None, ((lambda v: isinstance(v, bool)), "true or false"))
    # the oracle's own check of its tolerance, so that a bad one fails here, not at the first point
    validate_tolerance: float = _key("validate_tolerance", 0.05, real, POSITIVE)

    def __post_init__(self):
        for f in fields(self):
            if f.metadata["grid"]:  # a tuple, so that the frozen config hashes
                object.__setattr__(self, f.name, _listed(f.metadata["key"], getattr(self, f.name)))
        for f in fields(self):
            if f.metadata["check"]:
                test, must = f.metadata["check"]
                values = getattr(self, f.name)
                for value in values if f.metadata["grid"] else (values,):
                    if not test(value):
                        given = value / 1e9 if f.metadata["convert"] is _hz and is_real(value) else value  # in GHz
                        raise ConfigError(f"{f.metadata['key']}: must be {must}, got {given!r}")
        for direction in self.directions():
            try:
                envelope_from_reference(*self._envelope(), direction, self.power)
            except ValueError as exc:  # the reference converter's power overflows
                raise ConfigError(f"envelope bits_ref: {exc}") from exc
        if any(t < self.k_users for t in self.tau):
            raise ConfigError(f"every tau must be >= k_users={self.k_users}, got {self.tau}")
        _check_grid("bits", self.bits, int)
        _check_grid("tau", self.tau, int)
        # two bandwidths are one point if they share a point seed (int Hz) or a CSV field
        _check_grid("bandwidth_ghz", self.bandwidth_hz, int, csv_float)
        for point in itertools.product(self.directions(), self.bits, self.bandwidth_hz, self.tau):
            self.scenario(*point)

    def _envelope(self):
        """The envelope's reference resolution, bandwidth and chain count."""
        return self.envelope_bits_ref, self.envelope_bandwidth_hz_ref, self.envelope_count_ref

    def directions(self):
        return DIRECTIONS[self.direction]

    def scenario(self, direction, b, bandwidth_hz, tau):
        """The SystemConfig of a sweep point, or None where the envelope cannot power one chain.

        A ConfigError names the section at fault: envelope for over MAX_ANTENNAS antennas,
        and (the other fields checked first) link for an SNR that is not positive and finite.
        """
        at = f"at {direction} b={b} B={bandwidth_hz / 1e9:g} GHz tau={tau}"
        try:
            m = envelope_antennas(*self._envelope(), direction, b, bandwidth_hz, self.power)
        except InfeasibleConfigError:
            return None  # the sweep skips the point
        except ValueError as exc:
            raise ConfigError(f"envelope: {at}, {exc}") from exc
        try:
            rho = [snr_linear(d, self.link, bandwidth_hz) for d in ("ul", "dl")]
            return SystemConfig(m, m, self.k_users, tau, b, *rho)
        except ValueError as exc:
            raise ConfigError(f"link: {at}, {exc}") from exc


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


def _object(value, allowed, name):
    """value, a JSON object with no key outside allowed; name names it in messages."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown {name} key {key!r}")
    return value


def _value(key, value, convert, grid):
    """value converted, or each entry of the list if grid; a ConfigError naming key otherwise."""
    if not grid:
        return converted(key, convert, value) if convert else value
    return tuple(converted(key, convert, v) for v in _listed(key, value))


def _listed(key, value):
    """value as a tuple, if it is a list or a tuple; a ConfigError naming key otherwise."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return tuple(value)


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


def config_from_dict(raw):
    """Validate a configuration dict and fill in the paper defaults."""
    keys = [f.metadata["key"] for f in fields(SweepConfig)]
    _object(raw, {key.split()[0] for key in keys}, "configuration")
    kwargs = {}
    for f in fields(SweepConfig):
        key, convert, cls = f.metadata["key"], f.metadata["convert"], f.metadata.get("build")
        section, _, name = key.rpartition(" ")  # "envelope bits_ref": bits_ref in the envelope object
        inside = [k.split()[1] for k in keys if k.startswith(section + " ")]
        given = _object(raw.get(section, {}), inside, section) if section else raw
        if cls:
            values = _object(raw.get(key, {}), [g.name for g in fields(cls)], key)
            values = {k: converted(f"{key} {k}", convert, v) for k, v in values.items()}
            kwargs[f.name] = converted(key, lambda values: cls(**values), values)
        elif name in given:
            kwargs[f.name] = _value(key, given[name], convert, f.metadata["grid"])
    return SweepConfig(**kwargs)


def config_to_dict(config):
    """The JSON object of config that config_from_dict reads back as config.

    Every key is written, in the units and sections it is read in:
    bandwidths in GHz, the envelope keys in the envelope object, and the
    power and link objects field by field.  A bandwidth comes back bit for
    bit when a GHz value gave it, as in every config that config_from_dict
    makes; not every float in Hz is some GHz value times 1e9.
    """
    raw = {}
    for f in fields(SweepConfig):
        value = getattr(config, f.name)
        if f.metadata.get("build"):
            value = asdict(value)
        elif f.metadata["convert"] is _hz:
            value = [hz / 1e9 for hz in value] if f.metadata["grid"] else value / 1e9
        section, _, name = f.metadata["key"].rpartition(" ")
        (raw.setdefault(section, {}) if section else raw)[name] = value
    return raw


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
    meta = next(f.metadata for f in fields(SweepConfig) if f.metadata["key"] == key)
    if meta["grid"]:
        value = [converted(flag, _number, entry) for entry in text.split(",")]
    else:
        value = converted(flag, _number, text)
    _value(flag, value, meta["convert"], meta["grid"])
    return value
