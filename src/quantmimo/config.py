"""Sweep configuration: the one place where JSON keys and CLI flags are converted.

SweepConfig is the JSON object of a config: each field is named by its key
and holds the key's value, in the key's units (bandwidths in GHz), and each
nested object (power, link, envelope) is a section dataclass of syspower.
A field declares only its default and its check of quantmimo.checks; the
default's type sets how the key's JSON value converts.  config_from_dict,
its inverse config_to_dict (dataclasses.asdict: the sweep's .meta sidecar),
the command line's from_text and SweepConfig's own check all read these
declarations.  That check also builds every grid point's scenario
(SweepConfig.scenario, over SweepConfig.points), so a point that would
fail in the sweep fails when the config is made.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from quantmimo.bussgang import DEFAULT_TRIALS, MAX_PILOT_LENGTH, MIN_TRIALS, SystemConfig
from quantmimo.checks import DIRECTION, DIRECTIONS, FINITE, POSITIVE, POSITIVE_HZ, integer, is_integer
from quantmimo.quant import MAX_BITS
from quantmimo.syspower import (
    Envelope,
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


def converted(key, convert, value):
    """convert(value); a ConfigError naming key if it does not convert."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _key(default, check=None):
    """A SweepConfig field: its default, whose type says how its key converts (_value), and its range check."""
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True)
class SweepConfig:
    """Resolved sweep configuration with paper defaults filled in."""

    direction: str = _key("both", DIRECTION)
    bits: tuple = _key(tuple(range(1, MAX_BITS + 1)), integer(1, MAX_BITS))
    bandwidth_ghz: tuple = _key((0.1,), POSITIVE_HZ)
    tau: tuple = _key((8, 16, 32, 64), integer(1, MAX_PILOT_LENGTH))
    k_users: int = _key(8, integer(1))
    trials: int = _key(DEFAULT_TRIALS, integer(MIN_TRIALS))
    seed: int = _key(12345, integer(0))
    power: PowerModelParams = _key(PowerModelParams())
    # one number per link key: a distance_m list would give each UE its own
    # SNR, but every point uses one SNR for all users (y_var = rho*K + 1)
    link: LinkBudget = _key(LinkBudget())
    envelope: Envelope = _key(Envelope())
    validate: bool = _key(False, ((lambda v: isinstance(v, bool)), "true or false"))
    # the oracle's own check of its tolerance, so that a bad one fails here, not at the first point
    validate_tolerance: float = _key(0.05, POSITIVE)

    def __post_init__(self):
        for f in fields(self):
            values = getattr(self, f.name)
            grid = isinstance(f.default, tuple)
            if grid:  # a tuple, so that the frozen config hashes
                values = _listed(f.name, values)
                object.__setattr__(self, f.name, values)
            if f.metadata["check"]:
                test, must = f.metadata["check"]
                for value in values if grid else (values,):
                    if not test(value):
                        raise ConfigError(f"{f.name}: must be {must}, got {value!r}")
            # each field converts as its JSON value does, so that no float field holds an int like 10**400
            _value(f.name, f.default, asdict(values) if is_dataclass(values) else values)
        for direction in self.directions():
            try:
                envelope_from_reference(self.envelope, direction, self.power)
            except ValueError as exc:  # the reference converter's power overflows
                raise ConfigError(f"envelope bits_ref: {exc}") from exc
            except OverflowError as exc:  # the chain count does not convert to a float
                raise ConfigError(f"envelope count_ref: {exc}") from exc
        if any(t < self.k_users for t in self.tau):
            raise ConfigError(f"every tau must be >= k_users={self.k_users}, got {self.tau}")
        _check_grid("bits", self.bits, int)
        _check_grid("tau", self.tau, int)
        # two bandwidths are one point if they share a point seed (int Hz) or a CSV field
        _check_grid("bandwidth_ghz", [ghz * 1e9 for ghz in self.bandwidth_ghz], int, csv_float)
        for point in self.points():
            self.scenario(*point)

    def directions(self):
        return DIRECTIONS[self.direction]

    def points(self):
        """Each sweep point (direction, b, bandwidth in Hz, tau), in the order the sweep runs them."""
        for direction, ghz, tau, b in itertools.product(self.directions(), self.bandwidth_ghz, self.tau, self.bits):
            yield direction, b, ghz * 1e9, tau

    def scenario(self, direction, b, bandwidth_hz, tau):
        """The SystemConfig of a sweep point, or None where the envelope cannot power one chain.

        A ConfigError names the section at fault: envelope for over MAX_ANTENNAS antennas,
        and (the other fields checked first) link for an SNR that is not positive and finite.
        """
        at = f"at {direction} b={b} B={bandwidth_hz / 1e9:g} GHz tau={tau}"
        try:
            m = envelope_antennas(self.envelope, direction, b, bandwidth_hz, self.power)
        except InfeasibleConfigError:
            return None  # the sweep skips the point
        except ValueError as exc:
            raise ConfigError(f"envelope: {at}, {exc}") from exc
        try:
            rho = [snr_linear(d, self.link, bandwidth_hz) for d in ("ul", "dl")]
            return SystemConfig(m, m, self.k_users, tau, b, *rho)
        except ValueError as exc:
            raise ConfigError(f"link: {at}, {exc}") from exc


# each key's default, whose type says how the key's value converts (_value)
_DEFAULTS = {f.name: f.default for f in fields(SweepConfig)}


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


def _value(key, default, value):
    """value, the JSON value of a key whose default is default, converted by the default's type.

    An int default's key takes integral numbers (integral), a float
    default's finite real numbers (real), and any other its value as given.
    A tuple default marks a grid, whose entries convert as its first; a
    section (a dataclass) takes an object whose fields convert by the same
    rule, and checks its own ranges.  A ConfigError names key (a section's
    field as "power v_dd") if the value does not convert.
    """
    if isinstance(default, tuple):
        return tuple(_value(key, default[0], v) for v in _listed(key, value))
    if is_dataclass(default):
        given = _object(value, [f.name for f in fields(default)], key)
        given = {name: _value(f"{key} {name}", getattr(default, name), v) for name, v in given.items()}
        return converted(key, lambda kwargs: replace(default, **kwargs), given)
    convert = {int: integral, float: real}.get(type(default))
    return converted(key, convert, value) if convert else value


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
    _object(raw, _DEFAULTS, "configuration")
    return SweepConfig(**{key: _value(key, default, raw[key]) for key, default in _DEFAULTS.items() if key in raw})


# the JSON object of a config, which config_from_dict reads back as the config
config_to_dict = asdict


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
    if isinstance(_DEFAULTS[key], tuple):
        value = [converted(flag, _number, entry) for entry in text.split(",")]
    else:
        value = converted(flag, _number, text)
    _value(flag, _DEFAULTS[key], value)
    return value
