"""Argument checks: the one vocabulary of the sweep configuration and the library.

A check is a pair (test, description): test(value) says whether value passes,
and the description ends the sentence "x must be ...", as require says it.
No check takes a bool for a number; numpy integers and floats are numbers.
"""

from __future__ import annotations

import math
import numbers


def is_integer(value):
    """Whether value is an integer (Python or numpy), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value):
    """Whether value is a real number (Python or numpy), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def integer(low, high=math.inf):
    """The check: an integer in [low, high]."""
    must = f"an integer >= {low}" if high == math.inf else f"an integer in [{low}, {high}]"
    return (lambda value: is_integer(value) and low <= value <= high), must


def above(low):
    """The check: a finite real number greater than low."""
    return (lambda value: is_real(value) and low < value < math.inf), f"finite and > {low}"


POSITIVE = above(0)[0], "positive and finite"
# a bandwidth in GHz whose value in Hz, ghz * 1e9, is finite; min keeps an int too large for a float from raising
POSITIVE_HZ = (lambda ghz: POSITIVE[0](ghz) and POSITIVE[0](min(ghz, 1e300) * 1e9)), "positive and finite in Hz"
FINITE = (lambda value: is_real(value) and -math.inf < value < math.inf), "finite"
DIRECTIONS = {"ul": ("ul",), "dl": ("dl",), "both": ("ul", "dl")}
DIRECTION = (lambda value: isinstance(value, str) and value in DIRECTIONS), "ul, dl, or both"


def require(name, value, check):
    """value, if it passes check; otherwise a ValueError naming the argument name."""
    test, must = check
    if not test(value):
        raise ValueError(f"{name} must be {must}, got {value!r}")
    return value
