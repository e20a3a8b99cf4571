"""Scalar quantizer design (Lloyd-Max for Gaussian inputs) and application.

A b-bit converter quantizes the in-phase and quadrature components
independently with the same real scalar quantizer, so everything here is
built around a real threshold/label set applied entrywise to Re and Im.

Gaussian probabilities come from the standard library alone: a tail
0.5 erfc(|z|/sqrt 2) per threshold (math.erfc) and the equiprobable start's
quantiles from statistics.NormalDist; the Newton steps of the design solve
their tridiagonal systems with the Thomas algorithm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from quantmimo.airlink import _checked_out
from quantmimo.checks import POSITIVE, integer, require

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT_HALF = math.sqrt(0.5)
# the Gauss-Legendre rule of _gaussian_panels: 48 nodes integrate 1, x and x^2
# against the Gaussian density to 1e-13 relative on any panel up to 3 sigma wide
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)

MAX_BITS = 12
MAX_ITERATIONS = 10_000
CONVERGENCE_TOL = 1e-12
# quantize works through its input in blocks of this many real parts, so
# that each pass over a block stays in cache.
_BLOCK = 1 << 15
# Caps a bucket table (see _Buckets) at 8 MB; a Lloyd-Max design at b = 12
# needs about 11k buckets.
_MAX_BUCKETS = 1 << 20


@dataclass(frozen=True)
class QuantizerSpec:
    """Thresholds and labels of a b-bit scalar quantizer.

    thresholds has 2^b + 1 entries with -inf/+inf sentinels; labels has 2^b
    entries, one per cell.  design_std is the per-real-component standard
    deviation the quantizer was designed (or last rescaled) for.  Each spec
    also builds the private bucket table quantize looks cells up in; it is
    not a field, so equality and repr see only the four above.
    """

    bits: int
    thresholds: np.ndarray
    labels: np.ndarray
    design_std: float

    def __post_init__(self):
        n = 2 ** self.bits
        thresholds = np.asarray(self.thresholds, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if thresholds.shape != (n + 1,) or labels.shape != (n,):
            raise ValueError(
                f"expected {n + 1} thresholds and {n} labels for b={self.bits}, "
                f"got {thresholds.shape} and {labels.shape}"
            )
        if not (thresholds[0] == -np.inf and thresholds[-1] == np.inf):
            raise ValueError("thresholds must start at -inf and end at +inf")
        if not np.all(np.diff(thresholds) > 0):  # NaN fails this too
            raise ValueError("thresholds must be strictly increasing")
        if not np.all(np.diff(labels) > 0):
            raise ValueError("labels must be strictly increasing")
        require("design_std", self.design_std, POSITIVE)
        thresholds.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_buckets", _Buckets.build(thresholds, labels))


def _bucket_positions(x, scale, offset, top, out):
    """clip(x*scale + offset, 0, top) into out; its truncation is the bucket.

    Every step is monotone in x, so bucket(t) < bucket(x) implies t < x and
    t < x implies bucket(t) <= bucket(x).  fmin sends NaN to the top bucket.
    """
    np.multiply(x, scale, out=out)
    out += offset
    np.fmin(out, top, out=out)
    np.maximum(out, 0.0, out=out)
    return out


@dataclass(frozen=True)
class _Buckets:
    """Uniform buckets over the interior thresholds t, at most one t per bucket.

    first[j] is the number of thresholds in buckets below j; thresholds is
    t followed by +inf and labels repeats its last entry, so that an index
    one past the last threshold still reads a threshold and a label.
    """

    scale: float
    offset: float
    top: float
    first: np.ndarray
    thresholds: np.ndarray
    labels: np.ndarray

    @classmethod
    def build(cls, thresholds, labels):
        t = thresholds[1:-1]
        span = t[-1] - t[0]
        # with buckets no wider than the narrowest cell, each threshold gets
        # one of its own unless rounding puts two together; then double
        count = 2 + math.ceil(min(span / np.diff(t).min(), _MAX_BUCKETS)) if t.size > 1 else 2
        while count <= _MAX_BUCKETS:
            scale = (count - 2) / span if span > 0 else 1.0
            offset = 1.0 - t[0] * scale
            top = count - 1.0
            bucket = _bucket_positions(t, scale, offset, top, np.empty_like(t)).astype(np.intp)
            if np.all(np.diff(bucket) > 0):
                first = np.zeros(count, dtype=np.intp)
                np.cumsum(np.bincount(bucket, minlength=count)[:-1], out=first[1:])
                return cls(scale, offset, top, first, thresholds[1:], np.append(labels, labels[-1]))
            count *= 2
        raise ValueError("thresholds are too unevenly spaced for a bucket table")


def _gaussian_tail(z):
    """P(Z > |z|) for a standard Gaussian Z, one erfc per entry of the array z."""
    return 0.5 * np.fromiter(map(math.erfc, (np.abs(z) * _SQRT_HALF).tolist()), float, count=z.size)


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solution x of the tridiagonal system J x = rhs by the Thomas algorithm.

    J has diagonal diag, superdiagonal upper (J[i, i+1] = upper[i]) and
    subdiagonal lower (J[i+1, i] = lower[i]).  It eliminates without
    pivoting, which is stable for the row diagonally dominant Jacobians of
    the Lloyd-Max Newton step (see _unit_lloyd_max).
    """
    lower, diag, upper, x = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    ratio = [0.0] * len(upper)
    pivot = diag[0]
    x[0] /= pivot
    for i in range(1, len(x)):
        ratio[i - 1] = upper[i - 1] / pivot
        pivot = diag[i] - lower[i - 1] * ratio[i - 1]
        x[i] = (x[i] - lower[i - 1] * x[i - 1]) / pivot
    for i in range(len(x) - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return np.array(x)


def _gaussian_pdf(z):
    """The standard Gaussian density at each entry of z; 0 at +-inf and where z^2 overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


def _gaussian_panels(edges):
    """Gauss-Legendre nodes x and weights w of each interval between consecutive edges, a row per interval.

    w is the plain rule scaled to its interval, so a Gaussian integral is a sum of w * _gaussian_pdf(x) * g(x).
    """
    half = 0.5 * np.diff(edges)[:, None]
    return 0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL_NODES, half * _GL_WEIGHTS


def _half_cell_moments(labels):
    """Per-cell probability and centroid for positive-half cells at unit sigma.

    Cells are (t_i, t_{i+1}] with t_0 = 0, t_m = inf and interior thresholds
    at label midpoints.  Finite cells are _gaussian_panels sums (positive
    integrands, no cancellation); the tail cell uses _gaussian_tail.
    """
    t = np.concatenate([[0.0], 0.5 * (labels[:-1] + labels[1:]), [np.inf]])
    pdf = _gaussian_pdf(t)
    x, w = _gaussian_panels(t[:-1])
    f = _gaussian_pdf(x)
    prob = np.append(np.sum(w * f, axis=1), _gaussian_tail(t[-2:-1]))
    centroid = np.append(np.sum(w * x * f, axis=1), pdf[-2]) / prob
    return centroid, t, pdf, prob


@functools.lru_cache(maxsize=MAX_BITS)
def _unit_lloyd_max(bits):
    """Thresholds and labels of the b-bit design for a unit-sigma Gaussian.

    Solves the Lloyd-Max fixed point (labels are conditional means of their
    cells, interior thresholds are label midpoints) with Newton steps on the
    centroid map, over the positive half only (the design is odd).  The
    Jacobian of the map is tridiagonal because each centroid depends only on
    the two adjacent midpoint thresholds, and it is row diagonally dominant:
    a cell's centroid moves by less than a common shift of both its ends
    (the Gaussian is log-concave), so the off-diagonal entries of a row sum
    to less than the distance of its diagonal entry from zero.  Each step
    solves it with the Thomas algorithm.  The arrays are read-only, since
    every caller of the cache shares them.
    """
    m = 2 ** (bits - 1)
    # init at half-Gaussian equiprobable quantile cells; deterministic, no dead cells
    t = np.empty(m + 1)
    t[0] = 0.0
    t[-1] = np.inf
    t[1:-1] = list(map(NormalDist().inv_cdf, 0.5 + 0.5 * np.arange(1, m) / m))
    pdf = _gaussian_pdf(t)
    surv = _gaussian_tail(t)
    labels = (pdf[:-1] - pdf[1:]) / (surv[:-1] - surv[1:])

    residual = np.inf
    for iteration in range(MAX_ITERATIONS):
        centroid, t, pdf, prob = _half_cell_moments(labels)
        r = centroid - labels
        residual = np.max(np.abs(r))
        if residual < CONVERGENCE_TOL:
            break
        with np.errstate(invalid="ignore", divide="ignore"):
            dlo = pdf[:-1] * (centroid - t[:-1]) / prob
            dhi = pdf[1:] * (t[1:] - centroid) / prob
        dlo[~np.isfinite(dlo)] = 0.0
        dhi[~np.isfinite(dhi)] = 0.0
        dlo[0] = 0.0  # t_0 = 0 fixed by symmetry
        step = _solve_tridiagonal(0.5 * dlo[1:], 0.5 * dlo + 0.5 * dhi - 1.0, 0.5 * dhi[:-1], -r)
        new = labels + step
        if new[0] <= 0 or np.any(np.diff(new) <= 0):
            new = centroid  # plain Lloyd step keeps ordering
        labels = new
    else:
        raise RuntimeError(
            f"Lloyd-Max design for b={bits} did not converge: "
            f"residual {residual:.3e} > {CONVERGENCE_TOL:.1e} after {MAX_ITERATIONS} iterations"
        )

    full_labels = np.concatenate([-labels[::-1], labels])
    interior = np.concatenate([-t[1:-1][::-1], [0.0], t[1:-1]])
    full_thresholds = np.concatenate([[-np.inf], interior, [np.inf]])
    full_thresholds.flags.writeable = False
    full_labels.flags.writeable = False
    return full_thresholds, full_labels


def design_lloyd_max(bits, component_std):
    """MMSE quantizer for a real zero-mean Gaussian with std component_std.

    The Lloyd-Max conditions are scale-equivariant for a Gaussian input
    (Max 1960), so the design is the unit-sigma one with thresholds and
    labels multiplied by sigma.  The unit-sigma design of each b is solved
    once per process (_unit_lloyd_max) and scaled on every call.
    """
    require("bits", bits, integer(1, MAX_BITS))
    sigma = float(require("component_std", component_std, POSITIVE))
    thresholds, labels = _unit_lloyd_max(int(bits))
    return QuantizerSpec(bits=int(bits), thresholds=sigma * thresholds, labels=sigma * labels, design_std=sigma)


def cell_probabilities(spec, component_std):
    """Probability of each cell under a zero-mean Gaussian of given std.

    A cell on one side of zero is the difference of the Gaussian tails
    beyond its ends, so tail cells keep full relative precision; a cell
    across zero is what the tails on both sides leave.
    """
    z = spec.thresholds / component_std
    tail = _gaussian_tail(z)
    lo, hi = tail[:-1], tail[1:]
    return np.where(z[:-1] >= 0, lo - hi, np.where(z[1:] <= 0, hi - lo, 1.0 - lo - hi))


def output_complex_variance(spec, input_complex_variance):
    """Complex output variance of the quantizer under a CN(0, v) input."""
    std = np.sqrt(input_complex_variance / 2.0)
    probs = cell_probabilities(spec, std)
    return 2.0 * float(np.sum(spec.labels**2 * probs))


def rescale_labels(spec, target_complex_variance):
    """Scale all labels by one factor so the output variance matches the input.

    For a circularly symmetric Gaussian input of complex variance v (so v/2
    per real component) the returned quantizer satisfies
    2 * sum_n labels[n]^2 * p_n = v.  Thresholds are unchanged.
    """
    target = float(require("target_complex_variance", target_complex_variance, POSITIVE))
    current = output_complex_variance(spec, target)
    if current <= 0:
        raise ValueError("degenerate labels: quantizer output power is zero")
    zeta = np.sqrt(target / current)
    return QuantizerSpec(
        bits=spec.bits,
        thresholds=spec.thresholds.copy(),
        labels=zeta * spec.labels,
        design_std=np.sqrt(target / 2.0),
    )


def quantize(spec, value, out=None):
    """Apply the quantizer entrywise to Re and Im of a complex scalar/array.

    Returns a complex128 array of the input's shape (a complex for a scalar
    input), written into out when it is given; out must not overlap the
    input.  Re and Im are looked up together, in the interleaved float64
    view of the input, at a cost per entry that does not depend on b: the
    spec's bucket table holds at most one interior threshold t_i per
    bucket, so with j the bucket of x and k = first[j] (the thresholds in
    lower buckets, all below x), the cell of x is k + [t_k < x].  That is
    the number of thresholds below x, so a value at a threshold belongs to
    the lower cell and NaN to the top one.  Blocks of the output serve as
    the float scratch; the only other buffers are one index and one mask
    block.
    """
    value = np.asarray(value)
    parts = np.ascontiguousarray(value, dtype=complex).reshape(-1).view(float)
    table = spec._buckets
    result = _checked_out(out, value.shape, value)
    scratch = result.reshape(-1).view(float)
    cell = np.empty(min(parts.size, _BLOCK), dtype=np.intp)
    below = np.empty(cell.size, dtype=bool)
    with np.errstate(over="ignore"):  # x*scale overflowing to +-inf still clips right
        for start in range(0, parts.size, _BLOCK):
            x = parts[start:start + _BLOCK]
            f = scratch[start:start + _BLOCK]
            i = cell[:x.size]
            m = below[:x.size]
            np.copyto(i, _bucket_positions(x, table.scale, table.offset, table.top, f), casting="unsafe")
            # indices are in range by construction, and "clip" spares take
            # the copy of out it makes under "raise"; take reads each index
            # before it writes that entry, so i can be its own out
            table.first.take(i, out=i, mode="clip")
            table.thresholds.take(i, out=f, mode="clip")
            np.greater_equal(f, x, out=m)
            np.invert(m, out=m)  # t_k < x, and true for NaN
            i += m
            table.labels.take(i, out=f, mode="clip")
    if out is None and value.ndim == 0:
        return complex(result)
    return result
