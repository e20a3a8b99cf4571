"""Tests for the scalar quantizer design and application."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import quantmimo
from quantmimo import quant
from quantmimo.quant import (
    _BLOCK,
    MAX_BITS,
    QuantizerSpec,
    cell_probabilities,
    design_lloyd_max,
    output_complex_variance,
    quantize,
    rescale_labels,
    _gaussian_panels,
    _gaussian_pdf,
    _solve_tridiagonal,
    _unit_lloyd_max,
)

from oracles import ndtr_cell_probabilities, sigma_lloyd_max, two_pass_quantize


def test_package_and_cli_import_no_scipy():
    # a fresh interpreter, since this one has loaded scipy for the references
    src = str(Path(quantmimo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, quantmimo, quantmimo.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_one_bit_labels_are_gaussian_conditional_means():
    spec = design_lloyd_max(1, 1.0)
    expected = np.sqrt(2.0 / np.pi)
    assert np.allclose(spec.labels, [-expected, expected], atol=1e-9)
    assert np.array_equal(spec.thresholds, [-np.inf, 0.0, np.inf])


def test_two_bit_values_match_published_gaussian_solution():
    # classical MMSE 2-bit quantizer for the unit Gaussian
    spec = design_lloyd_max(2, 1.0)
    assert np.allclose(spec.labels, [-1.510, -0.4528, 0.4528, 1.510], atol=5e-4)
    assert np.allclose(spec.thresholds[1:-1], [-0.9816, 0.0, 0.9816], atol=5e-4)


# per-component std of the sweep's smallest DAC input (1/m at m = 176) and
# of a large ADC input (rho*K + 1 = 1008), around the unit design
SIGMAS = (np.sqrt(1 / 352), 1.0, np.sqrt(1008 / 2))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_design_is_scale_equivariant():
    for bits in range(1, MAX_BITS + 1):
        # bit for bit: every design is the unit-sigma one times sigma
        base = design_lloyd_max(bits, 1.0)
        for sigma in SIGMAS:
            spec = design_lloyd_max(bits, sigma)
            assert _same_bits(spec.labels, sigma * base.labels)
            assert _same_bits(spec.thresholds, sigma * base.thresholds)
            assert spec.design_std == sigma and spec.bits == bits
            # and within 1e-10 of the Newton solver that carries sigma throughout
            ref_thresholds, ref_labels = sigma_lloyd_max(bits, sigma)
            np.testing.assert_allclose(spec.labels, ref_labels, rtol=1e-10, atol=0)
            np.testing.assert_allclose(spec.thresholds, ref_thresholds, rtol=1e-10, atol=0)


@pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
def test_newton_steps_solve_like_solve_banded(bits, monkeypatch):
    from scipy.linalg import solve_banded

    systems = []

    def recording(*system):
        systems.append(system)
        return _solve_tridiagonal(*system)

    monkeypatch.setattr(quant, "_solve_tridiagonal", recording)
    _unit_lloyd_max.__wrapped__(bits)
    if bits == 1:
        # the b = 1 start is the fixed point, so its solve takes no step; its
        # 1 x 1 Jacobian is -1 (t_0 = 0 is fixed and the tail cell is unbounded)
        systems.append((np.empty(0), np.array([-1.0]), np.empty(0), np.array([0.3])))
    assert systems
    for lower, diag, upper, rhs in systems:
        banded = np.zeros((3, diag.size))
        banded[0, 1:], banded[1], banded[2, :-1] = upper, diag, lower
        # fine designs' Jacobians are ill-conditioned (cond 2e6 at b = 12); the
        # two solvers measured at most 3e-12 apart
        np.testing.assert_allclose(
            _solve_tridiagonal(lower, diag, upper, rhs), solve_banded((1, 1), banded, rhs), rtol=1e-10, atol=0
        )


def test_cached_unit_design_is_shared_and_read_only():
    _unit_lloyd_max.cache_clear()
    a, b = design_lloyd_max(4, 2.0), design_lloyd_max(np.int64(4), 2.0)
    assert _unit_lloyd_max.cache_info().misses == 1
    assert a.labels is not b.labels and _same_bits(a.labels, b.labels)
    # every design of b = 4 shares the cached arrays, so none may write to them
    with pytest.raises(ValueError):
        _unit_lloyd_max(4)[1][0] = 0.0


@pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
def test_design_satisfies_fixed_point_conditions(bits):
    spec = design_lloyd_max(bits, 1.0)
    t, labels = spec.thresholds, spec.labels
    # interior thresholds are label midpoints
    assert np.allclose(t[1:-1], 0.5 * (labels[:-1] + labels[1:]), atol=1e-11)
    # odd symmetry
    assert np.allclose(labels, -labels[::-1], atol=1e-12)
    assert np.all(np.diff(labels) > 0)
    # labels are the conditional means of their cells (checked by quadrature)
    from scipy.integrate import quad

    for n in range(2**bits):
        lo, hi = t[n], t[n + 1]
        pdf = lambda x: np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
        num, _ = quad(lambda x: x * pdf(x), max(lo, -40), min(hi, 40), epsabs=1e-16, epsrel=1e-12)
        den, _ = quad(pdf, max(lo, -40), min(hi, 40), epsabs=1e-16, epsrel=1e-12)
        assert abs(num / den - labels[n]) < 1e-9


def test_design_that_does_not_converge_is_a_runtime_error(monkeypatch):
    # b = 3 takes 4 Newton steps, so one iteration cannot reach the tolerance
    monkeypatch.setattr(quant, "MAX_ITERATIONS", 1)
    message = r"^Lloyd-Max design for b=3 did not converge: residual \S+ > 1\.0e-12 after 1 iterations$"
    with pytest.raises(RuntimeError, match=message):
        _unit_lloyd_max.__wrapped__(3)


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _upper_tail(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# panels on the positive side, as wide as distortion_power's 3-sigma tail
# panels and as narrow as a b = 12 Lloyd-Max cell; mirrored in the test
PANEL_EDGES = [
    np.linspace(0.0, 12.0, 5),
    4.5 + np.linspace(0.0, 12.0, 5),
    np.array([0.0, 0.5, 1.0, 1.75, 2.5, 4.0]),
    np.linspace(3.0, 3.1, 4),
]


@pytest.mark.parametrize("edges", PANEL_EDGES, ids=["tail_from_0", "tail_from_4.5", "cells", "narrow_cells"])
def test_gaussian_panels_integrate_low_moments_against_the_density(edges):
    # the closed forms over [a, b], 0 <= a: the tail difference Q(a) - Q(b),
    # phi(a) - phi(b), and Q(a) - Q(b) + a phi(a) - b phi(b) for 1, x and x^2
    for sign in (1.0, -1.0):
        x, w = _gaussian_panels(sign * edges)
        weighted = w * _gaussian_pdf(x)
        for n, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            p = _upper_tail(a) - _upper_tail(b)
            closed = [p, sign * (_phi(a) - _phi(b)), p + a * _phi(a) - b * _phi(b)]
            # a negative interval runs backwards, so its weights are negative
            got = [sign * np.sum(weighted[n] * x[n] ** k) for k in range(3)]
            np.testing.assert_allclose(got, closed, rtol=1e-13, atol=0)


def test_design_rejects_bad_arguments():
    with pytest.raises(ValueError):
        design_lloyd_max(0, 1.0)
    with pytest.raises(ValueError):
        design_lloyd_max(MAX_BITS + 1, 1.0)
    with pytest.raises(ValueError):
        design_lloyd_max(2.5, 1.0)
    with pytest.raises(ValueError):
        design_lloyd_max(True, 1.0)
    with pytest.raises(ValueError):
        design_lloyd_max(2, 0.0)


def test_spec_validation_rejects_malformed_sets():
    good = design_lloyd_max(1, 1.0)
    with pytest.raises(ValueError):
        QuantizerSpec(bits=1, thresholds=np.array([0.0, 1.0]), labels=good.labels, design_std=1.0)
    with pytest.raises(ValueError):
        QuantizerSpec(
            bits=1, thresholds=np.array([-np.inf, 0.0, np.inf]), labels=np.array([1.0, 0.5]), design_std=1.0
        )
    with pytest.raises(ValueError):
        QuantizerSpec(
            bits=1, thresholds=np.array([-np.inf, 0.0, np.inf]), labels=good.labels, design_std=-1.0
        )


def test_spec_arrays_are_immutable():
    spec = design_lloyd_max(2, 1.0)
    with pytest.raises(ValueError):
        spec.labels[0] = 0.0


def test_quantize_cell_convention_is_left_open_right_closed():
    spec = design_lloyd_max(2, 1.0)
    t = spec.thresholds[3]  # positive interior threshold
    # value exactly at a threshold belongs to the lower cell
    assert quantize(spec, t + 0j).real == spec.labels[2]
    assert quantize(spec, t + 1e-12 + 0j).real == spec.labels[3]
    assert quantize(spec, 0.0 + 0j).real == spec.labels[1]


def test_quantize_applies_to_real_and_imaginary_parts_independently():
    spec = design_lloyd_max(1, 1.0)
    lab = spec.labels[1]
    out = quantize(spec, np.array([0.3 - 0.7j, -0.2 + 0.1j]))
    assert np.allclose(out, [lab - 1j * lab, -lab + 1j * lab])
    assert isinstance(quantize(spec, 1.0 + 1.0j), complex)


def _complex(re, im):
    """re + 1j*im without arithmetic, which would turn 1j*inf into NaN."""
    return np.column_stack((re, im)).view(complex).ravel()


# complex input variances from 1/176 to 1008, so the thresholds span several scales
VARIANCES = (1 / 176, 1.0, 3.0, 1008.0)


@pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
def test_quantize_is_bit_identical_to_two_pass_reference(bits):
    rng = np.random.default_rng(bits)
    half = _BLOCK // 2  # complex entries in one block of real parts
    for variance in VARIANCES:
        spec = rescale_labels(design_lloyd_max(bits, np.sqrt(variance / 2.0)), variance)
        t = spec.thresholds[1:-1]
        specials = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324]
        edges = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), specials])
        x = np.sqrt(variance) * rng.normal(size=(6, 8, 5, 2)) @ [1.0, 1j]
        inputs = [
            x,
            x[:, ::2],                  # strided
            x.real,                     # real
            np.complex64(0.4 - 0.2j),   # 0-d
            _complex(edges, edges[::-1]),
            np.array([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]),
            -0.0,
        ]
        for n in (0, 1, half - 1, half, half + 1, 3 * half + 5):
            inputs.append(np.sqrt(variance / 2.0) * 3.0 * rng.normal(size=(n, 2)) @ [1.0, 1j])
        for value in inputs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                new, ref = quantize(spec, value), two_pass_quantize(spec, value)
            assert type(new) is type(ref) and np.shape(new) == np.shape(ref)
            new_view = np.ascontiguousarray(new).reshape(-1).view(np.float64)
            ref_view = np.ascontiguousarray(ref).reshape(-1).view(np.float64)
            assert np.array_equal(new_view.view(np.uint64), ref_view.view(np.uint64))  # signs of zeros too


@pytest.mark.parametrize("bits", [1, 3, 12])
def test_quantize_into_out_gives_the_allocating_call_values(bits):
    spec = rescale_labels(design_lloyd_max(bits, 1.0), 2.0)
    rng = np.random.default_rng(bits)
    for shape in [(3, 5), (2, _BLOCK // 2 + 7)]:  # one block, and more than one
        value = rng.normal(size=(*shape, 2)) @ [1.0, 1j]
        out = np.full(shape, np.nan, dtype=complex)
        got = quantize(spec, value, out=out)
        assert got is out
        assert got.tobytes() == quantize(spec, value).tobytes()


def test_quantize_rejects_an_out_it_cannot_fill():
    # each of these would leave the caller's array unfilled or wrong: a
    # strided out is copied by its flat view, and one that is the input is
    # overwritten while still being read
    spec = design_lloyd_max(2, 1.0)
    value = np.random.default_rng(0).normal(size=(4, 6, 2)) @ [1.0, 1j]
    bad = [
        np.empty((4, 5), dtype=complex),
        np.empty((4, 6), dtype=np.complex64),
        np.empty((4, 12), dtype=complex)[:, ::2],
        value,
        [[0j] * 6] * 4,
    ]
    for out in bad:
        with pytest.raises(ValueError, match="out must"):
            quantize(spec, value, out=out)


def test_bucket_table_holds_at_most_one_threshold_per_bucket():
    for bits in range(1, MAX_BITS + 1):
        for variance in VARIANCES:
            spec = rescale_labels(design_lloyd_max(bits, np.sqrt(variance / 2.0)), variance)
            first = spec._buckets.first
            per_bucket = np.diff(first, append=spec.thresholds.size - 2)
            assert first[0] == 0
            assert np.all((per_bucket == 0) | (per_bucket == 1))  # so first is non-decreasing
    # a table for thresholds 1e-9 apart over a span of 1 would need 1e9 buckets
    with pytest.raises(ValueError, match="unevenly"):
        QuantizerSpec(
            bits=2,
            thresholds=np.array([-np.inf, 0.0, 1e-9, 1.0, np.inf]),
            labels=np.array([-1.0, 0.5e-9, 0.5, 2.0]),
            design_std=1.0,
        )


def test_quantize_peak_memory_is_about_its_output():
    spec = rescale_labels(design_lloyd_max(12, np.sqrt(0.5)), 1.0)
    x = np.random.default_rng(5).normal(size=(1 << 20, 2)) @ [1.0, 1j]
    tracemalloc.start()
    try:
        out = quantize(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus one index and one mask block; no full-size index array
    assert peak <= 1.1 * out.nbytes


def test_rescale_one_bit_to_variance_two_gives_unit_labels():
    spec = rescale_labels(design_lloyd_max(1, 1.0), 2.0)
    assert np.allclose(spec.labels, [-1.0, 1.0], atol=1e-12)
    assert spec.design_std == pytest.approx(1.0)


@pytest.mark.parametrize("bits,target", [(1, 2.0), (2, 5.0), (4, 0.25), (8, 9.0)])
def test_rescale_matches_output_variance_analytically(bits, target):
    spec = rescale_labels(design_lloyd_max(bits, np.sqrt(target / 2.0)), target)
    assert output_complex_variance(spec, target) == pytest.approx(target, rel=1e-12)


def test_rescale_rejects_nonpositive_target():
    spec = design_lloyd_max(2, 1.0)
    with pytest.raises(ValueError):
        rescale_labels(spec, 0.0)


def test_cell_probabilities_sum_to_one():
    for bits in range(1, MAX_BITS + 1):
        for sigma in SIGMAS:
            spec = design_lloyd_max(bits, sigma)
            for std in (sigma, 0.5 * sigma, 3.0 * sigma):
                probs = cell_probabilities(spec, std)
                assert np.all(probs > 0)
                assert np.sum(probs) == pytest.approx(1.0, abs=1e-14)
                # against the ndtr form; narrow b = 12 cells cancel to 8e-13
                np.testing.assert_allclose(probs, ndtr_cell_probabilities(spec, std), rtol=1e-11, atol=0)


def test_label_perturbation_increases_mse():
    # Lloyd-Max optimality: nudging any single label degrades the MSE
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(1_000_000)
    spec = design_lloyd_max(2, 1.0)

    def mse(labels):
        idx = np.searchsorted(spec.thresholds[1:-1], x, side="left")
        return np.mean((labels[idx] - x) ** 2)

    base = mse(spec.labels)
    for n in range(4):
        for eps in (-0.01, 0.01):
            perturbed = spec.labels.copy()
            perturbed[n] *= 1 + eps
            assert mse(perturbed) > base


def test_fine_quantizer_mse_tracks_rate_distortion_scaling():
    # each extra bit reduces Gaussian quantization MSE by roughly 4x
    rng = np.random.default_rng(99)
    x = rng.standard_normal(200_000)
    errors = []
    for bits in (6, 7, 8):
        spec = design_lloyd_max(bits, 1.0)
        idx = np.searchsorted(spec.thresholds[1:-1], x, side="left")
        errors.append(np.mean((spec.labels[idx] - x) ** 2))
    assert 3.0 < errors[0] / errors[1] < 5.0
    assert 3.0 < errors[1] / errors[2] < 5.0
