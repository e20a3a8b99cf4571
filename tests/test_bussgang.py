"""Tests for the linearization gains, the exact distortion moments and their Monte Carlo estimators."""

import inspect
import math
import threading
import tracemalloc

import numpy as np
import pytest

from quantmimo import bussgang, mcsim
from quantmimo.airlink import complex_gaussian, dft_pilots
from quantmimo.bussgang import (
    PHASE_CE,
    PHASE_DL,
    PHASE_UL,
    BussgangStats,
    SystemConfig,
    _correlation_excess,
    assemble_stats,
    block_rng,
    ce_distortion_projections,
    distortion_power,
    distortion_trace,
    exact_stats,
    gain_scalar,
)
from quantmimo.config import SweepConfig
from quantmimo.mcsim import default_specs, validate_closed_form
from quantmimo.quant import MAX_BITS, QuantizerSpec, design_lloyd_max, quantize, rescale_labels

from oracles import (
    ce_distortion_projections_direct,
    ce_projection_blocks,
    distortion_trace_blocks,
    mc_gain_regression,
    quadrature_correlation,
    sequential_ce_distortion_projections,
    sequential_distortion_trace,
)


def _sign_quantizer():
    return QuantizerSpec(
        bits=1,
        thresholds=np.array([-np.inf, 0.0, np.inf]),
        labels=np.array([-1.0, 1.0]),
        design_std=1.0,
    )


def test_gain_of_sign_quantizer_is_closed_form():
    # E[sign(x) x] = sigma sqrt(2/pi) per component -> G = 2/sqrt(2 pi c) for unit labels
    assert gain_scalar(_sign_quantizer(), 2.0) == pytest.approx(2.0 / np.sqrt(2.0 * np.pi), rel=1e-12)


def test_gain_of_one_bit_lloyd_max_is_two_over_pi():
    # labels +/- sqrt(2/pi), unit component variance: G = 2/pi
    spec = design_lloyd_max(1, 1.0)
    assert gain_scalar(spec, 2.0) == pytest.approx(2.0 / np.pi, rel=1e-12)


def test_gain_increases_with_resolution_toward_one():
    gains = []
    for bits in range(1, 11):
        spec = rescale_labels(design_lloyd_max(bits, 1.0), 2.0)
        gains.append(gain_scalar(spec, 2.0))
    assert all(a < b for a, b in zip(gains, gains[1:]))
    assert gains[-1] == pytest.approx(1.0, abs=1e-3)
    assert all(0 < g <= 1 for g in gains)


@pytest.mark.parametrize("bits", [1, 2, 3, 5])
def test_gain_matches_monte_carlo_regression(bits):
    c = 5.0
    spec = rescale_labels(design_lloyd_max(bits, np.sqrt(c / 2.0)), c)
    rng = np.random.default_rng(2024 + bits)
    y = complex_gaussian(rng, (400_000,), c)
    g_hat, se = mc_gain_regression(lambda v: quantize(spec, v), y)
    assert abs(g_hat - gain_scalar(spec, c)) < 3 * se


def test_gain_rejects_bad_variance():
    for c in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="complex_variance must be positive and finite"):
            gain_scalar(_sign_quantizer(), c)


def test_distortion_trace_one_bit_closed_form():
    # 1-bit Lloyd-Max at c = 2: per-entry distortion 2(2/pi) - (2/pi)^2 * 2
    spec = design_lloyd_max(1, 1.0)
    trace = distortion_trace(spec, 2.0, dim=4, trials=200_000, seed=5)
    expected = 4 * (4.0 / np.pi) * (1.0 - 2.0 / np.pi)
    assert trace == pytest.approx(expected, rel=0.01)


def test_distortion_trace_vanishes_at_high_resolution():
    spec = rescale_labels(design_lloyd_max(10, 1.0), 2.0)
    trace = distortion_trace(spec, 2.0, dim=1, trials=50_000, seed=5)
    assert trace < 1e-4 * 2.0


def test_distortion_trace_requires_enough_trials():
    spec = rescale_labels(design_lloyd_max(1, 1.0), 2.0)
    with pytest.raises(ValueError):
        distortion_trace(spec, 2.0, dim=1, trials=100, seed=0)


def test_assemble_stats_requires_an_integer_trial_count():
    config = SystemConfig(m_ul=8, m_dl=8, k_users=2, tau=4, bits=2, rho_bs=1.0, rho_ue=1.0)
    specs = default_specs(config)
    for trials in (1e4, True, "10000"):
        with pytest.raises(ValueError, match="trials must be an integer"):
            assemble_stats(config, *specs, trials=trials)
    with pytest.raises(ValueError, match="trials must be an integer >= 10000, got 100"):
        assemble_stats(config, *specs, trials=100)


def test_chunked_estimates_are_deterministic():
    spec = rescale_labels(design_lloyd_max(2, 1.0), 2.0)
    a = distortion_trace(spec, 2.0, dim=2, trials=20_000, seed=3)
    b = distortion_trace(spec, 2.0, dim=2, trials=20_000, seed=3)
    assert a == b
    assert a != distortion_trace(spec, 2.0, dim=2, trials=20_000, seed=4)


def test_block_rng_streams_are_phase_and_block_specific():
    draws = {
        (phase, block): block_rng(123, phase, block).standard_normal(4).tobytes()
        for phase in (0, 1, 2)
        for block in (0, 1)
    }
    assert len(set(draws.values())) == len(draws)


def _scenario(m=8, k=4, tau=8, bits=2, rho=1.0):
    config = SystemConfig(m_ul=m, m_dl=m, k_users=k, tau=tau, bits=bits, rho_bs=rho, rho_ue=rho)
    y_var = config.y_var_ul
    spec = rescale_labels(design_lloyd_max(bits, np.sqrt(y_var / 2.0)), y_var)
    return config, spec


def test_ce_projection_row_shortcut_agrees_with_direct_estimator():
    # the antenna-row reduction must match the full-array estimator
    config, spec = _scenario(m=8)
    pilots = dft_pilots(config.tau, config.k_users)
    cd = distortion_trace(spec, config.y_var_ul, config.m, 100_000, 0) / config.m
    # one antenna row's projections, scaled to the m-antenna array
    a_fast = config.m * ce_distortion_projections(spec, pilots, config.rho_bs, 200_000, 1)
    a_dir, b_dir = ce_distortion_projections_direct(spec, spec, pilots, config.m, config.rho_bs, 50_000, 2)
    assert np.allclose(a_fast, a_dir, rtol=0.03)
    # the closed forms take B_k = cd_ul * A_k
    assert np.allclose(cd * a_fast, b_dir, rtol=0.06)


@pytest.mark.parametrize("block_entries", [None, 6])  # 6: fewer than one trial's 8 entries
def test_estimators_draw_each_block_from_its_own_generator(monkeypatch, block_entries):
    # block j of each estimator draws from generator j of the estimator's
    # phase, and no draw is wider than a block (or one trial, where a trial
    # is wider); the block size thus defines each estimator's stream.  Two
    # threads take the blocks, so the draws are grouped by generator
    config, spec = _scenario(m=8)
    m, k, tau = config.m, config.k_users, config.tau  # 8, 4, 8
    pilots = dft_pilots(tau, k)
    monkeypatch.setattr(bussgang, "MIN_TRIALS", 1)  # one-trial blocks, without 10^4 of them
    if block_entries is not None:
        monkeypatch.setattr(bussgang, "_BLOCK_ENTRIES", block_entries)
    per_block = max(1, bussgang._BLOCK_ENTRIES // 8)
    sizes = [per_block, per_block, per_block // 2 or 1]  # 2.5 blocks, or 3 one-trial blocks
    drawn = {}  # generator -> (its key, [shapes drawn from it])
    real_rng, real_draw = bussgang.block_rng, bussgang.complex_gaussian

    def rng(*key):
        generator = real_rng(*key)
        drawn[generator] = (key, [])
        return generator

    def draw(generator, shape, *var, out):
        drawn[generator][1].append(shape)
        return real_draw(generator, shape, *var, out=out)

    monkeypatch.setattr(bussgang, "block_rng", rng)
    monkeypatch.setattr(bussgang, "complex_gaussian", draw)
    estimators = {
        PHASE_UL: (lambda: distortion_trace(spec, config.y_var_ul, m, sum(sizes), 6), lambda n: [(n, m)]),
        PHASE_CE: (
            lambda: ce_distortion_projections(spec, pilots, config.rho_bs, sum(sizes), 6),
            lambda n: [(n, k), (n, tau)],
        ),
    }
    for phase, (run, shapes) in estimators.items():
        drawn.clear()
        run()
        by_key = dict(drawn.values())
        keys = [(6, phase, j) for j in range(len(sizes))]
        assert sorted(by_key) == keys
        assert [by_key[key] for key in keys] == [shapes(n) for n in sizes]
        widest = max(int(np.prod(shape)) for shapes_drawn in by_key.values() for shape in shapes_drawn)
        assert widest <= max(bussgang._BLOCK_ENTRIES, 8)


# 8192 trials a block at m = tau = 8; the worker thread takes the odd blocks
@pytest.mark.parametrize(
    "trials,blocks",
    [(5_000, 1), (3 * 8192, 3), (8192 + 17, 2)],
    ids=["one_block", "odd_block_count", "ragged_last_block"],
)
def test_estimators_match_a_sequential_walk_bit_for_bit(monkeypatch, trials, blocks):
    monkeypatch.setattr(bussgang, "MIN_TRIALS", 1)
    config, spec = _scenario(m=8)
    pilots = dft_pilots(config.tau, config.k_users)
    assert len(bussgang._blocks(trials, config.m)) == len(bussgang._blocks(trials, config.tau)) == blocks
    args = (spec, config.y_var_ul, config.m, trials, 4)
    assert distortion_trace(*args) == sequential_distortion_trace(*args)
    args = (spec, pilots, config.rho_bs, trials, 4)
    got, want = ce_distortion_projections(*args), sequential_ce_distortion_projections(*args)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _block_threads():
    return [t for t in threading.enumerate() if t.name.startswith("quantmimo-")]


@pytest.mark.parametrize("raising", ["worker", "caller"])
def test_no_block_thread_outlives_assemble_stats(monkeypatch, raising):
    # 8192 trials a block at m = tau = 8, so 3 blocks over 20000 trials, the
    # odd one on the worker thread; the oracle's blocks at m = tau = 8 hold
    # 512 trials, so 3000 trials are 6 blocks
    config, _ = _scenario(m=8)
    specs = default_specs(config)
    real_quantize = bussgang.quantize
    threads = set()

    def quantize(spec, value, out=None):
        threads.add(threading.current_thread().name.startswith("quantmimo-block"))
        return real_quantize(spec, value, out=out)

    stats = assemble_stats(config, *specs, trials=20_000, seed=1)
    calls = {
        "assemble_stats": lambda: assemble_stats(config, *specs, trials=20_000, seed=1),
        "validate_closed_form": lambda: validate_closed_form(config, trials=3000, seed=1, specs=specs, stats=stats),
    }
    for module in (bussgang, mcsim):
        monkeypatch.setattr(module, "quantize", quantize)
    for name, call in calls.items():
        threads.clear()
        call()
        assert threads == {True, False}, name  # both threads took blocks
        assert not _block_threads(), name

    def failing(spec, value, out=None):
        if threading.current_thread().name.startswith("quantmimo-block") == (raising == "worker"):
            raise RuntimeError("quantize failed")
        return real_quantize(spec, value, out=out)

    for module in (bussgang, mcsim):
        monkeypatch.setattr(module, "quantize", failing)
    for name, call in calls.items():
        with pytest.raises(RuntimeError, match="quantize failed"):
            call()
        assert not _block_threads(), name


def test_estimators_reject_bad_input_before_any_block_runs(monkeypatch):
    monkeypatch.setattr(bussgang, "_block_table", lambda *args: pytest.fail("a block ran"))
    spec = rescale_labels(design_lloyd_max(2, 1.0), 2.0)
    for dim in (0, -3, 2.5, True, "8"):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            distortion_trace(spec, 2.0, dim, 20_000, 0)
    for c in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="complex_variance must be positive and finite"):
            distortion_trace(spec, c, 8, 20_000, 0)
    config, ce_spec = _scenario()
    pilots = dft_pilots(config.tau, config.k_users)
    for rho in (np.nan, np.inf, 0.0, -1.0, True):
        with pytest.raises(ValueError, match="rho_bs"):
            ce_distortion_projections(ce_spec, pilots, rho, 20_000, 0)


# Peak of assemble_stats at the default grid's widest point (ul b=1, B 0.1
# GHz, tau 64: m 176, K 8) over the default 1e5 trials: the tracemalloc peak
# plus the largest of its estimators' block buffer maps, which tracemalloc
# does not see and which live one call at a time: 1.9 MB traced and 4.5 MB
# mapped with numpy 2.4.  Walking the blocks on one thread in new arrays,
# the tracemalloc peak was 5.7 MB; drawing whole 16384-trial chunks first,
# 93.6 MB.
def test_peak_memory_of_assemble_stats_stays_at_block_scale(monkeypatch):
    config = SweepConfig().scenario("ul", 1, 1e8, 64)
    assert (config.m, config.k_users) == (176, 8)
    specs = default_specs(config)
    mapped = []
    real_mapped_arrays = bussgang._mapped_arrays

    def mapped_arrays(shapes):
        arrays = real_mapped_arrays(shapes)
        mapped.append(sum(a.nbytes for a in arrays if a is not None))
        return arrays

    monkeypatch.setattr(bussgang, "_mapped_arrays", mapped_arrays)
    tracemalloc.start()
    try:
        assemble_stats(config, *specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mapped) == 3
    assert peak + max(mapped) < 8e6, f"peak {peak / 1e6:.1f} MB traced and {max(mapped) / 1e6:.1f} MB mapped"


def test_ce_projection_rejects_mismatched_quantizer():
    config, _ = _scenario()
    wrong = rescale_labels(design_lloyd_max(2, 1.0), 2.0)  # designed for variance 2, not rho*K+1
    pilots = dft_pilots(config.tau, config.k_users)
    with pytest.raises(ValueError):
        ce_distortion_projections(wrong, pilots, config.rho_bs, 20_000, 0)


def test_assemble_stats_bundles_consistent_moments():
    config, spec = _scenario()
    w_var = config.w_var_dl
    dac = rescale_labels(design_lloyd_max(config.bits, np.sqrt(w_var / 2.0)), w_var)
    stats = assemble_stats(config, spec, spec, dac, trials=50_000, seed=0)
    assert stats.g_ce == stats.g_ul == gain_scalar(spec, config.y_var_ul)
    assert stats.g_dl == gain_scalar(dac, w_var)
    # the moments are per antenna: one entry's distortion power, one row's projections
    assert stats.cd_ul == distortion_trace(spec, config.y_var_ul, config.m, 50_000, 0) / config.m
    assert stats.cd_dl > 0
    pilots = dft_pilots(config.tau, config.k_users)
    assert np.array_equal(stats.a_k, ce_distortion_projections(spec, pilots, config.rho_bs, 50_000, 0))
    assert stats.a_k.shape == (config.k_users,)


def test_system_config_validation():
    base = dict(m_ul=8, m_dl=8, k_users=2, tau=4, bits=3, rho_bs=2.0, rho_ue=1.0)
    config = SystemConfig(**base)
    assert config.m == 8
    assert config.y_var_ul == pytest.approx(5.0)
    assert config.w_var_dl == pytest.approx(1.0 / 8.0)
    assert SystemConfig(**{**base, "m_ul": np.int64(8), "bits": MAX_BITS}).m == 8
    bad = [
        ({"m_ul": 0, "m_dl": 0}, "m_ul"),
        ({"m_ul": 32.5, "m_dl": 32.5}, "m_ul"),  # a count that is not an integer
        ({"m_dl": 16}, "m_ul=8 and m_dl=16"),  # two antenna counts
        ({"k_users": True}, "k_users"),
        ({"k_users": 4, "tau": 2}, "tau"),  # a pilot shorter than K
        ({"tau": 4.0}, "tau"),
        ({"bits": 0}, "bits"),
        ({"bits": MAX_BITS + 1}, "bits"),
        ({"rho_bs": 0.0}, "rho_bs"),
        ({"rho_bs": np.nan}, "rho_bs"),
        ({"rho_ue": -1.0}, "rho_ue"),
        ({"rho_ue": np.inf}, "rho_ue"),
        ({"rho_bs": "1"}, "rho_bs"),  # an SNR that is not a real number
        ({"rho_bs": None}, "rho_bs"),
        ({"rho_bs": np.ones(2)}, "rho_bs"),
        ({"rho_ue": True}, "rho_ue"),
    ]
    for overrides, field in bad:
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{**base, **overrides})


def test_stats_validation_rejects_bad_gains():
    kwargs = dict(cd_ul=1.0, cd_dl=1.0, a_k=np.ones(2))
    BussgangStats(g_ce=0.5, g_ul=0.5, g_dl=0.5, **kwargs)
    with pytest.raises(ValueError):
        BussgangStats(g_ce=np.inf, g_ul=0.5, g_dl=0.5, **kwargs)
    with pytest.raises(ValueError):
        BussgangStats(g_ce=0.5, g_ul=0.0, g_dl=0.5, **kwargs)
    with pytest.raises(ValueError):
        BussgangStats(g_ce=0.5, g_ul=0.5, g_dl=0.5, **{**kwargs, "cd_dl": -1.0})
    with pytest.raises(ValueError):
        BussgangStats(g_ce=0.5, g_ul=0.5, g_dl=0.5, **{**kwargs, "cd_ul": np.nan})
    with pytest.raises(ValueError):
        BussgangStats(g_ce=0.5, g_ul=0.5, g_dl=0.5, **{**kwargs, "a_k": np.array([1.0, np.nan])})


def _matched(bits, complex_variance):
    return rescale_labels(design_lloyd_max(bits, np.sqrt(complex_variance / 2.0)), complex_variance)


def test_distortion_power_is_the_one_bit_closed_form_and_c_times_one_minus_g_squared():
    # variance-matched labels give c(1 - G^2); at b = 1 that is c(1 - 2/pi)
    assert distortion_power(_matched(1, 2.0), 2.0) == pytest.approx(2.0 * (1.0 - 2.0 / np.pi), rel=1e-13)
    for bits in range(1, MAX_BITS + 1):
        spec = _matched(bits, 3.0)
        g = gain_scalar(spec, 3.0)
        # 1 - G^2 cancels as G nears 1: 1.7e-9 relative at b = 12
        assert distortion_power(spec, 3.0) == pytest.approx(3.0 * (1.0 - g * g), rel=1e-12 if bits <= 8 else 1e-8)
    # any labels: E|Q(y) - G y|^2 is E|Q(y)|^2 - G^2 c, here the sign quantizer's 2 - G^2 c
    g = gain_scalar(_sign_quantizer(), 5.0)
    assert distortion_power(_sign_quantizer(), 5.0) == pytest.approx(2.0 - g * g * 5.0, rel=1e-13)


@pytest.mark.parametrize("bits", [1, 2, 3, 5])
def test_hermite_series_matches_cell_wise_quadrature(bits):
    spec = _matched(bits, 2.0)  # unit component std
    slope = gain_scalar(spec, 2.0)
    # 0.995 takes more terms than the series allows, so it is integrated
    correlations = np.array([-0.97, -0.6, -0.1, 0.0, 0.25, 0.5, 0.8, 0.917, 0.97, 0.995])
    excess = _correlation_excess(spec, 1.0, correlations)
    for r, value in zip(correlations, excess):
        assert value + slope**2 * r == pytest.approx(quadrature_correlation(spec, 1.0, r), abs=1e-12)


def test_one_bit_correlation_is_the_arcsine_law():
    # E[q(X) q(Y)] = l^2 (2/pi) arcsin r for a sign quantizer with labels +-l
    # (Van Vleck 1943); both the series and its integrated fallback (|r| near 1)
    spec = _matched(1, 2.0)
    label = spec.labels[-1]
    correlations = np.array([-0.99999, -0.9, -0.3, 0.1, 0.5, 0.917, 0.99, 0.999, 0.9999999])
    expected = label**2 * (2.0 / np.pi) * (np.arcsin(correlations) - correlations)
    assert np.allclose(_correlation_excess(spec, 1.0, correlations), expected, rtol=1e-13, atol=1e-16)


def test_projections_are_tau_c_kappa_when_every_pilot_is_used():
    # K = tau: the pilot-phase symbols are uncorrelated, so A_k = tau c kappa
    for bits in (1, 3, 12):
        config = SystemConfig(m_ul=8, m_dl=8, k_users=8, tau=8, bits=bits, rho_bs=3.0, rho_ue=1.0)
        spec_ce = default_specs(config)[0]
        a_k = exact_stats(config, *default_specs(config)).a_k
        assert np.allclose(a_k, 8 * distortion_power(spec_ce, config.y_var_ul), rtol=1e-13, atol=0)


def test_one_bit_projections_of_one_user_are_the_arcsine_law():
    # K = 1: every lag has the correlation gamma = rho/(rho + 1), so A_0 is tau
    # times D_0 plus the tau - 1 lags' 2 l^2 (2/pi)(arcsin gamma - gamma); at
    # rho 1e4 gamma is too near 1 for the series, and at 1e17 it rounds to 1,
    # which the quadrature takes as 1 - 2^-53 (2.4e-8 of A_0)
    for rho, rel in ((0.5, 1e-12), (1e4, 1e-12), (1e17, 1e-7)):
        config = SystemConfig(m_ul=8, m_dl=8, k_users=1, tau=16, bits=1, rho_bs=rho, rho_ue=1.0)
        spec_ce = default_specs(config)[0]
        gamma = rho / (rho + 1.0)
        lag = 2.0 * spec_ce.labels[-1] ** 2 * (2.0 / np.pi) * (np.arcsin(gamma) - gamma)
        expected = 16 * (distortion_power(spec_ce, config.y_var_ul) + 15 * lag)
        assert exact_stats(config, *default_specs(config)).a_k == pytest.approx([expected], rel=rel)


def test_exact_stats_take_no_trials_or_seed_and_draw_nothing(monkeypatch):
    assert list(inspect.signature(exact_stats).parameters) == ["config", "spec_ce", "spec_ul", "spec_dl"]
    config = SystemConfig(m_ul=8, m_dl=8, k_users=4, tau=64, bits=3, rho_bs=10.0, rho_ue=1.0)
    specs = default_specs(config)
    first = exact_stats(config, *specs)

    def no_draws(*args, **kwargs):
        raise AssertionError("exact_stats drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(bussgang, "complex_gaussian", no_draws)
    second = exact_stats(config, *specs)
    for name in ("g_ce", "g_ul", "g_dl", "cd_ul", "cd_dl"):
        assert getattr(first, name) == getattr(second, name)
    assert np.array_equal(first.a_k, second.a_k)
    assert first.g_ce == first.g_ul == gain_scalar(specs[0], config.y_var_ul)
    assert first.cd_dl == distortion_power(specs[2], config.w_var_dl)


def test_exact_projections_need_an_odd_quantizer():
    config = SystemConfig(m_ul=8, m_dl=8, k_users=2, tau=4, bits=1, rho_bs=1.0, rho_ue=1.0)
    thresholds = np.array([-np.inf, 0.1, np.inf])
    shifted = QuantizerSpec(bits=1, thresholds=thresholds, labels=np.array([-1.0, 1.0]), design_std=1.0)
    with pytest.raises(ValueError, match="odd"):
        exact_stats(config, shifted, shifted, shifted)


def _per_trial_moments(config, specs, trials, seed):
    """Per-trial values whose means are assemble_stats' cd_ul, cd_dl and a_k, on its streams."""
    spec_ce, spec_ul, spec_dl = specs
    dl_seed = np.random.SeedSequence(seed, spawn_key=(PHASE_DL,)).generate_state(1)[0]
    pilots = dft_pilots(config.tau, config.k_users)
    trace = {
        "cd_ul": distortion_trace_blocks(spec_ul, config.y_var_ul, config.m, trials, seed),
        "cd_dl": distortion_trace_blocks(spec_dl, config.w_var_dl, config.m, trials, dl_seed),
    }
    values = {name: np.concatenate([np.mean(block, axis=1) for block in blocks]) for name, blocks in trace.items()}
    values["a_k"] = np.concatenate(list(ce_projection_blocks(spec_ce, pilots, config.rho_bs, trials, seed)))
    return values


@pytest.mark.parametrize("bits", [1, 2, 3, 5, 12])
@pytest.mark.parametrize("tau, k_users", [(8, 4), (8, 8), (64, 4), (64, 8)])
def test_exact_stats_match_monte_carlo_within_three_standard_errors(bits, tau, k_users):
    # the default grid's SNR range: rho 1 at tau 8, 125.9 at tau 64.  Each
    # seed's estimate is the mean of its per-trial values, whose spread gives
    # its standard error; the seeds' estimates are pooled
    rho = 1.0 if tau == 8 else 125.9
    config = SystemConfig(m_ul=8, m_dl=8, k_users=k_users, tau=tau, bits=bits, rho_bs=rho, rho_ue=1.0)
    specs = default_specs(config)
    exact = exact_stats(config, *specs)
    trials, seeds = 10_000, (1, 2, 3, 4)
    estimates = {"cd_ul": [], "cd_dl": [], "a_k": []}
    variances = {"cd_ul": [], "cd_dl": [], "a_k": []}
    for seed in seeds:
        stats = assemble_stats(config, *specs, trials=trials, seed=seed)
        for name, values in _per_trial_moments(config, specs, trials, seed).items():
            assert np.allclose(getattr(stats, name), np.mean(values, axis=0), rtol=1e-12, atol=0)
            estimates[name].append(getattr(stats, name))
            variances[name].append(np.var(values, axis=0) / trials)
    for name in estimates:
        error = np.abs(np.mean(estimates[name], axis=0) - getattr(exact, name))
        standard_error = np.sqrt(np.sum(variances[name], axis=0)) / len(seeds)
        assert np.all(error <= 3.0 * standard_error), (name, error / standard_error)
