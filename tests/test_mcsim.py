"""Tests for the full-chain Monte Carlo validator."""

import gc
import itertools
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from quantmimo import bussgang, mcsim, rates
from quantmimo.airlink import complex_gaussian, dft_pilots
from quantmimo.bussgang import PHASE_ORACLE, SystemConfig, assemble_stats, block_rng
from quantmimo.config import SweepConfig
from quantmimo.mcsim import default_specs, validate_closed_form

from oracles import einsum_downlink_block, einsum_pilot_phase, einsum_uplink_block, sequential_oracle_table


def _config(**overrides):
    base = dict(m_ul=16, m_dl=16, k_users=4, tau=8, bits=3, rho_bs=1.0, rho_ue=1.0)
    base.update(overrides)
    return SystemConfig(**base)


def test_default_specs_match_scenario_variances():
    config = _config()
    adc_ce, adc_ul, dac = default_specs(config)
    assert adc_ce is adc_ul
    assert 2 * adc_ce.design_std**2 == pytest.approx(config.y_var_ul)
    assert 2 * dac.design_std**2 == pytest.approx(config.w_var_dl)


def test_fine_resolution_high_snr_recovers_matched_filter_mean():
    # near-infinite resolution, negligible noise: E[v_k^H G h_k] / M -> 1
    config = _config(m_ul=32, m_dl=32, k_users=4, tau=4, bits=12, rho_bs=1e6)
    report = validate_closed_form(config, trials=20_000, seed=0, direction="ul")["ul"]
    desired, _ = report.moment_errors["desired_mean"]
    assert desired / 32 == pytest.approx(1.0, rel=0.01)
    assert report.sindr_closed.shape == (4,)


def test_validator_is_deterministic():
    config = _config()
    a = validate_closed_form(config, trials=20_000, seed=3, direction="ul")["ul"]
    b = validate_closed_form(config, trials=20_000, seed=3, direction="ul")["ul"]
    assert np.array_equal(a.sindr_empirical, b.sindr_empirical)
    assert np.array_equal(a.sindr_closed, b.sindr_closed)


def test_trials_differ_across_seeds():
    config = _config()
    a = validate_closed_form(config, trials=2_000, seed=1, direction="ul")["ul"]
    b = validate_closed_form(config, trials=2_000, seed=2, direction="ul")["ul"]
    assert not np.array_equal(a.sindr_empirical, b.sindr_empirical)
    assert a.moment_errors["desired_mean"] != b.moment_errors["desired_mean"]


def test_validator_agrees_with_closed_forms_at_moderate_resolution():
    config = _config(m_ul=32, m_dl=32)
    reports = validate_closed_form(config, trials=30_000, seed=0, direction="both")
    assert set(reports) == {"ul", "dl"}
    for report in reports.values():
        assert report.passed, report.to_text()
        assert np.all(report.sindr_rel_error < 0.05)


def test_validator_agrees_at_fine_resolution_tight_tolerance():
    config = _config(m_ul=16, m_dl=16, bits=10)
    reports = validate_closed_form(config, trials=20_000, seed=0, tolerance=0.03)
    for report in reports.values():
        assert report.passed, report.to_text()


def test_pilot_phase_residual_is_statistically_zero_in_chain():
    # the pilot-phase ADC input is exactly Gaussian, so the in-chain
    # decomposition residual must vanish within Monte Carlo error
    config = _config(m_ul=32, m_dl=32, bits=2)
    reports = validate_closed_form(config, trials=30_000, seed=1, direction="both")
    for report in reports.values():
        mag, sigma = report.bussgang_residual["ce"]
        assert mag < 3 * sigma, f"ce: |mean d y*| = {mag} vs 3 sigma = {3 * sigma}"
    assert set(reports["ul"].bussgang_residual) == {"ce", "ul"}
    assert set(reports["dl"].bussgang_residual) == {"ce", "dl"}


def test_residuals_vanish_for_gaussian_model_inputs_per_phase():
    # each converter decorrelates its distortion from a Gaussian input at the
    # matched variance; the data-phase inputs are only conditionally Gaussian,
    # so the model-level property is checked with direct Gaussian draws
    from quantmimo.airlink import complex_gaussian
    from quantmimo.bussgang import gain_scalar
    from quantmimo.quant import quantize

    config = _config(m_ul=16, m_dl=16, bits=2)
    adc, _, dac = default_specs(config)
    rng = np.random.default_rng(8)
    for spec, var in ((adc, config.y_var_ul), (dac, config.w_var_dl)):
        y = complex_gaussian(rng, (500_000,), var)
        d = quantize(spec, y) - gain_scalar(spec, var) * y
        ry = d * y.conj()
        sigma = np.std(ry.real) / np.sqrt(y.size)
        assert abs(np.mean(ry)) < 3.5 * sigma


def test_distortion_covariance_off_diagonals_vanish():
    # the uplink distortion of the full chain is uncorrelated across antennas:
    # every off-diagonal of E[d d^H] is within 3 sigma of zero over 30000
    # trials, walked in the oracle's blocks with the index-notation kernels
    config = _config(m_ul=8, m_dl=8, bits=2)
    m, k, tau = config.m, config.k_users, config.tau
    trials = 30_000
    specs = default_specs(config)
    stats = assemble_stats(config, *specs, trials=trials, seed=2)
    pilots = dft_pilots(tau, k)
    offdiag, offdiag_sq = [], []
    for j, size in enumerate(mcsim._oracle_blocks(config, trials)):
        rng = block_rng(2, PHASE_ORACLE, j)
        h = complex_gaussian(rng, (size, m, k))
        noise = complex_gaussian(rng, (size, m, tau))
        h_hat, _ = einsum_pilot_phase(config.rho_bs, specs[0], stats.g_ce, pilots, h, noise)
        sums = einsum_uplink_block(config.rho_bs, specs[1], stats.g_ul, h, h_hat, rng, track_offdiag=True)
        offdiag.append(sums["offdiag"])
        offdiag_sq.append(sums["offdiag_sq"])
    mean = np.sum(offdiag, axis=0) / trials
    off_max = np.max(np.abs(mean[~np.eye(m, dtype=bool)]))
    off_sigma = np.sqrt(np.sum(offdiag_sq, axis=0) / trials / trials)
    assert off_max < 3 * off_sigma


def test_empirical_delta_matches_closed_form():
    config = _config(m_ul=16, m_dl=16, bits=2)
    report = validate_closed_form(config, trials=30_000, seed=4, direction="dl")["dl"]
    assert report.delta_empirical == pytest.approx(report.delta_closed, rel=0.01)


# A drift alarm, not a bound the closed form meets: on the README library
# example the closed-form distortion terms miss the oracle's.  Over seeds
# 1-10 at 4e4 trials the relative error of the uplink E[v^H C_d v] was 0.317
# (SD 0.003) at b = 1 and 0.631 (SD 0.013) at b = 3, and that of the
# downlink m*cd_dl against E||d||^2 was 0.0109 (SD 0.0008) at b = 1 and
# 0.1842 (SD 0.0045) at b = 3; each band is 4 SD on either side.  With the
# oracle's blocks halved (a new stream), the same seeds gave means 0.319,
# 0.625, 0.0106 and 0.1816.
@pytest.mark.parametrize(
    "direction,bits,error,band",
    [("ul", 1, 0.317, 0.013), ("ul", 3, 0.631, 0.053), ("dl", 1, 0.0109, 0.0032), ("dl", 3, 0.1842, 0.018)],
)
def test_uplink_distortion_moment_error_stays_where_measured(direction, bits, error, band):
    config = _config(m_ul=32, m_dl=32, bits=bits)
    report = validate_closed_form(config, trials=40_000, seed=1, direction=direction)[direction]
    _, rel_error = report.moment_errors["distortion_power"]
    assert rel_error == pytest.approx(error, abs=band)


MOMENT_NAMES = {
    "ul": {"desired_mean", "cross_power", "self_power", "combiner_power", "distortion_power"},
    "dl": {"desired_mean", "cross_power", "self_power", "distortion_power", "precoder_frobenius", "precoder_diag"},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [4, 1])
@pytest.mark.parametrize("direction", ["ul", "dl"])
def test_report_text_is_flat_and_complete(direction, k):
    config = _config(m_ul=8, m_dl=8, k_users=k, tau=8 if k > 1 else 1)
    reports = validate_closed_form(config, trials=10_000, seed=0, direction=direction)
    assert set(reports) == {direction}
    report = reports[direction]
    names = MOMENT_NAMES[direction] - ({"cross_power"} if k == 1 else set())  # one UE has no cross power
    assert set(report.moment_errors) == names
    text = report.to_text()
    for token in (f"direction {direction}", "trials 10000", "passed", "sindr_closed_0", "delta_closed", "worst_term"):
        assert token in text
    for name in names:
        assert f"moment_{name} " in text
        assert f" stderr {report.moment_stderr[name]:.6g}" in text
        assert np.all(np.isfinite([*report.moment_errors[name], report.moment_stderr[name]])), name
    assert "nan" not in text


def test_validator_input_checks():
    config = _config()
    for trials in (0, 2e4, 256.0, True, "256", None):
        with pytest.raises(ValueError, match="trials"):
            validate_closed_form(config, trials=trials)
    assert validate_closed_form(config, trials=np.int64(300), direction="ul")["ul"].trials == 300
    for tolerance in (float("nan"), -1, 0):  # each would fail every report
        with pytest.raises(ValueError, match=f"tolerance must be positive and finite, got {tolerance!r}"):
            validate_closed_form(config, trials=300, tolerance=tolerance)


def _oracle_inputs(config):
    specs = default_specs(config)
    stats = assemble_stats(config, *specs, trials=10_000, seed=1)
    return specs, stats, rates.mrt_normalization(config, stats)


def _row_sums(row):
    """{phase: {name: sum}} of one row of the oracle's table of block sums."""
    return {phase: {name: row[phase][name] for name in row.dtype[phase].names} for phase in row.dtype.names}


def _oracle_table(monkeypatch, config, **kwargs):
    """The table of block sums behind validate_closed_form(config, **kwargs)."""
    tables = []
    real_block_table = mcsim._block_table
    monkeypatch.setattr(mcsim, "_block_table", lambda *args: tables.append(real_block_table(*args)) or tables[-1])
    validate_closed_form(config, **kwargs)
    (table,) = tables
    return table


@pytest.mark.parametrize(
    "m,k,tau,bits",
    [(10, 3, 5, 2), (32, 4, 8, 1)],  # the second is the criterion-4 scenario
)
def test_block_kernel_matches_einsum_reference(monkeypatch, m, k, tau, bits):
    # one block, whose one channel product A = H^H Ĥ serves both directions,
    # gives the index-notation sums that form each product from its own
    # combiner or precoder, and draws the same random numbers
    config = _config(m_ul=m, m_dl=m, k_users=k, tau=tau, bits=bits)
    specs, stats, delta = _oracle_inputs(config)
    pilots = dft_pilots(tau, k)
    size = mcsim._oracle_blocks(config, bussgang._BLOCK_ENTRIES)[0]  # one full block
    generators = []
    monkeypatch.setattr(mcsim, "block_rng", lambda *key: generators.append(block_rng(*key)) or generators[-1])
    block_sum, _, _, buffer_shapes = mcsim._oracle_walk(config, specs, stats, delta, pilots, size, 5, ("ul", "dl"))
    got = _row_sums(block_sum(0, [np.empty((size, *shape), complex) for shape in buffer_shapes]))

    ref_rng = block_rng(5, PHASE_ORACLE, 0)
    h = complex_gaussian(ref_rng, (size, m, k))
    noise = complex_gaussian(ref_rng, (size, m, tau))
    h_hat, ce = einsum_pilot_phase(config.rho_bs, specs[0], stats.g_ce, pilots, h, noise)
    want = {
        "ce": ce,
        "ul": einsum_uplink_block(config.rho_bs, specs[1], stats.g_ul, h, h_hat, ref_rng),
        "dl": einsum_downlink_block(specs[2], stats.g_dl, delta, h, h_hat, ref_rng),
    }
    assert len(generators) == 1 and generators[0].bit_generator.state == ref_rng.bit_generator.state
    assert got.keys() == want.keys()
    for phase, sums in want.items():
        assert got[phase].keys() == sums.keys(), phase
        for name, value in sums.items():
            assert np.shape(got[phase][name]) == np.shape(value), (phase, name)
            assert np.allclose(got[phase][name], value, rtol=1e-12, atol=0), (phase, name)


@pytest.mark.parametrize("bits", [1, 2, 3])
@pytest.mark.parametrize("direction", ["both", "dl"])
def test_block_tables_total_as_the_per_block_dicts_did(monkeypatch, bits, direction):
    # each name's per-block sums, read as a (blocks, *shape) field of the
    # oracle's table and summed over its blocks, give exactly the totals of
    # the per-block sums of a one-thread walk, each block's kept apart, over
    # 2.5 blocks so that the short last block counts too (criterion-4 scenario)
    config = _config(m_ul=32, m_dl=32, bits=bits)
    specs, stats, delta = _oracle_inputs(config)
    pilots = dft_pilots(config.tau, config.k_users)
    per_block = mcsim._oracle_blocks(config, bussgang._BLOCK_ENTRIES)[0]
    trials = 5 * per_block // 2
    directions = ("ul", "dl") if direction == "both" else (direction,)
    table = _oracle_table(monkeypatch, config, trials=trials, seed=7, direction=direction, specs=specs, stats=stats)
    walk = sequential_oracle_table(config, specs, stats, delta, pilots, trials, 7, directions)
    rows = [_row_sums(row) for row in walk]
    assert mcsim._oracle_blocks(config, trials) == [128, 128, 64]
    assert table.dtype.names == tuple(rows[0]) == ("ce", *directions)
    for phase, sums in rows[0].items():
        assert table.dtype[phase].names == tuple(sums), phase
        for name in sums:
            got = np.sum(table[phase][name], axis=0)
            want = np.sum([row[phase][name] for row in rows], axis=0)
            assert got.dtype == want.dtype and got.shape == want.shape, (phase, name)
            assert np.all(got == want), (phase, name)


# 512 trials a block at m = tau = 8; each thread claims the next block when it is free
@pytest.mark.parametrize(
    "trials,blocks",
    [(300, 1), (3 * 512, 3), (512 + 17, 2)],
    ids=["one_block", "odd_block_count", "ragged_last_block"],
)
def test_oracle_matches_a_sequential_walk_bit_for_bit(monkeypatch, trials, blocks):
    config = _config(m_ul=8, m_dl=8, bits=2)
    specs, stats, delta = _oracle_inputs(config)
    pilots = dft_pilots(config.tau, config.k_users)
    assert len(mcsim._oracle_blocks(config, trials)) == blocks
    got = _oracle_table(monkeypatch, config, trials=trials, seed=4, specs=specs, stats=stats)
    want = sequential_oracle_table(config, specs, stats, delta, pilots, trials, 4, ("ul", "dl"))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_slow_worker_leaves_its_blocks_to_the_calling_thread():
    # the worker sleeps before each block it takes, so the calling thread
    # claims most of the 12 blocks; which thread fills a row changes no bit
    config = _config(m_ul=8, m_dl=8, bits=2)
    specs, stats, delta = _oracle_inputs(config)
    pilots = dft_pilots(config.tau, config.k_users)
    walk = (config, specs, stats, delta, pilots, 12 * 512, 4, ("ul", "dl"))
    block_sum, sizes, dtype, buffer_shapes = mcsim._oracle_walk(*walk)
    assert len(sizes) == 12
    caller, on_caller = threading.current_thread(), {}

    def slowed(j, buffers):
        on_caller[j] = threading.current_thread() is caller
        if not on_caller[j]:
            time.sleep(0.05)
        return block_sum(j, buffers)

    got = bussgang._block_table(slowed, sizes, dtype, buffer_shapes)
    assert sorted(on_caller) == list(range(12))
    assert sum(on_caller.values()) >= 9, on_caller
    assert got.tobytes() == bussgang._block_table(block_sum, sizes, dtype, buffer_shapes).tobytes()
    assert got.tobytes() == sequential_oracle_table(*walk).tobytes()
    assert not _block_threads()


def test_every_block_is_claimed_once_under_fast_thread_switches():
    # a thread switch every microsecond, between the two threads' claims
    # from one iterator, over 50000 one-trial blocks
    claimed = []

    def block_sum(j, buffers):
        claimed.append(j)
        return j

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        table = bussgang._block_table(block_sum, [1] * 50_000, np.dtype(float), [(1,)])
    finally:
        sys.setswitchinterval(interval)
    assert sorted(claimed) == list(range(50_000))
    assert np.array_equal(table, np.arange(50_000.0))


def test_block_buffers_are_disjoint_and_freed_after_the_call():
    # each block sleeps, so both threads claim some of the 8 blocks; each
    # thread's buffers are those it saw at its first block
    buffers = {}

    def block_sum(j, views):
        time.sleep(0.01)
        buffers.setdefault(threading.current_thread().name, views)
        return j

    table = bussgang._block_table(block_sum, [3] * 8, np.dtype(float), [(2,), (5,)])
    assert np.array_equal(table, np.arange(8.0))
    assert len(buffers) == 2, buffers.keys()
    views = [view for thread_views in buffers.values() for view in thread_views]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(views, 2))
    refs = [weakref.ref(view.base) for view in views]
    buffers.clear()
    del views
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("block_entries", [None, 100])  # 100: fewer than one trial's draw
def test_oracle_draws_each_block_from_its_own_generator(monkeypatch, block_entries):
    # block j takes one draw, m(K + tau + 1) + 2K entries a trial, from
    # generator j of the oracle's own phase, whichever directions are asked
    # for, and no draw is wider than a block (or one trial, where a trial is
    # wider); the block size thus defines the oracle's stream.  Two threads
    # take the blocks, so the draws are grouped by generator
    config = _config(m_ul=16, m_dl=16, k_users=4, tau=8, bits=2)
    m, k, tau = config.m, config.k_users, config.tau
    width = m * (k + tau + 1) + 2 * k
    specs, stats, _ = _oracle_inputs(config)
    if block_entries is not None:
        monkeypatch.setattr(bussgang, "_BLOCK_ENTRIES", block_entries)
    per_block = mcsim._oracle_blocks(config, bussgang._BLOCK_ENTRIES)[0]
    sizes = [per_block, per_block, per_block // 2 or 1]  # 2.5 blocks, or 3 one-trial blocks
    drawn = {}  # generator -> (its key, [shapes drawn from it])
    real_rng, real_draw = mcsim.block_rng, mcsim.complex_gaussian

    def rng(*key):
        generator = real_rng(*key)
        drawn[generator] = (key, [])
        return generator

    def draw(generator, shape, *var, out=None):
        drawn[generator][1].append(shape)
        return real_draw(generator, shape, *var, out=out)

    monkeypatch.setattr(mcsim, "block_rng", rng)
    monkeypatch.setattr(mcsim, "complex_gaussian", draw)
    for direction in ("both", "dl"):
        drawn.clear()
        validate_closed_form(config, trials=sum(sizes), seed=6, direction=direction, specs=specs, stats=stats)
        by_key = dict(drawn.values())
        keys = [(6, PHASE_ORACLE, j) for j in range(len(sizes))]
        assert sorted(by_key) == keys
        assert [by_key[key] for key in keys] == [[(n, width)] for n in sizes]
        widest = max(int(np.prod(shape)) for shapes_drawn in by_key.values() for shape in shapes_drawn)
        assert widest <= max(bussgang._BLOCK_ENTRIES, width)


@pytest.mark.parametrize(
    "m,k,tau,trials",
    [(32, 4, 8, 20_000), (10, 3, 5, 2_000)],  # the first is the criterion-4 scenario
)
@pytest.mark.parametrize("direction", ["ul", "dl"])
def test_one_direction_reports_as_both_directions_do(m, k, tau, trials, direction):
    # every direction draws the same block layout, so a call for one
    # direction gives, to the byte, that direction's report of a call for both
    config = _config(m_ul=m, m_dl=m, k_users=k, tau=tau, bits=2)
    one = validate_closed_form(config, trials=trials, seed=5, direction=direction)[direction]
    both = validate_closed_form(config, trials=trials, seed=5)[direction]
    assert one.to_text() == both.to_text()


def _widest_validate_point():
    """The default grid's widest --validate point: ul b=1, B 0.1 GHz, tau 64, so m 176 and K 8."""
    return SweepConfig().scenario("ul", 1, 1e8, 64)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peaks of the oracle (specs and stats given), as tracemalloc sees them, the
# two threads' block buffers included, measured with numpy 2.4: 5.2 MB at
# the criterion-4 scenario over 16384 trials, and 3.9 MB at the widest
# --validate point over 2000 trials.  Blocks twice as long would hold 8.4 MB
# of buffers at the criterion-4 scenario; drawing whole 16384-trial chunks
# first took 115 MB and 415 MB.
@pytest.mark.parametrize(
    "config,direction,trials",
    [
        (_config(m_ul=32, m_dl=32, bits=2), "both", 16_384),
        (_widest_validate_point(), "ul", 2_000),
    ],
    ids=["criterion_4", "widest_validate"],
)
def test_peak_memory_of_the_oracle_stays_at_block_scale(config, direction, trials):
    specs, stats, _ = _oracle_inputs(config)
    peak = _traced_peak(
        lambda: validate_closed_form(config, trials=trials, seed=1, direction=direction, specs=specs, stats=stats)
    )
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_oracle_keeps_one_row_of_floats_per_block(monkeypatch):
    # with every trial its own block, twice the blocks may raise the peak by
    # little more than the added rows of block sums (103 floats a block at
    # K 4, m 32); per-block dicts of small arrays took about 2.6 KB a block
    config = _config(m_ul=32, m_dl=32, bits=2)
    specs, stats, _ = _oracle_inputs(config)
    monkeypatch.setattr(bussgang, "_BLOCK_ENTRIES", config.m * config.tau)
    assert mcsim._oracle_blocks(config, 3) == [1, 1, 1]
    row_bytes = mcsim._row_dtype(config, ("ul", "dl")).itemsize
    assert row_bytes == 8 * 103

    blocks = 1_000
    peak = {
        n: _traced_peak(lambda: validate_closed_form(config, trials=n, seed=1, specs=specs, stats=stats))
        for n in (blocks, 2 * blocks)
    }
    growth = peak[2 * blocks] - peak[blocks]
    assert growth <= 1.25 * blocks * row_bytes, f"{growth / blocks:.0f} B per block against {row_bytes} B rows"


# A drift alarm at the default grid's widest --validate point, where the
# closed-form uplink SINDRs miss the oracle's (0.364-0.365 at 1e4 trials).
# Over seeds 1-10 at 2002 trials the worst SINDR error was 0.378 (SD 0.017)
# with blocks of 5 trials; the band is 4 SD on either side.  Blocks there now
# hold 2 trials, so the 2002 trials fill 1001 blocks, and the same seeds gave
# 0.374 (SD 0.021).
def test_widest_validate_point_misses_the_closed_form_where_measured():
    report = validate_closed_form(_widest_validate_point(), trials=2002, seed=1, direction="ul")["ul"]
    assert report.passed is False
    assert np.max(report.sindr_rel_error) == pytest.approx(0.378, abs=0.068)


def _oracle_text(reports):
    return "\n".join(report.to_text() for report in reports.values())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_the_oracle():
    # a forked child copies no thread of its parent; its call starts and
    # waits on a block thread of its own, so it returns
    config = _config(m_ul=8, m_dl=8, bits=2)
    specs, stats, _ = _oracle_inputs(config)
    validate_closed_form(config, trials=3000, seed=1, specs=specs, stats=stats)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            validate_closed_form(config, trials=3000, seed=1, specs=specs, stats=stats)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's oracle call did not return within 60 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def _block_threads():
    return [t for t in threading.enumerate() if t.name.startswith("quantmimo-")]


def _fresh_python(code):
    """Stdout of code run by a fresh interpreter that imports this checkout's package."""
    src = str(Path(mcsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout


def test_no_draw_thread_outlives_a_call_or_the_import():
    config = _config(m_ul=8, m_dl=8, bits=2)
    specs, stats, _ = _oracle_inputs(config)
    for seed in range(10):
        validate_closed_form(config, trials=3000, seed=seed, specs=specs, stats=stats)
        assert not _block_threads()
    code = "import threading, quantmimo; print(*(t.name for t in threading.enumerate()))"
    assert _fresh_python(code).split() == ["MainThread"]


def test_a_call_that_raises_leaves_the_next_report_as_a_fresh_process_gives_it(monkeypatch):
    # quantize fails at its fourth call, on whichever thread makes it,
    # while the other thread works on a block of its own
    config = _config(m_ul=8, m_dl=8, bits=2)  # 512 trials a block, so 5 blocks
    real_quantize, calls = mcsim.quantize, itertools.count()

    def failing(spec, value, out=None):
        if next(calls) == 3:
            raise RuntimeError("quantize failed")
        return real_quantize(spec, value, out=out)

    monkeypatch.setattr(mcsim, "quantize", failing)
    with pytest.raises(RuntimeError, match="quantize failed"):
        validate_closed_form(config, trials=2500, seed=4)
    assert not _block_threads()  # the other thread's block was waited for
    monkeypatch.undo()
    text = _oracle_text(validate_closed_form(config, trials=2500, seed=4))

    code = (
        "from quantmimo.bussgang import SystemConfig; from quantmimo.mcsim import validate_closed_form; "
        "reports = validate_closed_form(SystemConfig(8, 8, 4, 8, 2, 1.0, 1.0), trials=2500, seed=4); "
        "print(chr(10).join(r.to_text() for r in reports.values()))"
    )
    assert text == _fresh_python(code).rstrip("\n")


# Over seeds 0-9 at 2e4 trials the seed-to-seed SD of each moment was
# 0.87-1.20 times its median reported standard error (0.94-1.14 over seeds
# 0-39).  The band is about the 99% range of a 10-seed SD over its true
# value (chi-square with 9 degrees of freedom: 0.44-1.62); a standard error
# that drops the block sizes (16 times off) or is half the true one falls out.
def test_moment_standard_errors_match_the_spread_over_seeds():
    config = _config(m_ul=32, m_dl=32, bits=2)
    specs, stats, _ = _oracle_inputs(config)
    values, stderrs = {}, {}
    for seed in range(10):
        reports = validate_closed_form(config, trials=20_000, seed=seed, specs=specs, stats=stats)
        for direction, report in reports.items():
            assert report.moment_stderr.keys() == report.moment_errors.keys()
            for name, (value, _) in report.moment_errors.items():
                values.setdefault((direction, name), []).append(value)
                stderrs.setdefault((direction, name), []).append(report.moment_stderr[name])
    assert len(values) == len(MOMENT_NAMES["ul"]) + len(MOMENT_NAMES["dl"])
    for key, spread in values.items():
        ratio = np.std(spread, ddof=1) / np.median(stderrs[key])
        assert 0.45 <= ratio <= 1.6, (key, ratio)
