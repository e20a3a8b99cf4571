"""Tests for the sweep engine, CSV output, and CLI."""

import dataclasses
import json
import math

import numpy as np
import pytest

from quantmimo import bussgang, cli, sweep
from quantmimo.cli import main as cli_main
from quantmimo.config import ConfigError, SweepConfig, config_from_dict, config_to_dict, from_text, read_config
from quantmimo.bussgang import SystemConfig
from quantmimo.mcsim import default_specs, validate_closed_form
from quantmimo.quant import _unit_lloyd_max
from quantmimo.sweep import SweepRecord, pilot_seed, point_seed, read_csv, run_point, run_sweep, write_csv, write_gnuplot
from quantmimo.syspower import Envelope, LinkBudget, PowerModelParams, envelope_from_reference, p_adc, snr_linear


def _tiny_config(**overrides):
    base = dict(direction="ul", bits=(10,), bandwidth_ghz=(0.1,), tau=(8,), trials=10_000, seed=1)
    base.update(overrides)
    return config_from_dict(base)


def test_defaults_cover_the_reference_scenario():
    config = SweepConfig()
    assert config.direction == "both"
    assert config.bits == tuple(range(1, 13))
    assert config.bandwidth_ghz == (0.1,)
    assert config.tau == (8, 16, 32, 64)
    assert config.k_users == 8
    assert config.envelope.bits_ref == 10 and config.envelope.count_ref == 10


def test_config_rejects_unknown_keys_at_every_level():
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"power": {"bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"link": {"bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"envelope": {"bogus": 1}})


BAD_GRIDS = [
    ("bits", {"bits": []}),
    ("bandwidth_ghz", {"bandwidth_ghz": []}),
    ("tau", {"tau": []}),
    ("bits", {"bits": [2, 2]}),
    ("bits", {"bits": [2, 3, 2.0]}),
    ("tau", {"tau": [8, 8.0]}),
    # the same point seed (int Hz) and the same CSV field
    ("bandwidth_ghz", {"bandwidth_ghz": [0.1, 0.1000000001]}),
    # distinct int Hz, but the same 9-digit CSV field
    ("bandwidth_ghz", {"bandwidth_ghz": [1.0, 1.000000001]}),
    ("bandwidth_ghz", {"bandwidth_ghz": [1e300]}),  # infinite in Hz
]

BIG_ENVELOPES = [{"count_ref": 1e9}, {"bandwidth_ghz_ref": 1e290}, {"count_ref": 1e308}]


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        config_from_dict({"direction": "sideways"})
    with pytest.raises(ConfigError):
        config_from_dict({"bits": [0]})
    with pytest.raises(ConfigError):
        config_from_dict({"tau": [4]})  # below k_users = 8
    with pytest.raises(ConfigError):
        config_from_dict({"trials": 10})
    # a non-object section or a non-list grid is named, not iterated
    for key in ("power", "link", "envelope"):
        for value in (5, "abc", [1]):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({key: value})
    for key in ("bits", "bandwidth_ghz", "tau"):
        for value in (3, "12", {"a": 1}, None):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({key: value})
    with pytest.raises(ConfigError, match="bits"):
        config_from_dict({"bits": [None]})
    with pytest.raises(ConfigError):
        config_from_dict({"envelope": {"bits_ref": None}})
    # integer keys take integral numbers only: no truncation, no bools
    bad_integers = [
        ("bits", {"bits": [2.7]}),
        ("bits", {"bits": [True]}),
        ("tau", {"tau": [8.5]}),
        ("k_users", {"k_users": 4.5}),
        ("k_users", {"k_users": True}),
        ("trials", {"trials": 100_000.5}),
        ("trials", {"trials": "100000"}),
        ("seed", {"seed": 1.5}),
        ("seed", {"seed": True}),
        ("seed", {"seed": -1}),
        ("bits_ref", {"envelope": {"bits_ref": 9.5}}),
        ("bits_ref", {"envelope": {"bits_ref": False}}),
        ("count_ref", {"envelope": {"count_ref": 10.2}}),
        ("validate", {"validate": "no"}),
        ("validate", {"validate": 1}),
    ]
    for key, raw in bad_integers:
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)
    # counts and real-valued keys are range-checked at load time, not at the first point
    nan, inf = float("nan"), float("inf")
    bad_values = [
        ("k_users", {"k_users": 0}),
        ("k_users", {"k_users": -3}),
        *[("validate_tolerance", {"validate_tolerance": v}) for v in ("x", True, 0, -1, nan, inf)],
        *[("v_dd", {"power": {"v_dd": v}}) for v in (True, "3", nan, inf, None, 10**400)],  # no float holds 10**400
        ("noise_figure_db", {"link": {"noise_figure_db": "x"}}),
        ("p_ue_dbm", {"link": {"p_ue_dbm": nan}}),
        ("alpha", {"link": {"alpha": False}}),
        *[("bandwidth_ghz", {"bandwidth_ghz": [v]}) for v in (nan, inf, True, "0.1")],
        *[("bandwidth_ghz_ref", {"envelope": {"bandwidth_ghz_ref": v}}) for v in (-0.1, 0, nan, True, "0.1", 1e300)],
        ("count_ref", {"envelope": {"count_ref": 0}}),
        ("bits_ref", {"envelope": {"bits_ref": 0}}),
        # a pilot length above MAX_PILOT_LENGTH (4096)
        ("tau", {"tau": [1_000_000], "k_users": 8}),
        # envelopes that supply more antennas than a point's arrays can hold (or infinitely many)
        *[("envelope", {"envelope": envelope}) for envelope in BIG_ENVELOPES],
    ]
    for key, raw in bad_values:
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)
    # a SweepConfig made directly is checked as a loaded one is, and so is its envelope
    with pytest.raises(ValueError, match="^bandwidth_ghz_ref must be positive and finite in Hz, got inf"):
        SweepConfig(envelope=Envelope(bandwidth_ghz_ref=math.inf))
    for key, kwargs in (
        ("k_users", {"k_users": 0}),
        ("trials", {"trials": 10}),
        # a float or a bool where an integer belongs used to fail only when the sweep ran
        ("k_users", {"k_users": 4.0}),
        ("trials", {"trials": 1e4}),
        ("bits", {"bits": (2.0,)}),
        ("bits", {"bits": (True,)}),
        ("tau", {"tau": (8.0,)}),
        ("seed", {"seed": 1.5}),
    ):
        with pytest.raises(ConfigError, match=key):
            SweepConfig(**kwargs)
    # an int too large for a float passes a section's POSITIVE check, and
    # fails as the loader fails it, not with an OverflowError or a TypeError
    # from the power model or the link budget at the first point
    for key, kwargs in (
        ("power v_dd", {"power": PowerModelParams(v_dd=10**400)}),
        ("link distance_m", {"link": LinkBudget(distance_m=10**400)}),
        ("validate_tolerance", {"validate_tolerance": 10**400}),
    ):
        with pytest.raises(ConfigError, match=f"^{key}: int too large to convert to float"):
            SweepConfig(**kwargs)
    # and rejects exactly what the loader rejects, for every numeric key,
    # sections included: a ConfigError names the key or its section (or, for
    # too many antennas, the envelope), and a section's own ValueError the key
    def rejects(make, key, *sections):
        try:
            make()
        except ConfigError as exc:
            assert any(word in str(exc) for word in (key, *sections)), exc
            return True
        except ValueError as exc:
            assert sections and str(exc).startswith(f"{key} must be "), exc
            return True
        return False

    values = (True, nan, inf, "3", -1, 0, 2.5, 10**6)
    for key in ("bits", "tau", "bandwidth_ghz", "k_users", "trials", "seed", "validate_tolerance"):
        grid = isinstance(getattr(SweepConfig(), key), tuple)
        for value in values:
            given = [value] if grid else value
            direct = rejects(lambda: SweepConfig(**{key: tuple(given) if grid else given}), key)
            loaded = rejects(lambda: config_from_dict({key: given}), key)
            assert direct == loaded, (key, value)
    for section, cls in (("power", PowerModelParams), ("link", LinkBudget), ("envelope", Envelope)):
        for key in [f.name for f in dataclasses.fields(cls)]:
            for value in values:
                direct = rejects(lambda: SweepConfig(**{section: cls(**{key: value})}), key, section, "envelope")
                loaded = rejects(lambda: config_from_dict({section: {key: value}}), key, section, "envelope")
                assert direct == loaded, (section, key, value)
    # an empty grid would run nothing, and a repeated point would run twice
    for key, raw in BAD_GRIDS:
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)
    with pytest.raises(ConfigError, match="bits"):
        SweepConfig(bits=(3, 3))
    # a grid given directly is a list or a tuple, as a loaded one is, and is
    # kept as a tuple, so that the frozen config hashes
    for key, kwargs in (("bits", {"bits": 3}), ("tau", {"tau": 8}), ("bandwidth_ghz", {"bandwidth_ghz": 0.1})):
        with pytest.raises(ConfigError, match=f"^{key} must be a list, got "):
            SweepConfig(**kwargs)
    listed = SweepConfig(bits=[1, 2], tau=[8, 16], bandwidth_ghz=[0.1])
    assert listed == SweepConfig(bits=(1, 2), tau=(8, 16), bandwidth_ghz=(0.1,))
    assert listed.bits == (1, 2) and hash(listed) == hash(SweepConfig(bits=(1, 2), tau=(8, 16)))
    distinct = config_from_dict({"bits": [2, 3], "tau": [8, 16], "bandwidth_ghz": [0.1, 0.100000002, 1.0]})
    assert distinct.bandwidth_ghz == (0.1, 0.100000002, 1.0)
    assert sorted({hz for _, _, hz, _ in distinct.points()}) == [1e8, 100000002.0, 1e9]
    reals = config_from_dict({"validate_tolerance": 1, "power": {"v_dd": 2}, "envelope": {"bandwidth_ghz_ref": 1}})
    assert reals.validate_tolerance == 1.0 and reals.power.v_dd == 2.0
    assert reals.envelope.bandwidth_ghz_ref == 1.0 and type(reals.envelope.bandwidth_ghz_ref) is float
    integral = config_from_dict({"bits": [2.0], "trials": 1e5, "envelope": {"count_ref": 10.0}})
    assert integral.bits == (2,) and type(integral.bits[0]) is int
    assert integral.trials == 100_000 and type(integral.trials) is int
    assert type(integral.envelope.count_ref) is int


def test_a_tolerance_the_oracle_rejects_fails_at_config_time():
    # SweepConfig and validate_closed_form share one check, so no tolerance
    # gets past config time to fail at the first --validate point
    config = SystemConfig(8, 8, 4, 8, 2, 1.0, 1.0)
    for tolerance in (math.inf, True, math.nan, 0, -1.0, "0.05"):
        with pytest.raises(ConfigError, match="validate_tolerance: must be positive and finite"):
            SweepConfig(validate=True, validate_tolerance=tolerance)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            validate_closed_form(config, trials=300, tolerance=tolerance)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"direction": "dl", "bits": [2, 3], "bandwidth_ghz": [0.1, 1.0]}))
    config = config_from_dict(read_config(path))
    assert config.direction == "dl"
    assert config.bits == (2, 3)
    assert config.bandwidth_ghz == (0.1, 1.0)
    (tmp_path / "empty.json").write_text("")
    assert config_from_dict(read_config(tmp_path / "empty.json")) == SweepConfig()
    # one implementation, also under the name the sweep module exports
    assert sweep.config_from_dict is config_from_dict


def test_envelope_matches_reference_chain():
    params = PowerModelParams()
    envelope = envelope_from_reference(Envelope(10, 0.1, 10), "ul", params)
    assert envelope == pytest.approx(10 * (params.p_rf_ul + 2 * p_adc(10, 1e8, params)))


def test_point_seed_is_stable_and_distinct():
    s = point_seed(12345, "ul", 2, 1e8, 8)
    assert s == point_seed(12345, "ul", 2, 1e8, 8)
    others = {
        point_seed(12345, "dl", 2, 1e8, 8),
        point_seed(12345, "ul", 3, 1e8, 8),
        point_seed(12345, "ul", 2, 1e9, 8),
        point_seed(12345, "ul", 2, 1e8, 16),
    }
    assert s not in others and len(others) == 4
    # the pilot-phase estimate of (b, B, tau) has a seed of its own, which no direction shares
    p = pilot_seed(12345, 2, 1e8, 8)
    assert p == pilot_seed(12345, 2, 1e8, 8)
    pilots = {pilot_seed(12345, 3, 1e8, 8), pilot_seed(12345, 2, 1e9, 8), pilot_seed(12345, 2, 1e8, 16)}
    assert p not in pilots and len(pilots) == 3
    assert not ({p} | pilots) & ({s} | others)  # others holds the dl point seed of (2, 1e8, 8)


def test_run_point_produces_reference_antenna_count():
    config = _tiny_config()
    record = run_point(config, "ul", 10, 1e8, 8)
    assert record.m == 10
    assert not record.skipped
    assert len(record.sindr) == config.k_users
    assert record.sum_rate_bps > 0
    assert 0 < record.g_ce <= 1


def test_run_point_is_deterministic():
    config = _tiny_config()
    a = run_point(config, "ul", 10, 1e8, 8)
    b = run_point(config, "ul", 10, 1e8, 8)
    assert a == b


def test_csv_round_trip(tmp_path):
    config = _tiny_config(bits=[8, 10])
    records = run_sweep(config)
    out = tmp_path / "sweep.csv"
    write_csv(records, out, config=config)
    rows = read_csv(out)
    assert len(rows) == 2
    assert rows[0]["direction"] == "ul"
    assert int(rows[0]["b"]) == 8
    assert float(rows[0]["sum_rate_bps"]) == pytest.approx(records[0].sum_rate_bps, rel=1e-8)
    meta = json.loads((tmp_path / "sweep.csv.meta").read_text())
    assert meta["seed"] == config.seed
    assert meta["k_users"] == 8
    assert config_from_dict(meta) == config


# every section overridden, with bandwidths that are not round in Hz
EVERY_SECTION = {
    "direction": "dl",
    "bits": [3, 1, 2],
    "bandwidth_ghz": [0.3, 0.123456789],
    "tau": [16, 12],
    "k_users": 4,
    "trials": 12_345,
    "seed": 99,
    "power": {"v_dd": 2.5, "l_min": 3e-7, "f_cor": 2e6, "i_0": 7e-6, "c_p": 2e-12, "p_rf_ul": 0.03, "p_rf_dl": 0.02},
    "link": {"p_ue_dbm": 23.0, "p_bs_dbm": 33.0, "alpha": 3.5, "distance_m": 150.0, "noise_figure_db": 9.0},
    "envelope": {"bits_ref": 8, "bandwidth_ghz_ref": 0.7, "count_ref": 12},
    "validate": True,
    "validate_tolerance": 0.1,
}
META_CONFIGS = {
    "defaults": {},
    # the benchmark's two sweep grids (bench/workloads.py SWEEP_GRIDS)
    "sweep_lowres": {"direction": "both", "bits": [1, 2, 3, 4], "bandwidth_ghz": [0.1], "tau": [8, 64]},
    "sweep_highres": {"direction": "both", "bits": [9, 10, 11, 12], "bandwidth_ghz": [0.1, 1.0], "tau": [64]},
    "every_section": EVERY_SECTION,
}


@pytest.mark.parametrize("raw", META_CONFIGS.values(), ids=META_CONFIGS)
def test_meta_sidecar_reads_back_as_its_config(raw, tmp_path):
    config = config_from_dict(raw)
    out = tmp_path / "sweep.csv"
    skipped = SweepRecord("dl", 2, 1e8, 8, m=0, trials=config.trials, seed=0, skipped=True)
    write_csv([skipped], out, config=config)
    meta = json.loads((tmp_path / "sweep.csv.meta").read_text())
    assert meta == json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(meta) == config
    assert meta["seed"] == config.seed and meta["k_users"] == config.k_users


# a dl grid with unsorted entries that overrides every section
OVERRIDING = {
    "direction": "dl",
    "bits": [2, 3],
    "bandwidth_ghz": [0.25, 0.1],
    "tau": [16, 8],
    "trials": 10_000,
    "seed": 7,
    "envelope": {"bits_ref": 8, "bandwidth_ghz_ref": 0.3, "count_ref": 12},
    "power": {"c_p": 2e-12},
    "link": {"distance_m": 80},
}


@pytest.mark.parametrize(
    "raw",
    [None, {**OVERRIDING, "bandwidth_ghz": [4.218987067]}, OVERRIDING],
    ids=["flags", "4.218987067GHz", "overriding"],
)
def test_cli_rerun_from_the_meta_sidecar_writes_the_same_csv(raw, tmp_path):
    flags = ["--direction", "dl", "--bits", "2", "--tau", "8", "--trials", "1e4"]
    if raw is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        flags = ["--config", str(tmp_path / "cfg.json")]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", *flags, "--out", str(first), "--quiet"]) == 0
    assert cli_main(["run", "--config", str(first) + ".meta", "--out", str(second), "--quiet"]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert (tmp_path / "b.csv.meta").read_bytes() == (tmp_path / "a.csv.meta").read_bytes()


def test_every_config_comes_back_from_its_json_object():
    # each field holds its key's value in the key's units, so nothing is
    # converted on the way out; 4.218987067 GHz, held in Hz as 4218987067.0,
    # used to come back as 4218987066.9999995 Hz, with another point seed
    rng = np.random.default_rng(30)
    configs = [SweepConfig(bandwidth_ghz=(4.218987067,)), config_from_dict(OVERRIDING)]
    for ghz in 10 ** rng.uniform(-3, 2, 300):
        configs.append(SweepConfig(direction="ul", bits=(2,), tau=(8,), bandwidth_ghz=(float(ghz),)))
    for config in configs:
        assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


def test_infeasible_points_become_comment_lines(tmp_path):
    # a minuscule envelope cannot power a single chain
    config = _tiny_config(envelope={"bits_ref": 1, "bandwidth_ghz_ref": 0.1, "count_ref": 1})
    record = run_point(config, "ul", 12, 1e8, 8)
    assert record.skipped and record.m == 0
    out = tmp_path / "sweep.csv"
    write_csv([record], out)
    text = out.read_text()
    assert "# skipped" in text
    assert read_csv(out) == []


def test_gnuplot_curve_files(tmp_path):
    config = _tiny_config(bits=[8, 10], tau=[8, 16])
    records = run_sweep(config)
    out = tmp_path / "sweep.csv"
    write_csv(records, out)
    paths = write_gnuplot(read_csv(out), tmp_path / "curves")
    names = [p.split("/")[-1] for p in paths]
    assert names == ["ul_B0.1GHz_tau8.dat", "ul_B0.1GHz_tau16.dat"]  # numeric tau order
    tau8 = [r for r in records if r.tau == 8]
    assert open(paths[0]).read() == "".join(
        ["# ul sum rate vs bits, B = 100000000 Hz, tau = 8\n"] + [f"{r.b} {r.sum_rate_bps:.9g}\n" for r in tau8]
    )


def test_curves_of_bandwidths_alike_to_six_digits_get_files_of_their_own(tmp_path, capsys):
    # both bandwidths used to name their file dl_B0.1GHz_tau8.dat, which then held only the second curve
    out = tmp_path / "out.csv"
    flags = ["--direction", "dl", "--bits", "1,2", "--tau", "8", "--bandwidth", "0.1,0.1000001", "--trials", "1e4"]
    assert cli_main(["run", *flags, "--out", str(out), "--quiet"]) == 0
    assert cli_main(["curves", "--csv", str(out), "--out-dir", str(tmp_path / "curves")]) == 0
    paths = capsys.readouterr().out.split()
    assert [p.split("/")[-1] for p in paths] == ["dl_B0.1GHz_tau8.dat", "dl_B0.1000001GHz_tau8.dat"]
    for path, bw in zip(paths, ("100000000", "100000100")):
        rows = [r for r in read_csv(out) if r["bandwidth_hz"] == bw]
        assert len(rows) == 2
        assert open(path).read() == "".join(
            [f"# dl sum rate vs bits, B = {bw} Hz, tau = 8\n"] + [f"{r['b']} {r['sum_rate_bps']}\n" for r in rows]
        )


def test_sweep_solves_each_resolution_once(monkeypatch):
    config = _tiny_config(direction="both", bits=[2, 3], bandwidth_ghz=[0.1, 1.0], tau=[8])
    designed = []

    def recording_specs(sys_config):
        designed.append(default_specs(sys_config))
        return designed[-1]

    monkeypatch.setattr(sweep, "default_specs", recording_specs)
    runs = []
    for _ in range(2):
        _unit_lloyd_max.cache_clear()
        runs.append(run_sweep(config))
        info = _unit_lloyd_max.cache_info()
        # 8 points, an ADC and a DAC each: 16 designs, 2 solves
        assert len(runs[-1]) == 8 and not any(r.skipped for r in runs[-1])
        assert info.misses == 2 and info.hits == 14
    # a fresh solve gives the same specs, bit for bit, and the same sweep
    assert len(designed) == 16
    for before, after in zip(designed[:8], designed[8:]):
        for a, b in zip(before, after):
            assert np.array_equal(a.labels.view(np.uint64), b.labels.view(np.uint64))
            assert np.array_equal(a.thresholds.view(np.uint64), b.thresholds.view(np.uint64))
    assert runs[0] == runs[1]


def _counted_pilot_phases(monkeypatch):
    """The seeds of the pilot-phase estimates made from here on, at every binding a sweep could call."""
    seeds = []
    estimate = bussgang.ce_distortion_projections

    def counted(spec, pilots, rho_bs, trials, seed):
        seeds.append(seed)
        return estimate(spec, pilots, rho_bs, trials, seed)

    monkeypatch.setattr(sweep, "ce_distortion_projections", counted)
    monkeypatch.setattr(bussgang, "ce_distortion_projections", counted)
    return seeds


def test_a_sweep_estimates_each_pilot_phase_once(monkeypatch):
    config = _tiny_config(direction="both", bits=[2, 3], bandwidth_ghz=[0.1, 1.0], tau=[8])
    pilot_keys = [(b, ghz * 1e9, 8) for ghz in (0.1, 1.0) for b in (2, 3)]
    seeds = _counted_pilot_phases(monkeypatch)
    stats = []
    assemble = sweep.assemble_stats

    def recording_stats(*args, **kwargs):
        stats.append(assemble(*args, **kwargs))
        return stats[-1]

    monkeypatch.setattr(sweep, "assemble_stats", recording_stats)
    both = run_sweep(config)
    # 8 points, 4 pilot phases: one estimate each, from its pilot seed, in the order the sweep meets them
    assert len(both) == 8 and not any(r.skipped for r in both)
    assert seeds == [pilot_seed(config.seed, *key) for key in pilot_keys]
    # the ul and dl points of one (b, B, tau) take the same A_k, bit for bit
    assert len(stats) == 8
    for ul, dl in zip(stats[:4], stats[4:]):
        assert np.array_equal(ul.a_k.view(np.uint64), dl.a_k.view(np.uint64))
    # a second sweep estimates again and gives the same records
    assert run_sweep(config) == both and len(seeds) == 8
    # one direction alone: one estimate per point, and that direction's records of the both-way sweep
    for direction in ("ul", "dl"):
        del seeds[:]
        alone = run_sweep(dataclasses.replace(config, direction=direction))
        assert alone == [r for r in both if r.direction == direction] and len(seeds) == 4


def test_a_point_run_alone_writes_the_row_of_the_sweep(tmp_path):
    # the sweep_highres grid: at 1 GHz, b = 11 and 12 power no uplink chain, so
    # their downlink points estimate the pilot phase alone; the others share it
    config = _tiny_config(direction="both", bits=[9, 10, 11, 12], bandwidth_ghz=[0.1, 1.0], tau=[64])
    swept = run_sweep(config)
    assert [r.skipped for r in swept if r.bandwidth_hz == 1e9 and r.b in (11, 12)] == [False, False, True, True]
    assert {r.direction for r in swept if not r.skipped} == {"ul", "dl"}
    for record in swept:
        alone = run_point(config, record.direction, record.b, record.bandwidth_hz, record.tau)
        assert alone == record
        write_csv([record], tmp_path / "swept.csv")
        write_csv([alone], tmp_path / "alone.csv")
        assert (tmp_path / "alone.csv").read_bytes() == (tmp_path / "swept.csv").read_bytes()


def test_sorted_output_order():
    config = _tiny_config(direction="both", bits=[10, 8], tau=[16, 8])
    records = run_sweep(config)
    keys = [(r.direction, r.bandwidth_hz, r.tau, r.b) for r in records]
    assert keys == sorted(keys)


def test_cli_run_and_curves(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"direction": "ul", "bits": [10], "tau": [8], "trials": 10_000}))
    out = tmp_path / "out.csv"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0
    assert out.exists()
    code = cli_main(["curves", "--csv", str(out), "--out-dir", str(tmp_path / "curves")])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed and printed[0].endswith("ul_B0.1GHz_tau8.dat")


def test_cli_curves_reports_bad_input(tmp_path, capsys):
    # a missing file, a CSV without a bandwidth_hz column, one with a
    # non-integer b and rows cut short (a cut one used to be plotted) or run
    # long: exit 2 and one stderr line that names the file and the problem,
    # not a traceback
    missing = tmp_path / "missing.csv"
    partial = tmp_path / "partial.csv"
    partial.write_text("direction,b,tau,sum_rate_bps\nul,3,8,1e9\n")
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("direction,b,bandwidth_hz,tau,sum_rate_bps\nul,x,1e8,8,1e9\n")
    short = tmp_path / "short.csv"
    short.write_text("direction,b,bandwidth_hz,tau,sum_rate_bps\nul,3,1e8,8,1e9\n# skipped\nul,4,1e8,8\n")
    long = tmp_path / "long.csv"
    long.write_text("direction,b,bandwidth_hz,tau,sum_rate_bps\nul,3,1e8,8,1e9,7\n")
    for path, problem in (
        (missing, "No such file"),
        (partial, "no 'bandwidth_hz' column"),
        (garbled, "'x'"),
        (short, ": line 4 has 4 fields, the header 5"),
        (long, ": line 2 has 6 fields, the header 5"),
    ):
        assert cli_main(["curves", "--csv", str(path), "--out-dir", str(tmp_path / "curves")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(path) in err[0] and problem in err[0], err


def test_cli_flag_overrides(tmp_path):
    out = tmp_path / "out.csv"
    code = cli_main(
        ["run", "--direction", "ul", "--bits", "10", "--tau", "8", "--trials", "10000", "--out", str(out), "--quiet"]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1 and rows[0]["direction"] == "ul"


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": True}))
    assert cli_main(["run", "--config", str(bad), "--quiet"]) == 2
    # a --config that cannot be read (here a directory): one stderr line
    capsys.readouterr()
    assert cli_main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out.csv"), "--quiet"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ") and str(tmp_path) in err[0], err
    for raw in ({"power": 5}, {"bits": 3}):
        bad.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "out.csv"), "--quiet"]) == 2
    # one cheap point apart from the bad value, so a config that slips through ends quickly
    tiny = {"direction": "ul", "bits": [10], "bandwidth_ghz": [0.1], "tau": [8], "trials": 10_000}
    for raw in (
        {"bits": [9.5]},
        {"envelope": {"count_ref": 10.5}},
        {"seed": -1},
        {"validate": "no"},
        {"k_users": 0},
        {"validate": True, "validate_tolerance": -1},
        {"validate": True, "validate_tolerance": "x"},
        {"link": {"noise_figure_db": "x"}},
        {"link": {"p_ue_dbm": float("nan")}},
        {"bandwidth_ghz": [float("nan")]},
        {"envelope": {"bandwidth_ghz_ref": -0.1}},
        {"envelope": {"count_ref": 0}},
        {"power": {"v_dd": True}},
        {"envelope": {"bandwidth_ghz_ref": 1e300}},
        {"tau": [4097]},  # one past the bound, so that a run that slips through still fits in memory
        *[{"envelope": envelope} for envelope in BIG_ENVELOPES],
        *[raw for _, raw in BAD_GRIDS],
    ):
        bad.write_text(json.dumps({**tiny, **raw}))
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "out.csv"), "--quiet"]) == 2
    assert not (tmp_path / "out.csv").exists()


def test_cli_checks_the_output_before_the_sweep(tmp_path, capsys, monkeypatch):
    # an --out that cannot be written fails at once with exit 2, not after
    # the sweep with a traceback, and an existing output is left as it was
    def run_sweep(config, progress=None):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"direction": "ul", "bits": [10], "tau": [8], "trials": 10_000}))
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    (tmp_path / "kept.csv.meta").mkdir()
    (tmp_path / "fresh.csv.meta").mkdir()
    for out, named in (
        (tmp_path / "missing" / "out.csv", tmp_path / "missing" / "out.csv"),
        (tmp_path, tmp_path),
        (kept, tmp_path / "kept.csv.meta"),
        (tmp_path / "fresh.csv", tmp_path / "fresh.csv.meta"),
    ):
        assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("output error: ") and str(named) in err[0], err
    assert kept.read_text() == "earlier output\n"
    assert not (tmp_path / "fresh.csv").exists()


def test_cli_validate_records_the_oracle_verdict(tmp_path, capsys, monkeypatch):
    records = []
    monkeypatch.setattr(cli, "run_sweep", lambda config, progress=None: records.extend(run_sweep(config)) or records)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    raw = {"direction": "ul", "bits": [10], "tau": [8], "trials": 10_000, "validate": True}
    for tolerance, code, passed in (({}, 0, True), ({"validate_tolerance": 1e-9}, 1, False)):
        records.clear()
        cfg.write_text(json.dumps({**raw, **tolerance}))
        assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == code
        assert [r.validation_passed for r in records] == [passed]
        assert config_from_dict(json.loads((tmp_path / "out.csv.meta").read_text())) == config_from_dict(
            {**raw, **tolerance}
        )
        assert ("validation failure" in capsys.readouterr().err) == (not passed)


def test_cli_grid_flags_are_checked_like_the_config(tmp_path, capsys):
    out = tmp_path / "out.csv"
    tiny = ["run", "--direction", "ul", "--trials", "10000", "--out", str(out), "--quiet"]
    for flag, text in (
        ("--bits", "1,,2"),
        ("--bits", ""),
        ("--bits", "2.5"),
        ("--bits", "x"),
        ("--tau", "8.5"),
        ("--tau", "8,"),
        ("--bandwidth", "nan"),
        ("--bandwidth", "0.1,inf"),
        ("--bandwidth", "0.1x"),
        ("--trials", "2.5"),
        ("--trials", "1,2"),
        ("--seed", "x"),
    ):
        assert cli_main([*tiny, "--bits", "10", "--tau", "8", flag, text]) == 2
        assert f"configuration error: {flag}: " in capsys.readouterr().err
    for flag, text in (("--bits", "10,10.0"), ("--tau", "8,8"), ("--bandwidth", "0.1,0.1000000001")):
        assert cli_main([*tiny, "--bits", "10", "--tau", "8", flag, text]) == 2
    assert not out.exists()
    # integral numbers are integers on the command line too, as in JSON
    flags = ["--bits", "10.0", "--tau", "8.0", "--bandwidth", "1e-1", "--trials", "1e4", "--seed", "2.0"]
    assert cli_main([*tiny, *flags]) == 0
    rows = read_csv(out)
    assert [(r["b"], r["tau"], r["bandwidth_hz"], r["trials"]) for r in rows] == [("10", "8", "100000000", "10000")]
    meta = json.loads((tmp_path / "out.csv.meta").read_text())
    assert meta["seed"] == 2
    flagged = {"direction": "ul", "bits": [10], "tau": [8], "bandwidth_ghz": [0.1], "trials": 10_000, "seed": 2}
    assert config_from_dict(meta) == config_from_dict(flagged)
    assert config_from_dict({"trials": from_text("--trials", "trials", "1e5")}).trials == 100_000


def test_cli_rejects_per_ue_distances_at_config_time(tmp_path):
    # each sweep point has one SNR for all users; a distance list used to
    # pass validation and crash run_point with a traceback
    with pytest.raises(ConfigError, match="distance_m"):
        config_from_dict({"link": {"distance_m": [100, 200]}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"link": {"distance_m": [100, 200]}}))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv"), "--quiet"]) == 2


def test_a_link_whose_snr_is_zero_or_infinite_fails_at_config_time(tmp_path, capsys):
    # every point's scenario is built when the config loads; these links used
    # to pass it and stop the sweep at its first point with a traceback, exit 1
    for link in ({"distance_m": 1e300}, {"alpha": 1e308}, {"p_ue_dbm": 1e308}, {"p_bs_dbm": 1e308}):
        with pytest.raises(ConfigError, match=r"^link: at ul b=1 B=0.1 GHz tau=8, rho_(bs|ue) must be positive"):
            config_from_dict({"link": link})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": link}))
        flags = ["--direction", "ul", "--bits", "2", "--tau", "8", "--trials", "1e4", "--quiet"]
        assert cli_main(["run", "--config", str(cfg), *flags, "--out", str(tmp_path / "out.csv")]) == 2
        assert "configuration error: link: at ul b=2" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_a_reference_resolution_whose_power_overflows_fails_at_config_time(tmp_path, capsys):
    # the envelope's reference converter draws more power than a float holds;
    # this used to reach the user as (34, 'Numerical result out of range')
    for direction, kind in (("ul", "ADC"), ("dl", "DAC")):
        raw = {"direction": direction, "envelope": {"bits_ref": 1_000_000}}
        with pytest.raises(ConfigError, match=f"^envelope bits_ref: a 1000000-bit {kind} draws more power"):
            config_from_dict(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"bits_ref": 1_000_000}}))
    flags = ["--direction", "ul", "--bits", "2", "--tau", "8", "--trials", "1e4", "--quiet"]
    assert cli_main(["run", "--config", str(cfg), *flags, "--out", str(tmp_path / "out.csv")]) == 2
    assert "configuration error: envelope bits_ref: a 1000000-bit ADC" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_a_chain_count_too_large_for_a_float_fails_at_config_time(tmp_path, capsys):
    # count_ref = 10**400 is an integer, but not a float; its envelope power
    # used to end in a bare OverflowError, and the command line in exit code 1
    big = 10**400
    with pytest.raises(ConfigError, match="^envelope count_ref: int too large to convert to float"):
        config_from_dict({"envelope": {"count_ref": big}})
    with pytest.raises(ConfigError, match="^envelope count_ref: "):
        SweepConfig(envelope=Envelope(count_ref=big))
    with pytest.raises(ConfigError, match="^envelope bits_ref: "):
        config_from_dict({"envelope": {"bits_ref": 1_000_000, "count_ref": big}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"count_ref": big}}))
    flags = ["--direction", "ul", "--bits", "2", "--tau", "8", "--trials", "1e4", "--quiet"]
    assert cli_main(["run", "--config", str(cfg), *flags, "--out", str(tmp_path / "out.csv")]) == 2
    assert "configuration error: envelope count_ref: " in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_unknown_direction_is_an_error_not_downlink():
    params = PowerModelParams()
    calls = [
        lambda: params.p_rf("sideways"),
        lambda: snr_linear("sideways", LinkBudget(), 1e8),
        lambda: envelope_from_reference(Envelope(), "sideways", params),
        lambda: point_seed(1, "sideways", 2, 1e8, 8),
        lambda: run_point(_tiny_config(), "sideways", 10, 1e8, 8),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="sideways"):
            call()
