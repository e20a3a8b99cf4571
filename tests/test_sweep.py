"""Tests for the sweep engine, CSV output, and CLI."""

import json

import numpy as np
import pytest

from quantmimo.cli import main as cli_main
from quantmimo.sweep import (
    ConfigError,
    SweepConfig,
    config_from_dict,
    envelope_from_reference,
    load_config,
    point_seed,
    read_csv,
    run_point,
    run_sweep,
    write_csv,
    write_gnuplot,
)
from quantmimo.bussgang import SystemConfig
from quantmimo.syspower import LinkBudget, PowerModelParams, p_adc, snr_linear


def _tiny_config(**overrides):
    base = dict(direction="ul", bits=(10,), bandwidth_ghz=(0.1,), tau=(8,), trials=10_000, seed=1)
    base.update(overrides)
    return config_from_dict(base)


def test_defaults_cover_the_reference_scenario():
    config = SweepConfig()
    assert config.direction == "both"
    assert config.bits == tuple(range(1, 13))
    assert config.bandwidth_hz == (1e8,)
    assert config.tau == (8, 16, 32, 64)
    assert config.k_users == 8
    assert config.envelope_bits_ref == 10 and config.envelope_count_ref == 10


def test_config_rejects_unknown_keys_at_every_level():
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"power": {"bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"link": {"bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"envelope": {"bogus": 1}})


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        config_from_dict({"direction": "sideways"})
    with pytest.raises(ConfigError):
        config_from_dict({"bits": [0]})
    with pytest.raises(ConfigError):
        config_from_dict({"tau": [4]})  # below k_users = 8
    with pytest.raises(ConfigError):
        config_from_dict({"trials": 10})


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"direction": "dl", "bits": [2, 3], "bandwidth_ghz": [0.1, 1.0]}))
    config = load_config(path)
    assert config.direction == "dl"
    assert config.bits == (2, 3)
    assert config.bandwidth_hz == (1e8, 1e9)
    (tmp_path / "empty.json").write_text("")
    assert load_config(tmp_path / "empty.json") == SweepConfig()


def test_envelope_matches_reference_chain():
    params = PowerModelParams()
    envelope = envelope_from_reference(10, 1e8, 10, "ul", params)
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
    paths = write_gnuplot(records, tmp_path / "curves")
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == ["ul_B0.1GHz_tau16.dat", "ul_B0.1GHz_tau8.dat"]
    lines = open(paths[0]).read().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3


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


def test_cli_flag_overrides(tmp_path):
    out = tmp_path / "out.csv"
    code = cli_main(
        ["run", "--direction", "ul", "--bits", "10", "--tau", "8", "--trials", "10000", "--out", str(out), "--quiet"]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1 and rows[0]["direction"] == "ul"


def test_cli_reports_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": True}))
    assert cli_main(["run", "--config", str(bad), "--quiet"]) == 2


def test_cli_rejects_per_ue_distances_at_config_time(tmp_path):
    # each sweep point has one SNR for all users; a distance list used to
    # pass validation and crash run_point with a traceback
    with pytest.raises(ConfigError, match="distance_m"):
        config_from_dict({"link": {"distance_m": [100, 200]}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"link": {"distance_m": [100, 200]}}))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv"), "--quiet"]) == 2


def test_unknown_direction_is_an_error_not_downlink():
    params = PowerModelParams()
    system = SystemConfig(m_ul=8, m_dl=8, k_users=4, tau=8, bits=2, rho_bs=1.0, rho_ue=1.0)
    calls = [
        lambda: system.m("sideways"),
        lambda: params.p_rf("sideways"),
        lambda: snr_linear("sideways", LinkBudget(), 1e8),
        lambda: envelope_from_reference(10, 1e8, 10, "sideways", params),
        lambda: point_seed(1, "sideways", 2, 1e8, 8),
        lambda: run_point(_tiny_config(), "sideways", 10, 1e8, 8),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="sideways"):
            call()
