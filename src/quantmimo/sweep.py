"""Configuration-driven sweep over (direction, bits, bandwidth, pilot length).

Each sweep point derives the antenna count from the hardware envelope,
designs the converters, estimates the distortion moments, and evaluates the
closed-form sum rate.  Output is a fixed-schema CSV plus a sidecar metadata
block with the fully resolved configuration, which quantmimo.config reads
and checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from quantmimo import rates
from quantmimo.bussgang import SystemConfig, assemble_stats
# config_from_dict is re-exported: the benchmark scripts call sweep.config_from_dict
from quantmimo.config import config_from_dict, csv_float  # noqa: F401
from quantmimo.mcsim import default_specs, validate_closed_form
from quantmimo.syspower import InfeasibleConfigError, by_direction, snr_linear

CSV_COLUMNS = [
    "direction",
    "b",
    "bandwidth_hz",
    "tau",
    "m",
    "sum_rate_bps",
    "sindr_min",
    "sindr_max",
    "g_ce",
    "g_phase",
    "trace_cd",
    "delta",
    "trials",
    "seed",
]


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point; self-describing so it can be recomputed exactly."""

    direction: str
    b: int
    bandwidth_hz: float
    tau: int
    m: int
    # results: a skipped (infeasible) point keeps these defaults
    sindr: tuple = field(default=(), kw_only=True)
    sum_rate_bps: float = field(default=0.0, kw_only=True)
    g_ce: float = field(default=0.0, kw_only=True)
    g_phase: float = field(default=0.0, kw_only=True)
    trace_cd: float = field(default=0.0, kw_only=True)
    delta: float = field(default=0.0, kw_only=True)
    trials: int
    seed: int
    skipped: bool = False
    validation_passed: bool | None = None


def point_seed(master_seed, direction, b, bandwidth_hz, tau):
    """Stable per-point seed, independent of sweep order."""
    dir_code = by_direction(direction, 0, 1)
    ss = np.random.SeedSequence(master_seed, spawn_key=(dir_code, b, int(bandwidth_hz), tau))
    return int(ss.generate_state(1)[0])


def run_point(config, direction, b, bandwidth_hz, tau):
    """Evaluate one sweep point; returns a SweepRecord (skipped if M = 0)."""
    seed = point_seed(config.seed, direction, b, bandwidth_hz, tau)
    try:
        m = config.antennas(direction, b, bandwidth_hz)
    except InfeasibleConfigError:
        return SweepRecord(direction, b, bandwidth_hz, tau, m=0, trials=config.trials, seed=seed, skipped=True)
    sys_config = SystemConfig(
        m_ul=m,
        m_dl=m,
        k_users=config.k_users,
        tau=tau,
        bits=b,
        rho_bs=snr_linear("ul", config.link, bandwidth_hz),
        rho_ue=snr_linear("dl", config.link, bandwidth_hz),
    )
    specs = default_specs(sys_config)
    stats = assemble_stats(sys_config, *specs, trials=config.trials, seed=seed)
    if direction == "ul":
        moments = rates.moments_ul_mrc(sys_config, stats)
        g_phase, cd = stats.g_ul, stats.cd_ul
    else:
        moments = rates.moments_dl_mrt(sys_config, stats)
        g_phase, cd = stats.g_dl, stats.cd_dl
    sindr = tuple(rates.sindr_from_moments(moments))
    validation_passed = None
    if config.validate:
        report = validate_closed_form(
            sys_config,
            trials=config.trials,
            seed=seed,
            tolerance=config.validate_tolerance,
            direction=direction,
            specs=specs,
            stats=stats,
        )
        validation_passed = report[direction].passed
    return SweepRecord(
        direction=direction,
        b=b,
        bandwidth_hz=bandwidth_hz,
        tau=tau,
        m=m,
        sindr=sindr,
        sum_rate_bps=rates.sum_rate(bandwidth_hz, sindr),
        g_ce=stats.g_ce,
        g_phase=g_phase,
        trace_cd=m * cd,
        delta=rates.mrt_normalization(sys_config, stats),
        trials=config.trials,
        seed=seed,
        validation_passed=validation_passed,
    )


def run_sweep(config, progress=None):
    """Run every (direction, bandwidth, tau, bits) point in deterministic order."""
    records = []
    for direction in config.directions():
        for bw in config.bandwidth_hz:
            for tau in config.tau:
                for b in config.bits:
                    records.append(run_point(config, direction, b, bw, tau))
                    if progress is not None:
                        progress(records[-1])
    records.sort(key=lambda r: (r.direction, r.bandwidth_hz, r.tau, r.b))
    return records


def check_writable(path):
    """Raise the OSError that write_csv would meet at path or its .meta.

    Run before a sweep so that it cannot fail only at the end; truncates
    nothing, and a file it creates to check is removed again.
    """
    for target in (str(path), str(path) + ".meta"):
        if os.path.exists(target):
            os.close(os.open(target, os.O_WRONLY | os.O_APPEND))  # EISDIR for a directory
        else:
            os.close(os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.remove(target)


def write_csv(records, path, config=None):
    """Write the fixed-schema CSV plus a sidecar metadata block.

    Skipped (infeasible) points are emitted as comment lines so the data rows
    keep the invariant m >= 1.
    """
    if not records:
        raise ValueError("no records to write")
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        if r.skipped:
            lines.append(
                f"# skipped direction={r.direction} b={r.b} bandwidth_hz={csv_float(r.bandwidth_hz)} "
                f"tau={r.tau} reason=infeasible"
            )
            continue
        point = [r.direction, str(r.b), csv_float(r.bandwidth_hz), str(r.tau), str(r.m)]
        floats = [r.sum_rate_bps, min(r.sindr), max(r.sindr), r.g_ce, r.g_phase, r.trace_cd, r.delta]
        lines.append(",".join([*point, *map(csv_float, floats), str(r.trials), str(r.seed)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if config is not None:
        meta = asdict(config)
        with open(str(path) + ".meta", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_csv(path):
    """Round-trip parse of write_csv output into row dicts."""
    rows = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            values = line.split(",")
            rows.append(dict(zip(header, values)))
    return rows


def write_gnuplot(rows, out_dir):
    """Emit one two-column (bits, sum rate) data file per sweep curve.

    rows are the row dicts of read_csv; each sum rate is copied as the CSV
    wrote it.
    """
    os.makedirs(out_dir, exist_ok=True)
    curves = {}
    for row in rows:
        key = (row["direction"], float(row["bandwidth_hz"]), int(row["tau"]))
        curves.setdefault(key, []).append((int(row["b"]), row["sum_rate_bps"]))
    paths = []
    for (direction, bw, tau), points in sorted(curves.items()):
        name = f"{direction}_B{bw / 1e9:g}GHz_tau{tau}.dat"
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(f"# {direction} sum rate vs bits, B = {bw:g} Hz, tau = {tau}\n")
            for b, rate in sorted(points):
                fh.write(f"{b} {rate}\n")
        paths.append(path)
    return paths

