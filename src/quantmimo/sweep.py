"""Configuration-driven sweep over (direction, bits, bandwidth, pilot length).

Each point of SweepConfig.points (bandwidth in Hz) takes its scenario from
SweepConfig.scenario (the envelope's antenna count and the link's SNRs),
designs the converters, estimates the distortion moments, and evaluates the
closed-form sum rate.

The uplink pilot phase of a (b, bandwidth, tau) serves both data phases:
its ADC, K, tau and rho_bs do not depend on the direction.  So its pilot
projections A_k are drawn from a pilot seed of their own (pilot_seed), and
run_sweep estimates them once, at whichever of the two directions' points
comes first.  The distortion traces draw from each point's own seed
(point_seed), which the CSV records.  A point run on its own draws the
same A_k, so it gives the record the sweep gives.

Output is a fixed-schema CSV plus a .meta sidecar: the configuration as the
JSON object of config.config_to_dict, which `quantmimo run --config` reads
back as the same configuration.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from quantmimo import rates
from quantmimo.airlink import dft_pilots
from quantmimo.bussgang import assemble_stats, ce_distortion_projections
# config_from_dict is re-exported: the benchmark scripts call sweep.config_from_dict
from quantmimo.config import config_from_dict, config_to_dict, csv_float  # noqa: F401
from quantmimo.mcsim import default_specs, validate_closed_form
from quantmimo.syspower import by_direction

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


# the first spawn-key entry of a seed: the direction of a point's seed, or the pilot phase
_PILOT_CODE = 2


def _seed(master_seed, code, b, bandwidth_hz, tau):
    ss = np.random.SeedSequence(master_seed, spawn_key=(code, b, int(bandwidth_hz), tau))
    return int(ss.generate_state(1)[0])


def point_seed(master_seed, direction, b, bandwidth_hz, tau):
    """Stable per-point seed, independent of sweep order; the distortion traces draw from it."""
    return _seed(master_seed, by_direction(direction, 0, 1), b, bandwidth_hz, tau)


def pilot_seed(master_seed, b, bandwidth_hz, tau):
    """Stable seed of the pilot-phase estimate (A_k) of (b, bandwidth, tau), which both directions' points take.

    Its spawn key starts with _PILOT_CODE, a point seed's with its direction's 0 or 1, so the
    two are independent streams.
    """
    return _seed(master_seed, _PILOT_CODE, b, bandwidth_hz, tau)


def run_point(config, direction, b, bandwidth_hz, tau, pilot_phases=None):
    """Evaluate one sweep point; returns a SweepRecord (skipped if M = 0).

    pilot_phases maps (b, bandwidth_hz, tau) to the pilot projections A_k
    estimated for it.  The point takes its A_k from there, or estimates it
    from pilot_seed and adds it; run_sweep hands one dict to all its
    points.  Either way the record is the same.
    """
    seed = point_seed(config.seed, direction, b, bandwidth_hz, tau)
    sys_config = config.scenario(direction, b, bandwidth_hz, tau)
    if sys_config is None:
        return SweepRecord(direction, b, bandwidth_hz, tau, m=0, trials=config.trials, seed=seed, skipped=True)
    specs = default_specs(sys_config)
    pilot_phases = {} if pilot_phases is None else pilot_phases
    key = (b, bandwidth_hz, tau)
    if key not in pilot_phases:
        pilots = dft_pilots(tau, sys_config.k_users)
        pilot_phases[key] = ce_distortion_projections(
            specs[0], pilots, sys_config.rho_bs, config.trials, pilot_seed(config.seed, b, bandwidth_hz, tau)
        )
    stats = assemble_stats(sys_config, *specs, trials=config.trials, seed=seed, a_k=pilot_phases[key])
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
        m=sys_config.m,
        sindr=sindr,
        sum_rate_bps=rates.sum_rate(bandwidth_hz, sindr),
        g_ce=stats.g_ce,
        g_phase=g_phase,
        trace_cd=sys_config.m * cd,
        delta=rates.mrt_normalization(sys_config, stats),
        trials=config.trials,
        seed=seed,
        validation_passed=validation_passed,
    )


def run_sweep(config, progress=None):
    """Run every point of config.points in its order; the records come sorted.

    The points share one pilot-phase estimate per (b, bandwidth, tau), for
    this call only.
    """
    records = []
    pilot_phases = {}
    for point in config.points():
        records.append(run_point(config, *point, pilot_phases=pilot_phases))
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
    """Write the fixed-schema CSV and, given the config, its .meta sidecar (config_to_dict as JSON).

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
        with open(str(path) + ".meta", "w") as fh:
            json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_csv(path):
    """Round-trip parse of write_csv output into row dicts.

    A row with more or fewer fields than the header (one cut short, say) is
    a ValueError that names its line.
    """
    rows = []
    with open(path) as fh:
        header = None
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            values = line.split(",")
            if len(values) != len(header):
                raise ValueError(f"line {number} has {len(values)} fields, the header {len(header)}")
            rows.append(dict(zip(header, values)))
    return rows


def write_gnuplot(rows, out_dir):
    """Emit one two-column (bits, sum rate) data file per sweep curve.

    rows are the row dicts of read_csv; each sum rate, and the bandwidth in
    the header, is copied as the CSV wrote it.  A file is named by the
    bandwidth in GHz to 9 digits, as many as the CSV's bandwidth field has,
    so two curves never share a file.
    """
    os.makedirs(out_dir, exist_ok=True)
    curves = {}
    for row in rows:
        key = (row["direction"], float(row["bandwidth_hz"]), int(row["tau"]))
        curves.setdefault(key, (row["bandwidth_hz"], []))[1].append((int(row["b"]), row["sum_rate_bps"]))
    paths = []
    for (direction, bw, tau), (bw_field, points) in sorted(curves.items()):
        name = f"{direction}_B{bw / 1e9:.9g}GHz_tau{tau}.dat"
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(f"# {direction} sum rate vs bits, B = {bw_field} Hz, tau = {tau}\n")
            for b, rate in sorted(points):
                fh.write(f"{b} {rate}\n")
        paths.append(path)
    return paths

