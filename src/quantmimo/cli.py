"""Command line interface for the sweep engine.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from quantmimo.sweep import (
    ConfigError,
    config_from_dict,
    print_cost_estimate,
    read_config,
    read_csv,
    run_sweep,
    write_csv,
    write_gnuplot,
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="quantmimo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep and write the CSV")
    run.add_argument("--config", help="JSON configuration file")
    run.add_argument("--direction", choices=["ul", "dl", "both"])
    run.add_argument("--bits", help="comma-separated resolution bits, e.g. 1,2,3")
    run.add_argument("--bandwidth", help="comma-separated bandwidths in GHz, e.g. 0.1,1")
    run.add_argument("--tau", help="comma-separated pilot lengths")
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--validate", action="store_true", help="run the Monte Carlo validator per point")
    run.add_argument("--out", default="sweep.csv", help="output CSV path")
    run.add_argument("--quiet", action="store_true")

    curves = sub.add_parser("curves", help="emit gnuplot data files from a sweep CSV")
    curves.add_argument("--csv", required=True)
    curves.add_argument("--out-dir", required=True)
    return parser.parse_args(argv)


def _build_config(args):
    raw = read_config(args.config) if args.config else {}
    if args.direction:
        raw["direction"] = args.direction
    if args.bits:
        raw["bits"] = [int(b) for b in args.bits.split(",")]
    if args.bandwidth:
        raw["bandwidth_ghz"] = [float(b) for b in args.bandwidth.split(",")]
    if args.tau:
        raw["tau"] = [int(t) for t in args.tau.split(",")]
    if args.trials is not None:
        raw["trials"] = args.trials
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.validate:
        raw["validate"] = True
    return config_from_dict(raw)


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)

    if args.command == "curves":
        rows = read_csv(args.csv)

        class _Row:
            def __init__(self, d):
                self.direction = d["direction"]
                self.b = int(d["b"])
                self.bandwidth_hz = float(d["bandwidth_hz"])
                self.tau = int(d["tau"])
                self.sum_rate_bps = float(d["sum_rate_bps"])
                self.skipped = False

        paths = write_gnuplot([_Row(r) for r in rows], args.out_dir)
        for p in paths:
            print(p)
        return 0

    try:
        config = _build_config(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    print_cost_estimate(config)
    progress = None
    if not args.quiet:
        def progress(record):
            status = "skipped" if record.skipped else f"M={record.m} rate={record.sum_rate_bps:.4g} bit/s"
            print(
                f"{record.direction} b={record.b} B={record.bandwidth_hz / 1e9:g}GHz tau={record.tau}: {status}",
                file=sys.stderr,
            )

    records = run_sweep(config, progress=progress)
    write_csv(records, args.out, config=config)
    if not args.quiet:
        print(f"wrote {args.out}", file=sys.stderr)
    if config.validate and any(r.validation_passed is False for r in records):
        print("validation failure: closed form disagrees with Monte Carlo", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
