"""Command line interface for the sweep engine.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from quantmimo.config import ConfigError, config_from_dict, from_text, read_config
from quantmimo.sweep import print_cost_estimate, read_csv, run_sweep, write_csv, write_gnuplot

# each flag that sets a config key, by its argparse dest, and that key
_FLAG_KEYS = {"bits": "bits", "bandwidth": "bandwidth_ghz", "tau": "tau", "trials": "trials", "seed": "seed"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="quantmimo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep and write the CSV")
    run.add_argument("--config", help="JSON configuration file")
    run.add_argument("--direction", choices=["ul", "dl", "both"])
    run.add_argument("--bits", help="comma-separated resolution bits, e.g. 1,2,3")
    run.add_argument("--bandwidth", help="comma-separated bandwidths in GHz, e.g. 0.1,1")
    run.add_argument("--tau", help="comma-separated pilot lengths")
    run.add_argument("--trials", help="Monte Carlo trials per point, e.g. 1e5")
    run.add_argument("--seed")
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
    for dest, key in _FLAG_KEYS.items():
        text = getattr(args, dest)
        if text is not None:
            raw[key] = from_text(f"--{dest}", key, text)
    if args.validate:
        raw["validate"] = True
    return config_from_dict(raw)


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)

    if args.command == "curves":
        for p in write_gnuplot(read_csv(args.csv), args.out_dir):
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
