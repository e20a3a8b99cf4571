"""Correctness gate: every operation of a run is checked against bench/reference.json.

An operation is a sweep point or an oracle report.  A sweep point passes
when its antenna count and skip status equal the reference, its sum rate is
within SUM_RATE_RTOL of the reference, its curve's argmax b agrees with the
reference, and its pass wrote the same CSV bytes as the first pass.  An
oracle report passes when the validator passed it at criterion 4's tolerance
and its closed-form SINDRs are within SINDR_RTOL of the reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerances, about five times the largest sampling deviation of a
# pass from the reference measured over seeds: 6.2e-4 for a sum rate at 1e4
# trials (8 seeds x 16 points), 1.3e-3 for a closed-form SINDR at the
# oracle's trials (40 seeds).  A 1% error in a rate or a SINDR exceeds both.
SUM_RATE_RTOL = 3e-3
SINDR_RTOL = 5e-3

POINT_FIELDS = ("direction", "b", "bandwidth_hz", "tau", "skipped", "m", "sum_rate_bps")

# the acceptance suite's expected argmax for the criterion-5 curve that stays red
CRITERION_5_CURVE = ("dl", 1e8, 8)
CRITERION_5_EXPECTED_B = 3


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # one line per failed operation
    info: dict = field(default_factory=dict)

    def record(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(reason)


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def as_point(record):
    """The fields of a SweepRecord the gate compares, as a plain dict."""
    return {name: getattr(record, name) for name in POINT_FIELDS}


def _key(point):
    return point["direction"], point["b"], float(point["bandwidth_hz"]), point["tau"]


def curve_rates(points):
    """(direction, bandwidth, tau) -> {b: sum rate} over the feasible points."""
    curves = {}
    for p in points:
        if not p["skipped"]:
            direction, b, bw, tau = _key(p)
            curves.setdefault((direction, bw, tau), {})[b] = p["sum_rate_bps"]
    return curves


def ranking(rates):
    """(best b, runner-up b, best rate / runner-up rate - 1) of one curve."""
    order = sorted(rates, key=rates.get, reverse=True)
    if len(order) == 1:
        return order[0], None, float("inf")
    return order[0], order[1], rates[order[0]] / rates[order[1]] - 1.0


def check_sweep(passes, csv_bytes, reference):
    """passes: the SweepRecord list of each pass; csv_bytes: the CSV each wrote."""
    gate = GateResult()
    by_key = {_key(p): p for p in reference["points"]}
    ref_curves = curve_rates(reference["points"])
    for index, (records, data) in enumerate(zip(passes, csv_bytes)):
        points = [as_point(r) for r in records]
        run_curves = curve_rates(points)
        same_csv = data == csv_bytes[0]
        for p in points:
            key = _key(p)
            ref = by_key.get(key)
            where = f"pass {index} {key[0]} b={key[1]} B={key[2]:g} tau={key[3]}"
            if ref is None:
                gate.record(False, f"{where}: point not in the reference")
                continue
            problems = []
            if p["skipped"] != ref["skipped"] or p["m"] != ref["m"]:
                problems.append(f"m={p['m']} skipped={p['skipped']}, reference m={ref['m']} skipped={ref['skipped']}")
            elif not p["skipped"]:
                rel = abs(p["sum_rate_bps"] - ref["sum_rate_bps"]) / ref["sum_rate_bps"]
                if not rel <= SUM_RATE_RTOL:
                    problems.append(f"sum_rate_bps off by {rel:.2e} (tolerance {SUM_RATE_RTOL:g})")
                curve = (key[0], key[2], key[3])
                run_best = ranking(run_curves[curve])[0]
                ref_rates = ref_curves[curve]
                ref_best = ranking(ref_rates)[0]
                # a b tied with the reference best within the tolerance is accepted
                if ref_rates[ref_best] > ref_rates.get(run_best, 0.0) * (1.0 + SUM_RATE_RTOL):
                    problems.append(f"curve argmax b={run_best}, reference b={ref_best}")
            if not same_csv:
                problems.append("CSV differs from pass 0")
            gate.record(not problems, f"{where}: {'; '.join(problems)}")
        missing = set(by_key) - {_key(p) for p in points}
        for key in sorted(missing):
            gate.record(False, f"pass {index} {key}: reference point missing from the run")
    curves = curve_rates(as_point(r) for r in passes[0])
    gate.info["curves"] = {
        f"{d} B={bw:g} tau={tau}": dict(zip(("argmax_b", "runner_up_b", "margin"), ranking(rates)))
        for (d, bw, tau), rates in sorted(curves.items())
    }
    if CRITERION_5_CURVE in curves:
        best, runner, margin = ranking(curves[CRITERION_5_CURVE])
        gate.info["criterion_5_dl_tau8"] = {
            "argmax_b": best,
            "expected_b": CRITERION_5_EXPECTED_B,
            "runner_up_b": runner,
            "margin": margin,
        }
    return gate


def check_oracle(passes, reference, tolerance):
    """passes: one [(b, {direction: ValidationReport}), ...] per pass."""
    gate = GateResult()
    worst = {}
    for index, reports in enumerate(passes):
        for call, (b, pair) in enumerate(reports):
            for direction, report in sorted(pair.items()):
                where = f"pass {index} call {call} b={b} {direction}"
                ref = reference["sindr_closed"][str(b)][direction]
                err = float(max(report.sindr_rel_error))
                worst[f"b={b} {direction}"] = max(worst.get(f"b={b} {direction}", 0.0), err)
                problems = []
                if not (report.passed and report.tolerance == tolerance):
                    problems.append(f"validator failed: worst SINDR error {err:.4f}, bound {tolerance:g}")
                if len(report.sindr_closed) != len(ref):
                    problems.append(f"{len(report.sindr_closed)} closed-form SINDRs, reference has {len(ref)}")
                else:
                    rel = max(abs(c - r) / r for c, r in zip(report.sindr_closed, ref))
                    if not rel <= SINDR_RTOL:
                        problems.append(f"closed-form SINDR off by {rel:.2e} (tolerance {SINDR_RTOL:g})")
                gate.record(not problems, f"{where}: {'; '.join(problems)}")
    gate.info["worst_sindr_rel_error"] = worst
    gate.info["sindr_error_bound"] = tolerance
    return gate
