"""Tests of the benchmark's own machinery: tracer, correctness gate.

    python3 -m pytest bench -q
"""

import itertools
from types import SimpleNamespace

import pytest

import gate
import workloads  # noqa: F401  (puts the library's sources on sys.path)
from quantmimo import airlink, bussgang, mcsim, quant, sweep
from tracer import Tracer


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_times_add_up_to_parent_span():
    tracer = Tracer(clock=_fake_clock())
    leaf = tracer.wrap("t.leaf", lambda n: n)
    mid = tracer.wrap("t.mid", lambda: leaf(1) + leaf(2))
    with tracer.span("t.root"):
        mid()
        leaf(3)
    self_times = tracer.self_times()
    for span in tracer.spans:
        children = [c.duration for c in tracer.spans if c.parent is span]
        assert self_times[span.id] + sum(children) == span.duration
        assert self_times[span.id] > 0
    root = next(s for s in tracer.spans if s.parent is None)
    assert sum(self_times.values()) == root.duration
    summary = tracer.summary()
    assert summary["t.leaf"]["calls"] == 3 and summary["t.mid"]["calls"] == 1


def test_installed_wraps_every_binding_and_restores_it():
    original = quant.quantize
    assert bussgang.quantize is original and mcsim.quantize is original
    tracer = Tracer()
    with tracer.installed():
        assert quant.quantize is not original
        assert bussgang.quantize is quant.quantize and mcsim.quantize is quant.quantize
        assert airlink.complex_gaussian is bussgang.complex_gaussian is mcsim.complex_gaussian
        assert bussgang.assemble_stats is sweep.assemble_stats is mcsim.assemble_stats
    assert quant.quantize is original and bussgang.quantize is original and mcsim.quantize is original


def test_counts_measure_the_work_and_repeat_across_traced_runs():
    config = sweep.config_from_dict({"direction": "dl", "bits": [2], "tau": [8], "trials": 10_000, "seed": 3})
    summaries = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            sweep.run_sweep(config)
        summaries.append(tracer.summary())
    counts = [{layer: {k: v for k, v in s.items() if k not in ("self_s", "total_s")} for layer, s in summary.items()}
              for summary in summaries]
    assert counts[0] == counts[1]
    trace = counts[0]["bussgang.distortion_trace"]
    assert trace["calls"] == 2 and trace["useful"] == 1  # the ul trace is unused at a dl point
    assert counts[0]["sweep.run_point"]["calls"] == counts[0]["bussgang.assemble_stats"]["calls"] == 1
    assert counts[0]["bussgang.ce_distortion_projections"]["samples"] == 10_000 * 8


def _reference_passes(name, perturb=None):
    reference = gate.load_reference()[name]
    records = [SimpleNamespace(**p) for p in reference["points"]]
    if perturb:
        perturb(next(r for r in records if not r.skipped))
    return reference, records


def test_gate_accepts_the_reference_itself():
    reference, records = _reference_passes("sweep_highres")
    result = gate.check_sweep([records, records], [b"csv", b"csv"], reference)
    assert result.failed == 0 and result.attempted == 2 * len(records)


@pytest.mark.parametrize(
    "perturb",
    [
        lambda r: setattr(r, "sum_rate_bps", r.sum_rate_bps * 1.01),
        lambda r: setattr(r, "m", r.m + 1),
    ],
    ids=["sum_rate_x1.01", "m_plus_1"],
)
def test_gate_rejects_a_perturbed_record(perturb):
    reference, exact = _reference_passes("sweep_lowres")
    _, perturbed = _reference_passes("sweep_lowres", perturb)
    result = gate.check_sweep([exact, perturbed], [b"csv", b"csv"], reference)
    assert result.failed >= 1
    assert all(line.startswith("pass 1") for line in result.failures)


def test_gate_rejects_a_non_identical_second_csv():
    reference, records = _reference_passes("sweep_lowres")
    result = gate.check_sweep([records, records], [b"csv\n", b"csv \n"], reference)
    assert result.failed == len(records)
    assert all("CSV differs" in line for line in result.failures)


def test_gate_reports_the_criterion_5_curve():
    reference, records = _reference_passes("sweep_lowres")
    info = gate.check_sweep([records, records], [b"", b""], reference).info["criterion_5_dl_tau8"]
    assert info["expected_b"] == 3 and info["argmax_b"] in (2, 3) and info["margin"] > 0


def _oracle_reports(scale=1.0, passed=True):
    reference = gate.load_reference()["oracle_fullchain"]
    reports = [
        (int(b), {
            d: SimpleNamespace(passed=passed, tolerance=0.05, sindr_rel_error=[0.01] * len(v),
                               sindr_closed=[x * scale for x in v])
            for d, v in pair.items()
        })
        for b, pair in reference["sindr_closed"].items()
    ]
    return reference, reports


def test_oracle_gate_checks_verdict_and_closed_forms():
    reference, reports = _oracle_reports()
    assert gate.check_oracle([reports], reference, 0.05).failed == 0
    _, shifted = _oracle_reports(scale=1.01)
    assert gate.check_oracle([shifted], reference, 0.05).failed == 6
    _, failing = _oracle_reports(passed=False)
    assert gate.check_oracle([failing], reference, 0.05).failed == 6


def _timed_pass(point_times):
    steps = [workloads.Segment(i, t, t / 2, True, 0.0) for i, t in enumerate(point_times)]
    steps.append(workloads.Segment("write_csv", 0.01, 0.01, False, 0.0))
    return workloads.PassResult(sum(s.wall_s for s in steps), sum(s.cpu_s for s in steps), steps,
                                len(point_times), 10 * len(point_times), None)


def test_end_to_end_times_are_scaled_step_medians():
    import run

    passes = [_timed_pass([1.0, 2.0]), _timed_pass([3.0, 2.0]), _timed_pass([2.0, 9.0])]
    values = run.end_to_end_values(0.3, passes, lambda step: 0.5)
    assert values["setup_s"] == 0.3
    assert values["wall_s"] == pytest.approx(0.5 * (2.0 + 2.0 + 0.01))
    assert values["cpu_s"] == pytest.approx(0.5 * (1.0 + 1.0 + 0.01))
    assert values["points_per_s"] == pytest.approx(2 / values["wall_s"])
    assert values["trials_per_s"] == pytest.approx(20 / values["wall_s"])
    assert values["point_p50_s"] == values["point_p90_s"] == pytest.approx(1.0)


def test_speed_probe_scales_by_the_kernel_timings_around_a_step():
    import speedref

    probe = speedref.SpeedProbe()
    probe.times = [0.0, 10.0, 11.0, 30.0]
    probe.samples = [1.0, 2.0, 4.0, 8.0]
    nominal = speedref.KERNEL_NOMINAL_S
    assert speedref.PROBE_WINDOW_S < 5.0
    assert probe.scale(10.2, 10.8) == pytest.approx(nominal / 3.0)  # median of 2.0 and 4.0
    assert probe.scale(20.0, 21.0) == pytest.approx(nominal / 4.0)  # none in the window: the nearest
    assert probe.scale(10.0, 20.0) == pytest.approx(nominal / 3.0)  # a 10 s step: within 10 s of it
    assert probe.scale() == pytest.approx(nominal / 3.0)  # the whole run
