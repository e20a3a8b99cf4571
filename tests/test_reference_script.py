"""The benchmark's reference script runs against the library's current API."""

from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_oracle_reference_runs_and_agrees_with_the_committed_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import make_reference

    monkeypatch.setattr(make_reference, "ORACLE_TRIALS", 10_000)
    got = make_reference.oracle_reference()
    ref = make_reference.gate.load_reference()["oracle_fullchain"]
    assert got["trials"] == 10_000 and got["seed"] == ref["seed"]
    assert got["sindr_closed"].keys() == ref["sindr_closed"].keys()
    for b, by_direction in ref["sindr_closed"].items():
        assert got["sindr_closed"][b].keys() == by_direction.keys()
        for direction, sindrs in by_direction.items():
            # 1e4 against 1e6 trials of distortion moments: 0.03-0.33% apart at seed 42
            assert np.allclose(got["sindr_closed"][b][direction], sindrs, rtol=0.01)
