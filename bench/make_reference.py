"""Regenerate bench/reference.json, the correctness gate's reference values.

    python3 bench/make_reference.py

Sweep points are taken at the library's default depth (1e5 trials) and
default seed; the oracle's closed-form SINDRs come from distortion moments
at 1e6 trials.  Both are far more precise than one benchmark pass, so the
gate's tolerances only have to absorb the sampling error of the pass.
Rerun only when a change is meant to move the reference numbers.
"""

from __future__ import annotations

import json

import gate
import workloads
from quantmimo import bussgang, mcsim, rates, sweep

SWEEP_TRIALS = 100_000
SWEEP_SEED = 12345
ORACLE_TRIALS = 1_000_000
ORACLE_SEED = 42


def sweep_reference(name):
    grid = workloads.SWEEP_GRIDS[name]
    config = sweep.config_from_dict(
        {**grid, "k_users": workloads.SWEEP_K_USERS, "trials": SWEEP_TRIALS, "seed": SWEEP_SEED}
    )
    points = [gate.as_point(r) for r in sweep.run_sweep(config)]
    return {"trials": SWEEP_TRIALS, "seed": SWEEP_SEED, "points": points}


def oracle_reference():
    sindr = {}
    for b, config in ((b, bussgang.SystemConfig(bits=b, **workloads.ORACLE_SCENARIO)) for b in workloads.ORACLE_TRIALS):
        stats = bussgang.assemble_stats(config, *mcsim.default_specs(config), trials=ORACLE_TRIALS, seed=ORACLE_SEED)
        m, k, tau = config.m_ul, config.k_users, config.tau
        ul = rates.SindrInputsUL(m, k, tau, config.rho_bs, stats)
        dl = rates.SindrInputsDL(m, k, tau, config.rho_bs, config.rho_ue, stats)
        sindr[str(b)] = {
            "ul": [rates.sindr_ul_mrc(ul, ue=kk) for kk in range(k)],
            "dl": [rates.sindr_dl_mrt(dl, ue=kk) for kk in range(k)],
        }
    return {"trials": ORACLE_TRIALS, "seed": ORACLE_SEED, "sindr_closed": sindr}


def main():
    reference = {name: sweep_reference(name) for name in workloads.SWEEP_GRIDS}
    reference["oracle_fullchain"] = oracle_reference()
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {gate.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
