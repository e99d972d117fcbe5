"""repro — reproduction of "Saving Private WAN" (CoNEXT 2024).

The package implements, from scratch:

* the WAN-vs-Internet measurement substrate of §3 (:mod:`repro.geo`,
  :mod:`repro.net`, :mod:`repro.measurement`);
* **Titan** (§4): the quality-gated production offload controller
  (:mod:`repro.core.titan` and friends);
* **Titan-Next** (§5–§8): joint MP-DC + routing assignment via demand
  forecasting and an LP over reduced call configs
  (:mod:`repro.core`);
* the synthetic substrates that stand in for production data:
  call workloads (:mod:`repro.workload`), MOS telemetry
  (:mod:`repro.telemetry`), and an LP solver (:mod:`repro.solver`);
* the evaluation harnesses regenerating every table and figure
  (:mod:`repro.experiments`, driven from ``benchmarks/``).

Quickstart::

    from repro.core import build_europe_setup, run_oracle_day

    setup = build_europe_setup(daily_calls=20_000)
    results = run_oracle_day(setup, day=2)
    for name, result in results.items():
        print(name, result.sum_of_peaks_gbps)
"""

from . import analysis, core, geo, measurement, net, solver, telemetry, workload

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "geo",
    "measurement",
    "net",
    "solver",
    "telemetry",
    "workload",
    "__version__",
]
