#!/usr/bin/env python3
"""Scenario zoo: the §7/§8 comparison on RTT-calibrated world topologies.

Everything before the zoo evaluated on one hand-built intra-Europe
setup (the paper's §7.3 slice).  The :class:`ScenarioFactory` carves
named multi-region scenarios out of the six-continent catalog —
``americas``, ``apac``, ``emea``, and the full 21-DC ``global`` — with
Internet RTTs calibrated against published Azure inter-region medians,
and returns the same bundle shape the Europe box uses, so the sweep
runner and the plan cache work unchanged.

Run:
    python examples/scenario_zoo.py
"""

import time

from repro.analysis.metrics import normalize_to
from repro.core.titan_next import run_oracle_day
from repro.scenarios import RTT_SOURCE, ScenarioFactory, default_rtt_fit

DAY = 2


def main() -> None:
    fit = default_rtt_fit()
    covered = [e for e in fit.entries if not e.clamped]
    print("RTT calibration against published inter-region medians")
    print(f"  source    : {RTT_SOURCE}")
    print(f"  corridors : {len(covered)} fitted ({len(fit.entries) - len(covered)} clamped)")
    print(f"  residual  : {fit.max_unclamped_residual_ms:.3f} ms (max, fitted corridors)\n")

    sample = sorted(covered, key=lambda e: -e.target_ms)[:5]
    print(f"{'corridor':<28} {'target ms':>10} {'model ms':>10}")
    for entry in sample:
        corridor = f"{entry.country_code} -> {entry.dc_code}"
        print(f"{corridor:<28} {entry.target_ms:>10.1f} {entry.fitted_ms:>10.1f}")

    factory = ScenarioFactory(daily_calls=4_000.0, top_n_configs=50)
    print(f"\n{'scenario':<10} {'ctry':>5} {'dcs':>4} {'links':>6} "
          f"{'wrr':>6} {'lf':>6} {'titan-next':>11} {'build+day':>10}")
    for name in factory.names:
        start = time.perf_counter()
        setup = factory.build(name)
        results = run_oracle_day(setup, day=DAY)
        elapsed = time.perf_counter() - start
        peaks = {policy: r.sum_of_peaks_gbps for policy, r in results.items()}
        normalized = normalize_to(peaks, "wrr")
        print(
            f"{name:<10} {len(setup.scenario.country_codes):>5} "
            f"{len(setup.scenario.dc_codes):>4} {setup.scenario.wan_link_count:>6} "
            f"{normalized['wrr']:>6.3f} {normalized['lf']:>6.3f} "
            f"{normalized['titan-next']:>11.3f} {elapsed:>9.1f}s"
        )

    print(
        "\nEvery scenario returns the same bundle shape as the Europe box:"
        "\npass one to SweepRunner / run_experiment(..., scenario=...) as usual."
    )


if __name__ == "__main__":
    main()
